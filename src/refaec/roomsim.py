"""Scene synthesis: mirror-image room impulse responses, dual-microphone
geometry with an auxiliary reference microphone on a small shell around the
loudspeaker, and echo/near-end composition at a controlled signal-to-echo
ratio."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import fftconvolve

from .dsp import DEFAULT_SAMPLE_RATE, TimeSignal
from .nonlinear import NonlinearityKind, apply_nonlinearity

WALL_MARGIN = 0.1
REF_SHELL_RADII = (0.05, 0.2)
MIN_SOURCE_MIC_DIST = 0.01
DEFAULT_SPLIT_MS = 50.0
DEFAULT_DURATION = 6.0

LENGTH_RANGE = (4.0, 8.0)
WIDTH_RANGE = (3.0, 7.0)
HEIGHT_RANGE = (3.0, 5.0)
T60_RANGE = (0.1, 0.8)
SER_GRID_DB = np.arange(-10, 11)


class GeometryError(ValueError):
    pass


class MixingError(ValueError):
    pass


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with a target decay time.

    max_order caps the total reflection count per image (None lets the
    impulse-response length decide).
    """

    length: float
    width: float
    height: float
    t60: float
    speed_of_sound: float = 343.0
    max_order: int | None = None

    def __post_init__(self):
        if not LENGTH_RANGE[0] <= self.length <= LENGTH_RANGE[1]:
            raise ValueError(f"length {self.length} outside {LENGTH_RANGE}")
        if not WIDTH_RANGE[0] <= self.width <= WIDTH_RANGE[1]:
            raise ValueError(f"width {self.width} outside {WIDTH_RANGE}")
        if not HEIGHT_RANGE[0] <= self.height <= HEIGHT_RANGE[1]:
            raise ValueError(f"height {self.height} outside {HEIGHT_RANGE}")
        if self.t60 <= 0:
            raise ValueError("t60 must be > 0")
        if self.speed_of_sound <= 0:
            raise ValueError("speed_of_sound must be > 0")

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.length, self.width, self.height])

    def eyring_reflectivity(self) -> float:
        """Closed-form uniform wall amplitude reflectivity for the target
        decay time, from Eyring absorption over the six surfaces. Used to
        seed the numeric calibration."""
        l, w, h = self.length, self.width, self.height
        volume = l * w * h
        surface = 2.0 * (l * w + l * h + w * h)
        sabine_const = 24.0 * np.log(10.0) / self.speed_of_sound
        absorption = 1.0 - np.exp(-sabine_const * volume / (surface * self.t60))
        return float(np.sqrt(1.0 - absorption))

    def rir_samples(self, sample_rate: int) -> int:
        """Impulse-response length, 1.2 * t60 worth of samples."""
        return int(np.ceil(1.2 * self.t60 * sample_rate))


@dataclass(frozen=True)
class SceneGeometry:
    """Positions (meters) of the two sources and two microphones."""

    loudspeaker: tuple[float, float, float]
    talker: tuple[float, float, float]
    main_mic: tuple[float, float, float]
    ref_mic: tuple[float, float, float]


def _point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (3,):
        raise GeometryError(f"expected a 3-D point, got shape {arr.shape}")
    return arr


def _check_in_room(room: RoomSpec, p: np.ndarray, label: str, margin: float = WALL_MARGIN):
    if np.any(p < margin) or np.any(p > room.dims - margin):
        raise GeometryError(f"{label} at {p} violates the {margin} m wall margin")


def validate_geometry(room: RoomSpec, geom: SceneGeometry) -> None:
    points = {
        "loudspeaker": _point(geom.loudspeaker),
        "talker": _point(geom.talker),
        "main_mic": _point(geom.main_mic),
        "ref_mic": _point(geom.ref_mic),
    }
    for label, p in points.items():
        _check_in_room(room, p, label)
    shell = np.linalg.norm(points["ref_mic"] - points["loudspeaker"])
    if not REF_SHELL_RADII[0] <= shell <= REF_SHELL_RADII[1]:
        raise GeometryError(
            f"ref_mic is {shell:.3f} m from the loudspeaker, outside {REF_SHELL_RADII}"
        )


def _image_source_rir(
    room: RoomSpec,
    src: np.ndarray,
    mic: np.ndarray,
    sample_rate: int,
    beta: float,
    seed: int | None,
    jitter: float,
) -> np.ndarray:
    """Mirror-image accumulation at a given uniform wall reflectivity."""
    dims = room.dims
    direct = float(np.linalg.norm(src - mic))
    c = room.speed_of_sound
    n_samples = max(room.rir_samples(sample_rate), int(round(direct / c * sample_rate)) + 1)
    reach = n_samples / sample_rate * c
    rng = np.random.default_rng(seed) if jitter > 0 else None

    h = np.zeros(n_samples)
    max_n = np.ceil(reach / (2.0 * dims)).astype(int)
    grids = [np.arange(-m, m + 1) for m in max_n]
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                p = np.array([px, py, pz])
                # per-axis image coordinates and reflection counts
                coords = [
                    (1 - 2 * p[d]) * src[d] + 2.0 * grids[d] * dims[d] for d in range(3)
                ]
                orders = [np.abs(grids[d] - p[d]) + np.abs(grids[d]) for d in range(3)]
                order = (
                    orders[0][:, None, None]
                    + orders[1][None, :, None]
                    + orders[2][None, None, :]
                )
                if jitter > 0:
                    shape = order.shape
                    disp = rng.uniform(-jitter, jitter, size=(3,) + shape)
                    reflected = order > 0
                    dx = coords[0][:, None, None] + np.where(reflected, disp[0], 0.0) - mic[0]
                    dy = coords[1][None, :, None] + np.where(reflected, disp[1], 0.0) - mic[1]
                    dz = coords[2][None, None, :] + np.where(reflected, disp[2], 0.0) - mic[2]
                    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
                else:
                    dist = np.sqrt(
                        ((coords[0] - mic[0]) ** 2)[:, None, None]
                        + ((coords[1] - mic[1]) ** 2)[None, :, None]
                        + ((coords[2] - mic[2]) ** 2)[None, None, :]
                    )
                keep = dist < reach
                if room.max_order is not None:
                    keep &= order <= room.max_order
                if not keep.any():
                    continue
                dist_k = dist[keep]
                amp = beta ** order[keep] / (4.0 * np.pi * dist_k)
                idx = np.round(dist_k / c * sample_rate).astype(np.int64)
                valid = idx < n_samples
                h += np.bincount(idx[valid], weights=amp[valid], minlength=n_samples)
    return h


def schroeder_decay_db(rir: np.ndarray) -> np.ndarray:
    """Backward-integrated energy decay curve in dB, normalized to 0 at the start."""
    energy = np.asarray(rir, dtype=np.float64) ** 2
    total = energy.sum()
    if total <= 0.0:
        raise ValueError("impulse response carries no energy")
    edc = np.cumsum(energy[::-1])[::-1] / total
    return 10.0 * np.log10(np.maximum(edc, 1e-300))


def measured_decay_time(
    rir: np.ndarray, sample_rate: int, drop_lo: float = 5.0, drop_hi: float = 25.0
) -> float:
    """Decay time to -60 dB from a line fit over the [-drop_lo, -drop_hi] dB
    span of the Schroeder curve. Returns NaN when the span is too short to fit."""
    db = schroeder_decay_db(rir)
    i_lo = int(np.searchsorted(-db, drop_lo))
    i_hi = int(np.searchsorted(-db, drop_hi))
    if i_hi - i_lo < 8:
        return float("nan")
    t = np.arange(len(rir)) / sample_rate
    slope, _ = np.polyfit(t[i_lo:i_hi], db[i_lo:i_hi], 1)
    if slope >= 0:
        return float("nan")
    return float(-60.0 / slope)


def _calibration_path(room: RoomSpec) -> tuple[np.ndarray, np.ndarray]:
    src = room.dims * np.array([0.31, 0.38, 0.45])
    mic = room.dims * np.array([0.67, 0.62, 0.55])
    return src, mic


def calibrated_reflectivity(room: RoomSpec, sample_rate: int = DEFAULT_SAMPLE_RATE) -> float:
    """Uniform wall reflectivity whose simulated Schroeder decay hits the
    room's target t60.

    The closed-form (Eyring) value under-absorbs in this model because late
    axial image chains decay slower than the diffuse-field average, so the
    seed is refined by measuring trial responses on a fixed interior path and
    rescaling the log-reflectivity until the measured decay matches.
    """
    return _calibrated_reflectivity_cached(room, sample_rate)


def _calibrated_reflectivity_uncached(room: RoomSpec, sample_rate: int) -> float:
    src, mic = _calibration_path(room)
    beta = room.eyring_reflectivity()
    for _ in range(4):
        trial = _image_source_rir(room, src, mic, sample_rate, beta, None, 0.0)
        measured = measured_decay_time(trial, sample_rate)
        if not np.isfinite(measured):
            break
        ratio = measured / room.t60
        if abs(ratio - 1.0) < 0.03:
            break
        beta = float(np.exp(np.log(max(beta, 1e-6)) * ratio))
        beta = min(max(beta, 0.0), 0.999)
    return beta


_calibrated_reflectivity_cached = lru_cache(maxsize=256)(_calibrated_reflectivity_uncached)


def image_method_rir(
    room: RoomSpec,
    src,
    mic,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    seed: int | None = None,
    jitter: float = 0.0,
) -> np.ndarray:
    """Mirror-image impulse response between two points in the room.

    Images accumulate at integer sample delays with 1/(4*pi*d) spreading and
    uniform, decay-calibrated wall reflectivity. jitter > 0 displaces every
    reflected image uniformly within +-jitter meters (the direct path stays
    exact), which decorrelates the perfectly regular image lattice; the
    displacement is driven by seed.
    """
    src = _point(src)
    mic = _point(mic)
    dims = room.dims
    if np.any(src <= 0) or np.any(src >= dims) or np.any(mic <= 0) or np.any(mic >= dims):
        raise GeometryError("source and microphone must lie strictly inside the room")
    direct = float(np.linalg.norm(src - mic))
    if direct < MIN_SOURCE_MIC_DIST:
        raise GeometryError(f"source and microphone are {direct:.4f} m apart (< 1 cm)")
    beta = calibrated_reflectivity(room, sample_rate)
    return _image_source_rir(room, src, mic, sample_rate, beta, seed, jitter)


def split_direct(
    v: TimeSignal, rir: np.ndarray, split_ms: float = DEFAULT_SPLIT_MS
) -> tuple[TimeSignal, TimeSignal]:
    """Split v convolved with rir into a direct/early part and a late part.

    The impulse response is partitioned split_ms after the first nonzero tap;
    the two convolutions add back to the full one exactly.
    """
    if split_ms < 0:
        raise ValueError("split_ms must be >= 0")
    rir = np.asarray(rir, dtype=np.float64)
    nonzero = np.flatnonzero(rir)
    if nonzero.size == 0:
        zero = TimeSignal(np.zeros(len(v)), v.sample_rate)
        return zero, TimeSignal(np.zeros(len(v)), v.sample_rate)
    onset = nonzero[0]
    cut = min(len(rir), onset + int(round(split_ms * v.sample_rate / 1000.0)) + 1)
    early = rir.copy()
    early[cut:] = 0.0
    late = rir - early
    s_direct = fftconvolve(v.samples, early)[: len(v)]
    s_late = fftconvolve(v.samples, late)[: len(v)]
    return TimeSignal(s_direct, v.sample_rate), TimeSignal(s_late, v.sample_rate)


def mix_at_ser(s: TimeSignal, d: TimeSignal, ser_db: float) -> tuple[TimeSignal, float]:
    """Scale the echo so that 10*log10(||s||^2 / ||g*d||^2) equals ser_db.

    Returns the mixture s + g*d and the gain g applied to the echo.
    """
    if len(s) != len(d):
        raise MixingError("signals must share a length")
    es, ed = s.energy(), d.energy()
    if es == 0.0 or ed == 0.0:
        raise MixingError("mixing needs nonzero energy in both signals")
    gain = float(np.sqrt(es / (ed * 10.0 ** (ser_db / 10.0))))
    return TimeSignal(s.samples + gain * d.samples, s.sample_rate), gain


@dataclass(eq=False)
class Scene:
    """One realized dual-microphone scene: waveforms, impulse responses, and
    the sampling metadata that reproduces them."""

    x: TimeSignal  # far-end signal driving the loudspeaker
    x_nl: TimeSignal  # loudspeaker output after distortion
    v: TimeSignal  # anechoic near-end source
    s: TimeSignal  # near-end at the main mic
    s_direct: TimeSignal
    s_reverb: TimeSignal
    d: TimeSignal  # echo at the main mic, mixing gain applied
    y: TimeSignal  # main-mic mixture
    r: TimeSignal  # reference-mic mixture
    r_far: TimeSignal  # far-end part of r, same gain as d
    r_near: TimeSignal
    rir_talker_main: np.ndarray
    rir_speaker_main: np.ndarray
    rir_talker_ref: np.ndarray
    rir_speaker_ref: np.ndarray
    room: RoomSpec
    geometry: SceneGeometry
    nonlinearity: NonlinearityKind
    ser_db: float | None
    echo_gain: float
    seed: int | None


def _fit_length(sig: TimeSignal, n: int) -> TimeSignal:
    x = sig.samples
    if len(x) >= n:
        return TimeSignal(x[:n], sig.sample_rate)
    return TimeSignal(np.concatenate([x, np.zeros(n - len(x))]), sig.sample_rate)


def synthesize_scene(
    room: RoomSpec,
    geom: SceneGeometry,
    v: TimeSignal,
    x: TimeSignal,
    kind: NonlinearityKind,
    ser_db: float | None,
    seed: int | None = None,
    split_ms: float = DEFAULT_SPLIT_MS,
    duration: float = DEFAULT_DURATION,
) -> Scene:
    """Realize the four propagation paths and compose both microphone signals.

    The echo gain that realizes ser_db on the main mic is applied to the
    loudspeaker contribution at both mics, preserving their physical coupling.
    Single-talk inputs (either source silent) skip the mixing and keep unit
    gain, with ser_db recorded as None.
    """
    if v.sample_rate != x.sample_rate:
        raise ValueError("near-end and far-end sample rates differ")
    validate_geometry(room, geom)
    fs = x.sample_rate
    n = int(round(duration * fs))
    v = _fit_length(v, n)
    x = _fit_length(x, n)

    h1 = image_method_rir(room, geom.talker, geom.main_mic, fs, seed)
    h2 = image_method_rir(room, geom.loudspeaker, geom.main_mic, fs, seed)
    h3 = image_method_rir(room, geom.talker, geom.ref_mic, fs, seed)
    h4 = image_method_rir(room, geom.loudspeaker, geom.ref_mic, fs, seed)

    x_nl = apply_nonlinearity(x, kind)
    s_direct, s_reverb = split_direct(v, h1, split_ms)
    s = TimeSignal(s_direct.samples + s_reverb.samples, fs)
    d_raw = fftconvolve(x_nl.samples, h2)[:n]
    r_far_raw = fftconvolve(x_nl.samples, h4)[:n]
    r_near = TimeSignal(fftconvolve(v.samples, h3)[:n], fs)

    if s.energy() > 0.0 and float(np.dot(d_raw, d_raw)) > 0.0 and ser_db is not None:
        _, gain = mix_at_ser(s, TimeSignal(d_raw, fs), ser_db)
        recorded_ser: float | None = float(ser_db)
    else:
        gain = 1.0
        recorded_ser = None

    d = TimeSignal(gain * d_raw, fs)
    r_far = TimeSignal(gain * r_far_raw, fs)
    y = TimeSignal(s.samples + d.samples, fs)
    r = TimeSignal(r_near.samples + r_far.samples, fs)

    return Scene(
        x=x,
        x_nl=x_nl,
        v=v,
        s=s,
        s_direct=s_direct,
        s_reverb=s_reverb,
        d=d,
        y=y,
        r=r,
        r_far=r_far,
        r_near=r_near,
        rir_talker_main=h1,
        rir_speaker_main=h2,
        rir_talker_ref=h3,
        rir_speaker_ref=h4,
        room=room,
        geometry=geom,
        nonlinearity=kind,
        ser_db=recorded_ser,
        echo_gain=gain,
        seed=seed,
    )


def sample_room(rng: np.random.Generator, t60_range: tuple[float, float] = T60_RANGE) -> RoomSpec:
    """Room dimensions uniform over the supported ranges, decay time uniform
    over t60_range."""
    return RoomSpec(
        length=float(rng.uniform(*LENGTH_RANGE)),
        width=float(rng.uniform(*WIDTH_RANGE)),
        height=float(rng.uniform(*HEIGHT_RANGE)),
        t60=float(rng.uniform(*t60_range)),
    )


def _uniform_point(rng, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo + rng.uniform(size=3) * (hi - lo)


def sample_geometry(room: RoomSpec, rng: np.random.Generator) -> SceneGeometry:
    """Random positions: sources anywhere inside the walls, the main mic in
    the central cavity, the reference mic on a hollow shell around the
    loudspeaker. Resamples until every source/mic pair is separated."""
    dims = room.dims
    lo = np.full(3, WALL_MARGIN)
    hi = dims - WALL_MARGIN
    # the loudspeaker keeps extra wall clearance so the reference shell fits
    spk_lo = np.full(3, WALL_MARGIN + REF_SHELL_RADII[1])
    spk_hi = dims - (WALL_MARGIN + REF_SHELL_RADII[1])

    mic_lo = np.array([room.length / 10.0, room.width / 10.0, 1.0])
    mic_hi = np.array(
        [
            room.length - room.length / 10.0,
            room.width - room.width / 10.0,
            min(room.height - 1.0, 3.0),
        ]
    )
    mic_lo = np.maximum(mic_lo, lo)
    mic_hi = np.minimum(mic_hi, hi)

    for _ in range(1000):
        speaker = _uniform_point(rng, spk_lo, spk_hi)
        talker = _uniform_point(rng, lo, hi)
        main_mic = _uniform_point(rng, mic_lo, mic_hi)

        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r1, r2 = REF_SHELL_RADII
        radius = (rng.uniform() * (r2**3 - r1**3) + r1**3) ** (1.0 / 3.0)
        ref_mic = speaker + radius * direction

        geom = SceneGeometry(tuple(speaker), tuple(talker), tuple(main_mic), tuple(ref_mic))
        try:
            validate_geometry(room, geom)
        except GeometryError:
            continue
        pairs = [
            (speaker, main_mic),
            (speaker, ref_mic),
            (talker, main_mic),
            (talker, ref_mic),
        ]
        if all(np.linalg.norm(a - b) >= 0.05 for a, b in pairs):
            return geom
    raise GeometryError("could not sample a valid geometry in 1000 tries")
