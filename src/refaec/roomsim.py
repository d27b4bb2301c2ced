"""Scene synthesis: mirror-image room impulse responses, dual-microphone
geometry with an auxiliary reference microphone on a small shell around the
loudspeaker, and echo/near-end composition at a controlled signal-to-echo
ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .dsp import SAMPLE_RATE, TimeSignal, pairwise_dot
from .nonlinear import NonlinearityKind, apply_nonlinearity

WALL_MARGIN = 0.1
REF_SHELL_RADII = (0.05, 0.2)
MIN_SOURCE_MIC_DIST = 0.05
SPEED_OF_SOUND = 343.0  # m/s
SPLIT_MS = 50.0  # direct/early part of a talker response, after its onset
DECAY_FIT_DB = (5.0, 25.0)  # Schroeder-curve span fitted for the decay time
DEFAULT_DURATION = 6.0

LENGTH_RANGE = (4.0, 8.0)
WIDTH_RANGE = (3.0, 7.0)
HEIGHT_RANGE = (3.0, 5.0)
T60_RANGE = (0.1, 0.8)
SER_GRID_DB = np.arange(-10, 11)


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with a target decay time."""

    length: float
    width: float
    height: float
    t60: float

    def __post_init__(self):
        names = ("length", "width", "height", "t60")
        for name, bounds in zip(names, (LENGTH_RANGE, WIDTH_RANGE, HEIGHT_RANGE, T60_RANGE)):
            value = getattr(self, name)
            if not bounds[0] <= value <= bounds[1]:
                raise ValueError(f"{name} {value} outside {bounds}")

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
        sabine_const = 24.0 * np.log(10.0) / SPEED_OF_SOUND
        absorption = 1.0 - np.exp(-sabine_const * volume / (surface * self.t60))
        return float(np.sqrt(1.0 - absorption))

    def rir_samples(self) -> int:
        """Impulse-response length, 1.2 * t60 worth of samples."""
        return int(np.ceil(1.2 * self.t60 * SAMPLE_RATE))


@dataclass(frozen=True)
class SceneGeometry:
    """Positions (meters) of the two sources and two microphones."""

    loudspeaker: tuple[float, float, float]
    talker: tuple[float, float, float]
    main_mic: tuple[float, float, float]
    ref_mic: tuple[float, float, float]


def _point(label: str, p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (3,):
        raise GeometryError(f"{label}: expected a 3-D point, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError(f"{label} at {arr} is not finite")
    return arr


def _require_apart(points: dict[str, np.ndarray], src: str, mic: str) -> None:
    apart = float(np.linalg.norm(points[src] - points[mic]))
    if apart < MIN_SOURCE_MIC_DIST:
        raise GeometryError(f"{src} and {mic} are {apart:.4f} m apart (< {MIN_SOURCE_MIC_DIST} m)")


def validate_geometry(room: RoomSpec, geom: SceneGeometry) -> None:
    """The placement rule of a scene: finite points inside the wall margin,
    the reference mic on its shell around the loudspeaker, and every
    source-microphone pair at least MIN_SOURCE_MIC_DIST apart."""
    points = {
        label: _point(label, getattr(geom, label))
        for label in ("loudspeaker", "talker", "main_mic", "ref_mic")
    }
    for label, p in points.items():
        if np.any(p < WALL_MARGIN) or np.any(p > room.dims - WALL_MARGIN):
            raise GeometryError(f"{label} at {p} violates the {WALL_MARGIN} m wall margin")
    shell = np.linalg.norm(points["ref_mic"] - points["loudspeaker"])
    if not REF_SHELL_RADII[0] <= shell <= REF_SHELL_RADII[1]:
        raise GeometryError(
            f"ref_mic is {shell:.3f} m from the loudspeaker, outside {REF_SHELL_RADII}"
        )
    for src in ("talker", "loudspeaker"):
        for mic in ("main_mic", "ref_mic"):
            _require_apart(points, src, mic)


def _image_lattice(
    room: RoomSpec, src, mic
) -> tuple[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The mirror images that arrive within the response, independent of the
    wall reflectivity.

    Returns the response length and, per source parity, each image's arrival
    sample, reflection count and 4*pi*d spreading, in accumulation order.
    """
    src, mic = np.asarray(src, dtype=np.float64), np.asarray(mic, dtype=np.float64)
    dims = room.dims
    direct = float(np.linalg.norm(src - mic))
    c = SPEED_OF_SOUND
    n_samples = max(room.rir_samples(), int(round(direct / c * SAMPLE_RATE)) + 1)
    reach = n_samples / SAMPLE_RATE * c

    images = []
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
                orders = [
                    (np.abs(grids[d] - p[d]) + np.abs(grids[d])).astype(np.int16)
                    for d in range(3)
                ]
                order = (
                    orders[0][:, None, None]
                    + orders[1][None, :, None]
                    + orders[2][None, None, :]
                )
                dist = (
                    ((coords[0] - mic[0]) ** 2)[:, None, None]
                    + ((coords[1] - mic[1]) ** 2)[None, :, None]
                    + ((coords[2] - mic[2]) ** 2)[None, None, :]
                )
                dist = np.sqrt(dist, out=dist)
                keep = dist < reach
                dist_k = dist[keep]
                del dist
                # int32 delays and int16 counts keep the lattice compact
                idx = np.round(dist_k / c * SAMPLE_RATE).astype(np.int32)
                valid = idx < n_samples
                if valid.any():
                    images.append(
                        (idx[valid], order[keep][valid], 4.0 * np.pi * dist_k[valid])
                    )
    return n_samples, images


def _lattice_rir(n_samples: int, images, beta: float) -> np.ndarray:
    """Mirror-image accumulation at a given uniform wall reflectivity."""
    h = np.zeros(n_samples)
    for idx, order, spread in images:
        gain = beta ** np.arange(order.max() + 1)
        h += np.bincount(idx, weights=gain[order] / spread, minlength=n_samples)
    return h


def schroeder_decay_db(rir: np.ndarray) -> np.ndarray:
    """Backward-integrated energy decay curve in dB, normalized to 0 at the start."""
    energy = np.asarray(rir, dtype=np.float64) ** 2
    total = energy.sum()
    if total <= 0.0:
        raise ValueError("impulse response carries no energy")
    edc = np.cumsum(energy[::-1])[::-1] / total
    return 10.0 * np.log10(np.maximum(edc, 1e-300))


def measured_decay_time(rir: np.ndarray) -> float:
    """Decay time to -60 dB from a line fit over the DECAY_FIT_DB drop span of
    the Schroeder curve. Returns NaN when the span is too short to fit."""
    db = schroeder_decay_db(rir)
    i_lo, i_hi = (int(np.searchsorted(-db, drop)) for drop in DECAY_FIT_DB)
    if i_hi - i_lo < 8:
        return float("nan")
    t = np.arange(len(rir)) / SAMPLE_RATE
    slope, _ = np.polyfit(t[i_lo:i_hi], db[i_lo:i_hi], 1)
    if slope >= 0:
        return float("nan")
    return float(-60.0 / slope)


def _calibration_path(room: RoomSpec) -> tuple[np.ndarray, np.ndarray]:
    src = room.dims * np.array([0.31, 0.38, 0.45])
    mic = room.dims * np.array([0.67, 0.62, 0.55])
    return src, mic


def calibrated_reflectivity(room: RoomSpec) -> float:
    """Uniform wall reflectivity whose simulated Schroeder decay hits the
    room's target t60.

    The closed-form (Eyring) value under-absorbs in this model because late
    axial image chains decay slower than the diffuse-field average, so the
    seed is refined by measuring trial responses on a fixed interior path and
    rescaling the log-reflectivity until the measured decay matches.
    """
    # the trials differ only in beta, so the image lattice is built once
    n_samples, images = _image_lattice(room, *_calibration_path(room))
    beta = room.eyring_reflectivity()
    for _ in range(4):
        trial = _lattice_rir(n_samples, images, beta)
        measured = measured_decay_time(trial)
        if not np.isfinite(measured):
            break
        ratio = measured / room.t60
        if abs(ratio - 1.0) < 0.03:
            break
        beta = float(np.exp(np.log(max(beta, 1e-6)) * ratio))
        beta = min(max(beta, 0.0), 0.999)
    return beta


def image_method_rir(room: RoomSpec, src, mic) -> np.ndarray:
    """Mirror-image impulse response between two points strictly inside the
    room and at least MIN_SOURCE_MIC_DIST apart, checked before any work.

    Images accumulate at integer sample delays with 1/(4*pi*d) spreading and
    uniform, decay-calibrated wall reflectivity.
    """
    points = {"source": _point("source", src), "microphone": _point("microphone", mic)}
    for label, p in points.items():
        if np.any(p <= 0) or np.any(p >= room.dims):
            raise GeometryError(f"{label} at {p} is not strictly inside the room")
    _require_apart(points, "source", "microphone")
    beta = calibrated_reflectivity(room)
    return _lattice_rir(*_image_lattice(room, *points.values()), beta)


def _scene_rirs(room: RoomSpec, geom: SceneGeometry) -> tuple[np.ndarray, ...]:
    """The four responses of a validated geometry, talker and loudspeaker to
    the main mic, then to the reference mic, each equal to its
    image_method_rir. The room is calibrated once for all four."""
    beta = calibrated_reflectivity(room)
    return tuple(
        _lattice_rir(*_image_lattice(room, src, mic), beta)
        for mic in (geom.main_mic, geom.ref_mic)
        for src in (geom.talker, geom.loudspeaker)
    )


def _convolve(samples: np.ndarray, rir: np.ndarray, n: int) -> np.ndarray:
    """The first n samples of samples convolved with rir. A silent input
    skips the FFTs and gives +0.0 throughout, equal in value to the FFT result
    (which can hold an isolated -0.0 for some filters and lengths)."""
    if not samples.any():
        return np.zeros(n)
    return fftconvolve(samples, rir)[:n]


def split_direct(v: TimeSignal, rir: np.ndarray) -> tuple[TimeSignal, TimeSignal]:
    """Split v convolved with rir into a direct/early part and a late part.

    The impulse response is partitioned SPLIT_MS after the first nonzero tap;
    the two convolutions add back to the full one exactly.
    """
    rir = np.asarray(rir, dtype=np.float64)
    nonzero = np.flatnonzero(rir)
    if nonzero.size == 0:
        return TimeSignal(np.zeros(len(v))), TimeSignal(np.zeros(len(v)))
    onset = nonzero[0]
    cut = min(len(rir), onset + int(round(SPLIT_MS * SAMPLE_RATE / 1000.0)) + 1)
    early = rir.copy()
    early[cut:] = 0.0
    late = rir - early
    s_direct = _convolve(v.samples, early, len(v))
    s_late = _convolve(v.samples, late, len(v))
    return TimeSignal(s_direct), TimeSignal(s_late)


def _ser_gain(es: float, ed: float, ser_db: float) -> float:
    """Echo gain g with es / (g^2 * ed) equal to ser_db in dB."""
    return float(np.sqrt(es / (ed * 10.0 ** (ser_db / 10.0))))


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
        return TimeSignal(x[:n])
    return TimeSignal(np.concatenate([x, np.zeros(n - len(x))]))


def synthesize_scene(
    room: RoomSpec,
    geom: SceneGeometry,
    v: TimeSignal,
    x: TimeSignal,
    kind: NonlinearityKind,
    ser_db: float | None,
    seed: int | None = None,
    duration: float = DEFAULT_DURATION,
) -> Scene:
    """Realize the four propagation paths and compose both microphone signals.

    The echo gain that realizes ser_db on the main mic is applied to the
    loudspeaker contribution at both mics, preserving their physical coupling.
    Single-talk inputs (either source silent) skip the mixing and keep unit
    gain, with ser_db recorded as None. seed is only recorded on the Scene:
    the synthesis draws no random numbers. The geometry, a finite ser_db and a
    duration of at least one sample are checked before any acoustic work.
    """
    validate_geometry(room, geom)
    if ser_db is not None and not np.isfinite(ser_db):
        raise ValueError(f"ser_db must be finite, got {ser_db}")
    n = int(round(duration * SAMPLE_RATE)) if np.isfinite(duration) else 0
    if n < 1:
        raise ValueError(
            f"duration {duration} s must give at least one sample at {SAMPLE_RATE} Hz"
        )
    v = _fit_length(v, n)
    x = _fit_length(x, n)

    h1, h2, h3, h4 = _scene_rirs(room, geom)

    x_nl = apply_nonlinearity(x, kind)
    s_direct, s_reverb = split_direct(v, h1)
    s = TimeSignal(s_direct.samples + s_reverb.samples)
    d_raw = _convolve(x_nl.samples, h2, n)
    r_far_raw = _convolve(x_nl.samples, h4, n)
    r_near = TimeSignal(_convolve(v.samples, h3, n))

    gain, recorded_ser = 1.0, None
    if ser_db is not None:
        es, ed = s.energy(), pairwise_dot(d_raw, d_raw)
        if es > 0.0 and ed > 0.0:
            gain, recorded_ser = _ser_gain(es, ed, ser_db), float(ser_db)

    d = TimeSignal(gain * d_raw)
    r_far = TimeSignal(gain * r_far_raw)
    y = TimeSignal(s.samples + d.samples)
    r = TimeSignal(r_near.samples + r_far.samples)

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
    loudspeaker. Resamples until validate_geometry accepts the draw."""
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
        return geom
    raise GeometryError("could not sample a valid geometry in 1000 tries")
