"""refaec: dual-microphone acoustic echo cancellation toolkit.

Frame-online STFT-domain linear echo cancellation with an auxiliary reference
microphone, reference-signal purification via compressed ratio masks,
loudspeaker distortion models, an image-method scene simulator, and
evaluation metrics.
"""

from .dsp import (
    Spectrogram,
    StftConfig,
    TimeSignal,
    stft_forward,
    stft_inverse,
)
from .masking import MaskConfig, apply_mask, compute_mask
from .metrics import (
    MetricReport,
    erle,
    ri_mag_loss,
    s_sisnr,
    sdr,
)
from .nonlinear import (
    NonlinearityKind,
    apply_nonlinearity,
    exponential,
    hard_clip,
    polynomial,
    sample_kind,
    saturating,
    sigmoid_stage,
    soft_clip,
)
from .pipeline import (
    FeatureBundle,
    RunConfig,
    export_features,
    read_features,
    run_linear_stage,
    synth_dataset,
)
from .roomsim import (
    RoomSpec,
    Scene,
    SceneGeometry,
    image_method_rir,
    sample_geometry,
    sample_room,
    split_direct,
    synthesize_scene,
)
from .wiener import FilterBank, WienerConfig, wstws_cancel

__version__ = "0.1.0"

__all__ = [
    "FeatureBundle",
    "FilterBank",
    "MaskConfig",
    "MetricReport",
    "NonlinearityKind",
    "RoomSpec",
    "RunConfig",
    "Scene",
    "SceneGeometry",
    "Spectrogram",
    "StftConfig",
    "TimeSignal",
    "WienerConfig",
    "apply_mask",
    "apply_nonlinearity",
    "compute_mask",
    "erle",
    "exponential",
    "export_features",
    "hard_clip",
    "image_method_rir",
    "polynomial",
    "read_features",
    "ri_mag_loss",
    "run_linear_stage",
    "s_sisnr",
    "sample_geometry",
    "sample_kind",
    "sample_room",
    "saturating",
    "sdr",
    "sigmoid_stage",
    "soft_clip",
    "split_direct",
    "stft_forward",
    "stft_inverse",
    "synth_dataset",
    "synthesize_scene",
    "wstws_cancel",
]
