"""Full-reference quality assessment of compressed grayscale images.

The pipeline learns a two-stage Saak transform (KLT kernels augmented with
their negatives) from each reference image, transforms reference and
distorted images into 496 spectral channels, and blends per-channel MSE and
correlation with energy-driven weights into one quality score. A batch
harness reproduces the usual benchmark protocol (logistic regression plus
PLCC/SRCC/KRCC per codec).
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .errors import (
    DegenerateInputError,
    DegenerateVarianceError,
    DimensionMismatchError,
    GeometryMismatchError,
    ImageTooSmallError,
    InsufficientSamplesError,
    InvalidPairError,
    LengthMismatchError,
    MalformedHeaderError,
    MalformedRowError,
    NoTrainingSamplesError,
    NoValidRecordsError,
    SaakIqaError,
    TruncatedDataError,
    UnsupportedMaxvalError,
)
from .harness import (
    CodecResult,
    EvalRecord,
    EvalReport,
    RecordResult,
    emit_report,
    parse_manifest,
    run_eval,
    synth_distort,
)
from .image import (
    crop_to_multiple,
    gaussian_filter,
    read_pgm,
    write_pgm,
)
from .metric import (
    CODEC_LAMBDAS,
    ChannelStats,
    QualityConfig,
    Reference,
    assess,
    channel_stats,
    prepare_reference,
    quality_from_stats,
)
from .saak import (
    SaakStage,
    extract_training_patches,
    forward,
    forward_stage,
    inverse,
    inverse_stage,
    ps_convert,
    sp_convert,
    train_model,
    train_stage,
)
from .stats import (
    LogisticFit,
    kendall_tau_b,
    logistic5_eval,
    logistic5_fit,
    pearson,
    psnr,
    rankdata,
    spearman,
)

# The imports above declare the API: every public name they bind, apart
# from the submodules, is exported.
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
