"""Full-reference quality assessment of compressed grayscale images.

The pipeline learns a two-stage Saak transform (KLT kernels augmented with
their negatives) from each reference image, transforms reference and
distorted images into 496 spectral channels, and blends per-channel MSE and
correlation with energy-driven weights into one quality score. A batch
harness reproduces the usual benchmark protocol (logistic regression plus
PLCC/SRCC/KRCC per codec).
"""

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

__all__ = [
    "__version__",
    "CODEC_LAMBDAS",
    "QualityConfig",
    "ChannelStats",
    "Reference",
    "SaakStage",
    "LogisticFit",
    "EvalRecord",
    "EvalReport",
    "RecordResult",
    "CodecResult",
    "read_pgm",
    "write_pgm",
    "crop_to_multiple",
    "gaussian_filter",
    "extract_training_patches",
    "train_stage",
    "train_model",
    "sp_convert",
    "ps_convert",
    "forward_stage",
    "inverse_stage",
    "forward",
    "inverse",
    "channel_stats",
    "quality_from_stats",
    "prepare_reference",
    "assess",
    "pearson",
    "spearman",
    "kendall_tau_b",
    "rankdata",
    "psnr",
    "logistic5_eval",
    "logistic5_fit",
    "parse_manifest",
    "run_eval",
    "synth_distort",
    "emit_report",
    "SaakIqaError",
    "MalformedHeaderError",
    "UnsupportedMaxvalError",
    "TruncatedDataError",
    "ImageTooSmallError",
    "DimensionMismatchError",
    "GeometryMismatchError",
    "NoTrainingSamplesError",
    "InsufficientSamplesError",
    "InvalidPairError",
    "DegenerateInputError",
    "LengthMismatchError",
    "DegenerateVarianceError",
    "MalformedRowError",
    "NoValidRecordsError",
]
