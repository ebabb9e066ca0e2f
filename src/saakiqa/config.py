"""Scoring configuration shared by the transform and the metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .image import filter_radius

# Blend factor tuned per codec family: blockiness (jpeg) favors the MSE
# term, ringing (jpeg2000) the correlation term.
CODEC_LAMBDAS = {"jpeg": 0.7, "jpeg2000": 0.2}


@dataclass(frozen=True)
class QualityConfig:
    """All knobs of the scoring pipeline.

    ``lam`` is the MSE/correlation blend weight in [0, 1]; ``c`` scales the
    weighted-MSE exponential; ``h`` scales the energy-driven channel
    weights. ``sigma`` is the standard deviation of the Gaussian
    pre-filter, which must be positive and finite; its window radius is
    ``ceil(3 * sigma)`` and its borders are always reflected. The remaining
    fields control the learned transform: block geometry, stage count,
    stage-1 training stride, and the texture threshold on patch standard
    deviation.
    """

    lam: float = CODEC_LAMBDAS["jpeg"]
    c: float = 400.0
    h: float = 100.0
    sigma: float = 1.0
    block_size: int = 4
    num_stages: int = 2
    train_stride: int = 2
    std_threshold: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if not (0.0 < self.c < math.inf and 0.0 < self.h < math.inf):
            raise ValueError("c and h must be positive and finite")
        if self.block_size < 1 or self.num_stages < 1 or self.train_stride < 1:
            raise ValueError("block_size, num_stages and train_stride must be >= 1")
        if not 0.0 <= self.std_threshold < math.inf:
            raise ValueError("std_threshold must be non-negative and finite")
        filter_radius(self.sigma)  # raises unless sigma is positive and finite

    @classmethod
    def for_codec(cls, codec: str, **overrides) -> "QualityConfig":
        """Config with the codec's default blend factor.

        Unknown codecs have no tuned default, so ``lam`` must be supplied
        explicitly for them.
        """
        if "lam" not in overrides:
            try:
                overrides["lam"] = CODEC_LAMBDAS[codec]
            except KeyError:
                raise ValueError(
                    f"no default lambda for codec {codec!r}; pass lam explicitly"
                ) from None
        return cls(**overrides)
