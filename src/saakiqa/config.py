"""Scoring configuration: the values callers choose per run."""

from __future__ import annotations

from dataclasses import dataclass

from .image import filter_radius

# Blend factor tuned per codec family: blockiness (jpeg) favors the MSE
# term, ringing (jpeg2000) the correlation term.
CODEC_LAMBDAS = {"jpeg": 0.7, "jpeg2000": 0.2}


@dataclass(frozen=True)
class QualityConfig:
    """The two settings of the scoring pipeline; the rest is fixed design.

    ``lam`` is the MSE/correlation blend weight in [0, 1]. ``sigma`` is the
    standard deviation of the Gaussian pre-filter, which must be positive
    and finite; its window radius is ``ceil(3 * sigma)`` and its borders
    are always reflected. The transform geometry lives in
    :mod:`saakiqa.saak` and the score scales ``C`` and ``H`` in
    :mod:`saakiqa.metric`.
    """

    lam: float = CODEC_LAMBDAS["jpeg"]
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
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
