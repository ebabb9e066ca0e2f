import numpy as np
import pytest

from saakiqa import gaussian_filter


def make_textured_image(seed: int, height: int = 128, width: int = 128) -> np.ndarray:
    """Deterministic natural-looking test content.

    Heavily smoothed uniform noise (spatially correlated large structures)
    plus mild fine-grained noise, rounded to integers in [0, 255] so PGM
    round trips are lossless. Local patch standard deviation comfortably
    exceeds the training threshold.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, (height, width))
    smooth = gaussian_filter(base, 3.0)
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
    img = 20.0 + 215.0 * smooth + rng.normal(0.0, 4.0, (height, width))
    return np.clip(np.rint(img), 0.0, 255.0)


@pytest.fixture
def textured_image():
    return make_textured_image
