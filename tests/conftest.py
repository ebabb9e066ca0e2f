import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from saakiqa import gaussian_filter
from saakiqa._workers import _BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]
# CPUs this process may run on; no test starts more worker processes.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Whether this process's BLAS runs one thread, as a scoring worker's does.
ONE_BLAS_THREAD = CPUS == 1 or any(os.environ.get(v) == "1" for v in _BLAS_THREAD_VARS)


def run_python(*argv, one_blas_thread=False, timeout=300):
    """Run ``python *argv`` in a fresh interpreter at the checkout root.

    The child imports from ``src`` and ``tests``. Its BLAS runs the
    library's default thread count, or one thread when ``one_blas_thread``
    is set; numpy reads the count when it loads, so only a fresh
    interpreter can change it. A child still running after ``timeout``
    seconds is killed and fails the test.
    """
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    if one_blas_thread:
        env.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


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


def rank_oracle(v):
    """Average ranks by brute force: mean 1-based position among equals."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    srt = np.sort(v)
    for i, value in enumerate(v):
        positions = np.nonzero(srt == value)[0] + 1
        out[i] = positions.mean()
    return out


def pearson_oracle(x, y):
    """Pearson correlation by the textbook formula."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx, dy = x - x.mean(), y - y.mean()
    return float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def kendall_oracle(x, y):
    """Brute-force tau-b over all pairs."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / np.sqrt((n0 - ties_x) * (n0 - ties_y))


@pytest.fixture
def textured_image():
    return make_textured_image
