import contextlib
import ctypes
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from saakiqa import gaussian_filter, harness
from saakiqa._workers import _BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]
# Workers a forced pool starts: one per CPU the library may use, up to its
# cap. No test starts more worker processes.
POOL = min(harness._MAX_WORKERS, harness._usable_cpus())


@functools.cache
def _openblas_switch():
    """The (get, set) thread-count functions of the OpenBLAS numpy ships, or
    None, as under MKL or Accelerate. The unprefixed ``openblas_…64_``
    names, for an OpenBLAS built without scipy's prefix, are unverified."""
    numpy_dir = Path(np.__file__).parent
    for lib in [*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                *numpy_dir.glob(".dylibs/*openblas*")]:
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_"):
            if hasattr(dll, name.format("set")):
                get, set_ = getattr(dll, name.format("get")), getattr(dll, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Run the block with numpy's BLAS at ``n`` threads, process-wide.

    Yields the count's getter and the count before, which is restored
    after. Where numpy's BLAS has no switch, the test is skipped.
    """
    switch = _openblas_switch()
    if switch is None:
        pytest.skip("numpy's BLAS has no in-process thread-count switch")
    get, set_ = switch
    before = get()
    set_(n)
    try:
        yield get, before
    finally:
        set_(before)


def at_each_blas_thread_count(test):
    """Run ``test`` under one BLAS thread, then under two, undoing its
    monkeypatches after each run. A failure notes its thread count."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for n in (1, 2):
            with blas_threads(n):
                try:
                    test(*args, **kwargs)
                except AssertionError as error:
                    error.add_note(f"under {n} BLAS thread(s)")
                    raise
                finally:
                    if "monkeypatch" in kwargs:
                        kwargs["monkeypatch"].undo()
    return run


def run_python(*argv, one_blas_thread=False, timeout=300):
    """Run ``python *argv`` in a fresh interpreter at the checkout root.

    The child imports from ``src`` and ``tests``. Its BLAS runs the
    library's default thread count, or one thread when ``one_blas_thread``
    sets the environment variables numpy's BLAS reads when it loads, as a
    scoring worker's are; in-process, ``blas_threads`` sets the count. A
    child still running after ``timeout`` seconds is killed and fails the
    test.
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


def tied_sample(seed, n):
    """Manifest-scale scores (3 decimals) and MOS (1 decimal), both tied."""
    rng = np.random.default_rng(seed)
    latent = rng.uniform(0.0, 1.0, n)
    scores = np.round(0.55 + 0.4 * np.tanh(3.0 * (latent - 0.5))
                      + rng.normal(0.0, 0.03, n), 3)
    return scores, np.round(10.0 + 80.0 * latent + rng.normal(0.0, 6.0, n), 1)


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
