"""Correlation statistics, PSNR baseline, and the 5-parameter logistic fit.

These implement the usual benchmark protocol for objective quality scores:
PLCC is computed between subjective scores and the objective scores mapped
through a fitted monotone-plus-linear logistic curve, while SRCC/KRCC are
rank statistics on the raw scores (they are invariant to the monotone part
of the mapping). KRCC is counted exactly from integer ranks, in memory
linear in the number of scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    LengthMismatchError,
)

# Nelder-Mead schedule and stopping rules for the logistic fit.
_NM_ALPHA = 1.0
_NM_GAMMA = 2.0
_NM_RHO = 0.5
_NM_SIGMA = 0.5
_NM_SPREAD_TOL = 1e-10
_NM_MAX_ITER = 20000
# Logistic argument beyond which the sigmoid term is fully saturated.
_LOGISTIC_CLIP = 500.0
# Fewest paired points a logistic fit accepts.
MIN_REGRESSION_N = 10


def _vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = _vector(x, "x")
    b = _vector(y, "y")
    if a.size != b.size:
        raise LengthMismatchError(f"lengths differ: {a.size} vs {b.size}")
    if a.size < 2:
        raise LengthMismatchError("need at least 2 paired values")
    return a, b


def pearson(x, y) -> float:
    """Pearson linear correlation coefficient in [-1, 1]."""
    a, b = _pair(x, y)
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateVarianceError("constant input has undefined correlation")
    # Power-of-two scaling is exact: the result is unchanged, while the means
    # and dot products can neither overflow nor underflow. Some entry is at
    # least 2**-54 from the largest, in [0.5, 1), so da @ da and db @ db > 0.
    a, b = _unit_scaled(a), _unit_scaled(b)
    da = a - a.mean()
    db = b - b.mean()
    return float(np.clip((da @ db) / np.sqrt((da @ da) * (db @ db)), -1.0, 1.0))


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that brings its largest magnitude into [0.5, 1)."""
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])


def _dense_ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based dense ranks of ``v`` (``-0.0`` ties ``0.0``) and tie-group sizes."""
    _, ranks, counts = np.unique(v, return_inverse=True, return_counts=True)
    return ranks, counts


def rankdata(x) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    ranks, counts = _dense_ranks(_vector(x, "x"))
    # A group of k ties ending at 1-based rank e shares rank e - (k - 1) / 2.
    return (np.cumsum(counts) - 0.5 * (counts - 1))[ranks]


def spearman(x, y) -> float:
    """Spearman rank-order correlation: Pearson on average ranks; raises
    :class:`DegenerateVarianceError` when one input is all tied."""
    a, b = _pair(x, y)
    return pearson(rankdata(a), rankdata(b))


def _count_inversions(v: np.ndarray) -> int:
    """Pairs i < j with v[i] > v[j], for integers 0 <= v < v.size.

    Bottom-up merge sort: with every run of w values sorted, one search over
    keys offset by the run pair places each right-run value in its left run,
    which ends at index (pair + 1) * w of the left keys.
    """
    n, w, inversions = v.size, 1, 0
    pos = np.arange(n)
    while w < n:
        pair = pos // (2 * w)
        keys = pair * n + v
        right = pos % (2 * w) >= w
        not_above = np.searchsorted(keys[~right], keys[right], side="right")
        inversions += int(np.sum((pair[right] + 1) * w - not_above))
        v = np.sort(keys) - pair * n
        w *= 2
    return inversions


def kendall_tau_b(x, y) -> float:
    """Kendall rank correlation with tie correction (tau-b).

    (concordant - discordant) / sqrt((n0 - n1) * (n0 - n2)), where n0 is
    the pair count and n1/n2 the tied-pair counts within each input.
    Counted exactly from integer ranks (Knight, JASA 61:436, 1966) in
    log2(n) vectorised merge passes and O(n) memory. Raises
    :class:`DegenerateVarianceError` when one input is all tied.
    """
    a, b = _pair(x, y)
    ra, ca = _dense_ranks(a)
    rb, cb = _dense_ranks(b)
    cab = _dense_ranks(ra * (rb.max() + 1) + rb)[1]
    n0 = a.size * (a.size - 1) // 2
    # Pairs tied in a, in b and in both; with the rows sorted by (a, b), an
    # inversion of b's ranks is a discordant pair.
    n1, n2, n3 = (int(np.sum(c * (c - 1))) // 2 for c in (ca, cb, cab))
    discordant = _count_inversions(rb[np.lexsort((rb, ra))])
    s = n0 - n1 - n2 + n3 - 2 * discordant
    denom = np.sqrt(float(n0 - n1) * float(n0 - n2))
    if denom == 0.0:
        raise DegenerateVarianceError("all values tied in one input")
    return float(np.clip(s / denom, -1.0, 1.0))


def psnr(ref, dist) -> float:
    """Peak signal-to-noise ratio in dB on the 8-bit scale (peak 255).

    Returns ``inf`` for identical inputs (the distinguished zero-MSE
    result). Raises ``ValueError`` for empty or non-finite input, where
    the MSE is undefined.
    """
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(dist, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("psnr of empty input is undefined")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("psnr input contains non-finite values")
    with np.errstate(over="ignore"):
        mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    if mse == float("inf"):
        # Finite inputs far enough apart overflow the difference or its
        # square. Scaling both by one power of two brings every difference
        # below 2, so the MSE is finite; the exponent goes back in through
        # the logarithm.
        _, e = np.frexp(max(np.abs(a).max(), np.abs(b).max()))
        mse = float(np.mean((np.ldexp(a, -e) - np.ldexp(b, -e)) ** 2))
        return float(10.0 * np.log10(255.0 ** 2 / mse)
                     - 20.0 * e * np.log10(2.0))
    return float(10.0 * np.log10(255.0 ** 2 / mse))


@dataclass(frozen=True, eq=False)
class LogisticFit:
    """Result of :func:`logistic5_fit`."""

    beta: np.ndarray
    sse: float
    converged: bool
    iterations: int


def logistic5_eval(beta, x):
    """Evaluate the 5-parameter logistic regression curve.

    q(x) = b1 * (1/2 - 1/(1 + exp(b2*(x - b3)))) + b4*x + b5, with the
    sigmoid argument clipped to +-500 so the term saturates to +-b1/2
    instead of overflowing. Accepts scalars or arrays.
    """
    b1, b2, b3, b4, b5 = np.asarray(beta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    q = b1 * _sigmoid(b2, b3, x) + b4 * x + b5
    return float(q) if q.ndim == 0 else q


def _sigmoid(b2, b3, x):
    """The curve's centred sigmoid 1/2 - 1/(1 + exp(b2*(x - b3))), clipped."""
    t = np.clip(b2 * (x - b3), -_LOGISTIC_CLIP, _LOGISTIC_CLIP)
    return 0.5 - 1.0 / (1.0 + np.exp(t))


def _nelder_mead(fun, x0, max_iter):
    """Minimize ``fun`` by the standard simplex schedule.

    Stops when the relative spread of simplex values drops below the
    configured tolerance or the iteration budget runs out. Fully
    deterministic. Returns (best_x, best_f, iterations, converged).
    """
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for i in range(n):
        if sim[i + 1, i] != 0.0:
            sim[i + 1, i] *= 1.05
        else:
            sim[i + 1, i] = 0.00025
    fsim = np.array([fun(p) for p in sim])

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        spread = (fsim[-1] - fsim[0]) / max(fsim[0], 1e-30)
        # The diameter rule ends the machine-epsilon jitter phase once the
        # vertices have collapsed onto the minimizer.
        diameter = np.max(np.abs(sim[1:] - sim[0]))
        if spread < _NM_SPREAD_TOL or diameter <= 1e-12 * (1.0 + np.max(np.abs(sim[0]))):
            converged = True
            break
        iterations += 1

        centroid = sim[:-1].mean(axis=0)
        xr = centroid + _NM_ALPHA * (centroid - sim[-1])
        fr = fun(xr)
        if fr < fsim[0]:
            xe = centroid + _NM_GAMMA * (centroid - sim[-1])
            fe = fun(xe)
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = centroid + _NM_RHO * (xr - centroid)
                fc = fun(xc)
                accept = fc <= fr
            else:
                xc = centroid - _NM_RHO * (centroid - sim[-1])
                fc = fun(xc)
                accept = fc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fc
            else:
                sim[1:] = sim[0] + _NM_SIGMA * (sim[1:] - sim[0])
                fsim[1:] = [fun(p) for p in sim[1:]]

    best = int(np.argmin(fsim))
    return sim[best].copy(), float(fsim[best]), iterations, converged


def logistic5_fit(scores, mos) -> LogisticFit:
    """Least-squares fit of the logistic curve mapping scores to MOS.

    The curve is linear in (b1, b4, b5), so those are profiled out exactly
    by least squares while derivative-free simplex descent searches
    (b2, b3) from a deterministic initialization (1/std(scores),
    mean(scores)), restarted around the incumbent until restarts stop
    improving or the 20000-iteration budget is spent. The profiling removes
    the b1*b2 non-identifiability ridge that stalls a plain 5-D simplex.
    ``sse`` is that of :func:`logistic5_eval` at the returned ``beta``.
    Deterministic for identical input; ``converged=False`` flags budget
    exhaustion, with the best point so far still returned.
    """
    x, y = _pair(scores, mos)
    if x.size < MIN_REGRESSION_N:
        raise LengthMismatchError(
            f"need at least {MIN_REGRESSION_N} points for regression")
    if np.all(x == x[0]):
        raise DegenerateVarianceError("constant scores cannot be regressed")

    ones = np.ones_like(x)

    def profile(nl):
        design = np.column_stack([_sigmoid(nl[0], nl[1], x), x, ones])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r = design @ coef - y
        return float(r @ r), coef

    nl0 = np.array([1.0 / x.std(), x.mean()])
    best, best_f = nl0, profile(nl0)[0]
    total_iter = 0
    converged = False
    while total_iter < _NM_MAX_ITER:
        pt, f, used, ok = _nelder_mead(
            lambda nl: profile(nl)[0], best, _NM_MAX_ITER - total_iter)
        total_iter += used
        improved = f < best_f - 1e-12 * max(1.0, best_f)
        if f < best_f:
            best, best_f = pt, f
        if (ok and not improved) or used == 0:
            converged = ok
            break

    coef = profile(best)[1]
    beta = np.array([coef[0], best[0], best[1], coef[1], coef[2]])
    r = logistic5_eval(beta, x) - y
    return LogisticFit(beta=beta, sse=float(r @ r), converged=converged,
                       iterations=total_iter)
