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
from operator import itemgetter

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


def _sum_products(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` by numpy's pairwise sum: unlike a BLAS dot, which
    splits a long sum across its threads, it gives the same bits at any
    BLAS thread count."""
    return float(np.sum(a * b))


def pearson(x, y) -> float:
    """Pearson linear correlation coefficient in [-1, 1].

    Its sums of products are numpy's pairwise sums, so its bits do not
    depend on the BLAS thread count.
    """
    a, b = _pair(x, y)
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateVarianceError("constant input has undefined correlation")
    # Power-of-two scaling is exact: the result is unchanged, while the means
    # and sums of products can neither overflow nor underflow. Some entry is
    # at least 2**-54 from the largest, in [0.5, 1), so both sums of squares
    # are > 0.
    a, b = _unit_scaled(a), _unit_scaled(b)
    da = a - a.mean()
    db = b - b.mean()
    return float(np.clip(_sum_products(da, db)
                         / np.sqrt(_sum_products(da, da) * _sum_products(db, db)),
                         -1.0, 1.0))


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
    # Sorting the joint key sorts the rows by (a, b): its runs are the
    # groups tied in both, and an inversion of b's ranks is a discordant pair.
    key = ra * (rb.max() + 1) + rb
    order = np.argsort(key, kind="stable")
    sk = key[order]
    cab = np.diff(np.flatnonzero(np.r_[True, sk[1:] != sk[:-1], True]))
    n0 = a.size * (a.size - 1) // 2
    # Pairs tied in a, in b and in both.
    n1, n2, n3 = (int(np.sum(c * (c - 1))) // 2 for c in (ca, cb, cab))
    discordant = _count_inversions(rb[order])
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
    t = np.empty_like(x)
    q = b1 * _sigmoid(b2, b3, x, t, t) + b4 * x + b5
    return float(q) if q.ndim == 0 else q


def _sigmoid(b2, b3, x, t, out):
    """Write the curve's centred sigmoid 1/2 - 1/(1 + exp(b2*(x - b3))),
    clipped, into ``out`` and return it. ``t`` is contiguous scratch shaped
    like ``x``, so ``exp`` runs on contiguous data whatever the stride of
    ``out``; it may be ``out``."""
    np.subtract(x, b3, out=t)
    np.multiply(b2, t, out=t)
    np.clip(t, -_LOGISTIC_CLIP, _LOGISTIC_CLIP, out=t)
    np.exp(t, out=t)
    np.add(1.0, t, out=t)
    np.divide(1.0, t, out=t)
    return np.subtract(0.5, t, out=out)


def _nelder_mead(fun, x0, f0, max_iter):
    """Minimize ``fun(u, v)`` by the standard simplex schedule, from the
    point ``x0`` whose value ``f0`` the caller already has.

    Stops, converged, by either of two rules: the spread rule, when the
    relative spread of the vertex values drops below ``_NM_SPREAD_TOL``,
    or the diameter rule, when no vertex coordinate is farther than
    1e-12 * (1 + the best vertex's largest magnitude) from the best
    vertex's. Otherwise it stops unconverged when ``max_iter`` iterations
    are spent. The arithmetic is that of the schedule on a numpy (3, 2)
    vertex array, done on Python floats in the same order: the centroid
    of the two best vertices p0, p1 is ``(p0 + p1) / 2`` per coordinate,
    and vertices are ordered by a stable sort of their values. Fully
    deterministic. Returns (best_x, best_f, iterations, converged).
    """
    def vertex(u, v):
        return fun(u, v), u, v

    u, v = x0
    # Vertices are (value, u, v); each start coordinate is stepped by 5 %,
    # or off zero by a fixed offset.
    sim = [(f0, u, v), vertex(u * 1.05 if u != 0.0 else 0.00025, v),
           vertex(u, v * 1.05 if v != 0.0 else 0.00025)]

    iterations = 0
    converged = False
    while iterations < max_iter:
        sim.sort(key=itemgetter(0))
        (fb, ub, vb), (fm, um, vm), (fw, uw, vw) = sim
        spread = (fw - fb) / max(fb, 1e-30)
        # The diameter rule ends the machine-epsilon jitter phase once the
        # vertices have collapsed onto the minimizer.
        diameter = max(abs(um - ub), abs(vm - vb), abs(uw - ub), abs(vw - vb))
        if spread < _NM_SPREAD_TOL or diameter <= 1e-12 * (1.0 + max(abs(ub), abs(vb))):
            converged = True
            break
        iterations += 1

        cu, cv = (ub + um) / 2, (vb + vm) / 2
        ru, rv = cu + _NM_ALPHA * (cu - uw), cv + _NM_ALPHA * (cv - vw)
        fr = fun(ru, rv)
        if fr < fb:
            eu, ev = cu + _NM_GAMMA * (cu - uw), cv + _NM_GAMMA * (cv - vw)
            fe = fun(eu, ev)
            sim[2] = (fe, eu, ev) if fe < fr else (fr, ru, rv)
        elif fr < fm:
            sim[2] = (fr, ru, rv)
        else:
            if fr < fw:
                ku, kv = cu + _NM_RHO * (ru - cu), cv + _NM_RHO * (rv - cv)
                fk = fun(ku, kv)
                accept = fk <= fr
            else:
                ku, kv = cu - _NM_RHO * (cu - uw), cv - _NM_RHO * (cv - vw)
                fk = fun(ku, kv)
                accept = fk < fw
            if accept:
                sim[2] = (fk, ku, kv)
            else:
                sim[1:] = [vertex(ub + _NM_SIGMA * (pu - ub), vb + _NM_SIGMA * (pv - vb))
                           for _, pu, pv in sim[1:]]

    fb, ub, vb = min(sim, key=itemgetter(0))
    return (ub, vb), fb, iterations, converged


def logistic5_fit(scores, mos) -> LogisticFit:
    """Least-squares fit of the logistic curve mapping scores to MOS.

    The curve is linear in (b1, b4, b5), so those are profiled out exactly
    by least squares while derivative-free simplex descent searches
    (b2, b3) from a deterministic initialization (1/std(scores),
    mean(scores)), restarted around the incumbent until restarts stop
    improving or the 20000-iteration budget is spent. The profiling removes
    the b1*b2 non-identifiability ridge that stalls a plain 5-D simplex.
    ``sse`` is that of :func:`logistic5_eval` at the returned ``beta``.
    Every SSE is numpy's pairwise sum, so the fit's bits do not depend on
    the BLAS thread count.
    Deterministic for identical input; ``converged=False`` flags budget
    exhaustion, with the best point so far still returned.

    The cost is one ``lstsq`` solve per vertex the simplex visits, on one
    (n, 3) design whose sigmoid column each solve rewrites, plus one for
    the returned coefficients. The start vertex's SSE is reused across
    restarts, never solved again.
    """
    x, y = _pair(scores, mos)
    if x.size < MIN_REGRESSION_N:
        raise LengthMismatchError(
            f"need at least {MIN_REGRESSION_N} points for regression")
    if np.all(x == x[0]):
        raise DegenerateVarianceError("constant scores cannot be regressed")

    design = np.empty((x.size, 3))
    design[:, 1] = x
    design[:, 2] = 1.0
    sigmoid = design[:, 0]
    t = np.empty_like(x)
    r = np.empty_like(x)

    def profile(b2, b3):
        _sigmoid(b2, b3, x, t, sigmoid)
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        np.matmul(design, coef, out=r)
        np.subtract(r, y, out=r)
        return _sum_products(r, r), coef

    def sse(b2, b3):
        return profile(b2, b3)[0]

    best = (float(1.0 / x.std()), float(x.mean()))
    best_f = sse(*best)
    total_iter = 0
    converged = False
    while total_iter < _NM_MAX_ITER:
        pt, f, used, ok = _nelder_mead(sse, best, best_f, _NM_MAX_ITER - total_iter)
        total_iter += used
        improved = f < best_f - 1e-12 * max(1.0, best_f)
        if f < best_f:
            best, best_f = pt, f
        if (ok and not improved) or used == 0:
            converged = ok
            break

    coef = profile(*best)[1]
    beta = np.array([coef[0], best[0], best[1], coef[1], coef[2]])
    r = logistic5_eval(beta, x) - y
    return LogisticFit(beta=beta, sse=_sum_products(r, r), converged=converged,
                       iterations=total_iter)
