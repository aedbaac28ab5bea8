"""Doubly exponential tail series, tail-to-expectation conversion and the
tail-uncentering inequality, evaluated in log space so no intermediate ever
overflows.

The series is p(u) = sum_{m>=1} 2^(2^(m+1+w)) * exp(-u^2 * 2^(m-1)) and
q(u) = min(p(u), 1).  The exponent u^2 * 2^(m-1) outgrows 2^(m+1+w) * ln 2
only when u^2 > 2^(2+w) * ln 2; below that threshold the series diverges,
which is benign because only q is ever used.  The truncation floor, the
bisection and quadrature tolerances and the sampler grid are fixed module
constants.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, SolverError

_MAX_TERMS = 10000
TRUNCATION_FLOOR = 1e-300
CROSSING_TOL = 1e-13
QUAD_REL_TOL = 1e-8
SAMPLER_GRID_STEP = 0.01
SAMPLER_TAIL_CUT = 1e-12


def divergence_threshold(w: int = 0) -> float:
    """The series converges exactly for u above sqrt(2^(2+w) * ln 2)."""
    if w < 0:
        raise InvalidInputError("w must be nonnegative")
    return math.sqrt(2.0 ** (2 + w) * math.log(2.0))


def log_tail_series(u: float, w: int = 0) -> float:
    """log p(u); +inf when the series diverges (u at or below the
    convergence threshold).

    Terms are accumulated by log-sum-exp and truncated at the first term
    falling below TRUNCATION_FLOOR relative to the running sum.
    """
    if w < 0:
        raise InvalidInputError("w must be nonnegative")
    if not u > 0:
        raise InvalidInputError("u must be positive")
    u2 = u * u
    if u2 <= 2.0 ** (2 + w) * math.log(2.0):
        return math.inf
    log_floor = math.log(TRUNCATION_FLOOR)
    ln2 = math.log(2.0)
    total = None
    for m in range(1, _MAX_TERMS + 1):
        log_term = 2.0 ** (m + 1 + w) * ln2 - u2 * 2.0 ** (m - 1)
        if total is None:
            total = log_term
            continue
        if log_term <= total + log_floor:
            break
        total = float(np.logaddexp(total, log_term))
    return float(total)


def tail_series(u: float, w: int = 0) -> float:
    """p(u) itself; inf when the log value overflows a float."""
    lp = log_tail_series(u, w)
    if lp > 700.0:
        return math.inf
    return math.exp(lp)


def tail_series_capped(u: float, w: int = 0) -> float:
    """q(u) = min(p(u), 1)."""
    lp = log_tail_series(u, w)
    if lp >= 0.0:
        return 1.0
    return math.exp(lp)


def tail_crossing_point(w: int = 0) -> float:
    """The unique u* with p(u*) = 1: p decreases continuously from +inf at
    the convergence threshold to 0, so bisection on log p applies."""
    lo = divergence_threshold(w) * (1.0 + 1e-12)
    hi = lo + 1.0
    while log_tail_series(hi, w) > 0.0:
        hi += 1.0
        if hi > lo + 1000:
            raise SolverError("failed to bracket the tail crossing point")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= CROSSING_TOL * max(1.0, hi):
            break
        if log_tail_series(mid, w) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _adaptive_simpson(f, a: float, b: float) -> float:
    """Composite adaptive Simpson with a recursion-depth guard."""
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f1, f2, acc, depth):
        x1 = 0.5 * (x0 + x2)
        lm = f(0.5 * (x0 + x1))
        rm = f(0.5 * (x1 + x2))
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * lm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * rm + f2)
        if depth > 40:
            raise SolverError("adaptive quadrature exceeded maximum depth")
        delta = left + right - acc
        if abs(delta) <= 15.0 * QUAD_REL_TOL * max(abs(left + right), 1e-300):
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, lm, f1, left, depth + 1)
                + recurse(x1, x2, f1, rm, f2, right, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, 0)


def tail_integral(w: int = 0) -> float:
    """The integral of q over (0, inf): the crossing point u* (where q = 1)
    plus adaptive Simpson over [u*, u* + 20] plus an analytic bound on the
    remainder via the dominant-term decay p(u) <= p(U) exp(-(u^2 - U^2))."""
    u_star = tail_crossing_point(w)
    hi = u_star + 20.0
    body = _adaptive_simpson(lambda u: tail_series(u, w), u_star, hi)
    remainder = tail_series(hi, w) / (2.0 * hi)
    total = u_star + body + remainder
    if not math.isfinite(total):
        raise SolverError("tail integral did not converge to a finite value")
    return total


def expectation_bound_from_tail(rho_scale: float, zeta_shift: float, w: int = 0):
    """Expectation bound for a nonnegative Y whose tail is dominated by the
    capped series: P(Y > u * rho + zeta) <= q(u) implies E Y <= C * rho +
    zeta with C the integral of q.  Returns (bound, C)."""
    if rho_scale <= 0:
        raise InvalidInputError("rho_scale must be positive")
    if zeta_shift < 0:
        raise InvalidInputError("zeta_shift must be nonnegative")
    c_w = tail_integral(w)
    return c_w * rho_scale + zeta_shift, c_w


def uncenter_tail(a: float, u: float) -> float:
    """Tail after dropping a centering constant: a variable with
    P(Y - a > u) <= exp(-u^2) satisfies P(Y > u) <= min(1, exp(a^2 - u^2/2))."""
    if not u > 0:
        raise InvalidInputError("u must be positive")
    exponent = a * a - u * u / 2.0
    if exponent >= 0.0:
        return 1.0
    return math.exp(exponent)


def sample_from_capped_tail(w: int, rho_scale: float,
                            zeta_shift: float, n_samples: int, seed: int) -> np.ndarray:
    """Inverse-transform samples of a law satisfying the capped-tail
    hypothesis: draws X on a u-grid by flooring the inverse of q, then
    returns rho * X + zeta.

    Flooring keeps the sampled law strictly inside the hypothesis
    (P(Y > u * rho + zeta) <= q(u) for every u), so any valid expectation
    bound must dominate the sample mean; the deterministic slack is about
    rho * SAMPLER_GRID_STEP / 2.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be positive")
    if rho_scale <= 0 or zeta_shift < 0:
        raise InvalidInputError("need rho_scale > 0 and zeta_shift >= 0")
    grid = [0.0]
    qs = [1.0]
    u = SAMPLER_GRID_STEP
    while True:
        q = tail_series_capped(u, w)
        grid.append(u)
        qs.append(q)
        if q < SAMPLER_TAIL_CUT:
            break
        u += SAMPLER_GRID_STEP
        if u > 1000.0:
            raise SolverError("tail grid failed to reach the cut level")
    grid_arr = np.asarray(grid)
    qs_arr = np.asarray(qs)
    rng = np.random.default_rng(seed)
    uniforms = rng.uniform(0.0, 1.0, size=n_samples)
    # Largest j with q[j] >= U, via the ascending reversed array.
    rev = qs_arr[::-1]
    j_rev = np.searchsorted(rev, uniforms, side="left")
    j = np.clip(len(qs_arr) - 1 - j_rev, 0, len(qs_arr) - 1)
    return rho_scale * grid_arr[j] + zeta_shift
