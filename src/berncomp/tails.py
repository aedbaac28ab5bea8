"""Doubly exponential tail series, tail-to-expectation conversion and the
tail-uncentering inequality, evaluated in log space so no intermediate ever
overflows.

The series is p(u) = sum_{m>=1} 2^(2^(m+1+w)) * exp(-u^2 * 2^(m-1)) and
q(u) = min(p(u), 1).  Term m equals exp(-2^(m-1) * s) with s = u^2 - u0^2
and u0^2 = 2^(2+w) * ln 2, so the series converges exactly for u > u0 and
diverges below, which is benign because only q is ever used.  p = 1 at the
one s = CROSSING_S for every w, and each term integrates over (u*, inf) to a
scaled erfcx, so the crossing point and the integral of q are closed forms.
The truncation floor, the sampler grid (built once per w, and read by both
the sampler and tail_integral_bracket) with its end SAMPLER_GRID_END (both
require the divergence threshold below it through one check,
_check_sampler_w, which also checks tails-demo's w), the ceiling MAX_W on w
(past it the exponents overflow a float) and the row ceiling MAX_GRID_ROWS
of u_grid are fixed module constants.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import _as_readonly, _check_count, _check_scales
from .errors import InvalidInputError

_MAX_TERMS = 10000
TRUNCATION_FLOOR = 1e-300
CROSSING_S = 0.5689425097032021  # the root of sum_{j>=0} exp(-2^j s) = 1
SAMPLER_GRID_STEP = 0.01
SAMPLER_GRID_END = 1000.0
SAMPLER_TAIL_CUT = 1e-12
MAX_W = 1000
# Most rows a u-grid of pc tails or tails-demo may have; the shipped grids
# have 15 and 24.
MAX_GRID_ROWS = 10000


def _threshold_sq(w: int) -> float:
    """u0^2 = 2^(2+w) * ln 2, after checking that w is an integer in [0, MAX_W]."""
    _check_count("w", w)
    if w > MAX_W:
        raise InvalidInputError(f"w must be at most {MAX_W}")
    return 2.0 ** (2 + w) * math.log(2.0)


def divergence_threshold(w: int = 0) -> float:
    """The series converges exactly for u above sqrt(2^(2+w) * ln 2)."""
    return math.sqrt(_threshold_sq(w))


def _check_sampler_w(w: int) -> None:
    """Raise InvalidInputError unless w is an integer in [0, MAX_W] whose
    divergence threshold lies below SAMPLER_GRID_END, where the sampler's
    grid ends: the one check of sample_from_capped_tail,
    tail_integral_bracket and tails-demo's w."""
    u0 = divergence_threshold(w)
    if not u0 < SAMPLER_GRID_END:
        raise InvalidInputError(f"w = {w} puts the divergence threshold u = {u0:.6g} at or past the "
                                f"sampler grid end u = {SAMPLER_GRID_END:g}")


def log_tail_series(u: float, w: int = 0) -> float:
    """log p(u); +inf when the series diverges (u at or below the
    convergence threshold).

    Terms -2^(m-1) * s are accumulated by log-sum-exp and truncated at the
    first term falling below TRUNCATION_FLOOR relative to the running sum.
    """
    u0_sq = _threshold_sq(w)
    if not u > 0:
        raise InvalidInputError("u must be positive")
    s = u * u - u0_sq
    if s <= 0.0:
        return math.inf
    total = -s  # the m = 1 term
    log_floor = math.log(TRUNCATION_FLOOR)
    for m in range(2, _MAX_TERMS + 1):
        log_term = -s * 2.0 ** (m - 1)
        if log_term <= total + log_floor:
            break
        total = float(np.logaddexp(total, log_term))
    return float(total)


def tail_series(u: float, w: int = 0) -> float:
    """p(u) itself; inf when the series diverges."""
    # above the threshold log_tail_series stays below log(_MAX_TERMS), since
    # every term is below 1, so exp never overflows
    return math.exp(log_tail_series(u, w))


def tail_series_capped(u: float, w: int = 0) -> float:
    """q(u) = min(p(u), 1)."""
    lp = log_tail_series(u, w)
    if lp >= 0.0:
        return 1.0
    return math.exp(lp)


def u_grid(start: float, stop: float, step: float) -> list:
    """The accumulated grid start, start + step, ... while u <= stop + 1e-12.
    Raises InvalidInputError unless all three are finite, step > 0, stop >=
    start, every step advances u and the grid has at most MAX_GRID_ROWS rows."""
    spec = f"{start}:{stop}:{step}"
    if not (-math.inf < start <= stop < math.inf and 0.0 < step < math.inf):  # nan fails too
        raise InvalidInputError(f"u grid {spec} needs finite values, step > 0 and stop >= start")
    values = []
    u = start
    while u <= stop + 1e-12:
        if len(values) == MAX_GRID_ROWS:
            raise InvalidInputError(f"u grid {spec} has more than {MAX_GRID_ROWS} rows")
        values.append(u)
        if u + step == u:
            raise InvalidInputError(f"u grid {spec}: step {step} does not advance u = {u}")
        u += step
    return values


def tail_crossing_point(w: int = 0) -> float:
    """The unique u* with p(u*) = 1: u*^2 - u0^2 = CROSSING_S."""
    return math.sqrt(_threshold_sq(w) + CROSSING_S)


def _erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for x >= 1; from x = 26 on, where erfc nears the
    float floor, the asymptotic series to the term in x^-14, whose first
    omitted term is below 2e-17 relative."""
    if x < 26.0:
        return math.exp(x * x) * math.erfc(x)
    r = 1.0 / (2.0 * x * x)
    term = total = 1.0
    for n in range(1, 7):
        term *= -(2 * n - 1) * r
        total += term
    return total / (x * math.sqrt(math.pi))


def tail_integral(w: int = 0) -> float:
    """The integral of q over (0, inf): u* (where q = 1) plus the exact
    Gaussian-tail integral of each term exp(-2^j (u^2 - u0^2)) over
    (u*, inf), 0.5 sqrt(pi / 2^j) exp(-2^j CROSSING_S) erfcx(2^(j/2) u*).
    Terms past j = 11 are below exp(-1165) and vanish in a float."""
    u_star = tail_crossing_point(w)
    return u_star + sum(0.5 * math.sqrt(math.pi / 2.0 ** j) * math.exp(-2.0 ** j * CROSSING_S)
                        * _erfcx(2.0 ** (0.5 * j) * u_star) for j in range(12))


def _check_law(rho_scale: float, zeta_shift: float) -> None:
    """Raise InvalidInputError unless rho_scale > 0 and zeta_shift >= 0 are finite."""
    _check_scales(rho_scale=rho_scale)
    if not 0.0 <= zeta_shift < math.inf:
        raise InvalidInputError(f"zeta_shift must be finite and nonnegative, got {zeta_shift!r}")


def expectation_bound_from_tail(rho_scale: float, zeta_shift: float, w: int = 0):
    """Expectation bound for a nonnegative Y whose tail is dominated by the
    capped series: P(Y > u * rho + zeta) <= q(u) implies E Y <= C * rho +
    zeta with C the integral of q.  Returns (bound, C)."""
    _check_law(rho_scale, zeta_shift)
    c_w = tail_integral(w)
    return c_w * rho_scale + zeta_shift, c_w


def uncenter_tail(a: float, u: float) -> float:
    """Tail after dropping a centering constant: a variable with
    P(Y - a > u) <= exp(-u^2) satisfies P(Y > u) <= min(1, exp(a^2 - u^2/2))."""
    if not u > 0:
        raise InvalidInputError("u must be positive")
    if not math.isfinite(a):
        raise InvalidInputError(f"a must be finite, got {a!r}")
    exponent = a * a - u * u / 2.0
    if exponent >= 0.0:
        return 1.0
    return math.exp(exponent)


@lru_cache(maxsize=None)
def _sampler_grid(w: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's u-grid, from 0 in steps of SAMPLER_GRID_STEP up to the
    first point where q falls below SAMPLER_TAIL_CUT, and q on it; built
    once per w and returned read-only.

    w must have passed _check_sampler_w, which puts the divergence
    threshold u0 below SAMPLER_GRID_END.  q falls below the cut once
    s = u^2 - u0^2 passes about 28, so the grid ends near sqrt(u0^2 + 28):
    at u = 5.52, 53.55 and 852.56 for w = 0, 10 and 18, the largest w that
    check admits, all before SAMPLER_GRID_END."""
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
    return _as_readonly(grid), _as_readonly(qs)


def tail_integral_bracket(w: int = 0) -> tuple[float, float]:
    """(lower, upper) around C_w, the integral of q over (0, inf), from q on
    the sampler's grid u_0 = 0 < u_1 < ... < u_N.

    q is nonincreasing, so on each step (u_{j-1}, u_j) it lies between
    q(u_j) and q(u_{j-1}).  Hence lower = sum_{j>=1} (u_j - u_{j-1}) q(u_j)
    is at most the integral of q over (0, u_N), and it is exactly the mean
    of the floored law that sample_from_capped_tail draws, since that law
    puts mass q(u_j) on X >= u_j.  The same integral is at most
    sum_{j<N} (u_{j+1} - u_j) q(u_j).  Past u_N, q <= p, and every term
    exp(-2^(m-1) (u^2 - u0^2)) of p is its value at u_N times
    exp(-2^(m-1) (u^2 - u_N^2)) <= exp(-2 u_N (u - u_N)), so the integral of
    q over (u_N, inf) is at most p(u_N) / (2 u_N) = q(u_N) / (2 u_N), as
    q(u_N) < SAMPLER_TAIL_CUT < 1.  upper adds that to the sum.  The steps
    are the grid's own, which are SAMPLER_GRID_STEP up to rounding, and
    math.fsum rounds each sum once, so the bracket holds up to the rounding
    of q and of each product.  w must pass _check_sampler_w.
    """
    _check_sampler_w(w)
    grid, qs = _sampler_grid(w)
    steps = np.diff(grid)
    return math.fsum(steps * qs[1:]), math.fsum(steps * qs[:-1]) + float(qs[-1] / (2.0 * grid[-1]))


def sample_from_capped_tail(w: int, rho_scale: float,
                            zeta_shift: float, n_samples: int, seed: int) -> np.ndarray:
    """Inverse-transform samples of a law satisfying the capped-tail
    hypothesis: draws X on a u-grid by flooring the inverse of q, then
    returns rho * X + zeta.

    Flooring keeps the sampled law strictly inside the hypothesis
    (P(Y > u * rho + zeta) <= q(u) for every u), so any valid expectation
    bound must dominate the sample mean; the deterministic slack is about
    rho * SAMPLER_GRID_STEP / 2.  A w whose divergence threshold is not
    below SAMPLER_GRID_END raises InvalidInputError before any grid point is
    evaluated.
    """
    _check_sampler_w(w)
    _check_count("n_samples", n_samples, 1)
    _check_law(rho_scale, zeta_shift)
    _check_count("seed", seed)
    grid, qs = _sampler_grid(w)
    uniforms = np.random.default_rng(seed).uniform(0.0, 1.0, size=n_samples)
    # the largest j with qs[j] >= U, found in the ascending reversed array;
    # qs[0] = 1, so j >= 0
    j = len(qs) - 1 - np.searchsorted(qs[::-1], uniforms, side="left")
    return rho_scale * grid[j] + zeta_shift
