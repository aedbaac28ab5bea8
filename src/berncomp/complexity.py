"""Exact and Monte Carlo estimators for Rademacher (Bernoulli) and Gaussian
complexities of point sets and of composite function classes.

Two sign conventions coexist and are never mixed:

* matrix form: a set of k-by-n matrices is weighted with k*n independent
  random signs (or Gaussians), one per entry;
* composite form: a class applied to the n columns of an element is weighted
  with n independent signs, one per column.

Each operation documents which convention it uses.  Sign weights come from
one place, _sign_weights: all 2^n patterns when the config picks exact
enumeration, otherwise mc_samples draws seeded by the config.  Composite
estimators take any function class with a sup_batch(points, C) method (see
berncomp.classes).  All randomized operations are pure functions of
(inputs, seed): the same seed gives a bit-identical result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import FiniteFunctionClass, _as_points
from .core import ComplexityEstimate, PointSet
from .errors import BudgetExceededError, DegenerateSetError, InvalidInputError

# Ordered pairs closer than this (Frobenius) are skipped as degenerate: the
# increment ratio is undefined at coincident pairs.
DEGENERATE_PAIR_TOL = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator mode and budgets.

    mode "auto" selects exact enumeration iff the number of independent
    signs is at most exact_cutoff_n (2^cutoff patterns); the default 14
    keeps a single estimate under 16384 patterns.  mc_samples is at least 2,
    the least count with a sample standard error.
    """

    mode: str = "auto"
    mc_samples: int = 20000
    seed: int = 42
    exact_cutoff_n: int = 14

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "monte-carlo"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.mc_samples < 2:
            raise InvalidInputError(f"mc_samples must be >= 2, got {self.mc_samples}")
        if self.exact_cutoff_n < 1:
            raise InvalidInputError("exact_cutoff_n must be positive")
        if self.seed < 0:  # numpy generators take only nonnegative seeds
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")

    def pick_exact(self, n_signs: int) -> bool:
        if self.mode == "exact":
            if n_signs > self.exact_cutoff_n:
                raise BudgetExceededError(
                    f"exact enumeration over {n_signs} signs exceeds the cutoff "
                    f"{self.exact_cutoff_n} (2^{n_signs} patterns)"
                )
            return True
        if self.mode == "monte-carlo":
            return False
        return n_signs <= self.exact_cutoff_n


DEFAULT_CONFIG = EstimatorConfig()


def sign_patterns(n_signs: int) -> np.ndarray:
    """All 2^n sign patterns as a (2^n, n) array of +-1 floats."""
    if n_signs < 1:
        raise InvalidInputError("need at least one sign")
    idx = np.arange(2 ** n_signs, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n_signs)) & 1
    return bits.astype(float) * 2.0 - 1.0


def _sign_weights(cfg: EstimatorConfig, n: int) -> tuple[np.ndarray, bool]:
    """(weights, exact): all 2^n sign patterns if cfg picks exact
    enumeration for n signs, else cfg.mc_samples rows of random signs drawn
    from a generator seeded with cfg.seed."""
    if cfg.pick_exact(n):
        return sign_patterns(n), True
    rng = np.random.default_rng(cfg.seed)
    return rng.integers(0, 2, size=(cfg.mc_samples, n)).astype(float) * 2.0 - 1.0, False


def _finish(sups: np.ndarray, exact: bool, seed: int) -> ComplexityEstimate:
    value = float(np.mean(sups))
    samples = len(sups)
    if exact:
        return ComplexityEstimate(value, 0.0, "exact-enumeration", samples, seed)
    se = float(np.std(sups, ddof=1) / np.sqrt(samples))
    return ComplexityEstimate(value, se, "monte-carlo", samples, seed)


def _linear_sup_estimate(vecs: np.ndarray, cfg: EstimatorConfig, gaussian: bool) -> ComplexityEstimate:
    """E sup over rows of <weights, row> with independent entrywise weights."""
    m, width = vecs.shape
    if m == 1:
        # E <weights, t> = 0 for a singleton; exact regardless of mode.
        return ComplexityEstimate(0.0, 0.0, "closed-form", 0, cfg.seed)
    if gaussian:
        rng = np.random.default_rng(cfg.seed)
        draws = rng.standard_normal((cfg.mc_samples, width))
        return _finish((draws @ vecs.T).max(axis=1), False, cfg.seed)
    weights, exact = _sign_weights(cfg, width)
    return _finish((weights @ vecs.T).max(axis=1), exact, cfg.seed)


def bernoulli_complexity(T: PointSet, cfg: EstimatorConfig | None = None) -> ComplexityEstimate:
    """E sup over elements t of the sign-weighted entry sum, matrix form
    (k*n independent signs).

    Exact mode enumerates all 2^(k*n) sign patterns; Monte Carlo reports the
    sample mean with std_error = sample std / sqrt(samples).
    """
    cfg = cfg or DEFAULT_CONFIG
    return _linear_sup_estimate(T.vectorized(), cfg, gaussian=False)


def gaussian_complexity(T: PointSet, cfg: EstimatorConfig | None = None) -> ComplexityEstimate:
    """E sup over elements of the Gaussian-weighted entry sum, matrix form.

    Monte Carlo only (no finite enumeration exists); singletons return the
    closed form 0.
    """
    cfg = cfg or DEFAULT_CONFIG
    return _linear_sup_estimate(T.vectorized(), cfg, gaussian=True)


def composite_bernoulli_complexity(fclass, T: PointSet,
                                   cfg: EstimatorConfig | None = None) -> ComplexityEstimate:
    """E sup over elements t and class members f of sum_i eps_i f(t_i),
    composite form (n independent signs, one per column).

    fclass is any class with sup_batch(points, C).  The supremum couples f
    and t jointly, per sign pattern (exact) or per sample (Monte Carlo).
    """
    cfg = cfg or DEFAULT_CONFIG
    weights, exact = _sign_weights(cfg, T.n)
    # the columns of each element are its (n, k) points
    sups = np.max([fclass.sup_batch(T.element(i).T, weights)
                   for i in range(T.n_elements)], axis=0)
    return _finish(sups, exact, cfg.seed)


def empirical_rademacher(fclass, cfg: EstimatorConfig | None = None,
                         points=None) -> ComplexityEstimate:
    """Normalized empirical Rademacher complexity over a fixed sample:
    (1/n) E sup over the class of the sign-weighted value sum (n signs).

    fclass is any class with sup_batch(points, C), given together with the
    (n, k) sample points; a FiniteFunctionClass may omit them, since its
    table fixes the sample.
    """
    cfg = cfg or DEFAULT_CONFIG
    if points is None:
        if not isinstance(fclass, FiniteFunctionClass):
            raise InvalidInputError("this class needs the sample points")
        n = fclass.n_points
    else:
        points = _as_points(points)
        n = points.shape[0]
    weights, exact = _sign_weights(cfg, n)
    return _finish(fclass.sup_batch(points, weights) / n, exact, cfg.seed)


def increment_ratio(fclass, S: PointSet,
                    cfg: EstimatorConfig | None = None) -> float:
    """Worst pairwise ratio of the expected supremum of the sign-weighted
    increment sum_i eps_i (f(s_i) - f(t_i)) to the Frobenius distance
    ||s - t|| (n signs, one per column), for any class with
    sup_batch(points, C).

    Pairs closer than DEGENERATE_PAIR_TOL are skipped; if every pair is
    degenerate a DegenerateSetError is raised.  The same sign draws are used
    for every pair (common random numbers) to reduce ratio variance.
    """
    cfg = cfg or DEFAULT_CONFIG
    if S.n_elements < 2:
        raise InvalidInputError("need at least two elements")
    signs, _ = _sign_weights(cfg, S.n)
    half = np.concatenate([signs, -signs], axis=1)  # coefficients (eps, -eps)
    best = None
    vecs = S.vectorized()
    # Sign symmetry eps -> -eps makes the (s, t) and (t, s) expectations
    # equal, so unordered pairs suffice.
    for i in range(S.n_elements):
        for j in range(i + 1, S.n_elements):
            dist = float(np.linalg.norm(vecs[i] - vecs[j]))
            if dist < DEGENERATE_PAIR_TOL:
                continue
            pts = np.concatenate([S.element(i).T, S.element(j).T], axis=0)
            mean = float(np.mean(fclass.sup_batch(pts, half)))
            ratio = mean / dist
            if best is None or ratio > best:
                best = ratio
    if best is None:
        raise DegenerateSetError("all element pairs coincide within tolerance")
    return best
