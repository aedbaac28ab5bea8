"""Config-driven experiment runner behind the `pc` CLI.

Each experiment reproduces one acceptance scenario, writing a long-format
results.csv, a summary.csv of fitted constants with confidence intervals,
and one SVG figure per experiment.  Runs are pure functions of the config:
identical configs give byte-identical outputs.  EXPERIMENTS, at the bottom,
is the one table of experiments: runner, defaults and settable constants.

Every check an experiment makes is one ExperimentOutcome.gate call, which
records value <= bound + slack, returns the margin and writes the FAIL line
of a failing check; nothing else appends to ExperimentOutcome.failures.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .chaining import (
    build_admissible_sequence,
    entropy_number,
    gamma2_upper,
    min_truncation_objective,
)
from .classes import GaussianRkhsBall, LipschitzBall
from .classes import lipschitz_ball_sup  # noqa: F401 - perfbench's selftest asserts it here
from .complexity import (
    EstimatorConfig,
    bernoulli_complexity,
    composite_bernoulli_complexity,
    gaussian_complexity,
    increment_ratio,
)
from .core import (MAX_DISTANCE_POINTS, PointSet, _write_csv, diameter2,
                   metric_space_from_pointset, norm_pq)
from .errors import BudgetExceededError, InvalidInputError
from .svgplot import write_plot
from .tails import (
    divergence_threshold,
    expectation_bound_from_tail,
    tail_integral_bracket,
    tail_series,
    tail_series_capped,
    u_grid,
    uncenter_tail,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

RESULTS_HEADER = ["experiment", "n", "k", "quantity", "value", "std_error", "seed"]
SUMMARY_HEADER = ["experiment", "name", "value", "ci_low", "ci_high"]


def ols_fit(xs, ys):
    """Ordinary least squares fit y = slope * x + intercept."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm, ym = xs.mean(), ys.mean()
    var = float(((xs - xm) ** 2).sum())
    if var == 0.0:
        raise InvalidInputError("degenerate regression: all x equal")
    slope = float(((xs - xm) * (ys - ym)).sum() / var)
    return slope, float(ym - slope * xm)


def cell_seed(root: int, *tags) -> int:
    """Stable 64-bit substream seed for an experiment cell."""
    key = tuple(
        t if isinstance(t, int) else zlib.crc32(str(t).encode()) for t in tags
    )
    ss = np.random.SeedSequence(entropy=root, spawn_key=key)
    return int(ss.generate_state(2, dtype=np.uint64)[0])


# Run sizes that no config sets, each read by one runner.
LEMMA_ELEMENTS = 8
RKHS_FIT_REPLICATIONS = 5
RKHS_MC_CAP = 4000


def _budgeted(shape: tuple) -> tuple:
    """shape, after raising BudgetExceededError if it holds more than
    MAX_DISTANCE_POINTS ** 2 doubles (512 MiB, the budget of a distance
    matrix): every point set is drawn at a budgeted shape."""
    if math.prod(shape) > MAX_DISTANCE_POINTS ** 2:
        raise BudgetExceededError(f"a point set of shape {shape} exceeds the ceiling of "
                                  f"{MAX_DISTANCE_POINTS ** 2} values")
    return shape


def _random_pointset(rng, n_elements: int, k: int, n: int, box=1.0) -> PointSet:
    return PointSet(rng.uniform(-box, box, size=_budgeted((n_elements, k, n))))


def _random_ball_pointset(rng, n_elements: int, k: int, n: int, radius: float) -> PointSet:
    """Columns drawn uniformly from the k-dimensional Euclidean ball."""
    raw = rng.standard_normal(size=_budgeted((n_elements, n, k)))
    norms = np.linalg.norm(raw, axis=2, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(n_elements, n, 1)) ** (1.0 / k)
    cols = raw / norms * radii
    return PointSet(np.swapaxes(cols, 1, 2))


class ExperimentOutcome:
    def __init__(self, experiment: str):
        self.experiment = experiment
        self.rows = []       # results.csv rows
        self.summary = []    # summary.csv rows
        self.figures = {}    # filename -> (dot_series, line_series, kwargs)
        self.failures = []   # FAIL lines of the failing gates

    def add_row(self, n, k, quantity, value, std_error, seed):
        self.rows.append([
            self.experiment, str(n), str(k), quantity,
            repr(float(value)), repr(float(std_error)), str(seed),
        ])

    def add_summary(self, name, value, ci_low=None, ci_high=None):
        lo = value if ci_low is None else ci_low
        hi = value if ci_high is None else ci_high
        self.summary.append([
            self.experiment, name, repr(float(value)), repr(float(lo)), repr(float(hi)),
        ])

    def gate(self, name: str, value, bound, slack=0.0, tol=0.0) -> float:
        """Check value <= bound + slack and return the margin
        (bound - value) + slack.  The gate fails when the margin is below
        -tol or is nan; slack is the allowance the statistics grant (a
        number of standard errors), tol the one rounding needs."""
        margin = (bound - value) + slack
        if not margin >= -tol:
            extra = f" + {slack:.6g}" if slack else ""
            self.failures.append(f"FAIL: {name}: {value:.6g} > {bound:.6g}{extra}")
        return margin


def _ci_from_reps(values):
    vals = np.asarray(values, dtype=float)
    mean = float(vals.mean())
    if len(vals) < 2:
        return mean, mean, mean
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    return mean, mean - half, mean + half


# Worker threads of _map_cells; None means one per CPU this process may run
# on.  Tests set it to check that the outputs do not depend on the count.
_POOL_WORKERS = None


def _map_cells(fn, cells: list) -> list:
    """[fn(cell) for cell in cells], run on a pool of threads, in input order.

    Only lemma-checks runs its cells here: they spend their time in numpy's
    Gaussian sampler and small BLAS products, which release the GIL.  The
    other experiments stay serial, since their time goes to code that holds
    the GIL (the Lipschitz line DP, chaining-demo's small per-block steps),
    is too short to share (tails-demo, which draws no random numbers)
    or, in rkhs-bound, measured no faster on a pool.  Each cell seeds its own
    generator, so the results are the same bits at any worker count.  Each
    worker thread draws its weights into its own spare buffer (see
    complexity._blocks), freed when the pool exits.
    """
    # imported here, not at module level, where it costs every run import
    # time and memory
    from concurrent.futures import ThreadPoolExecutor
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(_POOL_WORKERS or cpus or 1, len(cells))) as pool:
        return list(pool.map(fn, cells))


def _lemma_cell(cfg: ExperimentConfig, cell: tuple) -> tuple:
    """(b, g, sup l1-norm, diameter) of the random set of one (n, rep) cell."""
    n, rep = cell
    seed = cell_seed(cfg.seed, "lemma", n, rep)
    T = _random_pointset(np.random.default_rng(seed), LEMMA_ELEMENTS, cfg.k, n)
    est_cfg = EstimatorConfig(mode="auto", mc_samples=cfg.mc_samples,
                              seed=cell_seed(seed, "signs"))
    return (bernoulli_complexity(T, est_cfg), gaussian_complexity(T, est_cfg),
            max(norm_pq(T.element(i), 1, 1) for i in range(len(T))), diameter2(T))


def _run_lemma_checks(cfg: ExperimentConfig, consts: dict) -> ExperimentOutcome:
    out = ExperimentOutcome(cfg.experiment)
    n_sets = consts["n_sets"]
    cells = iter(_map_cells(partial(_lemma_cell, cfg),
                            [(n, rep) for n in cfg.n_list for rep in range(n_sets)]))
    bound_pts, value_pts = [], []
    sqrt_half_pi = math.sqrt(math.pi / 2.0)
    tol = 1e-9
    for n in cfg.n_list:
        margins = {"l1_envelope": [], "diameter_4b": [], "gaussian_domination": []}
        for rep, (b, g, sup_l1, diam) in enumerate(islice(cells, n_sets)):
            for name, value, bound, slack in (
                    ("l1_envelope", b.value, sup_l1 + 3.0 * b.std_error, 0.0),
                    ("diameter_4b", diam, 4.0 * b.value + 12.0 * b.std_error, 0.0),
                    ("gaussian_domination", b.value, sqrt_half_pi * g.value,
                     3.0 * (b.std_error + sqrt_half_pi * g.std_error))):
                margins[name].append(out.gate(f"{name} at n={n}, set {rep}",
                                              value, bound, slack, tol))
            bound_pts.append(sup_l1)
            value_pts.append(b.value)
        for name, ms in margins.items():
            out.add_row(n, cfg.k, f"{name}_violations", sum(not m >= -tol for m in ms),
                        0.0, cfg.seed)
            out.add_row(n, cfg.k, f"{name}_min_margin", min(ms), 0.0, cfg.seed)
    out.add_summary("total_sets", len(cfg.n_list) * n_sets)
    lim = [0.0, max(bound_pts)]
    out.figures["plot_lemma_checks.svg"] = (
        [("(sup l1-norm, b)", bound_pts, value_pts)],
        [("y = x", lim, lim)],
        {"title": "signed-sum complexity vs l1 envelope", "xlabel": "sup l1 norm",
         "ylabel": "b", "loglog": False},
    )
    return out


def _run_scaling(cfg: ExperimentConfig, consts: dict) -> ExperimentOutcome:
    out = ExperimentOutcome(cfg.experiment)
    k = cfg.k
    values = []
    for n in cfg.n_list:
        v, m_star = min_truncation_objective(k, n)
        values.append(v)
        out.add_row(n, k, "min_h", v, 0.0, cfg.seed)
        out.add_row(n, k, "argmin_M", m_star, 0.0, cfg.seed)
    log_n = [math.log(n) for n in cfg.n_list]
    log_v = [math.log(v) for v in values]
    slope, intercept = ols_fit(log_n, log_v)
    out.add_summary("slope", slope)
    fit_curve = [math.exp(intercept + slope * x) for x in log_n]
    if k == 2:
        cs = [v * math.sqrt(n) / math.log(n) for v, n in zip(values, cfg.n_list)]
        ratio = max(cs) / min(cs)
        out.add_summary("stability_c_max_over_min", ratio)
        for n, c in zip(cfg.n_list, cs):
            out.add_row(n, k, "fitted_c", c, 0.0, cfg.seed)
        out.gate("k=2 rate constant stability", ratio, consts["stability_ratio"])
    else:
        target = -0.5 if k == 1 else -1.0 / k
        out.add_summary("target_slope", target)
        out.gate(f"k={k} rate slope distance from {target:g}", abs(slope - target),
                 consts["slope_tol"])
    out.figures[f"plot_{cfg.experiment}.svg"] = (
        [("min_M objective", list(cfg.n_list), values)],
        [(f"fit slope {slope:.3f}", list(cfg.n_list), fit_curve)],
        {"title": f"entropy-sum rate, k={k}", "xlabel": "n", "ylabel": "min h",
         "loglog": True},
    )
    return out


def _composition_cell(seed: int, n: int, r: int, L: float, R: float, samples: int):
    """(composite, inner, ratio), both complexities divided by n; at k = 1
    both estimators have width n, so one seed gives them the same signs."""
    rng = np.random.default_rng(seed)
    T = _random_pointset(rng, r, 1, n, R)
    est_cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples,
                              seed=cell_seed(seed, "signs"))
    rhat_comp = composite_bernoulli_complexity(LipschitzBall(L, R), T, est_cfg).value / n
    rhat_inner = bernoulli_complexity(T, est_cfg).value / n
    return rhat_comp, rhat_inner, rhat_comp / (L * (R / math.sqrt(n) + rhat_inner))


def _run_composition(cfg: ExperimentConfig, consts: dict) -> ExperimentOutcome:
    out = ExperimentOutcome(cfg.experiment)
    L, R, band = consts["L"], consts["R"], consts["band"]
    r = consts["n_functions"]
    samples = min(cfg.mc_samples, consts["lp_samples"])
    reps = consts["replications"]
    ratios_by_n = {}
    for n in cfg.n_list:
        cell_ratios = []
        for rep in range(reps):
            seed = cell_seed(cfg.seed, "comp", n, rep)
            rhat_comp, rhat_inner, ratio = _composition_cell(seed, n, r, L, R, samples)
            out.add_row(n, 1, "rhat_composite", rhat_comp, 0.0, seed)
            out.add_row(n, 1, "rhat_inner", rhat_inner, 0.0, seed)
            out.add_row(n, 1, "ratio", ratio, 0.0, seed)
            cell_ratios.append(ratio)
        ratios_by_n[n] = cell_ratios
    n0 = cfg.n_list[0]
    fit, lo, hi = _ci_from_reps(ratios_by_n[n0])
    out.add_summary("ratio_fit_at_n0", fit, lo, hi)
    means = []
    for n in cfg.n_list:
        mean, mlo, mhi = _ci_from_reps(ratios_by_n[n])
        means.append(mean)
        out.add_summary(f"ratio_mean_n{n}", mean, mlo, mhi)
        if n != n0:
            out.gate(f"composition ratio mean at n={n}", mean, fit * band)
            out.gate(f"composition band floor at n={n}", fit / band, mean)
    out.figures["plot_composition_logfree.svg"] = (
        [("ratio", list(cfg.n_list), means)],
        [("fit band high", list(cfg.n_list), [fit * band] * len(cfg.n_list)),
         ("fit band low", list(cfg.n_list), [fit / band] * len(cfg.n_list))],
        {"title": "composite over inner complexity ratio", "xlabel": "n",
         "ylabel": "ratio", "loglog": True},
    )
    return out


def _run_rkhs(cfg: ExperimentConfig, consts: dict) -> ExperimentOutcome:
    out = ExperimentOutcome(cfg.experiment)
    sigmas = (0.5, 1.0, 2.0)
    rhos = (0.5, 1.0)
    ks = (1, 2)
    radius, headroom = consts["R"], consts["fit_headroom"]
    n_elements = consts["n_elements"]
    mc = min(cfg.mc_samples, RKHS_MC_CAP)
    out.add_summary("fit_headroom", headroom)

    def estimator(seed: int) -> EstimatorConfig:
        return EstimatorConfig(mode="auto", mc_samples=mc, seed=seed, exact_cutoff_n=16)

    # Fit C at the smallest n with sigma = rho = 1, inflated by the headroom
    # factor, then hold it fixed for every other combination.
    n0 = cfg.n_list[0]
    fit_ratios = []
    for k in ks:
        for rep in range(RKHS_FIT_REPLICATIONS):
            seed = cell_seed(cfg.seed, "rkhs-fit", k, rep)
            rng = np.random.default_rng(seed)
            T = _random_ball_pointset(rng, n_elements, k, n0, radius)
            est_cfg = estimator(cell_seed(seed, "signs"))
            bF = composite_bernoulli_complexity(GaussianRkhsBall(sigma=1.0, rho=1.0), T, est_cfg)
            bT = bernoulli_complexity(T, est_cfg)
            denom = bT.value / 1.0 + math.sqrt(n0)
            fit_ratios.append((bF.value + 3.0 * bF.std_error)
                              / max(denom - 3.0 * bT.std_error, 1e-9))
    c_fit = headroom * max(fit_ratios)
    mean, lo, hi = _ci_from_reps(fit_ratios)
    out.add_summary("fit_ratio_mean", mean, lo, hi)
    out.add_summary("C_fitted", c_fit)

    ratio_series = {sigma: ([], []) for sigma in sigmas}
    for k in ks:
        for n in cfg.n_list:
            seed_T = cell_seed(cfg.seed, "rkhs-T", k, n)
            rng = np.random.default_rng(seed_T)
            T = _random_ball_pointset(rng, n_elements, k, n, radius)
            # b(T) depends on the set alone: one estimate serves its six cells
            bT = bernoulli_complexity(T, estimator(cell_seed(seed_T, "signs")))
            for sigma in sigmas:
                for rho in rhos:
                    seed = cell_seed(cfg.seed, "rkhs", k, n, int(sigma * 10), int(rho * 10))
                    bF = composite_bernoulli_complexity(GaussianRkhsBall(sigma=sigma, rho=rho),
                                                        T, estimator(seed))
                    denom = rho * (bT.value / sigma + math.sqrt(n))
                    slack = 3.0 * (bF.std_error + c_fit * rho * bT.std_error / sigma)
                    ratio = bF.value / denom
                    tag = f"k{k}_n{n}_s{sigma}_r{rho}"
                    out.add_row(n, k, f"bF_{tag}", bF.value, bF.std_error, seed)
                    out.add_row(n, k, f"bT_{tag}", bT.value, bT.std_error, bT.seed)
                    out.add_row(n, k, f"ratio_{tag}", ratio, 0.0, seed)
                    out.gate(f"rkhs bound at {tag}", bF.value, c_fit * denom, slack)
                    ratio_series[sigma][0].append(n)
                    ratio_series[sigma][1].append(ratio)
    # increment-ratio check on small surrogate sets (exact enumeration): the
    # bound is checked on these caller-supplied sets, not on the existential
    # comparison set
    for k in ks:
        for sigma in sigmas:
            for rho in rhos:
                seed = cell_seed(cfg.seed, "rkhs-D", k, int(sigma * 10), int(rho * 10))
                rng = np.random.default_rng(seed)
                S = _random_ball_pointset(rng, 4, k, 6, radius)
                ball = GaussianRkhsBall(sigma=sigma, rho=rho)
                d_val = increment_ratio(ball, S, EstimatorConfig(mode="exact"))  # reads no seed
                out.add_row(6, k, f"increment_ratio_k{k}_s{sigma}_r{rho}", d_val, 0.0, seed)
                out.gate(f"increment ratio at k={k}, sigma={sigma}, rho={rho}", d_val,
                         rho / sigma, tol=1e-9)
    dots = [(f"sigma={s}", xs, ys) for s, (xs, ys) in ratio_series.items()]
    out.figures["plot_rkhs_bound.svg"] = (
        dots,
        [("C fitted", list(cfg.n_list), [c_fit] * len(cfg.n_list))],
        {"title": "composite RKHS complexity vs bound", "xlabel": "n",
         "ylabel": "ratio", "loglog": True},
    )
    return out


def _direct_tail_sum(u: float) -> float:
    """sum_{m=1}^{8} 2^(2^(m+1)) * exp(-u^2 * 2^(m-1)), the w = 0 series cut
    where its coefficients still fit a float (2^(2^10) overflows)."""
    return sum(2.0 ** (2 ** (m + 1)) * math.exp(-u * u * 2.0 ** (m - 1))
               for m in range(1, 9))


def _run_tails_demo(cfg: ExperimentConfig, consts: dict) -> ExperimentOutcome:
    out = ExperimentOutcome(cfg.experiment)
    w = consts["w"]
    u_start, u_stop, u_step = consts["u_start"], consts["u_stop"], consts["u_step"]
    for u in u_grid(u_start, u_stop, u_step):
        p = tail_series(u, w)
        out.add_row(0, w, f"p[u={u:.4f}]", p, 0.0, cfg.seed)
        out.add_row(0, w, f"q[u={u:.4f}]", tail_series_capped(u, w), 0.0, cfg.seed)
        # second route: below the convergence threshold the series diverges,
        # so 1/p is 0 (p >= 1 there); for w = 0 and 1.75 <= u <= 26 (where
        # exp(-u^2) is still a normal float) its first 8 terms, summed
        # directly, agree with the log-space sum to rounding
        if u <= divergence_threshold(w):
            out.gate(f"1/p below the divergence threshold at u={u}", 1.0 / p, 0.0)
        elif w == 0 and 1.75 <= u <= 26.0:
            direct = _direct_tail_sum(u)
            out.gate(f"tail series off the direct sum at u={u}", abs(p - direct),
                     1e-12 * direct)
    # Uncentering dominance on the law Y = a + sqrt(E), E standard
    # exponential, whose tail P(Y > u) = exp(-max(u - a, 0)^2) is exact.  The
    # bound is attained at u = 2a, where it is also checked from above; away
    # from that point the least margin is recorded.
    for a in (0.0, 0.5, 1.0):
        min_margin = math.inf
        for u_val in (0.5 * i for i in range(1, 9)):
            exact = math.exp(-max(u_val - a, 0.0) ** 2)
            bound = uncenter_tail(a, u_val)
            margin = out.gate(f"uncentered tail at a={a}, u={u_val}", exact, bound, tol=1e-12)
            if u_val == 2.0 * a:
                out.gate(f"uncentering slack at the tight a={a}, u={u_val}", bound - exact, 1e-12)
            else:
                min_margin = min(min_margin, margin)
        out.add_row(0, w, f"uncenter_min_margin_a={a}", min_margin, 0.0, cfg.seed)
    # With rho = 1 and zeta = 0 the expectation bound is C_w.  It dominates
    # the mean of the sampler's floored law, which is the lower end of the
    # bracket, and lies below its upper end.
    bound, c_w = expectation_bound_from_tail(1.0, 0.0, w)
    lower, upper = tail_integral_bracket(w)
    out.add_summary("C_w", c_w)
    out.add_summary("expectation_min_margin", out.gate("floored mean over C_w", lower, bound))
    out.add_summary("expectation_upper_margin", out.gate("C_w over the bracket", bound, upper))
    grid = np.arange(max(u_start, 1.7), u_stop, u_step)
    qs = [tail_series_capped(float(v), w) for v in grid]
    out.figures["plot_tails_demo.svg"] = (
        [("q(u)", list(grid), qs)],
        [],
        {"title": f"capped tail series, w={w}", "xlabel": "u", "ylabel": "q",
         "loglog": False},
    )
    return out


def _run_chaining_demo(cfg: ExperimentConfig, consts: dict) -> ExperimentOutcome:
    out = ExperimentOutcome(cfg.experiment)
    n_spaces = consts["n_spaces"]
    max_pts = cfg.n_list[-1]
    gammas, diams = [], []
    for rep in range(n_spaces):
        seed = cell_seed(cfg.seed, "chain", rep)
        rng = np.random.default_rng(seed)
        m_pts = int(rng.integers(2, max_pts + 1))
        T = _random_pointset(rng, m_pts, cfg.k, 2)
        space = metric_space_from_pointset(T)
        seq = build_admissible_sequence(space)
        try:
            g2 = gamma2_upper(space, seq)  # validates seq first
        except InvalidInputError as exc:
            out.gate(f"admissible sequence invariants in space {rep} ({exc})", math.inf, 0.0)
            continue
        out.gate(f"diameter over gamma2 upper in space {rep}", space.diameter, g2, tol=1e-9)
        gammas.append(g2)
        diams.append(space.diameter)
        if rep < 25:
            e0 = entropy_number(space, 0)
            e1 = entropy_number(space, 1)
            for res in (e0, e1):
                if res.exact is not None:
                    out.gate(f"exact entropy over greedy in space {rep}", res.exact,
                             res.upper_bound, tol=1e-12)
        if m_pts == 2:
            out.gate(f"two-point gamma2 off the diameter in space {rep}",
                     abs(g2 - space.diameter), 1e-12)
    out.add_row(max_pts, cfg.k, "spaces_checked", n_spaces, 0.0, cfg.seed)
    out.add_summary("mean_gamma2_upper", float(np.mean(gammas)))
    out.figures["plot_chaining_demo.svg"] = (
        [("(diameter, gamma2 upper)", diams, gammas)],
        [("y = x", [min(diams), max(diams)], [min(diams), max(diams)])],
        {"title": "chaining functional vs diameter", "xlabel": "diameter",
         "ylabel": "gamma2 upper", "loglog": False},
    )
    return out


# ---------------------------------------------------------------------------
# the experiment table, dispatch and file output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One `pc run` experiment: its runner, default n_list and k, the k range,
    least n and least number of n it accepts, whether it draws weight rows,
    and the constants.* keys it reads with their defaults.  A constant with
    an int default takes only integers.  The runner gets those defaults
    overlaid with the config's constants.  A run that draws weights draws
    rows at most k * n wide (b(T) of a k-by-n set), so the config bounds
    k * n by complexity.MAX_WEIGHT_WIDTH for it."""

    run: Callable
    n_list: tuple
    constants: dict
    k: int = 1
    k_min: int = 1
    k_max: float = math.inf
    n_min: int = 1
    n_count_min: int = 1
    draws_weights: bool = False


_SCALING_N = (64, 128, 256, 512, 1024, 2048, 4096)

EXPERIMENTS = {
    "lemma-checks": Experiment(_run_lemma_checks, (4, 8, 12), {"n_sets": 100}, draws_weights=True),
    # the scaling runs fit a slope in log n, so they need two n
    "scaling-k1": Experiment(_run_scaling, _SCALING_N, {"slope_tol": 0.15}, k_max=1,
                             n_count_min=2),
    # n >= 2: the fitted constant divides by log n
    "scaling-k2": Experiment(_run_scaling, _SCALING_N, {"stability_ratio": 1.5},
                             k=2, k_min=2, k_max=2, n_min=2, n_count_min=2),
    "scaling-kk": Experiment(_run_scaling, _SCALING_N, {"slope_tol": 0.15}, k=4, k_min=3,
                             n_count_min=2),
    "composition-logfree": Experiment(
        _run_composition, (16, 32, 64, 128, 256),
        {"L": 1.0, "R": 1.0, "n_functions": 8, "lp_samples": 160, "replications": 3,
         "band": 1.5}, k_max=1, draws_weights=True),
    # the runner always covers k = 1 and k = 2; at k * n = 16000 each n-by-n
    # Gram matrix takes 488 MiB
    "rkhs-bound": Experiment(_run_rkhs, (8, 32, 128),
                             {"R": 1.0, "n_elements": 6, "fit_headroom": 1.5},
                             k=2, k_min=2, k_max=2, draws_weights=True),
    "tails-demo": Experiment(_run_tails_demo, (1,),
                             {"w": 0, "u_start": 0.5, "u_stop": 4.0, "u_step": 0.25},
                             k_max=1),
    # n is the largest space size; every space has at least 2 points
    "chaining-demo": Experiment(_run_chaining_demo, (30,), {"n_spaces": 200}, n_min=2),
}


def run_experiment(cfg: ExperimentConfig, echo=print) -> int:
    """Run one experiment, write its artifacts and return the exit status
    (0: all assertions passed, 1: at least one failed)."""
    cfg.validate()
    spec = EXPERIMENTS[cfg.experiment]
    outcome = spec.run(cfg, {**spec.constants, **cfg.constants})
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # figures first: write_plot raises on a range it cannot draw before it
    # opens its file, so such a run writes no file
    for name, (dots, lines, kwargs) in outcome.figures.items():
        write_plot(out_dir / name, dots, lines, **kwargs)
    _write_csv(out_dir / "results.csv", RESULTS_HEADER, outcome.rows)
    _write_csv(out_dir / "summary.csv", SUMMARY_HEADER, outcome.summary)
    if outcome.failures:
        for failure in outcome.failures:
            echo(failure)
        return 1
    echo(f"{cfg.experiment}: all assertions passed "
         f"({len(outcome.rows)} result rows in {out_dir})")
    return 0
