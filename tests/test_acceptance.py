"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not calibrated at run time.  Monte Carlo
comparisons use 3-sigma bands (the package-wide convention) unless the
criterion states a different multiple.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from berncomp import (
    AnchorDistanceClass,
    EstimatorConfig,
    GaussianRkhsBall,
    PointSet,
    bernoulli_complexity,
    build_admissible_sequence,
    composite_bernoulli_complexity,
    diameter2,
    entropy_number,
    expectation_bound_from_tail,
    gamma2_upper,
    gaussian_complexity,
    increment_ratio,
    lipschitz_ball_sup,
    metric_space_from_pointset,
    min_truncation_objective,
    norm_pq,
    sample_from_capped_tail,
    uncenter_tail,
)
from berncomp import complexity, experiments
from berncomp.complexity import _weights
from berncomp.config import parse_config
from berncomp.experiments import (_ci_from_reps, _composition_cell, cell_seed, ols_fit,
                                  run_experiment)
from oracles import grid_lipschitz_sup, rkhs_ball_mc_lower

SEED = 20260810


def report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_explicit_constant_inequalities():
    # 100 random sets per n in {4, 8, 12}, entries uniform in [-1, 1],
    # exact signed-sum complexity, Monte Carlo Gaussian complexity with
    # 3-sigma slack; zero violations allowed.
    violations = 0
    checked = 0
    for n in (4, 8, 12):
        for rep in range(100):
            rng = np.random.default_rng(SEED + 1000 * n + rep)
            T = PointSet(rng.uniform(-1.0, 1.0, size=(8, 1, n)))
            b = bernoulli_complexity(T, EstimatorConfig(mode="exact", seed=rep))
            g = gaussian_complexity(T, EstimatorConfig(mc_samples=4000, seed=rep))
            sup_l1 = max(norm_pq(T.element(i), 1, 1) for i in range(len(T)))
            checked += 3
            if b.value > sup_l1 + 1e-9:
                violations += 1
            if diameter2(T) > 4.0 * b.value + 1e-9:
                violations += 1
            if b.value > math.sqrt(math.pi / 2) * (g.value + 3.0 * g.std_error):
                violations += 1
    report(1, f"complexity inequalities, {checked} checks, {violations} violations",
           violations == 0)


def test_criterion_2_oracle_equivalence():
    # (a) LP oracle vs brute-force grid search, 200 random instances n <= 4,
    # grid step R/200, tolerance 1e-2 * R * sum|c|.
    rng = np.random.default_rng(SEED + 2)
    grid_bad = 0
    plan = [1] * 50 + [2] * 70 + [3] * 60 + [4] * 20
    for n in plan:
        k = int(rng.integers(1, 4))
        pts = rng.uniform(-1.0, 1.0, size=(n, k))
        c = rng.normal(size=n)
        R = float(rng.uniform(0.5, 1.5))
        exact = lipschitz_ball_sup(pts, c, 1.0, R)
        approx = grid_lipschitz_sup(pts, c, 1.0, R)
        if abs(exact - approx) > 1e-2 * R * float(np.abs(c).sum()) + 1e-12:
            grid_bad += 1
    # (b) Gram closed form vs Monte Carlo over ball members: MC never
    # exceeds the closed form and the gap shrinks as samples grow (nested
    # draws), 50 instances.
    mc_bad = 0
    for trial in range(50):
        n = int(rng.integers(1, 6))
        pts = rng.uniform(-1.0, 1.0, size=(n, int(rng.integers(1, 3))))
        c = rng.normal(size=n)
        sigma = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(0.5, 2.0))
        ball = GaussianRkhsBall(sigma=sigma, rho=rho)
        closed = ball.sup(pts, c)
        small = rkhs_ball_mc_lower(pts, c, sigma, rho, 64, seed=trial)
        large = rkhs_ball_mc_lower(pts, c, sigma, rho, 4096, seed=trial)
        if small > closed + 1e-9 or large > closed + 1e-9:
            mc_bad += 1
        if large < small - 1e-12:  # nested draws can only close the gap
            mc_bad += 1
        if closed > 1e-6 and (closed - large) / closed > 0.15:
            mc_bad += 1
    report(2, f"oracle equivalence ({len(plan)} grid + 50 ball instances, "
              f"{grid_bad + mc_bad} failures)", grid_bad == 0 and mc_bad == 0)


def test_criterion_3_exact_vs_monte_carlo():
    # 500 seeded trials each for the plain and the composite complexity:
    # |MC - exact| <= 4 * std_error in at least 99% of trials.
    hits_plain = 0
    for trial in range(500):
        rng = np.random.default_rng(SEED + 30000 + trial)
        n = int(rng.integers(4, 13))
        T = PointSet(rng.uniform(-1.0, 1.0, size=(6, 1, n)))
        exact = bernoulli_complexity(T, EstimatorConfig(mode="exact", seed=trial))
        mc = bernoulli_complexity(
            T, EstimatorConfig(mode="monte-carlo", mc_samples=1500, seed=trial))
        if abs(mc.value - exact.value) <= 4.0 * mc.std_error:
            hits_plain += 1
    hits_comp = 0
    for trial in range(500):
        rng = np.random.default_rng(SEED + 40000 + trial)
        n = int(rng.integers(4, 11))
        cls_rng = np.random.default_rng(trial)
        cls = AnchorDistanceClass(cls_rng.uniform(-1.0, 1.0, size=(5, 1)),
                                  cls_rng.uniform(-1.0, 1.0, size=5), 1.0, 1.0)
        T = PointSet(rng.uniform(-1.0, 1.0, size=(5, 1, n)))
        exact = composite_bernoulli_complexity(
            cls, T, EstimatorConfig(mode="exact", seed=trial))
        mc = composite_bernoulli_complexity(
            cls, T, EstimatorConfig(mode="monte-carlo", mc_samples=1500, seed=trial))
        if abs(mc.value - exact.value) <= 4.0 * mc.std_error:
            hits_comp += 1
    report(3, f"exact vs MC agreement: plain {hits_plain}/500, "
              f"composite {hits_comp}/500 (need >= 495)",
           hits_plain >= 495 and hits_comp >= 495)


def test_criterion_4_truncation_rates():
    ns = [2 ** e for e in range(6, 13)]
    log_n = [math.log(n) for n in ns]
    # k = 1: log-log slope within 0.15 of -1/2
    vals1 = [min_truncation_objective(1, n)[0] for n in ns]
    slope1, _ = ols_fit(log_n, [math.log(v) for v in vals1])
    ok1 = abs(slope1 + 0.5) <= 0.15
    # k = 2: the constant in c * log(n) / sqrt(n) is stable (max/min <= 1.5)
    vals2 = [min_truncation_objective(2, n)[0] for n in ns]
    cs = [v * math.sqrt(n) / math.log(n) for v, n in zip(vals2, ns)]
    ratio2 = max(cs) / min(cs)
    ok2 = ratio2 <= 1.5
    # k = 4: slope within 0.15 of -1/4
    vals4 = [min_truncation_objective(4, n)[0] for n in ns]
    slope4, _ = ols_fit(log_n, [math.log(v) for v in vals4])
    ok4 = abs(slope4 + 0.25) <= 0.15
    report(4, f"rates: k=1 slope {slope1:.3f}, k=2 stability {ratio2:.3f}, "
              f"k=4 slope {slope4:.3f}", ok1 and ok2 and ok4)


def test_criterion_5_logfree_composition():
    # Composite-over-inner ratio fitted at n = 16 stays within x1.5 for
    # n in {32, 64, 128, 256}; a log^{3/2} factor would grow by ~2.8x.
    L, R, r, samples = 1.0, 1.0, 8, 160
    ratios = {}
    for n in (16, 32, 64, 128, 256):
        rng = np.random.default_rng(SEED + 50000 + n)
        table = rng.uniform(-R, R, size=(r, n))
        signs = rng.integers(0, 2, size=(samples, n)).astype(float) * 2.0 - 1.0
        rhat_inner = float(((signs @ table.T).max(axis=1) / n).mean())
        comp = np.empty(samples)
        for s in range(samples):
            comp[s] = max(
                lipschitz_ball_sup(table[j], signs[s], L, R) for j in range(r)
            ) / n
        rhat_comp = float(comp.mean())
        ratios[n] = rhat_comp / (L * (R / math.sqrt(n) + rhat_inner))
    fit = ratios[16]
    ok = all(fit / 1.5 <= ratios[n] <= fit * 1.5 for n in (32, 64, 128, 256))
    pretty = ", ".join(f"n={n}: {v:.3f}" for n, v in ratios.items())
    report(5, f"log-free composition ratios ({pretty})", ok)


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_composition_cell_is_the_criterion_5_formula_on_estimator_signs(seed):
    # composition-logfree's cell goes through the library estimators; on the
    # sign rows _weights gives its config (its blocks, concatenated) it
    # equals the inline formula.
    n, r, L, R, samples = 24, 5, 0.7, 1.3, 40
    table = np.random.default_rng(seed).uniform(-R, R, size=(r, n))
    cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples,
                          seed=cell_seed(seed, "signs"))
    blocks, exact = _weights(cfg, n)
    signs = np.concatenate([W.copy() for W in blocks])  # a block lasts until the next
    assert not exact and signs.shape == (samples, n)
    rhat_inner = float(((signs @ table.T).max(axis=1) / n).mean())
    rhat_comp = float(np.mean([
        max(lipschitz_ball_sup(table[j], s, L, R) for j in range(r)) / n for s in signs
    ]))
    expected = (rhat_comp, rhat_inner, rhat_comp / (L * (R / math.sqrt(n) + rhat_inner)))
    assert _composition_cell(seed, n, r, L, R, samples) == pytest.approx(expected, rel=1e-12)


def test_composition_runner_rows_are_its_cells(tmp_path):
    # a reduced composition-logfree run: every row is a cell's estimate in
    # repr, the summary is the replications' mean and interval, and a band
    # of 1 fails the gate at the one gated n
    body = ("experiment = composition-logfree\nn_list = [16, 32]\nseed = 7\n"
            "constants.n_functions = 4\nconstants.lp_samples = 24\n"
            "constants.replications = 2\n")
    rows, summary, ratios = [], [], {}
    for n in (16, 32):
        for rep in range(2):
            seed = cell_seed(7, "comp", n, rep)
            cell = _composition_cell(seed, n, 4, 1.0, 1.0, 24)
            rows += [["composition-logfree", str(n), "1", quantity, repr(value), "0.0", str(seed)]
                     for quantity, value in zip(("rhat_composite", "rhat_inner", "ratio"), cell)]
            ratios.setdefault(n, []).append(cell[2])
    for name, reps in [("ratio_fit_at_n0", ratios[16])] + [(f"ratio_mean_n{n}", ratios[n])
                                                           for n in (16, 32)]:
        summary.append(["composition-logfree", name] + [repr(v) for v in _ci_from_reps(reps)])
    for band, status in (("1.5", 0), ("1.0", 1)):
        config = tmp_path / f"band{band}.txt"
        config.write_text(f"{body}constants.band = {band}\nout_dir = {tmp_path / band}\n")
        lines = []
        assert run_experiment(parse_config(config), echo=lines.append) == status
        for name, expected in (("results.csv", rows), ("summary.csv", summary)):
            with open(tmp_path / band / name, newline="") as fh:
                assert list(csv.reader(fh))[1:] == expected
        fails = [line for line in lines if line.startswith("FAIL")]
        assert bool(fails) == bool(status) and all("n=32" in line for line in fails)


def test_rkhs_bound_rows_are_the_per_cell_estimates(monkeypatch, tmp_path):
    # rkhs-bound estimates b(T) once per (k, n) set and once per fit
    # replication, and b(F(T)) once per cell; every bF_ and bT_ row is the
    # library call on its set at the seed the row names
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "rkhs_bound.txt")
    cfg.n_list, cfg.out_dir = [8, 24], str(tmp_path)
    consts = {**experiments.EXPERIMENTS["rkhs-bound"].constants, **cfg.constants}
    inner = []

    def counted(T, est_cfg):
        inner.append((T.k, T.n))
        return bernoulli_complexity(T, est_cfg)

    monkeypatch.setattr(experiments, "bernoulli_complexity", counted)
    assert run_experiment(cfg, echo=lambda line: None) == 0
    fits = [(k, 8) for k in (1, 2) for _ in range(experiments.RKHS_FIT_REPLICATIONS)]
    assert inner == fits + [(k, n) for k in (1, 2) for n in (8, 24)]
    mc = min(cfg.mc_samples, experiments.RKHS_MC_CAP)
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[3][:3] in ("bF_", "bT_")]
    assert len(rows) == 2 * 2 * 2 * 6
    for _, n, k, quantity, value, std_error, seed in rows:
        n, k, seed = int(n), int(k), int(seed)
        seed_T = cell_seed(cfg.seed, "rkhs-T", k, n)
        T = experiments._random_ball_pointset(np.random.default_rng(seed_T),
                                              consts["n_elements"], k, n, consts["R"])
        est_cfg = EstimatorConfig(mode="auto", mc_samples=mc, seed=seed, exact_cutoff_n=16)
        if quantity.startswith("bT_"):
            assert seed == cell_seed(seed_T, "signs")
            est = bernoulli_complexity(T, est_cfg)
        else:
            sigma, rho = (float(part[1:]) for part in quantity.split("_")[3:])
            assert seed == cell_seed(cfg.seed, "rkhs", k, n, int(sigma * 10), int(rho * 10))
            est = composite_bernoulli_complexity(GaussianRkhsBall(sigma=sigma, rho=rho), T,
                                                 est_cfg)
        assert (value, std_error) == (repr(est.value), repr(est.std_error))


def test_no_monte_carlo_estimate_reads_a_point_set_seed(monkeypatch, tmp_path):
    # one seed for both would tie the Monte Carlo signs to the set's
    # coordinates: the signs read bit 63 of the words the set was drawn from
    set_seeds, mc_seeds = set(), set()
    for name in ("_random_pointset", "_random_ball_pointset"):
        def drawn(rng, *args, draw=getattr(experiments, name)):
            set_seeds.add(rng.bit_generator.seed_seq.entropy)
            return draw(rng, *args)
        monkeypatch.setattr(experiments, name, drawn)
    weights = complexity._weights

    def recorded(cfg, width, gaussian=False):
        blocks, exact = weights(cfg, width, gaussian)
        if not exact:
            mc_seeds.add(cfg.seed)
        return blocks, exact

    monkeypatch.setattr(complexity, "_weights", recorded)
    for body in ("experiment = lemma-checks\nn_list = [4, 16]\nmc_samples = 200\n"
                 "constants.n_sets = 3\n",
                 "experiment = composition-logfree\nn_list = [16, 32]\n"
                 "constants.n_functions = 4\nconstants.lp_samples = 24\n"
                 "constants.replications = 2\n",
                 "experiment = rkhs-bound\nn_list = [8, 24]\nmc_samples = 200\n"):
        config = tmp_path / "config.txt"
        config.write_text(f"{body}seed = 7\nout_dir = {tmp_path / 'out'}\n")
        assert run_experiment(parse_config(config), echo=lambda line: None) == 0
    assert mc_seeds and set_seeds and not mc_seeds & set_seeds


def test_criterion_6_rkhs_bound():
    # Envelope constant fitted at (n=8, sigma=1, rho=1) with a declared 1.5x
    # headroom (the ratio grows with sigma at fixed n, so the raw fit-point
    # maximum does not transfer; headroom keeps the n-growth check intact:
    # a log n factor would still breach the fixed constant by n = 128).
    headroom = 1.5
    mc = 4000
    radius = 1.0

    def complexities(T, sigma, rho, seed):
        ball = GaussianRkhsBall(sigma=sigma, rho=rho)
        cfg = EstimatorConfig(mode="auto", mc_samples=mc, seed=seed, exact_cutoff_n=16)
        return (composite_bernoulli_complexity(ball, T, cfg),
                bernoulli_complexity(T, cfg))

    def ball_points(rng, m, k, n):
        raw = rng.standard_normal(size=(m, n, k))
        raw /= np.linalg.norm(raw, axis=2, keepdims=True)
        raw *= radius * rng.uniform(0, 1, size=(m, n, 1)) ** (1.0 / k)
        return PointSet(np.swapaxes(raw, 1, 2))

    fit_ratios = []
    for k in (1, 2):
        for rep in range(5):
            rng = np.random.default_rng(SEED + 600 + 10 * k + rep)
            T = ball_points(rng, 6, k, 8)
            bF, bT = complexities(T, 1.0, 1.0, rep)
            fit_ratios.append((bF.value + 3 * bF.std_error)
                              / (bT.value / 1.0 + math.sqrt(8)))
    c_fit = headroom * max(fit_ratios)

    worst = 0.0
    bound_ok = True
    for k in (1, 2):
        for n in (8, 32, 128):
            rng = np.random.default_rng(SEED + 700 + 10 * k + n)
            T = ball_points(rng, 6, k, n)
            for sigma in (0.5, 1.0, 2.0):
                for rho in (0.5, 1.0):
                    bF, bT = complexities(T, sigma, rho, 7)
                    denom = rho * (bT.value / sigma + math.sqrt(n))
                    slack = 3.0 * (bF.std_error + c_fit * rho * bT.std_error / sigma)
                    worst = max(worst, bF.value / denom)
                    if bF.value > c_fit * denom + slack:
                        bound_ok = False
    # increment-ratio bound rho/sigma, exact enumeration on small sets
    d_ok = True
    for k in (1, 2):
        for sigma in (0.5, 1.0, 2.0):
            for rho in (0.5, 1.0):
                rng = np.random.default_rng(SEED + 800 + 10 * k + int(4 * sigma))
                S = ball_points(rng, 4, k, 6)
                ball = GaussianRkhsBall(sigma=sigma, rho=rho)
                d_val = increment_ratio(ball, S,
                                        EstimatorConfig(mode="exact", seed=1))
                if d_val > rho / sigma + 1e-9:
                    d_ok = False
    report(6, f"rkhs envelope (worst ratio {worst:.3f} vs C {c_fit:.3f}) and "
              f"increment bound", bound_ok and d_ok)


def test_criterion_7_appendix_tail_machinery():
    # Uncentering: empirical tail of Y = a + sqrt(E) on 1e6 samples never
    # exceeds the formula.  The formula is exactly attained at u = 2a, where
    # the empirical tail is an MC estimate, so the standard 3-sigma band
    # applies there; everywhere else the raw margin must be nonnegative.
    n = 1_000_000
    uncenter_ok = True
    for a in (0.0, 0.5, 1.0):
        rng = np.random.default_rng(SEED + 900 + int(10 * a))
        y = a + np.sqrt(rng.exponential(size=n))
        for u in np.arange(0.5, 4.01, 0.5):
            emp = float((y > u).mean())
            bound = uncenter_tail(a, float(u))
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / n)
            if emp > bound + 3.0 * se:
                uncenter_ok = False
            if abs(u - 2 * a) > 0.3 and emp > bound:
                uncenter_ok = False
    # Expectation conversion: the bound dominates the sampled mean of the
    # floored inverse-transform law in 50 out of 50 seeded runs.
    bound, _ = expectation_bound_from_tail(1.0, 0.25, 0)
    runs_ok = 0
    for rep in range(50):
        y = sample_from_capped_tail(0, 1.0, 0.25, 200000, seed=SEED + rep)
        if float(y.mean()) <= bound:
            runs_ok += 1
    report(7, f"tail machinery: uncentering dominated, expectation margin "
              f"{runs_ok}/50 runs", uncenter_ok and runs_ok == 50)


def test_criterion_8_chaining_structure():
    seq_ok = True
    entropy_ok = True
    two_point_ok = True
    rng = np.random.default_rng(SEED + 80)
    for rep in range(200):
        m_pts = int(rng.integers(2, 31))
        T = PointSet(rng.uniform(-1.0, 1.0, size=(m_pts, 2, 2)))
        space = metric_space_from_pointset(T)
        seq = build_admissible_sequence(space)
        try:
            seq.validate(space.size)
        except Exception:
            seq_ok = False
            continue
        if gamma2_upper(space, seq) < space.diameter - 1e-12:
            seq_ok = False
        if rep % 10 == 0:
            for m in (0, 1, 2):
                res = entropy_number(space, m)
                if res.exact is not None and res.exact > res.upper_bound + 1e-12:
                    entropy_ok = False
    for rep in range(25):
        d = float(rng.uniform(0.1, 5.0))
        space = metric_space_from_pointset(PointSet.from_rows([[0.0], [d]]))
        seq = build_admissible_sequence(space)
        if abs(gamma2_upper(space, seq) - d) > 1e-12:
            two_point_ok = False
    report(8, "admissible sequences, entropy ordering, two-point chaining value",
           seq_ok and entropy_ok and two_point_ok)
