import dataclasses
import math

import numpy as np
import pytest

from berncomp import (
    BudgetExceededError,
    DegenerateSetError,
    EstimatorConfig,
    FiniteFunctionClass,
    GaussianRkhsBall,
    InvalidInputError,
    LipschitzBall,
    PointSet,
    bernoulli_complexity,
    composite_bernoulli_complexity,
    diameter2,
    empirical_rademacher,
    gaussian_complexity,
    increment_ratio,
    norm_pq,
)
from oracles import enumerate_bernoulli_sup_mean

EXACT = EstimatorConfig(mode="exact", seed=3)


class TestBernoulliComplexity:
    def test_singleton_closed_form(self):
        est = bernoulli_complexity(PointSet.from_rows([[1.0, -2.0, 3.0]]), EXACT)
        assert est.value == 0.0 and est.method == "closed-form"

    def test_two_basis_vectors(self):
        # patterns ++, +-, -+, -- give max(e1, e2) = 1, 1, 1, -1
        est = bernoulli_complexity(PointSet.from_rows([[1.0, 0.0], [0.0, 1.0]]), EXACT)
        assert est.value == pytest.approx(0.5)
        assert est.std_error == 0.0 and est.samples == 4

    def test_diagonal_pair(self):
        est = bernoulli_complexity(PointSet.from_rows([[1.0, 1.0], [-1.0, -1.0]]), EXACT)
        assert est.value == pytest.approx(1.0)

    def test_matrix_form_uses_kn_signs(self):
        rng = np.random.default_rng(0)
        T = PointSet(rng.normal(size=(3, 2, 3)))  # k*n = 6 signs
        est = bernoulli_complexity(T, EXACT)
        assert est.samples == 2 ** 6
        assert est.value == pytest.approx(enumerate_bernoulli_sup_mean(T.vectorized()))

    def test_exact_beyond_cutoff_raises(self):
        T = PointSet(np.ones((2, 4, 4)))  # 16 signs > default cutoff 14
        with pytest.raises(BudgetExceededError):
            bernoulli_complexity(T, EstimatorConfig(mode="exact"))

    def test_auto_switches_to_monte_carlo(self):
        T = PointSet(np.ones((2, 4, 4)))
        est = bernoulli_complexity(T, EstimatorConfig(mode="auto", mc_samples=500, seed=1))
        assert est.method == "monte-carlo" and est.samples == 500 and est.std_error > 0

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed must be nonnegative, got -1"):
            EstimatorConfig(seed=-1)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_mc_samples_rejected(self, samples):
        # one sample has no standard error; reporting 0 would pass it as exact
        with pytest.raises(InvalidInputError, match="mc_samples must be >= 2"):
            EstimatorConfig(mc_samples=samples)

    def test_two_mc_samples_give_the_sample_standard_error(self):
        T = PointSet.from_rows([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=2, seed=1)
        signs = np.random.default_rng(1).integers(0, 2, size=(2, 3)) * 2.0 - 1.0
        sups = (signs @ T.vectorized().T).max(axis=1)
        est = bernoulli_complexity(T, cfg)
        assert est.samples == 2 and est.value == pytest.approx(sups.mean())
        assert est.std_error == pytest.approx(abs(sups[0] - sups[1]) / 2.0)

    def test_monotone_under_inclusion_exact(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(6, 8))
        small = bernoulli_complexity(PointSet.from_rows(rows[:3]), EXACT)
        large = bernoulli_complexity(PointSet.from_rows(rows), EXACT)
        assert small.value <= large.value + 1e-12

    def test_seed_determinism_bit_identical(self):
        T = PointSet(np.random.default_rng(2).normal(size=(4, 1, 20)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=2000, seed=77)
        a = bernoulli_complexity(T, cfg)
        b = bernoulli_complexity(T, cfg)
        assert (a.value, a.std_error) == (b.value, b.std_error)
        c = bernoulli_complexity(T, dataclasses.replace(cfg, seed=78))
        assert a.value != c.value

    def test_mc_matches_exact_within_band(self):
        rng = np.random.default_rng(4)
        misses = 0
        for trial in range(60):
            n = int(rng.integers(4, 11))
            T = PointSet(rng.uniform(-1, 1, size=(6, 1, n)))
            exact = bernoulli_complexity(T, EXACT).value
            mc = bernoulli_complexity(
                T, EstimatorConfig(mode="monte-carlo", mc_samples=1500, seed=trial)
            )
            if abs(mc.value - exact) > 4.0 * mc.std_error:
                misses += 1
        assert misses <= 1


class TestGaussianComplexity:
    def test_singleton_closed_form(self):
        est = gaussian_complexity(PointSet.from_rows([[5.0]]), EXACT)
        assert est.value == 0.0 and est.method == "closed-form"

    def test_max_of_two_standard_normals(self):
        # E max(xi1, xi2) = 1/sqrt(pi)
        T = PointSet.from_rows([[1.0, 0.0], [0.0, 1.0]])
        est = gaussian_complexity(T, EstimatorConfig(mc_samples=40000, seed=5))
        assert abs(est.value - 1.0 / math.sqrt(math.pi)) <= 3.0 * est.std_error

    def test_self_consistency_two_sample_sizes(self):
        T = PointSet.from_rows(np.eye(64))
        small = gaussian_complexity(T, EstimatorConfig(mc_samples=20000, seed=6))
        big = gaussian_complexity(T, EstimatorConfig(mc_samples=200000, seed=7))
        assert abs(small.value - big.value) <= 3.0 * (small.std_error + big.std_error)


class TestComplexityInequalities:
    def test_l1_envelope_and_diameter_and_gaussian_domination(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            T = PointSet(rng.uniform(-1, 1, size=(5, 1, n)))
            b = bernoulli_complexity(T, EXACT)
            g = gaussian_complexity(T, EstimatorConfig(mc_samples=4000, seed=trial))
            sup_l1 = max(norm_pq(T.element(i), 1, 1) for i in range(len(T)))
            assert b.value <= sup_l1 + 1e-9
            assert diameter2(T) <= 4.0 * b.value + 1e-9
            assert b.value <= math.sqrt(math.pi / 2) * g.value + 3.0 * (
                math.sqrt(math.pi / 2) * g.std_error
            )

    def test_gaussian_vs_bernoulli_log_band_on_basis_vectors(self):
        # ratio g / (b * sqrt(log m)) stays within [0.3, 3.0]
        for m in (4, 16, 64, 256, 1024, 4096):
            T = PointSet.from_rows(np.eye(m))
            samples = 4000 if m <= 256 else 600
            b = bernoulli_complexity(T, EstimatorConfig(mode="monte-carlo",
                                                        mc_samples=samples, seed=m))
            g = gaussian_complexity(T, EstimatorConfig(mc_samples=samples, seed=m + 1))
            ratio = g.value / (b.value * math.sqrt(math.log(m)))
            assert 0.3 <= ratio <= 3.0


class TestCompositeComplexity:
    def test_constant_zero_class(self):
        zero = FiniteFunctionClass(table=[[0.0, 0.0, 0.0]], lipschitz_L=1.0,
                                   uniform_bound_B=1.0)
        T = PointSet(np.random.default_rng(9).normal(size=(3, 1, 3)))
        est = composite_bernoulli_complexity(zero, T, EXACT)
        assert est.value == 0.0

    def test_rkhs_coincident_points_mean_abs_sum(self):
        # all 4 columns equal: Gram is all ones, sup = |sum eps|, mean 1.5
        T = PointSet(np.full((1, 1, 4), 0.3))
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        est = composite_bernoulli_complexity(ball, T, EXACT)
        assert est.value == pytest.approx(1.5)
        assert est.samples == 16

    def test_rkhs_root_n_envelope_per_element(self):
        # the sqrt(n) envelope holds for every single element (Jensen over
        # the signs); it need not hold for the sup over several elements
        rng = np.random.default_rng(10)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            T = PointSet(rng.uniform(-1, 1, size=(4, 2, n)))
            rho = float(rng.uniform(0.5, 2.0))
            ball = GaussianRkhsBall(sigma=float(rng.uniform(0.5, 2.0)), rho=rho)
            for i in range(len(T)):
                tau = PointSet(T.elements[i:i + 1])
                est = composite_bernoulli_complexity(ball, tau, EXACT)
                assert est.value <= rho * math.sqrt(n) + 3.0 * est.std_error + 1e-12

    def test_composite_uses_n_signs_not_kn(self):
        T = PointSet(np.random.default_rng(11).normal(size=(2, 3, 4)))  # k=3, n=4
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        est = composite_bernoulli_complexity(ball, T, EXACT)
        assert est.samples == 2 ** 4


class TestEmpiricalRademacher:
    def test_singleton_class_is_zero(self):
        cls = FiniteFunctionClass(table=[[0.7, -0.2, 0.5]], lipschitz_L=1.0,
                                  uniform_bound_B=1.0)
        est = empirical_rademacher(cls, EXACT)
        assert est.value == pytest.approx(0.0, abs=1e-15)

    def test_sign_pair_class(self):
        # {g, -g} with g = 1 on both points: (1/2) E |e1 + e2| = 0.5
        cls = FiniteFunctionClass(table=[[1.0, 1.0], [-1.0, -1.0]], lipschitz_L=1.0,
                                  uniform_bound_B=1.0)
        est = empirical_rademacher(cls, EXACT)
        assert est.value == pytest.approx(0.5)

    def test_rkhs_one_over_root_n_envelope(self):
        rng = np.random.default_rng(12)
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        for n in (4, 8, 12):
            pts = rng.uniform(-1, 1, size=(n, 1))
            est = empirical_rademacher(ball, EXACT, points=pts)
            assert est.value <= 1.0 / math.sqrt(n) + 3.0 * est.std_error + 1e-12


    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    def test_matches_bernoulli_complexity_of_the_table_rows(self, mode):
        # one sign source: the finite class over its sample is the point set
        # of its rows, and n = 8 makes the division by n exact
        table = np.random.default_rng(16).uniform(-1, 1, size=(5, 8))
        cls = FiniteFunctionClass(table=table, lipschitz_L=1.0, uniform_bound_B=1.0)
        cfg = EstimatorConfig(mode=mode, mc_samples=500, seed=17)
        est = empirical_rademacher(cls, cfg)
        plain = bernoulli_complexity(PointSet.from_rows(table), cfg)
        assert est.value == plain.value / 8
        assert (est.method, est.samples) == (plain.method, plain.samples)


class TestIncrementRatio:
    def test_singleton_class_gives_zero(self):
        class SingleFunction:
            def sup_batch(self, points, C):
                values = np.sin(np.atleast_2d(points)[:, 0])  # one fixed member
                return np.asarray(C) @ values

        oracle = SingleFunction()
        S = PointSet(np.random.default_rng(13).uniform(-1, 1, size=(3, 1, 5)))
        # sup over a single function is linear in the signs, so the mean is 0
        assert increment_ratio(oracle, S, EXACT) == pytest.approx(0.0, abs=1e-12)

    def test_rkhs_bounded_by_rho_over_sigma(self):
        rng = np.random.default_rng(14)
        for trial in range(8):
            sigma = float(rng.uniform(0.5, 2.0))
            rho = float(rng.uniform(0.5, 2.0))
            n = int(rng.integers(2, 7))
            S = PointSet(rng.uniform(-1, 1, size=(4, 2, n)))
            ball = GaussianRkhsBall(sigma=sigma, rho=rho)
            d_val = increment_ratio(ball, S, EXACT)
            assert 0.0 <= d_val <= rho / sigma + 1e-9

    def test_lipschitz_single_coordinate_increment(self):
        # elements differ in one coordinate by delta: ratio bounded by L
        rng = np.random.default_rng(15)
        base = rng.uniform(-0.5, 0.5, size=5)
        delta = 0.3
        other = base.copy()
        other[0] += delta
        S = PointSet.from_rows([base, other])
        oracle = LipschitzBall(lipschitz_L=1.0, radius_R=1.0)
        d_val = increment_ratio(oracle, S, EXACT)
        assert d_val <= 1.0 + 1e-9

    def test_degenerate_set_raises(self):
        S = PointSet.from_rows([[1.0, 2.0], [1.0, 2.0]])
        oracle = GaussianRkhsBall(sigma=1.0, rho=1.0)
        with pytest.raises(DegenerateSetError):
            increment_ratio(oracle, S, EXACT)
