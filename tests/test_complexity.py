import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berncomp import (
    AnchorDistanceClass,
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
    gaussian_complexity,
    increment_ratio,
    metric_space_from_pointset,
    norm_pq,
)
from berncomp import classes, complexity, core
from berncomp.complexity import MAX_MC_SAMPLES, _pattern_rows, _random_signs, _weights
from oracles import (enumerate_bernoulli_sup_mean, reference_composite_sup,
                     reference_increment_ratio, reference_linear_sup, reference_sign_table,
                     reference_signs)

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

    @pytest.mark.parametrize("cutoff", [0, 21])
    def test_exact_cutoff_outside_1_to_20_rejected(self, cutoff):
        # 2^21 patterns of 21 signs would be 352 MB per float copy
        with pytest.raises(InvalidInputError, match="exact_cutoff_n must be between 1 and 20"):
            EstimatorConfig(exact_cutoff_n=cutoff)
        assert EstimatorConfig(exact_cutoff_n=20).exact_cutoff_n == 20

    @pytest.mark.parametrize("field, value", [("mc_samples", 2.5), ("seed", 1.5),
                                              ("exact_cutoff_n", 2.5)])
    def test_non_integer_fields_rejected(self, field, value):
        # they used to fail later inside the weight source, or not at all
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got {value}"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_mc_samples_rejected(self, samples):
        # one sample has no standard error; reporting 0 would pass it as exact
        with pytest.raises(InvalidInputError, match="mc_samples must be >= 2"):
            EstimatorConfig(mc_samples=samples)

    @pytest.mark.parametrize("samples", [MAX_MC_SAMPLES + 1, 10 ** 20])
    def test_mc_samples_past_the_row_budget_rejected(self, samples):
        # the budget exact enumeration has at its largest cutoff; past it the
        # row-block list alone would not fit in memory
        assert MAX_MC_SAMPLES == 2 ** 20
        EstimatorConfig(mc_samples=MAX_MC_SAMPLES)
        with pytest.raises(InvalidInputError,
                           match=f"mc_samples must be at most {MAX_MC_SAMPLES}, got {samples}"):
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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 2), st.integers(1, 5))
    def test_symmetric_under_negation_exact(self, seed, m, k, n):
        T = PointSet(np.random.default_rng(seed).uniform(-1, 1, size=(m, k, n)))
        b = bernoulli_complexity(T, EXACT).value
        assert bernoulli_complexity(PointSet(-T.elements), EXACT).value == pytest.approx(
            b, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 2), st.integers(1, 5))
    def test_invariant_under_permuting_elements_and_columns_exact(self, seed, m, k, n):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(m, k, n))
        rows, cols = rng.permutation(m), rng.permutation(n)
        T, P = PointSet(X), PointSet(X[rows][:, :, cols])

        def same(est, ref):
            assert est.value == pytest.approx(ref.value, rel=1e-12)

        same(bernoulli_complexity(P, EXACT), bernoulli_complexity(T, EXACT))
        # g is Monte Carlo: its seeded draw is tied to each coordinate, so
        # only a permutation of the elements leaves the estimate unchanged
        mc = EstimatorConfig(mc_samples=200, seed=seed)
        same(gaussian_complexity(PointSet(X[rows]), mc), gaussian_complexity(T, mc))
        for fclass in (LipschitzBall(1.0, 1.0), GaussianRkhsBall(sigma=0.5, rho=1.0)):
            same(composite_bernoulli_complexity(fclass, P, EXACT),
                 composite_bernoulli_complexity(fclass, T, EXACT))

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
        zero = FiniteFunctionClass(table=[[0.0, 0.0, 0.0]], uniform_bound_B=1.0)
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


class TestPinnedBits:
    """The estimators' values at fixed seeds, bit for bit: any change to the
    generator or to the draw calls of the weight source shows here."""

    T = PointSet(np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 2, 3)))
    line = PointSet(np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, 1, 5)))
    plane = PointSet(np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 2, 6)))
    exact = EstimatorConfig(mode="exact", seed=11)
    mc = EstimatorConfig(mode="monte-carlo", mc_samples=300, seed=11)
    # more samples than one weight block, and an odd count of odd-width rows
    mc5001 = EstimatorConfig(mode="monte-carlo", mc_samples=5001, seed=11)
    rkhs = GaussianRkhsBall(sigma=0.8, rho=1.5)
    lip = LipschitzBall(lipschitz_L=1.0, radius_R=1.0)

    @pytest.mark.parametrize("name, value, std_error, method, samples", [
        ("bernoulli-exact", "0x1.b97b751e0d5fap+0", "0x0.0p+0", "exact-enumeration", 64),
        ("bernoulli-mc", "0x1.b4ba95f4819aep+0", "0x1.babbd4ee8addap-5", "monte-carlo", 300),
        ("gaussian-mc", "0x1.9e53c227eca8ap+0", "0x1.be3b214fbf816p-5", "monte-carlo", 300),
        ("composite-rkhs-exact", "0x1.8f774ecbe85c6p+1", "0x0.0p+0", "exact-enumeration", 8),
        ("composite-rkhs-mc", "0x1.89564d801cc07p+1", "0x1.13360afc37337p-5", "monte-carlo", 300),
        ("composite-lipschitz-exact", "0x1.706e58f9b86fcp+1", "0x0.0p+0", "exact-enumeration", 32),
        ("composite-lipschitz-mc", "0x1.690b25a247fd1p+1", "0x1.d5357c6def7b0p-5", "monte-carlo", 300),
        ("composite-lipschitz-k2-exact", "0x1.e4bd639b01373p+1", "0x0.0p+0", "exact-enumeration", 64),
        ("composite-lipschitz-k2-mc", "0x1.e561c03f51f14p+1", "0x1.953b80b7adf41p-5", "monte-carlo", 300),
        ("bernoulli-line-mc5001", "0x1.4100b14bd32a7p+0", "0x1.b192207d3cb97p-7", "monte-carlo", 5001),
        ("gaussian-line-mc5001", "0x1.33022bfa1b25fp+0", "0x1.daf4521e4d5f0p-7", "monte-carlo", 5001),
    ])
    def test_values_at_fixed_seeds(self, name, value, std_error, method, samples):
        kind, _, mode = name.rpartition("-")
        cfg = {"exact": self.exact, "mc": self.mc, "mc5001": self.mc5001}[mode]
        est = {"bernoulli": lambda: bernoulli_complexity(self.T, cfg),
               "bernoulli-line": lambda: bernoulli_complexity(self.line, cfg),
               "gaussian": lambda: gaussian_complexity(self.T, cfg),
               "gaussian-line": lambda: gaussian_complexity(self.line, cfg),
               "composite-rkhs": lambda: composite_bernoulli_complexity(self.rkhs, self.T, cfg),
               "composite-lipschitz": lambda: composite_bernoulli_complexity(self.lip, self.line, cfg),
               "composite-lipschitz-k2": lambda: composite_bernoulli_complexity(self.lip, self.plane, cfg),
               }[kind]()
        assert (est.value.hex(), est.std_error.hex(), est.method, est.samples, est.seed) \
            == (value, std_error, method, samples, 11)

    @pytest.mark.parametrize("name, value", [
        ("rkhs-exact", "0x1.79cc41324c97dp+0"),
        ("rkhs-mc", "0x1.7afa6d341614fp+0"),
        ("rkhs-line-mc5001", "0x1.69f78d5b7bf5fp+0"),
        ("lipschitz-line-exact", "0x1.1da3cd405a378p+0"),
        ("lipschitz-line-mc", "0x1.1af5b4a2db58fp+0"),
        ("lipschitz-exact", "0x1.658d857cc23c1p+0"),
    ])
    def test_increment_ratios_at_fixed_seeds(self, name, value):
        kind, _, mode = name.rpartition("-")
        cfg = {"exact": self.exact, "mc": self.mc, "mc5001": self.mc5001}[mode]
        fclass = self.rkhs if kind.startswith("rkhs") else self.lip
        S = self.line if kind.endswith("-line") else self.T
        assert increment_ratio(fclass, S, cfg).hex() == value

    def test_gaussian_rows_never_ask_for_exact_enumeration(self):
        # 6 Gaussian weights under an exact-mode cutoff of 4: no budget
        # error, and the same draws as in Monte Carlo mode
        cfg = EstimatorConfig(mode="exact", mc_samples=300, seed=11, exact_cutoff_n=4)
        assert gaussian_complexity(self.T, cfg) == gaussian_complexity(self.T, self.mc)


class TestWeightBlocks:
    """_weights yields its rows in blocks of WEIGHT_BLOCK rows, each from a
    bit-exact source, so the rows do not depend on the block size; nor do
    the estimates at these widths, below those where BLAS rounds small
    blocks differently."""

    line = PointSet(np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, 1, 5)))  # odd width
    mc = EstimatorConfig(mode="monte-carlo", mc_samples=301, seed=11)  # odd count

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4097, 3)])
    @pytest.mark.parametrize("seed", [0, 11, 2023])
    def test_raw_word_signs_are_the_integers_draw(self, shape, seed):
        signs = _random_signs(np.random.default_rng(seed).bit_generator, shape)
        assert signs.tobytes() == reference_signs(seed, shape).tobytes()

    @pytest.mark.parametrize("shape", [(4000, 128), (4000, 256), (7, 33333), (1, 65537),
                                       (1, 2 ** 17 + 1)])
    def test_signs_read_in_chunks_are_the_integers_draw(self, shape):
        signs = _random_signs(np.random.default_rng(5).bit_generator, shape)
        assert signs.tobytes() == reference_signs(5, shape).tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_every_chunk_size_reads_the_same_signs(self, monkeypatch, chunk):
        monkeypatch.setattr(complexity, "SIGN_CHUNK_WORDS", chunk)
        for shape in [(1, 1), (3, 5), (7, 33), (301, 10)]:
            signs = _random_signs(np.random.default_rng(3).bit_generator, shape)
            assert signs.tobytes() == reference_signs(3, shape).tobytes()

    def test_a_sign_block_holds_one_chunk_of_words_beside_its_signs(self):
        # 8.2 MB of signs over 16 chunks; all their words at once would
        # hold 4.1 MB more.  A chunk's words and their conversion take
        # 16 bytes a word.
        shape = (4000, 256)
        signs_bytes = 8 * shape[0] * shape[1]
        tracemalloc.start()
        try:
            _random_signs(np.random.default_rng(1).bit_generator, shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < signs_bytes + 32 * complexity.SIGN_CHUNK_WORDS < 1.5 * signs_bytes

    @pytest.mark.parametrize("short, long", [((1, 1), (1, 2)), ((3, 5), (2, 8)), ((3, 5), (3, 15)),
                                             ((301, 5), (301, 10)), ((4097, 3), (4096, 9))])
    def test_a_short_draw_is_the_prefix_of_a_long_one(self, short, long):
        # signs read the generator's words in order: a block of a draw
        # continues where the block before it stopped
        flat = _random_signs(np.random.default_rng(7).bit_generator, long).reshape(-1)
        signs = _random_signs(np.random.default_rng(7).bit_generator, short)
        assert signs.tobytes() == flat[:short[0] * short[1]].tobytes()

    @pytest.mark.parametrize("n", [1, 3, 5, 12, 13])
    def test_sign_patterns_are_the_shift_table(self, n):
        assert _pattern_rows(0, 2 ** n, n).tobytes() == reference_sign_table(n).tobytes()

    @staticmethod
    def _rows(cfg, width, gaussian):
        blocks, exact = _weights(cfg, width, gaussian)
        return np.concatenate([W.copy() for W in blocks]), exact  # a block lasts until the next

    @pytest.mark.parametrize("mode, width, gaussian, samples", [
        ("exact", 13, False, 2), ("monte-carlo", 7, False, 4097), ("monte-carlo", 7, False, 9000),
        ("monte-carlo", 7, True, 4097), ("monte-carlo", 7, True, 9000)])
    def test_rows_are_the_one_shot_draw_at_every_block_size(self, monkeypatch, mode, width,
                                                            gaussian, samples):
        cfg = EstimatorConfig(mode=mode, mc_samples=samples, seed=5, exact_cutoff_n=13)
        if mode == "exact":
            one_shot = reference_sign_table(width)
        elif gaussian:
            one_shot = np.random.default_rng(5).standard_normal((samples, width))
        else:
            one_shot = reference_signs(5, (samples, width))
        assert complexity.WEIGHT_BLOCK % 2 == 0
        for block in (complexity.WEIGHT_BLOCK, 2, 4):
            monkeypatch.setattr(complexity, "WEIGHT_BLOCK", block)
            rows, exact = self._rows(cfg, width, gaussian)
            assert exact == (mode == "exact")
            assert rows.tobytes() == one_shot.tobytes()

    def test_a_lone_last_row_joins_the_block_before_it(self, monkeypatch):
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", 4)
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=9, seed=1)
        assert [len(W) for W in _weights(cfg, 3)[0]] == [4, 5]
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=10, seed=1)
        assert [len(W) for W in _weights(cfg, 3)[0]] == [4, 4, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_a_lone_last_row_keeps_the_one_shot_product(self, monkeypatch, seed):
        # three Gaussian rows in blocks of two: as a block of its own the
        # last row would go through a matrix-vector product, which rounds
        # differently
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", 2)
        vecs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, 10))
        W = np.random.default_rng(seed).standard_normal((3, 10))
        sups = np.ascontiguousarray((W @ vecs.T).T).max(axis=0)
        est = gaussian_complexity(PointSet.from_rows(vecs),
                                  EstimatorConfig(mode="monte-carlo", mc_samples=3, seed=seed))
        assert (est.value, est.std_error) == (np.mean(sups), np.std(sups, ddof=1) / np.sqrt(3))

    @pytest.mark.parametrize("name", ["bernoulli-exact", "bernoulli-mc", "gaussian-mc",
                                      "composite-rkhs-mc", "composite-lipschitz-mc",
                                      "increment-ratio-mc"])
    def test_estimates_do_not_depend_on_the_block_size(self, monkeypatch, name):
        kind, _, mode = name.rpartition("-")
        cfg = EXACT if mode == "exact" else self.mc
        rkhs = GaussianRkhsBall(sigma=0.8, rho=1.5)
        run = {"bernoulli": lambda: bernoulli_complexity(self.line, cfg),
               "gaussian": lambda: gaussian_complexity(self.line, cfg),
               "composite-rkhs": lambda: composite_bernoulli_complexity(rkhs, self.line, cfg),
               "composite-lipschitz": lambda: composite_bernoulli_complexity(
                   LipschitzBall(lipschitz_L=1.0, radius_R=1.0), self.line, cfg),
               "increment-ratio": lambda: increment_ratio(rkhs, self.line, cfg)}[kind]
        default = run()
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", 2)
        assert repr(run()) == repr(default)

    def test_memory_stays_under_the_full_weight_array(self):
        # 40000 rows of 64 signs are 20 MB as one float array; blocked, the
        # weights held at once are one block and a chunk of its raw words
        T = PointSet(np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 8, 8)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=40000, seed=4)
        tracemalloc.start()
        try:
            bernoulli_complexity(T, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = (complexity.WEIGHT_BLOCK + 1) * 64 * 8
        assert peak < 4 * block_bytes < 0.5 * 40000 * 64 * 8

    @staticmethod
    def _first_block(fclass, T, cfg):
        """The first weight chunk a composite estimate hands fclass, as
        drawn, not a copy."""
        seen = []

        class Recording:
            def bind(self, points):
                sups = fclass.bind(points)
                return lambda C: seen.append(C) or sups(C)

        composite_bernoulli_complexity(Recording(), T, cfg)
        return seen[0]

    def test_successive_estimates_draw_into_one_buffer(self):
        # the guard against a fresh block per estimate, whose pages the
        # allocator hands back to the system and faults in again
        ball = GaussianRkhsBall(sigma=0.8, rho=1.5)
        first = self._first_block(ball, self.line, self.mc)
        second = self._first_block(ball, self.line, dataclasses.replace(self.mc, seed=12))
        assert np.shares_memory(first, second)

    def test_a_larger_dirty_spare_keeps_the_fresh_threads_bits(self):
        # a wide Gaussian estimate leaves a spare larger than the next block
        # and full of its values; the next estimate reads only its own rows
        ball = GaussianRkhsBall(sigma=0.8, rho=1.5)
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=301, seed=11)
        wide = PointSet(np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 4, 64)))
        runs = {"b": lambda: bernoulli_complexity(self.line, cfg),
                "g": lambda: gaussian_complexity(self.line, cfg),
                "exact": lambda: bernoulli_complexity(self.line, EXACT),
                "composite": lambda: composite_bernoulli_complexity(ball, self.line, cfg),
                "increment": lambda: increment_ratio(ball, self.line, cfg)}
        fresh = {}

        def on_a_fresh_thread():
            fresh.update({name: repr(run()) for name, run in runs.items()})

        thread = threading.Thread(target=on_a_fresh_thread)
        thread.start()
        thread.join()
        for name, run in runs.items():
            gaussian_complexity(wide, EstimatorConfig(mode="monte-carlo", mc_samples=5000, seed=1))
            assert repr(run()) == fresh[name]

    def test_an_estimate_nested_in_a_sup_batch_draws_into_its_own_buffer(self):
        # the inner estimate runs while the outer block is live, before the
        # class reads it: sharing one buffer would overwrite the outer rows
        ball = GaussianRkhsBall(sigma=0.8, rho=1.5)
        inner_set = PointSet(np.random.default_rng(8).uniform(-1.0, 1.0, size=(4, 1, 4)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=9000, seed=3)
        inner = []

        class Nested:
            def bind(self, points):
                sups = ball.bind(points)

                def nested(C):
                    inner.append(repr(bernoulli_complexity(inner_set, cfg)))
                    return sups(C)
                return nested

        # run apart first, so that the thread holds a spare both chunks fit
        apart = repr(composite_bernoulli_complexity(ball, self.line, cfg))
        inner_apart = repr(bernoulli_complexity(inner_set, cfg))
        assert repr(composite_bernoulli_complexity(Nested(), self.line, cfg)) == apart
        assert inner == [inner_apart] * 3  # one inner estimate per outer chunk

    def test_a_block_past_the_keep_limit_leaves_no_spare(self, monkeypatch):
        # on a fresh thread, which starts with no spare: 20 rows of 5 signs
        # take 100 doubles
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=20, seed=1)
        spares = []

        def estimate_at(limit):
            monkeypatch.setattr(complexity, "SPARE_DOUBLES", limit)
            bernoulli_complexity(self.line, cfg)
            spares.append(getattr(complexity._SPARE, "buf", None))

        def on_a_fresh_thread():
            spares.append(getattr(complexity._SPARE, "buf", None))
            for limit in (99, 100, 99):
                estimate_at(limit)

        thread = threading.Thread(target=on_a_fresh_thread)
        thread.start()
        thread.join()
        assert [None if spare is None else spare.size for spare in spares] == \
            [None, None, 100, None]


class TestWeightWidthBudget:
    """_weights raises BudgetExceededError past MAX_WEIGHT_WIDTH before it
    draws a row: b and g read k*n weights a row, the composite and the
    increment ratio n."""

    ball = LipschitzBall(lipschitz_L=1.0, radius_R=1.0)

    def _estimates(self, T, mode="monte-carlo"):
        cfg = EstimatorConfig(mode=mode, mc_samples=2, seed=1)
        return {"b": lambda: bernoulli_complexity(T, cfg),
                "g": lambda: gaussian_complexity(T, cfg),
                "composite": lambda: composite_bernoulli_complexity(self.ball, T, cfg),
                "increment": lambda: increment_ratio(self.ball, T, cfg)}

    @staticmethod
    def _set(k, n):
        return PointSet(np.random.default_rng(n).uniform(-1.0, 1.0, size=(2, k, n)))

    @staticmethod
    def _no_draws(monkeypatch):
        def never(*args):
            raise AssertionError("a weight row was drawn")

        monkeypatch.setattr(complexity, "_random_signs", never)
        monkeypatch.setattr(complexity, "_row_blocks", never)  # Gaussian and exact rows too

    @pytest.mark.parametrize("mode", ["auto", "monte-carlo", "exact"])
    @pytest.mark.parametrize("name", ["b", "g", "composite", "increment"])
    def test_one_past_the_ceiling_raises_before_any_draw(self, monkeypatch, name, mode):
        assert complexity.MAX_WEIGHT_WIDTH == 16000
        self._no_draws(monkeypatch)
        width = complexity.MAX_WEIGHT_WIDTH + 1
        with pytest.raises(BudgetExceededError,
                           match=f"^weight rows {width} wide exceed the ceiling of 16000$"):
            self._estimates(self._set(1, width), mode)[name]()

    @pytest.mark.parametrize("name", ["b", "g", "composite", "increment"])
    def test_at_the_ceiling_every_estimate_runs(self, name):
        result = self._estimates(self._set(1, complexity.MAX_WEIGHT_WIDTH))[name]()
        if name == "increment":
            assert 0.0 < result < math.inf
        else:
            assert (result.method, result.samples) == ("monte-carlo", 2)

    def test_b_and_g_count_k_times_n_the_composite_n(self, monkeypatch):
        n = complexity.MAX_WEIGHT_WIDTH // 2 + 1
        T = self._set(2, n)
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=2, seed=1)
        # a tabulated class, since the k = 2 Lipschitz oracle stops at 64 points
        table = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, n))
        assert composite_bernoulli_complexity(FiniteFunctionClass(table, 1.0), T, cfg).samples == 2
        self._no_draws(monkeypatch)
        for name in ("b", "g"):
            with pytest.raises(BudgetExceededError, match=f"weight rows {2 * n} wide"):
                self._estimates(T)[name]()


def _four_classes(k: int, n: int) -> dict:
    rng = np.random.default_rng(10 * k + n)
    return {"finite": FiniteFunctionClass(rng.uniform(-1.0, 1.0, size=(4, n)), 1.0),
            "lipschitz": LipschitzBall(lipschitz_L=1.0, radius_R=1.0),
            "rkhs": GaussianRkhsBall(sigma=0.8, rho=1.5),
            "anchor": AnchorDistanceClass(rng.uniform(-1.0, 1.0, size=(3, k)),
                                          rng.uniform(-1.0, 1.0, size=3), 1.0, 2.0)}


class TestCompositeMonteCarlo:
    """A Monte Carlo composite estimate reduces the n-wide sign rows its seed
    gives, for every class at every k, and holds few weight blocks at once."""

    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("samples", [2, 3, 301])
    def test_every_class_at_every_k_reads_n_signs_a_row(self, name, k, samples):
        T = PointSet(np.random.default_rng(k).uniform(-1.0, 1.0, size=(3, k, 5)))
        fclass = _four_classes(k, 5)[name]
        W = reference_signs(samples, (samples, 5))  # one weight block
        sups = np.max([fclass.sup_batch(T.element(i).T[None], W)[0] for i in range(3)], axis=0)
        est = composite_bernoulli_complexity(
            fclass, T, EstimatorConfig(mode="monte-carlo", mc_samples=samples, seed=samples))
        assert (est.value, est.std_error, est.method, est.samples) == \
            (np.mean(sups), np.std(sups, ddof=1) / np.sqrt(samples), "monte-carlo", samples)

    def test_memory_stays_at_the_per_row_suprema_and_a_few_blocks(self):
        # 40000 rows of 8 signs are 2.56 MB as one float array; blocked, the
        # estimate holds the per-row suprema and their concatenation (16
        # bytes a row), one block and the RKHS ball's temporaries
        T = PointSet(np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 8, 8)))
        samples = 40000
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples, seed=4)
        tracemalloc.start()
        try:
            composite_bernoulli_complexity(GaussianRkhsBall(sigma=1.0, rho=1.0), T, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = (complexity.WEIGHT_BLOCK + 1) * 8 * 8
        assert peak < 16 * samples + 4 * block_bytes < samples * 8 * 8


def _peak_on_a_fresh_thread(estimate):
    """The tracemalloc peak of estimate() on a fresh thread, which has no
    spare buffer yet, so the weights it draws are counted."""
    done = []
    thread = threading.Thread(target=lambda: done.append(estimate()))
    tracemalloc.start()
    try:
        thread.start()
        thread.join()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(done) == 1  # the estimate ran to its end
    return peak


def _block_lengths(samples: int, block: int) -> list:
    """Blocks of block rows; a lone last row joins the block before it."""
    q, last = divmod(samples, block)
    if last == 1 and q > 0:
        return [block] * (q - 1) + [block + 1]
    return [block] * q + ([last] if last else [])


class TestStackedEstimates:
    """The estimators hand a class every element, or every pair, of a weight
    block in one sup_batch call, and check the (E, rows) shape it returns."""

    def test_a_k2_composite_estimate_is_one_simplex_stack_per_weight_block(self, monkeypatch):
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", 16)
        heights = []
        solve = classes.simplex_maximize

        def record(c, A, b):
            heights.append(len(c))
            return solve(c, A, b)

        T = PointSet(np.random.default_rng(33).uniform(-1.0, 1.0, size=(4, 2, 16)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=33, seed=3)
        monkeypatch.setattr(classes, "simplex_maximize", record)
        est = composite_bernoulli_complexity(LipschitzBall(1.0, 1.0), T, cfg)
        assert heights == [4 * 16, 4 * 17]  # a lone last row joins the block before it
        monkeypatch.setattr(classes, "simplex_maximize", solve)
        W = reference_signs(3, (33, 16))
        ball = LipschitzBall(1.0, 1.0)
        sups = np.concatenate([np.max([ball.sup_batch(T.element(i).T[None], W[a:b])[0]
                                       for i in range(4)], axis=0) for a, b in [(0, 16), (16, 33)]])
        assert (est.value, est.std_error) == (np.mean(sups), np.std(sups, ddof=1) / np.sqrt(33))

    def test_a_class_for_one_set_is_named_with_the_shape_it_returned(self):
        class OneSet:
            """A class written for one (n, k) set, which a stack fools when
            its sizes line up."""

            def bind(self, points):
                return lambda C: np.asarray(C) @ np.sin(np.asarray(points, dtype=float)[:, 0])

        # 3 elements of 3 points: the stack's (3, 1) first points pass for
        # the 3 coefficients; 4 elements are 6 pairs of 6 points
        T = PointSet(np.random.default_rng(2).uniform(-1.0, 1.0, size=(4, 1, 3)))
        returned = r"OneSet\.bind\(points\)\(C\) returned shape \(8, 1\)"
        with pytest.raises(InvalidInputError, match=returned):
            composite_bernoulli_complexity(OneSet(), PointSet(T.elements[:3]), EXACT)
        with pytest.raises(InvalidInputError, match=returned):
            increment_ratio(OneSet(), T, EXACT)


class TestCompositeAndInnerApart:
    """The composite estimate reads n signs a row and the inner estimate k*n,
    each from its own draw at the same seed: at every k, mode and block size
    each is the mean of its per-row suprema over the rows its width gives."""

    @staticmethod
    def _pair(fclass, T, cfg):
        return composite_bernoulli_complexity(fclass, T, cfg), bernoulli_complexity(T, cfg)

    @staticmethod
    def _reference(fclass, T, comp_rows, inner_rows):
        # per-row suprema of both estimates over the given rows, reduced in
        # blocks of WEIGHT_BLOCK rows with a lone last row merged
        points = [T.element(i).T[None] for i in range(T.n_elements)]
        vecs = T.vectorized()

        def blocked(rows, reduce):
            stops = np.cumsum(_block_lengths(len(rows), complexity.WEIGHT_BLOCK))
            return np.concatenate([reduce(rows[a:b]) for a, b in zip([0, *stops[:-1]], stops)])

        return (blocked(comp_rows, lambda C: np.max([fclass.sup_batch(p, C)[0] for p in points],
                                                    axis=0)),
                blocked(inner_rows, lambda W: (W @ vecs.T).max(axis=1)))

    @pytest.mark.parametrize("block, samples", [
        (block, samples) for block in (4096, 4, 2) for samples in (2, 3, 301, 4097, 9000)
        if block > 2 or samples <= 301])  # blocks of four cover the long runs
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_block_size(self, monkeypatch, block, samples, k):
        T = PointSet(np.random.default_rng(k).uniform(-1.0, 1.0, size=(2, k, 3)))
        ball = GaussianRkhsBall(sigma=0.8, rho=1.5)
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples, seed=k)
        default = self._pair(ball, T, cfg)
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", block)
        assert repr(self._pair(ball, T, cfg)) == repr(default)

    @pytest.mark.parametrize("k, samples", [(2, 9), (2, 17), (3, 13)])
    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    def test_a_merged_last_row_at_both_widths(self, monkeypatch, k, samples, name):
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", 4)
        T = PointSet(np.random.default_rng(k).uniform(-1.0, 1.0, size=(3, k, 5)))
        fclass = _four_classes(k, 5)[name]
        assert _block_lengths(samples, 4)[-1] == 5
        sups = self._reference(fclass, T, reference_signs(1, (samples, 5)),
                               reference_signs(1, (samples, 5 * k)))
        comp, inner = self._pair(fclass, T,
                                 EstimatorConfig(mode="monte-carlo", mc_samples=samples, seed=1))
        for est, s in zip((comp, inner), sups):
            assert (est.value, est.std_error, est.method, est.samples) == \
                (np.mean(s), np.std(s, ddof=1) / np.sqrt(samples), "monte-carlo", samples)

    @pytest.mark.parametrize("k, samples, block", [(1, 9, 4), (2, 9, 4), (2, 17, 4), (3, 13, 4),
                                                   (2, 10, 4), (3, 301, 2), (2, 4097, 4096)])
    def test_each_width_reads_its_own_rows_at_every_block_size(self, monkeypatch, k, samples,
                                                               block):
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", block)
        n = 5
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples, seed=2)
        for width in (n, k * n):
            blocks, exact = _weights(cfg, width)
            blocks = [W.copy() for W in blocks]  # a block lasts until the next is drawn
            assert not exact
            assert [len(W) for W in blocks] == _block_lengths(samples, block)
            assert np.concatenate(blocks).tobytes() == \
                reference_signs(2, (samples, width)).tobytes()

    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    @pytest.mark.parametrize("mode, cutoff, n", [
        ("exact", 14, 3),         # both exact
        ("auto", 4, 3),           # composite exact, inner Monte Carlo at k = 2
        ("auto", 4, 5),           # both Monte Carlo
        ("monte-carlo", 14, 3)])
    def test_every_mode(self, name, mode, cutoff, n):
        T = PointSet(np.random.default_rng(n).uniform(-1.0, 1.0, size=(2, 2, n)))
        cfg = EstimatorConfig(mode=mode, mc_samples=301, seed=5, exact_cutoff_n=cutoff)
        fclass = _four_classes(2, n)[name]
        sups = self._reference(fclass, T, *(reference_sign_table(w) if cfg.pick_exact(w) else
                                            reference_signs(5, (301, w)) for w in (n, 2 * n)))
        for est, s, width in zip(self._pair(fclass, T, cfg), sups, (n, 2 * n)):
            exact = cfg.pick_exact(width)
            assert est.method == ("exact-enumeration" if exact else "monte-carlo")
            assert (est.value, est.samples) == (np.mean(s), len(s))
            assert est.std_error == (0.0 if exact else np.std(s, ddof=1) / np.sqrt(len(s)))

    def test_exact_mode_past_the_cutoff_raises_for_the_inner_estimate_only(self):
        T = PointSet(np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 2, 5)))
        cfg = EstimatorConfig(mode="exact", exact_cutoff_n=8)
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        assert composite_bernoulli_complexity(ball, T, cfg).method == "exact-enumeration"
        with pytest.raises(BudgetExceededError, match="10 signs"):
            bernoulli_complexity(T, cfg)

    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    def test_a_singleton_set(self, mode):
        T = PointSet(np.random.default_rng(4).uniform(-1.0, 1.0, size=(1, 2, 3)))
        cfg = EstimatorConfig(mode=mode, mc_samples=301, seed=6)
        comp, inner = self._pair(GaussianRkhsBall(sigma=0.8, rho=1.5), T, cfg)
        assert (inner.value, inner.std_error, inner.method) == (0.0, 0.0, "closed-form")
        assert comp.value > 0.0
        assert comp.method == ("exact-enumeration" if mode == "exact" else "monte-carlo")


class TestProductChunks:
    """Every product on weight or coefficient rows is taken in row chunks of
    at most core.PRODUCT_BYTES (core._in_row_chunks), with a lone last row
    merged into the chunk before it.  At chunks of two rows, of odd sizes
    and with a lone last row, every estimate keeps the bits of the default
    chunks, at these widths, below those where BLAS rounds products of a
    few rows differently."""

    T = PointSet(np.random.default_rng(40).uniform(-1.0, 1.0, size=(3, 2, 5)))
    mc = EstimatorConfig(mode="monte-carlo", mc_samples=301, seed=40)  # a lone row at 2, 3 and 5

    @classmethod
    def _estimates(cls) -> dict:
        """name: (width of its weight rows, estimate)."""
        T, mc, k, n = cls.T, cls.mc, cls.T.k, cls.T.n
        exact = EstimatorConfig(mode="exact", seed=40)  # 2^10 rows: a lone row at 3
        fclasses = _four_classes(k, n)
        out = {"b-mc": (k * n, lambda: bernoulli_complexity(T, mc)),
               "b-exact": (k * n, lambda: bernoulli_complexity(T, exact)),
               "g": (k * n, lambda: gaussian_complexity(T, mc)),
               "increment": (2 * n, lambda: increment_ratio(fclasses["rkhs"], T, mc))}
        for name in ("rkhs", "anchor", "finite"):
            out[name] = (n, lambda f=fclasses[name]: composite_bernoulli_complexity(f, T, mc))
        return out

    @pytest.mark.parametrize("rows", [2, 3, 5, 7])
    @pytest.mark.parametrize("name", ["b-mc", "b-exact", "g", "increment", "rkhs", "anchor",
                                      "finite"])
    def test_chunk_sizes_keep_the_bits(self, monkeypatch, name, rows):
        # every estimate draws its weights in the chunks its product cuts,
        # so the draw cuts each block and every product gets one chunk whole
        width, estimate = self._estimates()[name]
        default = repr(estimate())
        draws, products = [], []  # (total, size, bounds) of each _row_blocks call
        blocks = core._row_blocks

        def recording(calls):
            def recorded(total, size):
                calls.append((total, size, blocks(total, size)))
                return calls[-1][2]
            return recorded

        monkeypatch.setattr(complexity, "_row_blocks", recording(draws))
        monkeypatch.setattr(core, "_row_blocks", recording(products))
        monkeypatch.setattr(core, "PRODUCT_BYTES", 8 * rows * width)
        assert repr(estimate()) == default
        cuts = [call for call in draws if call[1] == rows]
        assert len(cuts[0][2]) > 1  # the block was cut
        for total, size, bounds in draws + products:
            if size == rows:
                assert [b - a for a, b in bounds] == _block_lengths(total, rows)
        assert products and all(len(bounds) == 1 for _, _, bounds in products)

    def test_products_are_never_cut_below_two_rows(self, monkeypatch):
        estimates = self._estimates()
        default = {name: repr(estimate()) for name, (_, estimate) in estimates.items()}
        monkeypatch.setattr(core, "PRODUCT_BYTES", 1)
        assert {name: repr(estimate()) for name, (_, estimate) in estimates.items()} == default

    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    def test_zero_rows(self, monkeypatch, name):
        fclass = _four_classes(2, 5)[name]
        pts = self.T.elements.transpose(0, 2, 1)
        default = fclass.sup_batch(pts, np.empty((0, 5)))
        monkeypatch.setattr(core, "PRODUCT_BYTES", 1)
        assert fclass.sup_batch(pts, np.empty((0, 5))).shape == default.shape == (3, 0)

    @pytest.mark.parametrize("rows, width, budget, lengths", [
        (4000, 256, None, [512] * 7 + [416]),  # rkhs-bound's widest block, in 1 MiB chunks
        (4097, 12, None, [4097]),              # lemma-checks' blocks stay one product
        (11, 2, 1, [2, 2, 2, 2, 3])])          # never below two rows; a lone last row merged
    def test_chunk_bounds(self, monkeypatch, rows, width, budget, lengths):
        if budget is not None:
            monkeypatch.setattr(core, "PRODUCT_BYTES", budget)
        C = np.arange(rows * width, dtype=float).reshape(rows, width)
        seen = []
        got = core._in_row_chunks(lambda part: seen.append(len(part)) or part[:, 0], C)
        assert seen == lengths
        assert got.tobytes() == C[:, 0].tobytes()

    @staticmethod
    def _grown_kib(script):
        """What the script prints, run in a fresh process on this checkout."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        return int(subprocess.run([sys.executable, "-c", script],
                                  env=dict(os.environ, PYTHONPATH=src), check=True,
                                  capture_output=True, text=True).stdout)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_blas_working_set_in_a_fresh_process(self):
        # tracemalloc cannot see the buffers BLAS packs its operands into;
        # the peak resident size can.  b(T) on 3 elements of 2 x 128 points
        # at 4000 Monte Carlo rows, then the RKHS composite on the same set.
        # The weight block is 4000 x 256 doubles.  Handed the whole block,
        # BLAS grew the peak by about 20 MiB on a 2-core host; in chunks,
        # by about 11 MiB.  The peak is the process's own VmHWM: ru_maxrss
        # keeps the peak of the process that launched it across exec, so
        # under pytest it would not grow at all.
        script = (
            "import numpy as np\n"
            "from berncomp import (EstimatorConfig, GaussianRkhsBall, PointSet,\n"
            "                      bernoulli_complexity, composite_bernoulli_complexity)\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "T = PointSet(np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 128)))\n"
            "cfg = EstimatorConfig(mode='monte-carlo', mc_samples=4000, seed=1)\n"
            "ball = GaussianRkhsBall(1.0, 1.0)\n"
            "before = peak_kib()\n"
            "bernoulli_complexity(T, cfg)\n"
            "composite_bernoulli_complexity(ball, T, cfg)\n"
            "print(peak_kib() - before)\n")
        grown_kib = self._grown_kib(script)
        block_bytes = 4000 * 256 * 8
        assert 0 < grown_kib * 1024 <= block_bytes + 5 * 2 ** 20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_b_holds_one_chunk_in_a_fresh_process(self):
        # b(T) alone on the set above, after a product of a chunk's shape
        # has mapped BLAS's buffers.  Drawn whole, its 4000 x 256 block grew
        # the peak by about 8 MiB on a 2-core host; drawn a 1 MiB chunk at
        # a time, by about 0.9 MiB.
        script = (
            "import numpy as np\n"
            "from berncomp import EstimatorConfig, PointSet, bernoulli_complexity\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "T = PointSet(np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 128)))\n"
            "cfg = EstimatorConfig(mode='monte-carlo', mc_samples=4000, seed=1)\n"
            "np.ones((512, 256)) @ T.vectorized().T\n"
            "before = peak_kib()\n"
            "bernoulli_complexity(T, cfg)\n"
            "print(peak_kib() - before)\n")
        grown_kib = self._grown_kib(script)
        assert grown_kib * 1024 <= 2 * core.PRODUCT_BYTES + 8 * complexity.SIGN_CHUNK_WORDS

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_b_and_g_hold_one_chunk_of_weights(self, gaussian):
        # 4097 rows of 2048 weights are 67 MB drawn whole; in chunks of 64
        # rows (65 with the lone last row) the weights held are one chunk,
        # beside one chunk of raw words
        T = PointSet(np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 16, 128)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=4097, seed=2)
        estimate = gaussian_complexity if gaussian else bernoulli_complexity
        tracemalloc.start()
        try:
            estimate(T, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * core.PRODUCT_BYTES + 8 * complexity.SIGN_CHUNK_WORDS

    def test_the_composite_and_increment_ratio_hold_one_chunk_of_weights(self):
        # rkhs-bound's shape: 4000 rows of 128 signs, 3.9 MiB drawn whole.
        # In 1024-row chunks the composite holds its 3 Grams, one chunk of
        # signs and the product's (chunk, n) temporary, and peaks at about
        # 2.4 MiB (5.2 MiB with whole blocks).  increment_ratio's 3 pairs
        # of 256 columns hold 3 Grams of 256 points, a 512-row chunk of
        # signs, its (eps, -eps) rows and the product's temporary, 2.5 x
        # PRODUCT_BYTES beside the Grams, and peak at about 4.1 MiB
        # (13.4 MiB with whole blocks).
        T = PointSet(np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 1, 128)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=4000, seed=3)
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        words = 8 * complexity.SIGN_CHUNK_WORDS
        peak = _peak_on_a_fresh_thread(lambda: composite_bernoulli_complexity(ball, T, cfg))
        assert peak < 2 * core.PRODUCT_BYTES + 3 * 128 ** 2 * 8 + words
        peak = _peak_on_a_fresh_thread(lambda: increment_ratio(ball, T, cfg))
        assert peak < 3 * core.PRODUCT_BYTES + 3 * 256 ** 2 * 8 + words

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_the_composite_holds_one_chunk_in_a_fresh_process(self):
        # the RKHS composite alone on the 3 x (2 x 128) set above, after a
        # product of its chunk's and Gram's shapes has mapped BLAS's
        # buffers.  Drawn whole, its 4000 x 128 block grew the peak by
        # about 3.5 MiB on a 2-core host; drawn a 1 MiB chunk at a time,
        # by about 0.9 MiB.
        script = (
            "import numpy as np\n"
            "from berncomp import (EstimatorConfig, GaussianRkhsBall, PointSet,\n"
            "                      composite_bernoulli_complexity)\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "T = PointSet(np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 128)))\n"
            "cfg = EstimatorConfig(mode='monte-carlo', mc_samples=4000, seed=1)\n"
            "ball = GaussianRkhsBall(1.0, 1.0)\n"
            "np.ones((1024, 128)) @ np.ones((128, 128))\n"
            "before = peak_kib()\n"
            "composite_bernoulli_complexity(ball, T, cfg)\n"
            "print(peak_kib() - before)\n")
        grown_kib = self._grown_kib(script)
        grams = 3 * 128 ** 2 * 8
        assert grown_kib * 1024 <= 2 * core.PRODUCT_BYTES + grams + 8 * complexity.SIGN_CHUNK_WORDS


class TestChunkedDraws:
    """Every estimator draws its weights one product chunk at a time, and
    reduces the rows the whole draw gives in the same nested ranges: the
    core._row_blocks(rows, WEIGHT_BLOCK) blocks, each cut into its
    core._row_blocks(block rows, core._chunk_rows(width)) chunks, where
    width is that of the rows the product takes: k * n for b and g, n for
    the composite and 2n for increment_ratio's (eps, -eps) rows."""

    @pytest.mark.parametrize("gaussian", [False, True])
    @pytest.mark.parametrize("m, width, rows", [
        (3, 300, 9001), (5, 1000, 5001), (2, 40, 8193), (4, 40, 12289), (3, 2048, 4097),
        (3, 999, 4001)])  # 131-row chunks of 999 signs: a chunk starts mid-word
    def test_b_and_g_keep_the_bits_of_the_whole_draw(self, gaussian, m, width, rows):
        vecs = np.random.default_rng(width).uniform(-1.0, 1.0, size=(m, width))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=rows, seed=41)
        W = (np.random.default_rng(41).standard_normal((rows, width)) if gaussian
             else reference_signs(41, (rows, width)))
        estimate = gaussian_complexity if gaussian else bernoulli_complexity
        est = estimate(PointSet.from_rows(vecs), cfg)
        value, se = reference_linear_sup(vecs, W, complexity.WEIGHT_BLOCK, core._chunk_rows(width))
        assert (est.value.hex(), est.std_error.hex()) == (value.hex(), se.hex())

    def test_exact_b_keeps_the_bits_of_the_whole_table(self, monkeypatch):
        # 2^12 patterns in chunks of 5 rows, the last with a lone row merged
        vecs = np.random.default_rng(12).uniform(-1.0, 1.0, size=(3, 12))
        monkeypatch.setattr(core, "PRODUCT_BYTES", 8 * 5 * 12)
        est = bernoulli_complexity(PointSet.from_rows(vecs), EstimatorConfig(mode="exact"))
        value, _ = reference_linear_sup(vecs, reference_sign_table(12), complexity.WEIGHT_BLOCK, 5)
        assert (est.value.hex(), est.std_error, est.method) == \
            (value.hex(), 0.0, "exact-enumeration")

    @pytest.mark.parametrize("name", ["rkhs", "anchor"])
    @pytest.mark.parametrize("m, n, rows", [
        (3, 128, 4000), (2, 300, 9001),
        (3, 999, 4001)])  # 131-row chunks of 999 signs: a chunk starts mid-word
    def test_composites_keep_the_bits_of_the_whole_draw(self, name, m, n, rows):
        T = PointSet(np.random.default_rng(n).uniform(-1.0, 1.0, size=(m, 2, n)))
        fclass = _four_classes(2, n)[name]
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=rows, seed=42)
        est = composite_bernoulli_complexity(fclass, T, cfg)
        value, se = reference_composite_sup(fclass, T.elements.transpose(0, 2, 1),
                                            reference_signs(42, (rows, n)),
                                            complexity.WEIGHT_BLOCK, core._chunk_rows(n))
        assert (est.value.hex(), est.std_error.hex()) == (value.hex(), se.hex())

    @pytest.mark.parametrize("name", ["rkhs", "anchor"])
    def test_exact_composites_keep_the_bits_of_the_whole_table(self, monkeypatch, name):
        # 2^12 patterns in chunks of 5 rows, the last with a lone row merged
        T = PointSet(np.random.default_rng(12).uniform(-1.0, 1.0, size=(3, 2, 12)))
        fclass = _four_classes(2, 12)[name]
        monkeypatch.setattr(core, "PRODUCT_BYTES", 8 * 5 * 12)
        est = composite_bernoulli_complexity(fclass, T, EstimatorConfig(mode="exact"))
        value, _ = reference_composite_sup(fclass, T.elements.transpose(0, 2, 1),
                                           reference_sign_table(12), complexity.WEIGHT_BLOCK, 5)
        assert (est.value.hex(), est.std_error, est.method) == \
            (value.hex(), 0.0, "exact-enumeration")

    @pytest.mark.parametrize("mode, m, n, rows", [("monte-carlo", 4, 40, 9001), ("exact", 4, 6, 64)])
    def test_increment_ratio_keeps_the_bits_of_the_whole_draw(self, mode, m, n, rows):
        S = PointSet(np.random.default_rng(n).uniform(-1.0, 1.0, size=(m, 2, n)))
        ball = GaussianRkhsBall(sigma=0.8, rho=1.5)
        cfg = EstimatorConfig(mode=mode, mc_samples=rows, seed=43)
        signs = reference_sign_table(n) if mode == "exact" else reference_signs(43, (rows, n))
        assert len(signs) == rows
        ratio = reference_increment_ratio(ball, S, core._element_distances(S), signs,
                                          complexity.WEIGHT_BLOCK, core._chunk_rows(2 * n))
        assert increment_ratio(ball, S, cfg).hex() == ratio.hex()

    @pytest.mark.parametrize("width, chunk", [(3, 3), (5, 2), (7, 5), (4, 3), (1, 3)])
    def test_chunks_that_end_mid_word_read_the_one_shot_signs(self, width, chunk):
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=301, seed=5)
        blocks, _ = _weights(cfg, width, chunk_rows=chunk)
        rows = [W.copy() for W in blocks]  # a chunk lasts until the next is drawn
        assert [len(W) for W in rows] == _block_lengths(301, chunk)
        assert np.concatenate(rows).tobytes() == reference_signs(5, (301, width)).tobytes()


class TestEmpiricalRademacher:
    """The empirical Rademacher complexity of a class on a sample, times n,
    is the composite complexity of the one-element set holding the sample."""

    def test_rkhs_one_over_root_n_envelope(self):
        rng = np.random.default_rng(12)
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        for n in (4, 8, 12):
            sample = PointSet(rng.uniform(-1, 1, size=(1, 1, n)))
            est = composite_bernoulli_complexity(ball, sample, EXACT)
            assert est.value / n <= 1.0 / math.sqrt(n) + 3.0 * est.std_error + 1e-12

    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    def test_matches_bernoulli_complexity_of_the_table_rows(self, mode):
        # one sign source: the finite class over its sample is the point set
        # of its rows
        table = np.random.default_rng(16).uniform(-1, 1, size=(5, 8))
        cls = FiniteFunctionClass(table=table, uniform_bound_B=1.0)
        cfg = EstimatorConfig(mode=mode, mc_samples=500, seed=17)
        est = composite_bernoulli_complexity(cls, PointSet(np.zeros((1, 1, 8))), cfg)
        plain = bernoulli_complexity(PointSet.from_rows(table), cfg)
        assert est.value == plain.value
        assert (est.method, est.samples) == (plain.method, plain.samples)


class TestIncrementRatio:
    def test_singleton_class_gives_zero(self):
        class SingleFunction:
            def bind(self, points):
                # one fixed member, at every set of the stack
                return lambda C: np.array([np.asarray(C) @ np.sin(p[:, 0]) for p in points])

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

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("sigma, rho", [(1.0, 1.0), (0.5, 1.0), (2.0, 0.5),
                                            (1.0, 2.0), (0.25, 0.5), (4.0, 4.0)])
    def test_rkhs_ratio_reaches_rho_over_sigma(self, k, sigma, rho):
        # R(F) = rho / sigma is attained: with columns far apart relative
        # to sigma the increment Gram is diagonal, so Jensen's step is an
        # equality, and 2 (1 - exp(-x^2 / 2 sigma^2)) / x^2 -> 1 / sigma^2
        # as the increments x -> 0.  Columns 10 sigma apart on a line,
        # jittered by 0.1 sigma, and increments at 1e-3 sigma.
        rng = np.random.default_rng([k, int(4 * sigma), int(4 * rho)])
        line = rng.normal(size=(k, 1))
        line /= np.linalg.norm(line)
        s = sigma * (10.0 * line * np.arange(6) + 0.1 * rng.uniform(-1.0, 1.0, size=(k, 6)))
        t = s + 1e-3 * sigma * rng.normal(size=(k, 6))
        ratio = increment_ratio(GaussianRkhsBall(sigma=sigma, rho=rho), PointSet(np.stack([s, t])), EXACT)
        assert (1.0 - 1e-5) * rho / sigma <= ratio <= rho / sigma * (1.0 + 1e-9)

    @staticmethod
    def _small_scale_sets():
        """(b): three spread pairs s, s + 1e-9 h (k = 2, n = 6); (a): one
        3-element set at n = 3 shrunk to 1e-9 and to 1e-11."""
        rng = np.random.default_rng(7)
        for _ in range(3):
            s = rng.uniform(-1, 1, (2, 6))
            h = rng.standard_normal((2, 6))
            yield PointSet(np.stack([s, s + 1e-9 * h]))
        for scale in (1e-9, 1e-11):
            yield PointSet(scale * np.random.default_rng(7).uniform(-4, 4, (3, 1, 3)))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
    @pytest.mark.parametrize("case", range(5), ids=["b-pair-0", "b-pair-1", "b-pair-2",
                                                    "a-scale-1e-9", "a-scale-1e-11"])
    def test_rkhs_ratio_stays_in_zero_to_rho_over_sigma_at_small_scales(self, case):
        # the kernel rounds to 1 near each pair: (b) reads 3.62, 7.27 and
        # 3.04 (0.96-0.98 at scale 1e-2), (a) reads 0.0; both limits lie in
        # (0, rho / sigma]
        S = list(self._small_scale_sets())[case]
        value = increment_ratio(GaussianRkhsBall(1.0, 1.0), S, EstimatorConfig(mode="exact"))
        assert 0 < value <= 1 + 1e-9

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

    def test_exact_mode_past_the_cutoff_raises_before_the_pair_checks(self):
        S = PointSet.from_rows([[1.0] * 16, [1.0] * 16])  # degenerate, and 16 signs
        with pytest.raises(BudgetExceededError, match="16 signs"):
            increment_ratio(GaussianRkhsBall(sigma=1.0, rho=1.0), S, EstimatorConfig(mode="exact"))

    def test_every_pair_reads_one_coefficient_block_per_weight_block(self, monkeypatch):
        # (eps, -eps) is formed once per weight block of 4 rows and read by
        # all 6 pairs, stacked in one call; a copy per pair keeps the bits
        # but costs time
        monkeypatch.setattr(complexity, "WEIGHT_BLOCK", 4)
        ball, seen = GaussianRkhsBall(sigma=1.0, rho=1.0), []

        class Recording:
            def bind(self, points):
                sups = ball.bind(points)
                return lambda C: seen.append((np.shape(points), C)) or sups(C)

        S = PointSet(np.random.default_rng(1).uniform(-1.0, 1.0, size=(4, 1, 5)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=10, seed=2)
        increment_ratio(Recording(), S, cfg)
        assert [shape for shape, _ in seen] == [(6, 10, 1)] * 3
        assert len({id(C) for _, C in seen}) == 3
        signs = reference_signs(2, (10, 5))
        assert np.concatenate([C for _, C in seen]).tobytes() == \
            np.concatenate([signs, -signs], axis=1).tobytes()

    def test_the_eps_minus_eps_rows_are_formed_in_place(self):
        # with a class that returns zeros the peak is a weight chunk W of
        # 131 rows and its (eps, -eps) rows, 3 x W; a -W temporary would
        # make it 4 x W.  On a fresh thread, so that W's buffer is counted.
        class Zeros:
            def bind(self, points):
                return lambda C: np.zeros((len(points), len(C)))

        S = PointSet(np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 1, 500)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=4096, seed=1)
        assert increment_ratio(Zeros(), S, cfg) == 0.0
        chunk_bytes = core._chunk_rows(2 * 500) * 500 * 8
        assert _peak_on_a_fresh_thread(lambda: increment_ratio(Zeros(), S, cfg)) < 3.25 * chunk_bytes

    def test_memory_stays_at_the_per_pair_suprema_and_the_weight_blocks(self):
        # 45 pairs hold 45 x 20000 per-row suprema (7.2 MB) until the last
        # block; the rest is a few blocks of (eps, -eps) rows and the RKHS
        # ball's temporaries of that size.  Stacking the suprema per block
        # and joining them into one (pairs, rows) array would hold them twice
        S = PointSet(np.random.default_rng(0).uniform(-1.0, 1.0, size=(10, 1, 8)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=20000, seed=1)
        tracemalloc.start()
        try:
            increment_ratio(GaussianRkhsBall(sigma=1.0, rho=1.0), S, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sups_bytes = 45 * 20000 * 8
        half_block_bytes = (complexity.WEIGHT_BLOCK + 1) * 2 * 8 * 8
        assert peak < sups_bytes + 4 * half_block_bytes < 2 * sups_bytes


SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


def _reference_norm(values, p):
    """The p-norm of a few floats with no intermediate overflow or underflow."""
    if math.isinf(p):
        return max(values)
    if p == 2:
        return math.hypot(*values)
    return float(sum(Fraction(v) for v in values))


class TestExtremeScale:
    elements = st.tuples(st.integers(2, 3), st.integers(1, 2), st.integers(1, 3)).flatmap(
        lambda shape: st.lists(st.integers(-4, 4), min_size=math.prod(shape),
                               max_size=math.prod(shape)).map(
            lambda ints: np.array(ints, dtype=float).reshape(shape)))

    @settings(max_examples=150, deadline=None)
    @given(elements, st.integers(-200, 300))
    def test_norms_and_diameter_are_right_or_name_the_overflow(self, ints, exponent):
        T = PointSet(ints * 10.0 ** exponent)
        vecs = [tuple(v) for v in T.vectorized()]
        ref = max(math.dist(a, b) for a in vecs for b in vecs)
        if ref > SQRT_FLOAT_MAX:
            with pytest.raises(InvalidInputError, match="overflow"):
                diameter2(T)
        else:
            assert diameter2(T) == pytest.approx(ref, rel=1e-12, abs=0.0)
        mat = T.element(0)
        for p in (1, 2, math.inf):
            for q in (1, 2, math.inf):
                cols = [_reference_norm([abs(x) for x in col], p) for col in mat.T]
                ref = _reference_norm(cols, q)
                if (p == 2 and max(cols) > SQRT_FLOAT_MAX) or (q == 2 and ref > SQRT_FLOAT_MAX):
                    with pytest.raises(InvalidInputError, match="overflow"):
                        norm_pq(mat, p, q)
                else:
                    assert norm_pq(mat, p, q) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(elements, st.integers(-200, 300))
    def test_increment_ratio_is_finite_or_names_the_overflow(self, ints, exponent):
        S = PointSet(ints * 10.0 ** exponent)
        vecs = [tuple(v) for v in S.vectorized()]
        dists = [math.dist(a, b) for a in vecs for b in vecs]
        for oracle in (LipschitzBall(lipschitz_L=1.0, radius_R=1.0),
                       GaussianRkhsBall(sigma=1.0, rho=1.0)):
            if max(dists) > SQRT_FLOAT_MAX:
                with pytest.raises(InvalidInputError, match="overflow"):
                    increment_ratio(oracle, S, EXACT)
            elif max(dists) < 1e-12:
                with pytest.raises(DegenerateSetError):
                    increment_ratio(oracle, S, EXACT)
            else:
                assert 0.0 <= increment_ratio(oracle, S, EXACT) < math.inf

    def test_named_overflows(self):
        T = PointSet.from_rows([[1e154, -1e154], [-1e154, 1e154]])
        for call in (lambda: norm_pq([[1e200, 1e200]], 2, 2),
                     lambda: diameter2(T),
                     lambda: increment_ratio(LipschitzBall(lipschitz_L=1.0, radius_R=1.0), T, EXACT),
                     lambda: increment_ratio(GaussianRkhsBall(sigma=1.0, rho=1.0), T, EXACT)):
            with pytest.raises(InvalidInputError, match="overflow"):
                call()

    @pytest.mark.parametrize("rows, pair", [
        ([[1e154, -1e154], [-1e154, 1e154]], "0 and 1"),
        # only elements 1 and 2 are 2e154 apart; 0 and 1 stay 1e154 apart
        ([[0.0, 0.0], [1e154, 0.0], [-1e154, 0.0]], "1 and 2"),
    ])
    def test_every_element_distance_names_the_overflowing_pair(self, rows, pair):
        T = PointSet.from_rows(rows)
        for call in (lambda: diameter2(T),
                     lambda: metric_space_from_pointset(T),
                     lambda: increment_ratio(LipschitzBall(lipschitz_L=1.0, radius_R=1.0), T, EXACT)):
            with pytest.raises(InvalidInputError, match=f"distance of elements {pair} overflows"):
                call()

    def test_metric_space_distances_are_zero_only_for_coincident_elements(self):
        dist = metric_space_from_pointset(PointSet.from_rows([[0.0], [1e-170], [0.0]])).dist
        np.testing.assert_array_equal(dist, [[0.0, 1e-170, 0.0], [1e-170, 0.0, 1e-170],
                                             [0.0, 1e-170, 0.0]])

    @settings(max_examples=60, deadline=None)
    @given(elements, st.integers(-200, 0))
    def test_diameter_is_the_metric_space_diameter(self, ints, exponent):
        # exponents stop at 0; test_core.py checks the triangle slack of
        # far-apart collinear elements
        T = PointSet(ints * 10.0 ** exponent)
        assert diameter2(T) == metric_space_from_pointset(T).diameter

    def test_mixed_scale_distances_keep_their_small_pairs(self):
        # the unit pair keeps the squares in range; the 1e-170 pair's square
        # alone underflows and is redone at scale
        dist = metric_space_from_pointset(PointSet.from_rows([[0.0], [1e-170], [1.0]])).dist
        np.testing.assert_array_equal(dist, [[0.0, 1e-170, 1.0], [1e-170, 0.0, 1.0],
                                             [1.0, 1.0, 0.0]])

    @settings(max_examples=60, deadline=None)
    @given(elements, st.integers(-540, 540))
    def test_metric_space_scales_exactly_by_powers_of_two(self, ints, e):
        ref = metric_space_from_pointset(PointSet(ints)).dist
        scaled = PointSet(np.ldexp(ints, e))
        if np.ldexp(ref.max(), e) >= 2.0 ** 512:
            with pytest.raises(InvalidInputError, match="overflow"):
                metric_space_from_pointset(scaled)
        else:
            assert np.array_equal(metric_space_from_pointset(scaled).dist, np.ldexp(ref, e))

    def test_diameter_is_zero_only_for_coincident_elements(self):
        assert diameter2(PointSet.from_rows([[0.0], [1e-170]])) == 1e-170
        assert diameter2(PointSet.from_rows([[0.0], [5e-324]])) == 5e-324
        assert diameter2(PointSet.from_rows([[1e-170, 3.0]] * 3)) == 0.0

    def test_oracles_keep_their_separated_points_values(self):
        # squared distances overflow, yet far-apart points decouple: the
        # sup is the sum of B |c| (Lipschitz, B = L R) or the root of the
        # sum of c^2 (RKHS) over the distinct locations
        lip = LipschitzBall(lipschitz_L=1.0, radius_R=1.0)
        rkhs = GaussianRkhsBall(sigma=1.0, rho=1.0)
        line = [[1e154], [-1e154], [-1e154], [1e154]]
        C = [[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
        np.testing.assert_array_equal(lip.sup_batch([line], C)[0], [0.0, 4.0])
        np.testing.assert_allclose(rkhs.sup_batch([line], C)[0], [0.0, math.sqrt(8.0)], rtol=1e-15)
        plane = [[1e154, 0.0], [-1e154, 0.0], [0.0, 1e300]]
        assert lip.sup(plane, [1.0, -1.0, 1.0]) == pytest.approx(3.0, rel=1e-12)
        assert rkhs.sup(plane, [1.0, -1.0, 1.0]) == pytest.approx(math.sqrt(3.0), rel=1e-15)
