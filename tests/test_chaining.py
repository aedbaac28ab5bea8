import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berncomp import (
    AdmissibleSequence,
    AnchorDistanceClass,
    EntropyProfile,
    EstimatorConfig,
    FiniteMetricSpace,
    InvalidInputError,
    PointSet,
    admissible_capacity,
    build_admissible_sequence,
    composite_entropy_bound,
    composite_rate,
    covering_number,
    entropy_number,
    entropy_profile,
    gamma2_upper,
    gaussian_complexity,
    lipschitz_entropy_formula,
    metric_space_from_pointset,
    min_truncation_objective,
    sequence_from_csv,
    sequence_to_csv,
    truncation_objective,
)
from berncomp.chaining import farthest_first
from oracles import brute_covering_number, brute_entropy_number, reference_farthest_first_order


def random_space(seed, n_points, k=2):
    rng = np.random.default_rng(seed)
    T = PointSet(rng.uniform(-1, 1, size=(n_points, k, 2)))
    return metric_space_from_pointset(T)


# 1 to 12 points of 2-by-2 matrices with entries in {-1, 0, 1}: most sets
# hold coincident points
_small_sets = st.integers(1, 12).flatmap(lambda m: st.lists(
    st.integers(-1, 1), min_size=4 * m, max_size=4 * m)).map(
    lambda v: PointSet(np.reshape(np.asarray(v, dtype=float), (-1, 2, 2))))


class TestFarthestFirstOrder:
    @settings(max_examples=80, deadline=None)
    @given(_small_sets)
    def test_radii_are_the_prefix_covering_radii(self, T):
        d = metric_space_from_pointset(T).dist
        order, radii = map(list, zip(*farthest_first(d)))
        assert sorted(order) == list(range(len(T))) and len(radii) == len(T)
        for j in range(len(T)):
            assert radii[j] == float(d[:, order[:j + 1]].min(axis=1).max())
        assert radii[-1] == 0.0
        assert (order, radii) == reference_farthest_first_order(d)


class TestCoveringNumber:
    def test_single_point(self):
        sp = random_space(0, 1)
        res = covering_number(sp, 0.5)
        assert res.upper_bound == 1 and res.exact == 1

    def test_equispaced_line(self):
        pts = np.linspace(0.0, 1.0, 101)
        sp = metric_space_from_pointset(PointSet.from_rows(pts[:, None]))
        res = covering_number(sp, 0.25)
        # centers at 0.25 and 0.75 cover everything
        assert res.exact == 2
        assert res.upper_bound >= 2

    def test_delta_at_least_diameter(self):
        sp = random_space(1, 7)
        res = covering_number(sp, sp.diameter + 1e-9)
        assert res.upper_bound == 1 and res.exact == 1

    def test_nonincreasing_in_delta_and_exact_below_greedy(self):
        sp = random_space(2, 12)
        deltas = np.linspace(0.05, sp.diameter, 8)
        last = None
        for delta in deltas:
            res = covering_number(sp, float(delta))
            assert res.exact is not None
            assert res.exact <= res.upper_bound
            if last is not None:
                assert res.exact <= last
            last = res.exact


class TestEntropyNumber:
    def test_two_point_space(self):
        sp = metric_space_from_pointset(PointSet.from_rows([[0.0], [1.0]]))
        e0 = entropy_number(sp, 0)
        assert e0.exact == pytest.approx(1.0)
        e1 = entropy_number(sp, 1)
        assert e1.upper_bound == 0.0 and e1.exact == 0.0

    def test_singleton(self):
        sp = random_space(3, 1)
        assert entropy_number(sp, 0).exact == 0.0
        assert entropy_number(sp, 3).exact == 0.0

    def test_capacity_past_two_to_the_sixty_is_infinite(self):
        assert admissible_capacity(5) == 2 ** 32
        assert admissible_capacity(6) == math.inf
        sp = random_space(6, 5)
        res = entropy_number(sp, 6)
        assert (res.upper_bound, res.exact) == (0.0, 0.0)
        AdmissibleSequence((((0, 1),),) + (((0,), (1,)),) * 6).validate(2)

    def test_exact_below_greedy_and_nonincreasing(self):
        sp = random_space(4, 14)
        values = []
        for m in range(4):
            res = entropy_number(sp, m)
            if res.exact is not None:
                assert res.exact <= res.upper_bound + 1e-12
            values.append(res.upper_bound)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0  # 2^(2^2) = 16 >= 14 points

    def test_profile_sources(self):
        # exact values where every level has them, greedy bounds otherwise
        sp = random_space(5, 10)
        prof = entropy_profile(sp)
        levels = [entropy_number(sp, m) for m in range(len(prof.values))]
        exact = all(r.exact is not None for r in levels)
        assert prof.values == tuple(r.exact if exact else r.upper_bound for r in levels)
        assert prof.values[-1] == 0.0


def _circle(m):
    angles = 2.0 * np.pi * np.arange(m) / m
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _lattice(rows, cols):
    # integer points: sqrt of integers, so distances tie exactly
    return np.array([[i, j] for i in range(rows) for j in range(cols)], dtype=float)


def _coincident(m):
    # the four corners of the unit square, each repeated
    return _lattice(2, 2)[np.arange(m) % 4]


def _collinear(m):
    return np.stack([np.arange(m), np.zeros(m)], axis=1).astype(float)


def _simplex(m):
    # every distance is sqrt(2)
    return np.eye(m)


def _random_points(seed):
    # 1-9 points; seeds 9-17 repeat the first point at the end
    n_points = 1 + seed % 9
    pts = np.random.default_rng(seed + 300).uniform(-1, 1, size=(n_points, 2))
    if seed >= 9 and n_points > 1:
        pts[-1] = pts[0]
    return pts


# Sets where pruning by distance is weakest: equal or tied distances,
# coincident points, points spread evenly.
_WEAK_PRUNING = {"circle": _circle, "lattice": lambda m: _lattice(m // 4, 4),
                 "coincident": _coincident, "collinear": _collinear, "simplex": _simplex}
_SEARCH_SETS = {str(seed): _random_points(seed) for seed in range(18)}
_SEARCH_SETS.update({f"{name}-12": make(12) for name, make in _WEAK_PRUNING.items()})


def _space(pts):
    return metric_space_from_pointset(PointSet(np.asarray(pts)[:, None, :]))


class TestSubsetSearchAgainstBruteForce:
    @pytest.mark.parametrize("name", list(_SEARCH_SETS))
    def test_exact_values_match_enumeration(self, name):
        sp = _space(_SEARCH_SETS[name])
        dist = sp.dist.tolist()
        # every attained distance (closed-ball ties), its half, and beyond
        attained = sorted({d for row in dist for d in row if d > 0.0})
        deltas = attained + [d / 2 for d in attained] + [sp.diameter + 1.0]
        for delta in deltas:
            res = covering_number(sp, delta)
            assert res.exact == brute_covering_number(dist, delta)
            assert res.exact <= res.upper_bound
        for level in range(4):
            res = entropy_number(sp, level)
            assert res.exact == brute_entropy_number(dist, level)
            assert res.exact <= res.upper_bound

    def test_random_level_one_values_match_enumeration(self):
        # 4 centers among 6-12 random points: a candidate the bound skips
        # must stay open to later siblings, and dropping it gave larger
        # minima on three of these sets
        for seed in range(100):
            sp = _space(np.random.default_rng(seed + 500).uniform(-1, 1, size=(6 + seed % 7, 2)))
            assert entropy_number(sp, 1).exact == brute_entropy_number(sp.dist.tolist(), 1)

    @pytest.mark.parametrize("name", list(_WEAK_PRUNING))
    def test_twenty_point_sets_match_enumeration(self, name):
        # 20 points: every subset size is searched, 1, 4 and 16 centers for
        # the entropy numbers; brute-force covering stays affordable where
        # the farthest-first bound is at most 4
        sp = _space(_WEAK_PRUNING[name](20))
        dist = sp.dist.tolist()
        for level in range(3):
            assert entropy_number(sp, level).exact == brute_entropy_number(dist, level)
        attained = sorted({d for row in dist for d in row if d > 0.0})
        for delta in attained + [d / 2 for d in attained]:
            res = covering_number(sp, delta)
            assert res.exact is not None and res.exact <= res.upper_bound
            if res.upper_bound <= 4:
                assert res.exact == brute_covering_number(dist, delta)
        if name == "simplex":
            # a ball of radius below sqrt(2) holds its center alone
            assert covering_number(sp, attained[0] / 2).exact == 20


class TestLipschitzEntropyFormula:
    def test_level_zero(self):
        assert lipschitz_entropy_formula(0, 2.0, 1.5, 3, 4.0) == pytest.approx(12.0)

    def test_k1_level3_is_eighth(self):
        c = lipschitz_entropy_formula(0, 1.0, 1.0, 1, 4.0)
        assert lipschitz_entropy_formula(3, 1.0, 1.0, 1, 4.0) == pytest.approx(c / 8)

    def test_empirical_class_entropy_below_formula(self):
        # 200 random 1-Lipschitz anchor-distance functions bounded by 1,
        # anchors and shifts uniform in [-1, 1], uniform metric over a
        # 64-point grid
        rng = np.random.default_rng(42)
        cls = AnchorDistanceClass(rng.uniform(-1.0, 1.0, size=(200, 1)),
                                  rng.uniform(-1.0, 1.0, size=200), 1.0, 1.0)
        t = cls.values(np.linspace(-1.0, 1.0, 64))
        space = FiniteMetricSpace(np.abs(t[:, None] - t[None]).max(2))
        for m in range(5):
            e_m = entropy_number(space, m).upper_bound
            assert e_m <= lipschitz_entropy_formula(m, 1.0, 1.0, 1, 4.0) + 1e-12


_PROFILE = EntropyProfile((1.0, 0.5, 0.25))


@pytest.mark.parametrize("call, message", [
    (lambda: covering_number(random_space(0, 3), math.nan), "delta must be finite and positive"),
    (lambda: lipschitz_entropy_formula(0, math.nan, 1.0, 1, 4.0),
     "L must be finite and positive"),
    (lambda: lipschitz_entropy_formula(0, 1.0, 1.0, 1, math.inf),
     "C_k must be finite and positive"),
    (lambda: truncation_objective(1.5, 2, 64), "M must be an integer"),
    (lambda: truncation_objective(2, 1.5, 64), "k must be an integer"),
    (lambda: truncation_objective(2, 2, 64.5), "n must be an integer"),
    (lambda: min_truncation_objective(1.5, 64), "k must be an integer"),
    (lambda: composite_rate(64.5, 2), "n must be an integer"),
    (lambda: composite_rate(64, 1.5), "k must be an integer"),
    (lambda: composite_entropy_bound(16, 1.0, math.nan, _PROFILE), "bT must be finite and nonnegative"),
    (lambda: composite_entropy_bound(16, 1.0, math.inf, _PROFILE), "bT must be finite and nonnegative"),
    (lambda: composite_entropy_bound(16, 1.0, -1.0, _PROFILE), "bT must be finite and nonnegative"),
    (lambda: composite_entropy_bound(16, -1.0, 1.0, _PROFILE), "L must be finite and positive"),
    (lambda: composite_entropy_bound(16, math.inf, 1.0, _PROFILE), "L must be finite and positive"),
    (lambda: composite_entropy_bound(16, 1.0, 1.0, _PROFILE, c1=0.0),
     "c1 must be finite and positive"),
    (lambda: composite_entropy_bound(16, 1.0, 1.0, _PROFILE, c1=math.nan),
     "c1 must be finite and positive"),
], ids=["covering-delta-nan", "entropy-L-nan", "entropy-C-inf", "truncation-M-fractional",
        "truncation-k-fractional", "truncation-n-fractional", "scan-k-fractional",
        "rate-n-fractional", "rate-k-fractional", "bound-bT-nan", "bound-bT-inf",
        "bound-bT-negative", "bound-L-negative", "bound-L-inf", "bound-c1-zero", "bound-c1-nan"])
def test_rejects_non_finite_parameters(call, message):
    # covering_number leaked a bare StopIteration, the formula returned nan or
    # inf, the truncation scan and the rate took fractional counts, and the
    # composite bound returned (nan, 0) for a nan bT and took L = -1
    with pytest.raises(InvalidInputError, match=message):
        call()


class TestAdmissibleSequence:
    def test_singleton_space(self):
        seq = build_admissible_sequence(random_space(6, 1))
        assert seq.levels == (((0,),),)

    def test_two_point_space_forced(self):
        sp = metric_space_from_pointset(PointSet.from_rows([[0.0], [1.0]]))
        seq = build_admissible_sequence(sp)
        assert seq.levels[0] == ((0, 1),)
        assert set(seq.levels[1]) == {(0,), (1,)}

    def test_random_spaces_pass_invariants(self):
        for seed in range(30):
            n_pts = 2 + seed
            sp = random_space(seed + 10, n_pts)
            seq = build_admissible_sequence(sp)
            seq.validate(n_pts)
            assert len(seq.levels[0]) == 1
            for m, level in enumerate(seq.levels):
                assert len(level) <= admissible_capacity(m)
            assert all(len(b) == 1 for b in seq.levels[-1])

    @settings(max_examples=80, deadline=None)
    @given(_small_sets)
    def test_coincident_points_give_a_valid_sequence_of_singletons(self, T):
        seq = build_admissible_sequence(metric_space_from_pointset(T))
        seq.validate(len(T))
        assert all(len(b) == 1 for b in seq.levels[-1])

    def test_duplicate_points_still_terminate(self):
        T = PointSet.from_rows([[1.0, 2.0]] * 5)
        seq = build_admissible_sequence(metric_space_from_pointset(T))
        seq.validate(5)
        assert all(len(b) == 1 for b in seq.levels[-1])

    def test_cardinality_cap_rejected(self):
        bad = AdmissibleSequence(levels=(((0,), (1,)),))  # two blocks at level 0
        with pytest.raises(InvalidInputError):
            bad.validate(2)

    def test_nesting_violation_rejected(self):
        bad = AdmissibleSequence(levels=(
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0,), (1, 2)),  # {1, 2} not inside a level-1 block
        ))
        with pytest.raises(InvalidInputError):
            bad.validate(3)

    @pytest.mark.parametrize("levels, message", [
        ((((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0, 2), (1, 3))),
         "level 2 block [0, 2] is not nested in level 1"),
        ((((0, 1, 2),), ((0, 2), (1,)), ((0, 1), (2,)), ((0, 2), (1,))),
         "level 2 block [0, 1] is not nested in level 1"),
        ((((0, 1, 2),), ((0, 1), (2,)), ((0, 2),)), "level 2 is not a partition of the space"),
    ], ids=["first-unnested-block", "first-unnested-level", "partition-before-nesting"])
    def test_validation_names_the_first_failure(self, levels, message):
        with pytest.raises(InvalidInputError) as err:
            AdmissibleSequence(levels).validate(len(levels[0][0]))
        assert str(err.value) == message

    def test_text_round_trip(self, tmp_path):
        sp = random_space(7, 9)
        seq = build_admissible_sequence(sp)
        path = tmp_path / "seq.csv"
        sequence_to_csv(seq, path)
        assert sequence_from_csv(path).levels == seq.levels


# Levels of blocks of indices, every level with at least one block; blocks
# may be empty and indices negative or past 2^64, which the format holds too.
_block_levels = st.lists(st.lists(st.lists(st.integers(-5, 2 ** 70), max_size=4).map(tuple),
                                  min_size=1, max_size=4).map(tuple), min_size=1, max_size=5)


class TestSequenceCsv:
    """sequence_to_csv writes one row per block, and every sequence it
    accepts reads back equal (malformed files: test_core.TestLoaderErrors)."""

    def test_random_spaces_read_back_equal(self, tmp_path):
        path = tmp_path / "seq.csv"
        for seed in range(50):  # 1 to 39 points, one point at seed 0
            seq = build_admissible_sequence(random_space(seed, 1 + seed % 39))
            sequence_to_csv(seq, path)
            assert sequence_from_csv(path) == seq

    @settings(max_examples=60, deadline=None)
    @given(_small_sets)
    def test_coincident_points_read_back_equal(self, tmp_path_factory, T):
        path = tmp_path_factory.mktemp("seq") / "seq.csv"
        seq = build_admissible_sequence(metric_space_from_pointset(T))
        sequence_to_csv(seq, path)
        assert sequence_from_csv(path) == seq

    @settings(max_examples=80, deadline=None)
    @given(_block_levels)
    def test_any_levels_with_blocks_read_back_equal(self, tmp_path_factory, levels):
        path = tmp_path_factory.mktemp("seq") / "seq.csv"
        seq = AdmissibleSequence(tuple(levels))
        sequence_to_csv(seq, path)
        assert sequence_from_csv(path) == seq

    @pytest.mark.parametrize("levels, data", [
        ((((0,),),), b"0,0\r\n"),
        ((((0, 1, 2),), ((0, 2), (1,)), ((0,), (2,), (1,))),
         b"0,0 1 2\r\n1,0 2\r\n1,1\r\n2,0\r\n2,2\r\n2,1\r\n"),
        ((((0, 1), ()),), b"0,0 1\r\n0,\r\n"),
    ], ids=["one-point", "level-then-block-order", "empty-block"])
    def test_one_row_per_block(self, tmp_path, levels, data):
        path = tmp_path / "seq.csv"
        seq = AdmissibleSequence(levels)
        sequence_to_csv(seq, path)
        assert path.read_bytes() == b"level,points\r\n" + data
        assert sequence_from_csv(path) == seq

    def test_level_without_blocks_is_not_written(self, tmp_path):
        path = tmp_path / "seq.csv"
        with pytest.raises(InvalidInputError) as err:
            sequence_to_csv(AdmissibleSequence((((0, 1),), (), ((0,), (1,)))), path)
        assert str(err.value) == "level 1 has no blocks"
        assert not path.exists()


class TestGamma2Upper:
    def test_singleton_zero(self):
        sp = random_space(8, 1)
        assert gamma2_upper(sp, build_admissible_sequence(sp)) == 0.0

    def test_two_point_space_equals_distance(self):
        sp = metric_space_from_pointset(PointSet.from_rows([[0.0], [2.5]]))
        seq = build_admissible_sequence(sp)
        # level-0 term is the distance, all later blocks are singletons
        assert gamma2_upper(sp, seq) == pytest.approx(2.5, abs=1e-12)

    def test_at_least_diameter(self):
        for seed in range(15):
            sp = random_space(seed + 40, 3 + 2 * seed)
            seq = build_admissible_sequence(sp)
            assert gamma2_upper(sp, seq) >= sp.diameter - 1e-12

    def test_invalid_sequence_rejected(self):
        sp = random_space(9, 3)
        bad = AdmissibleSequence(levels=(((0, 1),),))  # misses point 2
        with pytest.raises(InvalidInputError):
            gamma2_upper(sp, bad)

    def test_gaussian_complexity_sanity_band(self):
        # Monte Carlo Gaussian complexity never exceeds 20x the chaining value
        for seed in range(10):
            rng = np.random.default_rng(seed + 60)
            T = PointSet(rng.uniform(-1, 1, size=(20, 1, 3)))
            sp = metric_space_from_pointset(T)
            g = gaussian_complexity(T, EstimatorConfig(mc_samples=3000, seed=seed))
            g2 = gamma2_upper(sp, build_admissible_sequence(sp))
            assert g.value <= 20.0 * g2

    def test_dudley_sum_dominance(self):
        # chaining value of the built sequence vs 8x the greedy entropy sum
        for seed in range(20):
            sp = random_space(seed + 80, 4 + seed)
            seq = build_admissible_sequence(sp)
            g2 = gamma2_upper(sp, seq)
            dudley = sum(
                (2.0 ** (m / 2.0)) * entropy_number(sp, m).upper_bound
                for m in range(6)
            )
            assert g2 <= 8.0 * dudley + 1e-12


class TestCompositeEntropyBound:
    def test_zero_profile(self):
        prof = EntropyProfile((0.0, 0.0, 0.0))
        val, best_m = composite_entropy_bound(64, 2.0, 1.5, prof, c1=1.0)
        assert val == pytest.approx(3.0)
        assert best_m == 0

    def test_geometric_profile_minimizer_frozen(self):
        # e_m = 2^-m, n = 256: exhaustive scan gives M* = 7 and a minimum
        # close to 3.33 / sqrt(n)
        prof = EntropyProfile(tuple(2.0 ** -m for m in range(21)))
        val, best_m = composite_entropy_bound(256, 1.0, 0.0, prof)
        assert best_m == 7
        inner = val / 256
        assert inner * math.sqrt(256) == pytest.approx(3.3258, abs=2e-3)

    def test_scan_matches_brute_force(self):
        rng = np.random.default_rng(16)
        raw = np.sort(rng.uniform(0, 1, size=10))[::-1]
        prof = EntropyProfile(tuple(raw))
        n, L, bT = 50, 1.5, 0.7
        val, best_m = composite_entropy_bound(n, L, bT, prof, c1=2.0)
        inners = [
            prof.values[M]
            + sum((2.0 ** (m / 2.0)) * prof.values[m] for m in range(M + 1)) / math.sqrt(n)
            for M in range(len(prof.values))
        ]
        assert val == pytest.approx(2.0 * L * bT + n * min(inners))
        assert best_m == int(np.argmin(inners))

    def test_nonincreasing_when_entropy_drops(self):
        prof_hi = EntropyProfile((1.0, 0.5, 0.25))
        prof_lo = EntropyProfile((1.0, 0.4, 0.25))
        v_hi, _ = composite_entropy_bound(16, 1.0, 1.0, prof_hi)
        v_lo, _ = composite_entropy_bound(16, 1.0, 1.0, prof_lo)
        assert v_lo <= v_hi + 1e-12


class TestTruncationObjective:
    def test_k1_band_from_scan(self):
        # frozen from the exhaustive scan: min_M h scaled by sqrt(n) stays
        # inside [2.8, 3.5] over the full grid
        for n in (16, 64, 256, 1024, 4096):
            v, _ = min_truncation_objective(1, n)
            assert 2.8 / math.sqrt(n) <= v <= 3.5 / math.sqrt(n)

    def test_k2_display_at_n1024(self):
        h = truncation_objective(10, 2, 1024)  # M = floor(log2 n)
        assert h <= 2.0 * math.log(1024) / math.sqrt(1024)

    def test_k4_bounded_ratio(self):
        v, _ = min_truncation_objective(4, 4096)
        assert 0.2 <= v / 4096 ** -0.25 <= 5.0

    def test_value_formula_spot_check(self):
        # k = 2 makes the sum exponent vanish: h = 2^(-M/2) + (M+1)/sqrt(n)
        assert truncation_objective(4, 2, 100) == pytest.approx(0.25 + 5 / 10)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            truncation_objective(-1, 1, 4)
        with pytest.raises(InvalidInputError):
            composite_rate(0, 1)


class TestCompositeRate:
    def test_values(self):
        assert composite_rate(100, 1) == pytest.approx(0.1)
        assert composite_rate(100, 2) == pytest.approx(math.log(100) / 10)
        assert composite_rate(256, 4) == pytest.approx(0.25)


class TestProfileSerialization:
    def test_increasing_profile_rejected(self):
        with pytest.raises(InvalidInputError):
            EntropyProfile((0.5, 1.0))

    def test_non_finite_profile_rejected(self):
        for values in ((math.nan,), (math.inf, 1.0)):
            with pytest.raises(InvalidInputError, match="entropy numbers must be finite"):
                EntropyProfile(values)
