import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berncomp import (
    AnchorDistanceClass,
    BudgetExceededError,
    EstimatorConfig,
    FiniteFunctionClass,
    GaussianRkhsBall,
    InvalidInputError,
    LipschitzBall,
    PointSet,
    SolverError,
    classes,
    composite_bernoulli_complexity,
    core,
    gaussian_gram,
    lipschitz_ball_sup,
    simplex,
    simplex_maximize,
)
from oracles import (grid_lipschitz_sup, linprog_lipschitz_sup, oracle_convexity_check,
                     pairwise_dist, reference_anchor_distance_table, reference_dense_simplex,
                     reference_line_dp, reference_slope_trick_line, reference_table_sup,
                     reference_transport_sup,
                     rkhs_ball_mc_lower, rkhs_representer_value)


def _anchor_class(seed, r, k, L=1.0, B=1.0):
    """r anchors in [-1, 1]^k and shifts in [-B, B], drawn from the seed."""
    rng = np.random.default_rng(seed)
    return AnchorDistanceClass(rng.uniform(-1, 1, size=(r, k)), rng.uniform(-B, B, size=r), L, B)


def _random_box_lps():
    """50 random box-bounded LPs (c, A, b) with b > 0."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 8))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)
        c = rng.normal(size=n)
        yield c, np.vstack([A, np.eye(n)]), np.concatenate([b, np.full(n, 5.0)])


def _allpairs_lps(sizes=(8, 16, 24)):
    """The transport LPs the all-pairs Lipschitz oracle passes to
    simplex_maximize at k = 2 and n in sizes: +-1 rows, real rows,
    coincident points.  Each call hands over a stack; it is split into
    one (c, A, b) triple per LP."""
    rng = np.random.default_rng(24)
    lps = []

    def record(c, A, b):
        lps.extend(zip(c, A, b))
        return np.zeros(len(c)), np.zeros(c.shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("berncomp.classes.simplex_maximize", record)
        for n in sizes:
            pts = rng.uniform(-1, 1, size=(n, 2))
            twins = pts.copy()
            twins[n // 2:] = twins[: n - n // 2]
            for p, c in ((pts, rng.choice([-1.0, 1.0], size=n)),
                         (pts, rng.normal(size=n)),
                         (twins, rng.choice([-1.0, 1.0], size=n))):
                lipschitz_ball_sup(p, c, 1.3, 0.9)
    return lps


def _stacks(lps):
    """The LPs grouped by their number of constraints m, each group one
    stack (c, A, b) zero-padded to its widest LP, in first-seen order."""
    groups = {}
    for c, A, b in lps:
        groups.setdefault(len(b), []).append((np.asarray(c), np.asarray(A), np.asarray(b)))
    for group in groups.values():
        width = max(len(c) for c, _, _ in group)
        yield (np.array([np.pad(c, (0, width - len(c))) for c, _, _ in group]),
               np.array([np.pad(A, ((0, 0), (0, width - A.shape[1]))) for _, A, _ in group]),
               np.array([b for _, _, b in group]),
               group)


_BEALE = ([0.75, -20.0, 0.5, -6.0],
          [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
          [0.0, 0.0, 1.0])


class TestSimplex:
    def test_tiny_lp_by_hand(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4 -> 4
        values, X = simplex_maximize(
            [[1.0, 1.0]],
            [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]],
            [[2.0, 3.0, 4.0]],
        )
        assert values[0] == pytest.approx(4.0)
        assert X[0].sum() == pytest.approx(4.0)

    def test_degenerate_rhs_terminates(self):
        # zero right-hand sides force degenerate pivots, which must not cycle
        values, _ = simplex_maximize(
            [[1.0, -1.0]],
            [[[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]]],
            [[0.0, 0.0, 1.0]],
        )
        assert values[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("c, A, b", [
        ([math.nan, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]),
        ([1.0, 1.0], [[math.nan, 0.0], [0.0, 1.0]], [1.0, 2.0]),
        ([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [math.inf, 2.0]),
    ], ids=["c-nan", "A-nan", "b-inf"])
    def test_rejects_non_finite_input(self, c, A, b):
        with pytest.raises(InvalidInputError, match="finite c, A and b"):
            simplex_maximize([c], [A], [b])

    def test_beale_lp_terminates(self):
        # Beale's cycling example: the most-negative-reduced-cost rule alone
        # cycles through six degenerate bases and hits the pivot cap; the
        # fallback to Bland's rule after m degenerate pivots breaks the cycle
        values, _ = simplex_maximize(*([part] for part in _BEALE))
        assert values[0] == pytest.approx(1.25, abs=1e-12)

    def test_against_scipy_on_random_instances(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        for c, A_box, b_box in _random_box_lps():
            values, X = simplex_maximize([c], [A_box], [b_box])
            ref = scipy_opt.linprog(-c, A_ub=A_box, b_ub=b_box,
                                    bounds=[(0, None)] * len(c), method="highs")
            assert values[0] == pytest.approx(-ref.fun, abs=1e-7)
            assert np.all(A_box @ X[0] <= b_box + 1e-7)
        # degenerate transport LPs: +-1 masses and coincident points
        lps = _allpairs_lps(sizes=(8, 16, 24, 32, 48))
        assert len(lps) == 15
        for c, A, b in lps:
            values, X = simplex_maximize([c], [A], [b])
            ref = scipy_opt.linprog(-c, A_ub=A, b_ub=b,
                                    bounds=[(0, None)] * len(c), method="highs")
            assert values[0] == pytest.approx(-ref.fun, rel=1e-9)
            assert np.all(A @ X[0] <= b + 1e-9)

    @pytest.mark.parametrize("source", ["random", "degenerate", "all-pairs"])
    def test_sparse_pivots_match_the_dense_reference_bit_for_bit(self, source):
        # the same pivots, and the same product and subtraction on every
        # entry a pivot changes
        lps = {"random": lambda: list(_random_box_lps()),
               "degenerate": lambda: [([1.0, -1.0], [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]],
                                       [0.0, 0.0, 1.0])],
               "all-pairs": _allpairs_lps}[source]()
        assert len(lps) == {"random": 50, "degenerate": 1, "all-pairs": 9}[source]
        for c, A, b in lps:
            values, X = simplex_maximize([c], [A], [b])
            ref_value, ref_x = reference_dense_simplex(c, A, b)
            assert values[0].hex() == ref_value.hex()
            assert np.array_equal(X[0], ref_x)

    @pytest.mark.parametrize("source", ["random", "beale", "all-pairs"])
    def test_a_stack_is_its_lps_solved_alone_bit_for_bit(self, source):
        # every LP keeps its own entering and leaving choices, degenerate
        # count and Bland switch inside one pivot loop: Beale's LP switches
        # to Bland's rule while two LPs stacked with it finish at pivot 0.
        # The fourth never has m degenerate pivots in a row and is still
        # pivoting when Beale's switches; a switch shared by the stack would
        # end it 1 ulp lower
        lps = {"random": lambda: list(_random_box_lps()),
               "beale": lambda: [(np.zeros(4), *_BEALE[1:]), _BEALE,
                                 (-np.abs(_BEALE[0]), *_BEALE[1:]),
                                 ([4.0, 4.0, 4.0, -2.0],
                                  [[1.0, 0.0, -2.0, 3.0], [2.0, 1.0, 3.0, 2.0],
                                   [-3.0, -2.0, 1.0, 3.0]],
                                  [1.0, 2.0, 1.0])],
               "all-pairs": _allpairs_lps}[source]()
        heights = [len(group) for _, _, _, group in _stacks(lps)]
        assert sum(heights) == len(lps) and max(heights) >= 3
        for c, A, b, group in _stacks(lps):
            values, X = simplex_maximize(c, A, b)
            assert values.shape == (len(group),) and X.shape == c.shape
            for value, x, lp in zip(values, X, group):
                ref_value, ref_x = reference_dense_simplex(*lp)
                assert value.hex() == ref_value.hex()
                assert np.array_equal(x[:len(ref_x)], ref_x) and not x[len(ref_x):].any()

    @pytest.mark.parametrize("source", ["random", "all-pairs"])
    def test_zero_columns_keep_an_lps_pivots_and_bits(self, source):
        # a zero column has gain 0 and no incidence entry, so it never
        # enters, and the slack columns keep their order
        lps = list(_random_box_lps()) if source == "random" else _allpairs_lps()
        for c, A, b in lps:
            values, X = simplex_maximize([c], [A], [b])
            padded, X_padded = simplex_maximize([np.pad(c, (0, 3))],
                                                [np.pad(A, ((0, 0), (0, 3)))], [b])
            assert padded[0].hex() == values[0].hex()
            assert np.array_equal(X_padded[0], np.pad(X[0], (0, 3)))

    def test_stack_shapes(self):
        c, A, b = (np.asarray(part) for part in _BEALE)
        values, X = simplex_maximize(c[None], A[None], b[None])
        assert values.shape == (1,) and X.shape == (1, 4)
        values, X = simplex_maximize(np.zeros((0, 4)), np.zeros((0, 3, 4)), np.zeros((0, 3)))
        assert values.shape == (0,) and X.shape == (0, 4)
        # one program unstacked (1-d c, 2-d A, 1-d b) is not a stack
        for bad in [(c, A, b), (c[None], A, b[None]), (c[None], A[None], b), (c, A[None], b),
                    (np.stack([c, c]), A[None], b[None])]:
            with pytest.raises(InvalidInputError, match="inconsistent LP dimensions"):
                simplex_maximize(*bad)

    def test_one_unbounded_lp_fails_its_stack(self):
        c = np.array([[1.0, 0.0], [1.0, 1.0]])
        A = np.array([[[1.0, 0.0]], [[1.0, -1.0]]])  # the second: y grows without bound
        with pytest.raises(InvalidInputError, match="LP is unbounded"):
            simplex_maximize(c, A, np.ones((2, 1)))

    def test_the_pivot_cap_counts_each_lps_own_pivots(self, monkeypatch):
        # the hand-made LP takes two pivots; the zero-gain LP stacked with
        # it none, so a cap of two pivots lets the stack finish and one does not
        c = np.array([[1.0, 1.0], [0.0, 0.0]])
        A = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]] * 2)
        b = np.array([[2.0, 3.0, 4.0]] * 2)
        monkeypatch.setattr(simplex, "MAX_ITER_PER_DIM", 0)
        monkeypatch.setattr(simplex, "MAX_ITER_BASE", 2)
        values, _ = simplex_maximize(c, A, b)
        assert values.tolist() == [4.0, 0.0]
        monkeypatch.setattr(simplex, "MAX_ITER_BASE", 1)
        with pytest.raises(SolverError, match="did not converge in 1 iterations"):
            simplex_maximize(c, A, b)
        assert simplex_maximize(c[1:], A[1:], b[1:])[0].tolist() == [0.0]


_ONE_ROW_SUPS = {
    "lipschitz_ball_sup": lambda points, c: lipschitz_ball_sup(points, c, 1.0, 1.0),
    "LipschitzBall.sup": LipschitzBall(1.0, 1.0).sup,
    "GaussianRkhsBall.sup": GaussianRkhsBall(1.0, 1.0).sup,
}


class TestOneRowSupInput:
    """The one-row sups take n points and one row of n finite coefficients."""

    POINTS = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 2))

    @pytest.mark.parametrize("c", [np.ones(4), np.ones((2, 3)), np.ones((1, 3)),
                                   [1.0, math.nan, 0.0], [math.inf, 1.0, 0.0]],
                             ids=["n-plus-1", "two-rows", "one-row-2d", "nan", "inf"])
    @pytest.mark.parametrize("name", _ONE_ROW_SUPS)
    def test_rejects_coefficients_of_another_shape_or_not_finite(self, name, c):
        with pytest.raises(InvalidInputError):
            _ONE_ROW_SUPS[name](self.POINTS, c)

    @pytest.mark.parametrize("name", _ONE_ROW_SUPS)
    def test_rejects_a_0d_coefficient_at_one_point(self, name):
        # [c] of a 0-d c is (1,), not one row of one coefficient
        with pytest.raises(InvalidInputError, match=r"rows of 1 coefficients, got shape \(1,\)"):
            _ONE_ROW_SUPS[name](self.POINTS[:1], np.float64(1.0))

    @pytest.mark.parametrize("name", _ONE_ROW_SUPS)
    def test_rejects_a_stack_of_point_sets(self, name):
        with pytest.raises(InvalidInputError, match="points must be"):
            _ONE_ROW_SUPS[name](np.stack([self.POINTS, self.POINTS]), np.ones(3))


class TestFiniteClassSup:
    """The finite class reads only the point count of its stack; SAMPLE is
    one set of its two points."""

    SAMPLE = np.zeros((1, 2, 1))

    def test_single_row(self):
        cls = FiniteFunctionClass(table=[[2.0, 3.0]], uniform_bound_B=3.0)
        assert cls.sup_batch(self.SAMPLE, [[1.0, 1.0]])[0, 0] == pytest.approx(5.0)

    def test_two_rows_enumerated(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0], [0.0, 1.0]], uniform_bound_B=1.0)
        # row 1 gives 1, row 2 gives -1
        assert cls.sup_batch(self.SAMPLE, [[1.0, -1.0]])[0, 0] == pytest.approx(1.0)

    def test_zero_coefficients(self):
        cls = FiniteFunctionClass(table=[[1.0, -1.0], [0.5, 0.5]], uniform_bound_B=1.0)
        assert cls.sup_batch(self.SAMPLE, [[0.0, 0.0]])[0, 0] == 0.0

    def test_dimension_mismatch(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0]], uniform_bound_B=1.0)
        with pytest.raises(InvalidInputError):
            cls.sup_batch(self.SAMPLE, [[1.0]])

    def test_sup_batch_rejects_wrong_point_count(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0]], uniform_bound_B=1.0)
        assert cls.sup_batch(self.SAMPLE, [[1.0, 1.0]])[0, 0] == 1.0
        with pytest.raises(InvalidInputError):
            cls.sup_batch([[[0.0], [1.0], [2.0]]], [[1.0, 1.0]])

    def test_bound_violation_rejected(self):
        with pytest.raises(InvalidInputError):
            FiniteFunctionClass(table=[[2.0]], uniform_bound_B=1.0)
        # the 1e-9 slack is relative below B = 1: 5e-10 is five times B = 1e-10
        with pytest.raises(InvalidInputError, match="exceed the uniform bound"):
            FiniteFunctionClass(table=[[5e-10]], uniform_bound_B=1e-10)
        tiny = FiniteFunctionClass(table=[[1e-10]], uniform_bound_B=1e-10)
        assert tiny.sup_batch(np.zeros((1, 1, 1)), [[1.0]])[0, 0] == 1e-10

    @pytest.mark.parametrize("r", [1, 9, 17, 40])
    def test_sup_batch_bits_are_the_row_max_of_the_product(self, r):
        # the finite and anchor-distance classes take core._row_max of
        # their products; without zero ties that is .max(axis=1) bit for bit
        # (at some widths .max(axis=1) gives a zero tie the other sign)
        rng = np.random.default_rng(r)
        pts = rng.uniform(-1, 1, size=(7, 2))
        C = rng.choice([-1.0, 1.0], size=(500, 7))
        cls = _anchor_class(r, r, 2)
        table = cls.values(pts)
        ref = (C @ table.T).max(axis=1).tobytes()
        finite = FiniteFunctionClass(table=table, uniform_bound_B=1.0)
        assert finite.sup_batch(pts[None], C)[0].tobytes() == ref
        assert cls.sup_batch(pts[None], C)[0].tobytes() == ref


class TestLipschitzBallSup:
    def test_single_point_box_only(self):
        assert lipschitz_ball_sup([[0.3]], [1.0], L=1.0, R=7.0) == pytest.approx(7.0)

    def test_coincident_points_cancel(self):
        val = lipschitz_ball_sup([[1.0], [1.0]], [1.0, -1.0], L=1.0, R=5.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_two_endpoints(self):
        # x = (-R, R), c = (1, 1), L = 1: y1 = y2 = R is feasible
        R = 1.5
        val = lipschitz_ball_sup([[-R], [R]], [1.0, 1.0], L=1.0, R=R)
        assert val == pytest.approx(2 * R)

    def test_scaling_in_l(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 3))
            pts = rng.uniform(-1, 1, size=(n, k))
            c = rng.normal(size=n)
            L = float(rng.uniform(0.5, 3.0))
            R = float(rng.uniform(0.5, 2.0))
            v1 = lipschitz_ball_sup(pts, c, L, R)
            v2 = lipschitz_ball_sup(pts, c, 1.0, R)
            assert v1 == pytest.approx(L * v2, rel=1e-9, abs=1e-9)

    def test_line_and_simplex_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            pts = rng.uniform(-2, 2, size=(n, 1))
            c = rng.normal(size=n)
            v_line = lipschitz_ball_sup(pts, c, 1.3, 0.9, method="line")
            v_simp = lipschitz_ball_sup(pts, c, 1.3, 0.9, method="simplex")
            assert v_line == pytest.approx(v_simp, rel=1e-8, abs=1e-8)

    def test_matches_grid_oracle_small(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            pts = rng.uniform(-1, 1, size=(n, k))
            c = rng.normal(size=n)
            R = float(rng.uniform(0.5, 1.5))
            exact = lipschitz_ball_sup(pts, c, 1.0, R)
            grid = grid_lipschitz_sup(pts, c, 1.0, R)
            assert abs(exact - grid) <= 1e-2 * R * np.abs(c).sum() + 1e-12
            assert grid <= exact + 1e-9  # grid explores a subset of the polytope

    def test_simplex_cap(self):
        pts = np.zeros((65, 2))
        with pytest.raises(BudgetExceededError):
            lipschitz_ball_sup(pts, np.ones(65), 1.0, 1.0, method="simplex")

    def test_batch_over_the_cap_fails_before_any_lp(self, monkeypatch):
        # one budget error for the whole batch, raised before the distances
        # are formed or any transport LP is built
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the point-count check")

        monkeypatch.setattr(classes, "distances", unreachable)
        monkeypatch.setattr(classes, "simplex_maximize", unreachable)
        C = np.ones((3, 65))
        with pytest.raises(BudgetExceededError,
                           match="dense simplex oracle capped at n = 64 points, got 65; "
                                 "use sampled finite subclasses for larger problems"):
            LipschitzBall(1.0, 1.0).sup_batch(np.zeros((1, 65, 2)), C)

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    def test_line_solver_matches_reference_dp(self, n):
        # above n = SIMPLEX_MAX_POINTS this is the only two-route check of the line solver
        rng = np.random.default_rng(24 + n)
        weights = {
            "signs": lambda: rng.choice([-1.0, 1.0], size=n),
            "small ints": lambda: rng.integers(-3, 4, size=n).astype(float),
            "gaussian": lambda: rng.normal(size=n),
        }
        for kind, draw in weights.items():
            for layout in ("spread", "coincident", "wide gaps"):
                L = float(rng.uniform(0.5, 2.0))
                R = float(rng.uniform(0.5, 2.0))
                x = rng.uniform(-1, 1, size=n)
                if layout == "coincident":
                    x = np.round(x * 2) / 2  # at most 5 distinct points
                elif layout == "wide gaps":
                    x = x * 2 * n * R  # typical gaps exceed 2B / L = 2R
                c = draw()
                ref = reference_line_dp(x, c, L, L * R)
                val = lipschitz_ball_sup(x[:, None], c, L, R, method="line")
                scale = L * R * np.abs(c).sum()
                assert val == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale), (kind, layout)

    def test_huge_gaps_stay_exact(self):
        # widths stay of order B however far apart the points are
        val = lipschitz_ball_sup([[-1e308], [0.0], [1e308]], [1.0, -1.0, 1.0], L=1.0, R=1.0)
        assert val == 3.0
        val = lipschitz_ball_sup([[-1e200], [1e200]], [1.0, 1.0], L=1.0, R=1.0)
        assert val == 2.0
        # the batch forms every gap at once: a gap past the float range
        # (1e308 - -1e308) and a product L * gap past it are inf, capped to
        # 2B with no overflow warning
        C = np.array([[1.0, 1.0], [1.0, -1.0]])
        vals = LipschitzBall(1.0, 1.0).sup_batch([[[-1e308], [1e308]]], C)[0]
        assert vals.tolist() == [2.0, 2.0]
        x = np.array([0.0, 1.0, 3.0, 3.5, 1e10])  # L * 1e10 overflows
        C = np.array([[1.0, -1.0, 1.0, -1.0, 1.0], [0.5, 2.0, -1.0, 0.0, -3.0]])
        vals = LipschitzBall(1e300, 1e-300).sup_batch(x[None, :, None], C)[0]
        B = 1e300 * 1e-300
        # every gap is at least 2B / L, so the points are independent
        assert vals.tolist() == [5.0 * B, 6.5 * B]
        assert vals.tolist() == [reference_slope_trick_line(x, c, 1e300, B) for c in C]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("layout", ["signs", "real with zeros", "coincident",
                                        "one-signed", "one point", "tiny masses"])
    def test_matches_linprog_on_the_primal_lp(self, layout, k):
        # the library solves the transport dual on its own simplex; scipy's
        # HiGHS solves the primal LP in the values y
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(40 + k)
        for n in ((1,) if layout == "one point" else (2, 9, 24)):
            pts = rng.uniform(-1, 1, size=(n, k))
            c = rng.choice([-1.0, 1.0], size=n) if layout == "signs" else rng.normal(size=n)
            if layout == "real with zeros":
                c[::3] = 0.0
            elif layout == "coincident":
                pts[n // 2:] = pts[: n - n // 2]
            elif layout == "one-signed":
                c = np.abs(c)  # no plus-minus pair: the LP has no columns
            # masses far below the simplex's absolute pivot tolerance; the
            # value is homogeneous in c, and HiGHS solves the unit-scale LP
            shrink = 1e-12 if layout == "tiny masses" else 1.0
            L, R = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
            val = lipschitz_ball_sup(pts, shrink * c, L, R)
            ref = shrink * linprog_lipschitz_sup(pts, c, L, R)
            assert abs(val - ref) <= 1e-9 * L * R * np.abs(shrink * c).sum(), (n, val, ref)

    def test_collinear_small_scale_matches_the_line(self):
        # on these 600 rows the all-pairs primal in w = (y + B)/B missed the
        # line solver by more than this in 23, by up to 9.1e-11 * B * ||c||_1,
        # and the transport LP in units of B in one, by 2.7e-11
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1.0, 1.0, size=16) * 1e-6
            direction = rng.standard_normal(2)
            pts = x[:, None] * (direction / np.linalg.norm(direction))
            C = np.vstack([rng.integers(0, 2, size=(4, 16)) * 2.0 - 1.0,
                           rng.normal(size=(2, 16))])
            for c in C:
                line = lipschitz_ball_sup(x[:, None], c, 1.0, 1.0)
                plane = lipschitz_ball_sup(pts, c, 1.0, 1.0)
                assert abs(plane - line) <= 1e-14 * np.abs(c).sum(), (seed, plane, line)

    @pytest.mark.parametrize("call", [
        lambda: lipschitz_ball_sup([[0.0], [1.0]], [1.0, -1.0], L=math.nan, R=1.0),
        lambda: lipschitz_ball_sup([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0], L=math.nan, R=1.0),
        lambda: lipschitz_ball_sup([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0], L=math.inf, R=1.0),
        lambda: lipschitz_ball_sup([[0.0], [1.0]], [1.0, -1.0], L=1.0, R=math.inf),
        lambda: LipschitzBall(1.0, math.inf).sup_batch([[[0.0], [1.0]]], [[1.0, 1.0]]),
        lambda: LipschitzBall(math.nan, 1.0),
        lambda: GaussianRkhsBall(math.nan, 1.0),
        lambda: GaussianRkhsBall(1.0, math.inf),
        lambda: GaussianRkhsBall(1.0, -1.0),
        lambda: gaussian_gram([[0.0], [1.0]], math.inf),
        lambda: gaussian_gram([[0.0], [1.0]], math.nan),
        # each parameter is finite, but L * R overflows
        lambda: lipschitz_ball_sup([[0.0], [1.0]], [1.0, -1.0], L=1e200, R=1e200),
        lambda: lipschitz_ball_sup([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0], L=1e200, R=1e200),
        lambda: LipschitzBall(1e200, 1e200),
        lambda: FiniteFunctionClass(table=[[0.5]], uniform_bound_B=math.nan),
        lambda: FiniteFunctionClass(table=[[0.5]], uniform_bound_B=math.inf),
        lambda: AnchorDistanceClass([[0.0]], [0.0], math.nan, 1.0),
        lambda: AnchorDistanceClass([[0.0]], [0.0], 1.0, math.inf),
        lambda: AnchorDistanceClass([[0.0]], [0.0], -1.0, 1.0),
    ], ids=["line-L-nan", "k2-L-nan", "k2-L-inf", "R-inf", "ball-R-inf", "ball-L-nan",
            "rkhs-sigma-nan", "rkhs-rho-inf", "rkhs-rho-negative", "gram-sigma-inf",
            "gram-sigma-nan", "line-LR-overflow", "k2-LR-overflow", "ball-LR-overflow",
            "finite-B-nan", "finite-B-inf", "anchor-L-nan", "anchor-B-inf", "anchor-L-negative"])
    def test_rejects_non_finite_parameters(self, call):
        with pytest.raises(InvalidInputError, match="finite and positive"):
            call()

    @pytest.mark.parametrize("gap, L, R", [(1e-170, 1e200, 1e-200), (3e-162, 1e160, 1e-160),
                                           (1e160, 1e-200, 1e200)],
                             ids=["gap-1e-170", "gap-3e-162", "gap-1e160"])
    def test_extreme_gaps_match_the_line(self, gap, L, R):
        # L * gap is of order B = 1 (or far from it), but the squared gaps
        # underflow or overflow; the plane's distances must still be the gaps
        x = gap * np.array([[0.0], [1.0], [2.0], [4.0]])
        pts = np.hstack([x, np.zeros_like(x)])
        for c in ([1.0, -1.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0], [0.5, 1.0, -2.0, 0.25]):
            line = lipschitz_ball_sup(x, c, L, R)
            plane = lipschitz_ball_sup(pts, c, L, R)
            assert abs(plane - line) <= 1e-14 * L * R * np.abs(c).sum(), (c, plane, line)

    def test_zero_distance_pair_in_higher_dim(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [-0.5, 0.0]])
        val = lipschitz_ball_sup(pts, [1.0, -1.0, 1.0], L=1.0, R=1.0)
        # first two y's forced equal; optimum is achieved by y3 alone
        assert val == pytest.approx(1.0)


_line_problems = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-32, 32).map(lambda v: v / 8), min_size=n, max_size=n),
    st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=n, max_size=n),
    st.floats(0.25, 4.0),
    st.floats(0.25, 4.0),
))


def _line_sup(x, c, L, R):
    return lipschitz_ball_sup(np.asarray(x)[:, None], c, L, R, method="line")


def _close(a, b, c, L, R):
    # relative to the problem scale B * ||c||_1, which bounds every value
    return a == pytest.approx(b, rel=1e-12, abs=1e-12 * L * R * np.abs(c).sum())


class TestLineSolverProperties:
    @settings(max_examples=60, deadline=None)
    @given(_line_problems, st.integers(-64, 64).map(lambda v: v / 8))
    def test_translation_invariance(self, problem, shift):
        x, c, L, R = problem
        # dyadic points and shift keep every gap exact
        assert _close(_line_sup([v + shift for v in x], c, L, R), _line_sup(x, c, L, R),
                      c, L, R)

    @settings(max_examples=60, deadline=None)
    @given(_line_problems)
    def test_reflection_invariance(self, problem):
        x, c, L, R = problem
        assert _close(_line_sup([-v for v in x], c, L, R), _line_sup(x, c, L, R), c, L, R)

    @settings(max_examples=60, deadline=None)
    @given(_line_problems)
    def test_sign_symmetry(self, problem):
        # the ball is symmetric under f -> -f
        x, c, L, R = problem
        assert _close(_line_sup(x, [-v for v in c], L, R), _line_sup(x, c, L, R), c, L, R)

    @settings(max_examples=60, deadline=None)
    @given(_line_problems)
    def test_homogeneous_in_l(self, problem):
        # y is feasible for (L, R) iff y / L is feasible for (1, R)
        x, c, L, R = problem
        assert _close(_line_sup(x, c, L, R), L * _line_sup(x, c, 1.0, R), c, L, R)


_plane_problems = st.tuples(st.integers(1, 10), st.integers(2, 3)).flatmap(
    lambda nk: st.tuples(
        st.lists(st.lists(st.integers(-16, 16).map(lambda v: v / 8), min_size=nk[1],
                          max_size=nk[1]), min_size=nk[0], max_size=nk[0]),
        st.one_of(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=nk[0], max_size=nk[0]),
            st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=nk[0],
                     max_size=nk[0])),
        st.floats(0.25, 4.0),
        st.floats(0.25, 4.0),
    ))


class TestAllPairsProperties:
    """Symmetries of the k >= 2 oracle (the transport LP), each checked to
    1e-12 of the problem scale B * ||c||_1."""

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems, st.lists(st.integers(-32, 32).map(lambda v: v / 8),
                                     min_size=3, max_size=3))
    def test_translation_invariance(self, problem, shift):
        pts, c, L, R = problem
        pts = np.asarray(pts)
        # dyadic points and shift keep every difference exact
        moved = pts + np.asarray(shift[: pts.shape[1]])
        assert _close(lipschitz_ball_sup(moved, c, L, R), lipschitz_ball_sup(pts, c, L, R),
                      c, L, R)

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems, st.floats(0.0, 2.0 * math.pi))
    def test_rotation_invariance(self, problem, angle):
        pts, c, L, R = problem
        pts = np.asarray(pts)
        turn = np.eye(pts.shape[1])
        turn[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        assert _close(lipschitz_ball_sup(pts @ turn.T, c, L, R),
                      lipschitz_ball_sup(pts, c, L, R), c, L, R)

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems)
    def test_sign_symmetry(self, problem):
        # the ball is symmetric under f -> -f
        pts, c, L, R = problem
        assert _close(lipschitz_ball_sup(pts, [-v for v in c], L, R),
                      lipschitz_ball_sup(pts, c, L, R), c, L, R)

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems)
    def test_homogeneous_in_l(self, problem):
        # y is feasible for (L, R) iff y / L is feasible for (1, R)
        pts, c, L, R = problem
        assert _close(lipschitz_ball_sup(pts, c, L, R), L * lipschitz_ball_sup(pts, c, 1.0, R),
                      c, L, R)


class TestPowerOfTwoScaling:
    """Scaling points on a grid of 1/8 by s = 2^e scales every distance
    exactly, also where the squares leave the float range, so the oracles
    give the same bits with L / s, R * s and s * sigma (general coordinates:
    test_core.py::TestDistances)."""

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems, st.integers(-540, 540))
    def test_lipschitz_ball(self, problem, e):
        pts, c, L, R = problem
        pts = np.asarray(pts)
        scaled = lipschitz_ball_sup(np.ldexp(pts, e), c, math.ldexp(L, -e), math.ldexp(R, e))
        assert scaled == lipschitz_ball_sup(pts, c, L, R)

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems, st.floats(0.3, 3.0), st.integers(-540, 540))
    def test_gaussian_gram(self, problem, sigma, e):
        pts = np.asarray(problem[0])
        assert np.array_equal(gaussian_gram(np.ldexp(pts, e), math.ldexp(sigma, e)),
                              gaussian_gram(pts, sigma))


@st.composite
def _line_batches(draw, signs=None):
    """Points on the line, at unit scale or near 1e-170 or 1e160 (with L and
    R rescaled half of the time so the gaps stay of order B / L), with
    coincident points and mixed 0.0 and -0.0, and rows of +-1 or of real
    coefficients with zeros (signs=True: +-1 rows only)."""
    n = draw(st.integers(1, 24))
    values = (st.sampled_from([0.0, -0.0]) | st.integers(-8, 8).map(lambda v: v / 4)
              | st.floats(-1.0, 1.0, allow_subnormal=False))
    scale = draw(st.sampled_from([1.0, 1e-170, 1e160]))
    x = np.array(draw(st.lists(values, min_size=n, max_size=n))) * scale
    if signs or (signs is None and draw(st.booleans())):
        coeffs = st.sampled_from([-1.0, 1.0])
    else:
        coeffs = st.just(0.0) | st.floats(-3.0, 3.0, allow_subnormal=False)
    C = np.array(draw(st.lists(st.lists(coeffs, min_size=n, max_size=n),
                               min_size=1, max_size=6)))
    L, R = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    if draw(st.booleans()):
        L, R = L / scale, R * scale
    return x, C, L, R


class TestBatchedLipschitzBits:
    """sup_batch sorts the points and forms their halfwidths (k = 1), or
    their distances (k >= 2), once per batch; every row keeps the bits of
    the one-row solvers."""

    @settings(max_examples=150, deadline=None)
    @given(_line_batches())
    def test_line_batch_is_the_one_row_solver(self, batch):
        x, C, L, R = batch
        ref = np.array([reference_slope_trick_line(x, c, L, L * R) for c in C])
        assert LipschitzBall(L, R).sup_batch(x[None, :, None], C)[0].tobytes() == ref.tobytes()
        assert lipschitz_ball_sup(x, C[0], L, R) == ref[0]

    @pytest.mark.parametrize("layout", ["signs", "real with zeros", "coincident", "signed zeros"])
    def test_line_batch_at_256_points(self, layout):
        rng = np.random.default_rng(256)
        x = rng.uniform(-1.0, 1.0, size=256)
        C = rng.choice([-1.0, 1.0], size=(8, 256))
        if layout == "real with zeros":
            C = rng.normal(size=(8, 256))
            C[:, ::3] = 0.0
        elif layout == "coincident":
            x = np.round(x * 4) / 4
        elif layout == "signed zeros":
            x[::2] = 0.0
            x[1::4] = -0.0
        ref = np.array([reference_slope_trick_line(x, c, 1.5, 1.5 * 0.75) for c in C])
        assert LipschitzBall(1.5, 0.75).sup_batch(x[None, :, None], C)[0].tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_plane_problems, st.lists(st.sampled_from([-1.0, 0.0, 1.0, 0.5, -2.5]),
                                     min_size=30, max_size=30))
    def test_plane_batch_is_row_by_row(self, problem, extra):
        pts, c, L, R = problem
        pts = np.asarray(pts)
        n = len(c)
        C = np.array([c, [-v for v in c], extra[:n], extra[n: 2 * n]])
        rows = [lipschitz_ball_sup(pts, row, L, R) for row in C]
        assert LipschitzBall(L, R).sup_batch(pts[None], C)[0].tobytes() == np.array(rows).tobytes()
        # and each row's bits are those of its own LP, posed and solved alone
        costs = L * classes.distances(pts)
        alone = [reference_transport_sup(costs, row, L * R) for row in C]
        assert np.array(rows).tobytes() == np.array(alone).tobytes()

    def test_a_plane_batch_is_one_stack(self, monkeypatch):
        # coincident points tie gains, so the column order decides pivots
        # and, with real rows, last bits
        rng = np.random.default_rng(33)
        pts = rng.uniform(-1.0, 1.0, size=(16, 2))
        pts[8:] = pts[:8]
        C = np.vstack([rng.choice([-1.0, 1.0], size=(17, 16)), rng.normal(size=(16, 16))])
        rows = [reference_transport_sup(classes.distances(pts), row, 1.0) for row in C]
        heights = []
        solve = classes.simplex_maximize

        def record(c, A, b):
            heights.append(len(c))
            return solve(c, A, b)

        monkeypatch.setattr(classes, "simplex_maximize", record)
        batch = LipschitzBall(1.0, 1.0).sup_batch(pts[None], C)[0]
        assert heights == [33]
        assert batch.tobytes() == np.array(rows).tobytes()
        # numpy sums a Fortran-ordered row in another order; the bits stay
        fortran = LipschitzBall(1.0, 1.0).sup_batch(pts[None], np.asfortranarray(C))[0]
        assert fortran.tobytes() == batch.tobytes()

    def test_each_row_of_a_stack_keeps_its_own_scales(self):
        # a row inside a cluster 1e-10 wide and a row of coefficients near
        # 1e-12, stacked with a +-1 row across the whole set: each keeps
        # the gain and mass scales it has alone
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1.0, 1.0, size=(16, 2))
        pts[8:] = pts[0] + 1e-10 * rng.uniform(-1.0, 1.0, size=(8, 2))
        cluster = np.zeros(16)
        cluster[8:] = rng.normal(size=8)
        C = np.array([cluster, rng.choice([-1.0, 1.0], size=16), 1e-12 * rng.normal(size=16)])
        alone = [reference_transport_sup(classes.distances(pts), row, 1.0) for row in C]
        batch = LipschitzBall(1.0, 1.0).sup_batch(pts[None], C)[0]
        assert batch.tobytes() == np.array(alone).tobytes()

    def test_stacks_stay_under_the_byte_ceiling(self, monkeypatch):
        # the estimators hand sup_batch up to WEIGHT_BLOCK + 1 rows; at the
        # 64-point cap one stack of them all would hold 2.3 GB of tableaus.
        # The stub solves nothing, so each stack is built and dropped.
        heights = []

        def record(c, A, b):
            lps, m, n = A.shape
            assert 8 * lps * (m + 1) * (n + m + 1) <= classes.SIMPLEX_STACK_BYTES
            heights.append(lps)
            return np.zeros(lps), np.zeros((lps, n))

        monkeypatch.setattr(classes, "simplex_maximize", record)
        rng = np.random.default_rng(4097)
        pts = rng.uniform(-1.0, 1.0, size=(classes.SIMPLEX_MAX_POINTS, 2))
        C = rng.choice([-1.0, 1.0], size=(4097, classes.SIMPLEX_MAX_POINTS))
        out = LipschitzBall(1.0, 1.0).sup_batch(pts[None], C)[0]
        assert sum(heights) == 4097 and len(heights) > 1
        assert np.array_equal(out, np.full(4097, 64.0))  # B * ||c||_1 minus a zero gain

    def test_plane_batch_at_the_cap(self):
        rng = np.random.default_rng(64)
        pts = rng.uniform(-1.0, 1.0, size=(64, 2))
        pts[32:40] = pts[:8]  # coincident pairs
        C = np.vstack([rng.choice([-1.0, 1.0], size=(2, 64)), rng.normal(size=(1, 64))])
        rows = [lipschitz_ball_sup(pts, row, 1.0, 1.0) for row in C]
        batch = LipschitzBall(1.0, 1.0).sup_batch(pts[None], C)[0]
        assert batch.tobytes() == np.array(rows).tobytes()


def _sorted_line(x, C, L, B):
    """The halfwidths and sorted rows _line_dp takes, formed as
    _lipschitz_sup_line forms them."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    with np.errstate(over="ignore"):
        gaps = np.minimum(L * np.diff(xs, prepend=xs[0]), 2.0 * B).tolist()
    return gaps, C[:, order].tolist()


def _record_unit_flags(monkeypatch):
    """Patch classes._line_dp with a recorder of each row's unit flag."""
    flags = []
    solve = classes._line_dp

    def record(gaps, cs, B, unit):
        flags.append(unit)
        return solve(gaps, cs, B, unit)

    monkeypatch.setattr(classes, "_line_dp", record)
    return flags


class TestUnitStep:
    """The +-1 step of _line_dp gives the bits of its general step, and the
    estimators hand +-1 rows to it."""

    @settings(max_examples=150, deadline=None)
    @given(_line_batches(signs=True))
    def test_unit_step_has_the_bits_of_the_general_step(self, batch):
        x, C, L, R = batch
        gaps, rows = _sorted_line(x, C, L, L * R)
        for c in rows:
            assert (classes._line_dp(gaps, c, L * R, unit=True).hex()
                    == classes._line_dp(gaps, c, L * R, unit=False).hex())

    @pytest.mark.parametrize("e", [-500, -20, 0, 20, 500])
    @pytest.mark.parametrize("layout", ["spread", "coincident", "signed zeros", "wide gaps"])
    def test_unit_step_at_256_points(self, layout, e):
        # L and R scaled by 2^e and 2^(e / 2): B = L * R and every gap
        # L * |x_i - x_j| move by powers of two
        rng = np.random.default_rng(256)
        x = rng.uniform(-1.0, 1.0, size=256)
        if layout == "coincident":
            x = np.round(x * 4) / 4
        elif layout == "signed zeros":
            x[::2] = 0.0
            x[1::4] = -0.0
        elif layout == "wide gaps":
            x = x * 1024.0  # typical gaps exceed 2B / L
        C = rng.choice([-1.0, 1.0], size=(8, 256))
        L, R = math.ldexp(1.5, e), math.ldexp(0.75, e // 2)
        gaps, rows = _sorted_line(x, C, L, L * R)
        unit = [classes._line_dp(gaps, c, L * R, unit=True) for c in rows]
        assert _hexes(unit) == _hexes(classes._line_dp(gaps, c, L * R, unit=False)
                                      for c in rows)
        assert _hexes(unit) == _hexes(reference_slope_trick_line(x, c, L, L * R) for c in C)

    def test_mixed_batch_flags_only_the_unit_rows(self, monkeypatch):
        rng = np.random.default_rng(35)
        x = rng.uniform(-1.0, 1.0, size=64)
        signed = rng.choice([-1.0, 1.0], size=64)
        signed[17] = -0.0  # not +-1: this row takes the general step
        zeros = rng.choice([-1.0, 1.0], size=64)
        zeros[::5] = 0.0
        C = np.vstack([rng.choice([-1.0, 1.0], size=(2, 64)), rng.normal(size=64), zeros,
                       signed])
        flags = _record_unit_flags(monkeypatch)
        out = LipschitzBall(1.25, 0.5).sup_batch(x[None, :, None], C)[0]
        assert flags == [True, True, False, False, False]
        ref = [reference_slope_trick_line(x, c, 1.25, 1.25 * 0.5) for c in C]
        assert _hexes(out) == _hexes(ref)

    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    def test_the_k1_composite_estimate_takes_the_unit_step(self, monkeypatch, mode):
        T = PointSet(np.random.default_rng(1).uniform(-1.0, 1.0, size=(3, 1, 10)))
        flags = _record_unit_flags(monkeypatch)
        composite_bernoulli_complexity(LipschitzBall(1.0, 1.0), T,
                                       EstimatorConfig(mode=mode, mc_samples=200, seed=2))
        rows = 3 * (2 ** 10 if mode == "exact" else 200)
        assert flags == [True] * rows

    def test_a_convexity_mixture_row_takes_the_general_step(self, monkeypatch):
        flags = _record_unit_flags(monkeypatch)
        assert oracle_convexity_check(LipschitzBall(1.0, 1.0), [[0.0], [0.5], [2.0]],
                                      [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], 0.25)
        assert flags == [True, True, False]


def _hexes(values):
    return [float(v).hex() for v in values]


class TestStackedOracle:
    """sup_batch takes an (E, n, k) stack of point sets and returns (E, rows):
    row e has the bits sup_batch gives on set e alone, as a stack of one.
    At k >= 2 the Lipschitz ball solves the LPs of every set of a stack
    together."""

    @staticmethod
    def _class(name, k, n):
        rng = np.random.default_rng(10 * k + n)
        return {"finite": FiniteFunctionClass(rng.uniform(-1.0, 1.0, size=(4, n)), 1.0),
                "lipschitz": LipschitzBall(lipschitz_L=1.0, radius_R=1.0),
                "rkhs": GaussianRkhsBall(sigma=0.8, rho=1.5),
                "anchor": _anchor_class(k, 3, k, B=2.0)}[name]

    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("sets", [1, 4])
    def test_each_set_of_a_stack_is_the_set_alone(self, name, k, sets):
        rng = np.random.default_rng(k)
        pts = rng.uniform(-1.0, 1.0, size=(sets, 7, k))
        C = np.vstack([rng.choice([-1.0, 1.0], size=(5, 7)), rng.normal(size=(3, 7))])
        C[-1, ::2] = 0.0
        fclass = self._class(name, k, 7)
        stacked = fclass.sup_batch(pts, C)
        assert stacked.shape == (sets, 8)
        for e in range(sets):
            alone = fclass.sup_batch(pts[e:e + 1], C)
            assert alone.shape == (1, 8)
            assert _hexes(stacked[e]) == _hexes(alone[0])

    @staticmethod
    def _plane_sets():
        """Three 16-point sets at k = 2: one spread out, one with 8 pairs of
        coincident points and one three times wider, where fewer pairs have
        a positive gain; and +-1 rows, real rows and a row with zeros."""
        rng = np.random.default_rng(41)
        pts = rng.uniform(-1.0, 1.0, size=(3, 16, 2))
        pts[1, 8:] = pts[1, :8]
        pts[2] *= 3.0
        C = np.vstack([rng.choice([-1.0, 1.0], size=(4, 16)), rng.normal(size=(3, 16))])
        C[-1, ::3] = 0.0
        return pts, C

    def test_allpairs_stack_keeps_each_lps_bits(self, monkeypatch):
        pts, C = self._plane_sets()
        pair_counts = [[int(np.count_nonzero((c[:, None] > 0) & (c[None, :] < 0)
                                             & (classes.distances(p) < 2.0))) for c in C]
                       for p in pts]
        assert len({counts[0] for counts in pair_counts}) == 3  # padded to the widest
        heights = []
        solve = classes.simplex_maximize

        def record(c, A, b):
            heights.append(len(c))
            return solve(c, A, b)

        monkeypatch.setattr(classes, "simplex_maximize", record)
        stacked = LipschitzBall(1.0, 1.0).sup_batch(pts, C)
        assert heights == [3 * 7]
        for p, row in zip(pts, stacked):
            alone = [reference_transport_sup(classes.distances(p), c, 1.0) for c in C]
            assert _hexes(row) == _hexes(alone)

    def test_allpairs_stack_cut_inside_a_set(self, monkeypatch):
        pts, C = self._plane_sets()
        whole = LipschitzBall(1.0, 1.0).sup_batch(pts, C)
        heights = []
        solve = classes.simplex_maximize

        def record(c, A, b):
            heights.append(len(c))
            return solve(c, A, b)

        # room for 5 LPs of 16 points a stack: stacks end inside every set
        row_bytes = 8 * 17 * (16 * 16 // 4 + 16 + 1)
        monkeypatch.setattr(classes, "SIMPLEX_STACK_BYTES", 5 * row_bytes)
        monkeypatch.setattr(classes, "simplex_maximize", record)
        cut = LipschitzBall(1.0, 1.0).sup_batch(pts, C)
        assert heights == [5, 5, 5, 5, 1]
        assert cut.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("name", ["rkhs", "anchor"])
    def test_a_stack_checks_its_rows_once(self, name, monkeypatch):
        # the per-set work runs on the checked stack, not back through sup_batch;
        # the class is built before the count starts, since building the
        # anchor class checks its shifts through the same helper
        fclass = self._class(name, 2, 7)
        checks = []
        check = classes._as_coeff_rows

        def counted(C, n):
            checks.append(n)
            return check(C, n)

        monkeypatch.setattr(classes, "_as_coeff_rows", counted)
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(4, 7, 2))
        stacked = fclass.sup_batch(pts, np.ones((3, 7)))
        assert stacked.shape == (4, 3) and checks == [7]

    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    def test_a_stack_gives_one_row_of_suprema_per_set(self, name):
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 4, 2))
        assert self._class(name, 2, 4).sup_batch(pts, np.ones((5, 4))).shape == (3, 5)

    # a 4-d array is one of test_empty_or_deeper_stacks_are_rejected's cases
    @pytest.mark.parametrize("points", [np.zeros((4, 2)), None], ids=["one-set-unstacked", "none"])
    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    def test_only_a_stack_is_taken(self, name, points):
        with pytest.raises(InvalidInputError, match="points must be"):
            self._class(name, 2, 4).sup_batch(points, np.ones((1, 4)))

    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    def test_only_2d_rows_are_taken(self, name):
        with pytest.raises(InvalidInputError,
                           match=r"expected rows of 4 coefficients, got shape \(4,\)"):
            self._class(name, 2, 4).sup_batch(np.zeros((3, 4, 2)), np.ones(4))

    @pytest.mark.parametrize("points", [np.zeros((0, 4, 2)), np.zeros((2, 0, 2)),
                                        np.zeros((2, 2, 2, 2))])
    @pytest.mark.parametrize("name", ["finite", "lipschitz", "rkhs", "anchor"])
    def test_empty_or_deeper_stacks_are_rejected(self, name, points):
        with pytest.raises(InvalidInputError, match="points must be"):
            self._class(name, 2, points.shape[-2] or 1).sup_batch(points, np.ones((1, 4)))


class TestRkhsBallSup:
    # sigma and the gap at one scale: the kernel is exp(-1/2), where
    # forming 2 sigma^2 underflows or the squared gap overflows
    @pytest.mark.parametrize("scale", [1e-200, 1e160], ids=["sigma-1e-200", "sigma-1e160"])
    def test_gram_at_extreme_bandwidths_is_the_exact_kernel(self, scale):
        kernel = math.exp(-0.5)
        np.testing.assert_allclose(gaussian_gram([[0.0], [scale]], scale),
                                   [[1.0, kernel], [kernel, 1.0]], rtol=1e-15)

    @pytest.mark.parametrize("scale", [1e-200, 1e160], ids=["sigma-1e-200", "sigma-1e160"])
    def test_ball_at_extreme_bandwidths_is_the_exact_value(self, scale):
        kernel = math.exp(-0.5)
        val = GaussianRkhsBall(sigma=scale, rho=1.0).sup([[0.0], [scale]], [1.0, -1.0])
        assert val == pytest.approx(math.sqrt(2.0 - 2.0 * kernel), rel=1e-14)

    def test_single_point_is_rho(self):
        ball = GaussianRkhsBall(sigma=0.7, rho=2.5)
        assert ball.sup([[0.4]], [1.0]) == pytest.approx(2.5)

    def test_identical_sections_cancel(self):
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        assert ball.sup([[0.2], [0.2]], [1.0, -1.0]) == pytest.approx(0.0, abs=1e-7)

    def test_half_correlation_closed_form(self):
        # ||x1 - x2|| = sigma * sqrt(2 ln 2) gives K = 1/2 and value sqrt(3)
        sigma = 0.8
        gap = sigma * math.sqrt(2 * math.log(2))
        ball = GaussianRkhsBall(sigma=sigma, rho=1.0)
        val = ball.sup([[0.0], [gap]], [1.0, 1.0])
        assert val == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_homogeneous_in_rho(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(4, 2))
        c = rng.normal(size=4)
        v1 = GaussianRkhsBall(sigma=1.2, rho=1.0).sup(pts, c)
        v3 = GaussianRkhsBall(sigma=1.2, rho=3.0).sup(pts, c)
        assert v3 == pytest.approx(3.0 * v1)

    def test_mc_over_ball_never_exceeds_and_converges(self):
        rng = np.random.default_rng(32)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            pts = rng.uniform(-1, 1, size=(n, 2))
            c = rng.normal(size=n)
            sigma = float(rng.uniform(0.5, 2.0))
            rho = float(rng.uniform(0.5, 2.0))
            closed = GaussianRkhsBall(sigma=sigma, rho=rho).sup(pts, c)
            small = rkhs_ball_mc_lower(pts, c, sigma, rho, 64, seed=trial)
            large = rkhs_ball_mc_lower(pts, c, sigma, rho, 4096, seed=trial)
            assert small <= closed + 1e-9
            assert large <= closed + 1e-9
            assert large >= small - 1e-12  # nested draws: gap shrinks monotonically
            if closed > 1e-6:
                assert (closed - large) / closed <= 0.12

    def test_bind_raises_past_the_gram_budget_before_forming_a_gram(self, monkeypatch):
        formed = []
        gram = classes.gaussian_gram
        monkeypatch.setattr(classes, "gaussian_gram",
                            lambda pts, sigma: formed.append(len(pts)) or gram(pts, sigma))
        ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
        # rkhs-bound's 6 elements stop at 3344 points: 6 * 3345^2 > 2^26
        assert core.MAX_DISTANCE_POINTS ** 2 == 2 ** 26
        with pytest.raises(BudgetExceededError, match="^6 Gram matrices of 3345 points exceed "
                                                      "the ceiling of 67108864 entries$"):
            ball.bind(np.zeros((6, 3345, 1)))
        # at a ceiling of 16 entries one set of 4 points fits, two of 3 do not
        monkeypatch.setattr(core, "MAX_DISTANCE_POINTS", 4)
        assert ball.bind(np.zeros((1, 4, 1)))(np.ones((1, 4))).shape == (1, 1)
        assert formed == [4]
        with pytest.raises(BudgetExceededError, match="^2 Gram matrices of 3 points"):
            ball.bind(np.zeros((2, 3, 1)))
        with pytest.raises(BudgetExceededError, match="^2 Gram matrices of 3 points"):
            composite_bernoulli_complexity(ball, PointSet(np.zeros((2, 1, 3))),
                                           EstimatorConfig(mode="exact"))
        assert formed == [4]

    @pytest.mark.parametrize("name", ["rkhs", "anchor"])
    def test_an_estimate_prepares_each_set_once(self, monkeypatch, name):
        # 9001 rows of 300 signs are 3 blocks of 436-row chunks, 22 chunks;
        # each element's Gram or value table is formed once, not per chunk
        formed = []
        if name == "rkhs":
            gram = classes.gaussian_gram
            monkeypatch.setattr(classes, "gaussian_gram",
                                lambda pts, sigma: formed.append(len(pts)) or gram(pts, sigma))
            fclass = GaussianRkhsBall(sigma=1.0, rho=1.0)
        else:
            values = AnchorDistanceClass.values
            monkeypatch.setattr(AnchorDistanceClass, "values",
                                lambda self, pts: formed.append(len(pts)) or values(self, pts))
            fclass = _anchor_class(5, 3, 2)
        T = PointSet(np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, 2, 300)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=9001, seed=5)
        composite_bernoulli_complexity(fclass, T, cfg)
        assert formed == [300, 300]


_rkhs_problems = st.tuples(st.integers(1, 8), st.integers(1, 3)).flatmap(
    lambda nk: st.tuples(
        st.lists(st.lists(st.floats(-2, 2, allow_subnormal=False), min_size=nk[1],
                          max_size=nk[1]), min_size=nk[0], max_size=nk[0]),
        st.lists(st.one_of(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=nk[0], max_size=nk[0]),
            st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=nk[0],
                     max_size=nk[0])), min_size=1, max_size=4),
        st.floats(0.3, 3.0),
        st.floats(0.1, 10.0),
    ))


class TestRkhsGramForm:
    @settings(max_examples=80, deadline=None)
    @given(_rkhs_problems)
    def test_matches_the_explicit_representer(self, problem):
        pts, C, sigma, rho = problem
        vals = GaussianRkhsBall(sigma=sigma, rho=rho).sup_batch([pts], C)[0]
        assert vals.shape == (len(C),)
        for val, c in zip(vals, C):
            ref, norm2, scale = rkhs_representer_value(pts, c, sigma, rho)
            # Rounding in c^T G c is about eps * scale; rows whose form
            # stands well above it match to 1e-10 relative, the others to the
            # square root of a rounding-sized form.
            if norm2 > 1e-4 * scale:
                assert val == pytest.approx(ref, rel=1e-10)
            else:
                assert val == pytest.approx(rho * math.sqrt(max(norm2, 0.0)),
                                            abs=rho * math.sqrt(1e-12 * scale))

    def test_duplicated_set_with_opposite_signs_is_exactly_zero(self):
        # the increment-ratio layout at the rkhs workload's size: (eps, -eps)
        # rows over a 128-point set listed twice
        rng = np.random.default_rng(36)
        half = rng.uniform(-1, 1, size=(128, 2))
        eps = rng.integers(0, 2, size=(4000, 128)) * 2.0 - 1.0
        vals = GaussianRkhsBall(sigma=0.5, rho=1.0).sup_batch(
            np.concatenate([half, half])[None], np.concatenate([eps, -eps], axis=1))
        assert np.all(vals == 0.0)

    def test_the_rounding_bound_scales_with_the_row(self):
        # rounding in c' G c grows with ||c||_1^2: a row whose form is
        # +3.5e-11 in long double rounds to -1.1e-10 at this scale, which
        # an absolute -1e-12 rejected, while the same row / 100 passed
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 32, 2)) * 1e-8
        c = rng.integers(-3, 4, 32).astype(float)
        c[-1] -= c.sum()
        c *= 100.0
        ball = GaussianRkhsBall(1.0, 1.0)
        assert ball.sup_batch(x, [c / 100.0])[0, 0] == 0.0
        assert ball.sup_batch(x, [c])[0, 0] == 0.0

    def test_a_broken_gram_still_raises(self, monkeypatch):
        # c' G c = -2 at ||c||_1^2 = 4 is no rounding
        monkeypatch.setattr(classes, "gaussian_gram", lambda pts, sigma: np.array([[0.0, 1.0],
                                                                                   [1.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="negative beyond rounding: -2.000e"):
            GaussianRkhsBall(1.0, 1.0).sup_batch(np.zeros((1, 2, 1)), [[1.0, 1.0], [1.0, -1.0]])


class TestOracleConvexity:
    def test_lambda_zero_trivial(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0]], uniform_bound_B=1.0)
        assert oracle_convexity_check(cls, [[0.0], [1.0]],
                                      [1.0, 0.0], [0.0, 1.0], 0.0)

    def test_finite_class_random_trials(self):
        rng = np.random.default_rng(33)
        cls = FiniteFunctionClass(table=rng.uniform(-1, 1, size=(6, 4)), uniform_bound_B=1.0)
        pts = rng.normal(size=(4, 1))
        for _ in range(1000):
            ok = oracle_convexity_check(
                cls, pts, rng.normal(size=4), rng.normal(size=4), float(rng.uniform())
            )
            assert ok

    def test_rkhs_random_trials(self):
        rng = np.random.default_rng(34)
        oracle = GaussianRkhsBall(sigma=1.0, rho=2.0)
        pts = rng.normal(size=(5, 2))
        for _ in range(1000):
            assert oracle_convexity_check(
                oracle, pts, rng.normal(size=5), rng.normal(size=5), float(rng.uniform())
            )

    def test_lipschitz_ball_random_trials(self):
        rng = np.random.default_rng(35)
        oracle = LipschitzBall(lipschitz_L=1.0, radius_R=1.0)
        pts = rng.uniform(-1, 1, size=(4, 1))
        for _ in range(100):
            assert oracle_convexity_check(
                oracle, pts, rng.normal(size=4), rng.normal(size=4), float(rng.uniform())
            )


class TestAnchorDistanceClass:
    """AnchorDistanceClass against a per-function, per-point Python table."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scale, L", [(1.0, 1.0), (1e160, 1e-160), (1e160, 1.0), (1e160, 1e200)],
                             ids=["unit", "apart-1e160", "apart-1e160-clipped", "apart-1e160-inf"])
    def test_sup_batch_matches_the_reference_table(self, k, scale, L):
        # points 0 and 1 coincide and point 2 sits on anchor 0, whose shift
        # -2B clips to -B there; shift B clips function 1 to B at every
        # other point; at scale 1e160 every squared distance overflows, and
        # at L = 1e200 so does L * d
        B = 1.5
        rng = np.random.default_rng(40 + k)
        anchors = scale * rng.uniform(-1, 1, size=(6, k))
        shifts = np.concatenate([[-2.0 * B, B], rng.uniform(-2.0 * B, B, size=4)])
        pts = scale * rng.uniform(-1, 1, size=(9, k))
        pts[1] = pts[0]
        pts[2] = anchors[0]
        cls = AnchorDistanceClass(anchors, shifts, L, B)
        ref = reference_anchor_distance_table(anchors, shifts, L, B, pts)
        table = cls.values(pts)
        assert table.shape == (6, 9)
        assert np.all(np.abs(table - np.array(ref)) <= 1e-13 * B)
        assert table[0, 2] == -B and table[1].max() == B
        C = np.vstack([rng.choice([-1.0, 1.0], size=(20, 9)), rng.normal(size=(20, 9))])
        got = cls.sup_batch(pts[None], C)[0]
        for c, value in zip(C, got):
            assert abs(value - reference_table_sup(ref, c)) <= 1e-13 * B * np.abs(c).sum()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lipschitz_and_bound_certificate(self, k):
        L, B = 2.0, 1.5
        cls = _anchor_class(50 + k, 40, k, L=L, B=B)
        pts = np.random.default_rng(60 + k).uniform(-1, 1, size=(12, k))
        table = cls.values(pts)
        assert table.shape == (40, 12)
        assert np.abs(table).max() <= B
        gaps = np.abs(table[:, :, None] - table[:, None, :])
        assert np.all(gaps <= L * pairwise_dist(pts) + 1e-12 * B)

    @pytest.mark.parametrize("call", [
        lambda: AnchorDistanceClass([[0.0, math.nan]], [0.0], 1.0, 1.0),
        lambda: AnchorDistanceClass(np.zeros((0, 2)), [], 1.0, 1.0),
        lambda: AnchorDistanceClass([[0.0], [1.0]], [0.0], 1.0, 1.0),
        lambda: AnchorDistanceClass([[0.0]], [math.inf], 1.0, 1.0),
        # [shifts] of a 0-d shift is (1,), not one row of one shift
        lambda: AnchorDistanceClass([[0.0, 0.0]], np.float64(0.0), 1.0, 1.0),
    ], ids=["anchor-nan", "no-anchors", "shift-count", "shift-inf", "shift-0d-at-one-anchor"])
    def test_rejects_bad_anchors_and_shifts(self, call):
        with pytest.raises(InvalidInputError):
            call()

    @pytest.mark.parametrize("shifts", [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 3)),
                                        [0.0, math.nan, 0.0]],
                             ids=["r-plus-1", "two-rows", "one-row-2d", "nan"])
    def test_rejects_shifts_of_another_shape_or_not_finite(self, shifts):
        with pytest.raises(InvalidInputError):
            AnchorDistanceClass(np.zeros((3, 2)), shifts, 1.0, 1.0)

    def test_sup_batch_rejects_points_of_another_k(self):
        cls = _anchor_class(14, 3, 1)
        pts_k2 = np.random.default_rng(15).uniform(-1, 1, size=(4, 2))
        with pytest.raises(InvalidInputError, match="anchors k = 1"):
            cls.sup_batch(pts_k2[None], np.ones((2, 4)))

    def test_sup_batch_rejects_wrong_coefficient_width(self):
        cls = _anchor_class(14, 3, 1)
        pts = np.random.default_rng(15).uniform(-1, 1, size=(4, 1))
        with pytest.raises(InvalidInputError):
            cls.sup_batch(pts[None], np.ones((2, 5)))
