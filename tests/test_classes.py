import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berncomp import (
    BudgetExceededError,
    FiniteFunctionClass,
    GaussianRkhsBall,
    InvalidInputError,
    LipschitzBall,
    finite_class_from_csv,
    finite_class_to_csv,
    lipschitz_ball_sup,
    oracle_convexity_check,
    sample_piecewise_linear_class,
    simplex_maximize,
)
from oracles import (grid_lipschitz_sup, reference_line_dp, rkhs_ball_mc_lower,
                     rkhs_representer_value)


class TestSimplex:
    def test_tiny_lp_by_hand(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4 -> 4
        value, x = simplex_maximize(
            [1.0, 1.0],
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [2.0, 3.0, 4.0],
        )
        assert value == pytest.approx(4.0)
        assert x.sum() == pytest.approx(4.0)

    def test_degenerate_rhs_terminates(self):
        # zero right-hand sides force degenerate pivots; Bland must not cycle
        value, _ = simplex_maximize(
            [1.0, -1.0],
            [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]],
            [0.0, 0.0, 1.0],
        )
        assert value == pytest.approx(0.0)

    def test_against_scipy_on_random_instances(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 8))
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.1, 2.0, size=m)
            c = rng.normal(size=n)
            A_box = np.vstack([A, np.eye(n)])
            b_box = np.concatenate([b, np.full(n, 5.0)])
            value, x = simplex_maximize(c, A_box, b_box)
            ref = scipy_opt.linprog(-c, A_ub=A_box, b_ub=b_box,
                                    bounds=[(0, None)] * n, method="highs")
            assert value == pytest.approx(-ref.fun, abs=1e-7)
            assert np.all(A_box @ x <= b_box + 1e-7)


class TestFiniteClassSup:
    def test_single_row(self):
        cls = FiniteFunctionClass(table=[[2.0, 3.0]], lipschitz_L=1.0, uniform_bound_B=3.0)
        assert cls.sup([1.0, 1.0]) == pytest.approx(5.0)

    def test_two_rows_enumerated(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0], [0.0, 1.0]], lipschitz_L=1.0,
                                  uniform_bound_B=1.0)
        # row 1 gives 1, row 2 gives -1
        assert cls.sup([1.0, -1.0]) == pytest.approx(1.0)

    def test_zero_coefficients(self):
        cls = FiniteFunctionClass(table=[[1.0, -1.0], [0.5, 0.5]], lipschitz_L=1.0,
                                  uniform_bound_B=1.0)
        assert cls.sup([0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0]], lipschitz_L=1.0, uniform_bound_B=1.0)
        with pytest.raises(InvalidInputError):
            cls.sup([1.0])

    def test_sup_batch_rejects_wrong_point_count(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0]], lipschitz_L=1.0, uniform_bound_B=1.0)
        assert cls.sup_batch(None, [[1.0, 1.0]])[0] == 1.0
        with pytest.raises(InvalidInputError):
            cls.sup_batch([[0.0], [1.0], [2.0]], [[1.0, 1.0]])

    def test_bound_violation_rejected(self):
        with pytest.raises(InvalidInputError):
            FiniteFunctionClass(table=[[2.0]], lipschitz_L=1.0, uniform_bound_B=1.0)

    def test_lipschitz_certificate_checked_when_points_given(self):
        with pytest.raises(InvalidInputError):
            FiniteFunctionClass(table=[[0.0, 1.0]], lipschitz_L=1.0, uniform_bound_B=1.0,
                                points=[[0.0], [0.1]])

    def test_csv_round_trip(self, tmp_path):
        cls = FiniteFunctionClass(table=[[1.0, -0.5], [0.25, 0.75]], lipschitz_L=2.0,
                                  uniform_bound_B=1.0)
        vals = tmp_path / "class.csv"
        meta = tmp_path / "class_meta.txt"
        finite_class_to_csv(cls, vals, meta)
        back = finite_class_from_csv(vals, meta)
        np.testing.assert_array_equal(back.table, cls.table)
        assert back.lipschitz_L == cls.lipschitz_L
        assert back.uniform_bound_B == cls.uniform_bound_B

    def test_csv_bad_row_names_line(self, tmp_path):
        meta = tmp_path / "meta.txt"
        meta.write_text("L = 1.0\nB = 1.0\n")
        for bad_row, message in (("0,x,0.5", "line 3, column point_id"),
                                 ("1.5,1,0.5", "line 3, column func_id"),
                                 ("0,1,abc", "line 3, column value"),
                                 ("0,1", "line 3: expected 3 fields"),
                                 ("-1,0,0.5", "line 3: func_id and point_id must be >= 0")):
            vals = tmp_path / "class.csv"
            vals.write_text(f"func_id,point_id,value\n0,0,0.5\n{bad_row}\n")
            with pytest.raises(InvalidInputError, match=message):
                finite_class_from_csv(vals, meta)

    def test_sidecar_non_numeric_value_names_line(self, tmp_path):
        vals = tmp_path / "class.csv"
        vals.write_text("func_id,point_id,value\n0,0,0.5\n")
        meta = tmp_path / "meta.txt"
        meta.write_text("L = 1.0\nB = one\n")
        with pytest.raises(InvalidInputError, match="line 2, key B"):
            finite_class_from_csv(vals, meta)

    @pytest.mark.parametrize("rows, where", [
        ("0,0,0.5\n0,0,0.25\n", "line 3: repeated cell func_id 0, point_id 0"),
        ("0,0,nan\n", "line 2, column value: expected a finite number, got 'nan'"),
    ], ids=["repeated-cell", "nan-cell"])
    def test_bad_cell_names_file_and_line(self, tmp_path, rows, where):
        meta = tmp_path / "meta.txt"
        meta.write_text("L = 1.0\nB = 1.0\n")
        vals = tmp_path / "class.csv"
        vals.write_text("func_id,point_id,value\n" + rows)
        with pytest.raises(InvalidInputError) as err:
            finite_class_from_csv(vals, meta)
        assert str(err.value).startswith(f"{vals}, {where}")

    @pytest.mark.parametrize("rows", ["0,0,0.5\n1,1,0.5\n", "0,100000000,0.5\n"],
                             ids=["diagonal", "one-far-cell"])
    def test_missing_cells_rejected_before_the_table_is_allocated(self, tmp_path, rows):
        # The far cell spans a 1 x 100000001 grid: 800 MB if it were tabulated.
        meta = tmp_path / "meta.txt"
        meta.write_text("L = 1.0\nB = 1.0\n")
        vals = tmp_path / "class.csv"
        vals.write_text("func_id,point_id,value\n" + rows)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError) as err:
                finite_class_from_csv(vals, meta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith(f"{vals}: function-class CSV is missing entries")
        assert peak < 1 << 20

    @pytest.mark.parametrize("text, where", [
        ("L = 1.0\nL = 2.0\nB = 1.0\n", "line 2: repeated key L"),
        ("L = 1.0\nB = 1.0\nC = 3.0\n", "line 3: expected 'L = value' or 'B = value'"),
        ("L 1\nB = 1.0\n", "line 1: expected 'L = value' or 'B = value'"),
        ("L = 1.0\nB = inf\n", "line 2, key B: expected a finite number, got 'inf'"),
    ], ids=["repeated-key", "unknown-key", "no-equals", "infinite-value"])
    def test_bad_sidecar_line_names_file_and_line(self, tmp_path, text, where):
        vals = tmp_path / "class.csv"
        vals.write_text("func_id,point_id,value\n0,0,0.5\n")
        meta = tmp_path / "meta.txt"
        meta.write_text(text)
        with pytest.raises(InvalidInputError) as err:
            finite_class_from_csv(vals, meta)
        assert str(err.value).startswith(f"{meta}, {where}")

    def test_sidecar_missing_key_names_file(self, tmp_path):
        vals = tmp_path / "class.csv"
        vals.write_text("func_id,point_id,value\n0,0,0.5\n")
        meta = tmp_path / "meta.txt"
        meta.write_text("L = 1.0\n")
        with pytest.raises(InvalidInputError) as err:
            finite_class_from_csv(vals, meta)
        assert str(err.value) == f"{meta}: sidecar is missing B"


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


class TestRkhsBallSup:
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
        vals = GaussianRkhsBall(sigma=sigma, rho=rho).sup_batch(pts, C)
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
            np.concatenate([half, half]), np.concatenate([eps, -eps], axis=1))
        assert np.all(vals == 0.0)


class TestOracleConvexity:
    def test_lambda_zero_trivial(self):
        cls = FiniteFunctionClass(table=[[1.0, 0.0]], lipschitz_L=1.0, uniform_bound_B=1.0)
        assert oracle_convexity_check(cls, [[0.0], [1.0]],
                                      [1.0, 0.0], [0.0, 1.0], 0.0)

    def test_finite_class_random_trials(self):
        rng = np.random.default_rng(33)
        cls = FiniteFunctionClass(table=rng.uniform(-1, 1, size=(6, 4)),
                                  lipschitz_L=5.0, uniform_bound_B=1.0)
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


class TestPiecewiseLinearSampler:
    def test_tabulated_lipschitz_certificate(self):
        cls = sample_piecewise_linear_class(40, L=1.0, R=1.0, seed=9)
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1, 1, size=12)
        tab = cls.tabulate(pts)  # construction re-validates the certificate
        assert tab.n_functions == 40 and tab.n_points == 12
        assert np.abs(tab.table).max() <= 1.0 + 1e-12

    def test_values_clipped_to_box(self):
        cls = sample_piecewise_linear_class(100, L=2.0, R=1.5, seed=11)
        assert np.abs(cls.values).max() <= 3.0

    def test_oracle_matches_tabulation(self):
        cls = sample_piecewise_linear_class(12, L=1.0, R=1.0, seed=12)
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, size=(6, 1))
        c = rng.normal(size=6)
        via_oracle = cls.sup_batch(pts, [c])[0]
        via_table = cls.tabulate(pts[:, 0]).sup(c)
        assert via_oracle == pytest.approx(via_table)

    def test_sup_batch_rejects_points_off_the_line(self):
        cls = sample_piecewise_linear_class(3, L=1.0, R=1.0, seed=14)
        pts_k2 = np.random.default_rng(15).uniform(-1, 1, size=(4, 2))
        with pytest.raises(InvalidInputError):
            cls.sup_batch(pts_k2, np.ones((2, 4)))

    def test_sup_batch_rejects_wrong_coefficient_width(self):
        cls = sample_piecewise_linear_class(3, L=1.0, R=1.0, seed=14)
        pts = np.random.default_rng(15).uniform(-1, 1, size=(4, 1))
        with pytest.raises(InvalidInputError):
            cls.sup_batch(pts, np.ones((2, 5)))
