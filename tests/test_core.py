import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berncomp import (
    BudgetExceededError,
    ComplexityEstimate,
    FiniteMetricSpace,
    InvalidInputError,
    PointSet,
    diameter2,
    gaussian_gram,
    lipschitz_ball_sup,
    metric_space_from_pointset,
    norm_pq,
    pointset_from_csv,
    pointset_to_csv,
)
from berncomp import core
from berncomp.core import _row_max, distances


class TestNormPq:
    def test_single_column_euclidean(self):
        assert norm_pq(np.array([[3.0], [4.0]]), 2, 2) == pytest.approx(5.0)

    def test_sum_of_column_l1_norms(self):
        # columns (1,0) and (0,1) in R^2
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert norm_pq(t, 1, 1) == pytest.approx(2.0)

    def test_max_of_column_max_entries(self):
        t = np.array([[1.0, 3.0], [-2.0, 0.0]])  # columns (1,-2) and (3,0)
        assert norm_pq(t, math.inf, math.inf) == pytest.approx(3.0)

    def test_frobenius_matches_p2q2(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.normal(size=(3, 4))
            assert norm_pq(t, 2, 2) == pytest.approx(float(np.linalg.norm(t)))

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.normal(size=(2, 3))
            p = rng.choice([1.0, 1.5, 2.0, 3.0, math.inf])
            q = rng.choice([1.0, 2.0, 4.0, math.inf])
            alpha = rng.normal()
            assert norm_pq(alpha * t, p, q) == pytest.approx(abs(alpha) * norm_pq(t, p, q))

    def test_monotone_in_absolute_entries(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = rng.normal(size=(3, 3))
            bigger = t * rng.uniform(1.0, 2.0, size=t.shape)
            p = rng.choice([1.0, 2.0, math.inf])
            q = rng.choice([1.0, 2.0, math.inf])
            assert norm_pq(bigger, p, q) >= norm_pq(t, p, q) - 1e-12

    def test_two_inf_dominated_by_sqrt_k_times_inf_inf(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            t = rng.normal(size=(k, int(rng.integers(1, 6))))
            assert norm_pq(t, 2, math.inf) <= math.sqrt(k) * norm_pq(t, math.inf, math.inf) + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            norm_pq(np.array([[np.inf]]), 2, 2)

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidInputError):
            norm_pq(np.array([[1.0]]), 0.5, 2)


class TestPointSet:
    def test_shape_and_accessors(self):
        T = PointSet.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert (T.k, T.n, T.n_elements) == (1, 2, 2)
        assert T.element(1).shape == (1, 2)

    def test_duplicates_are_kept(self):
        T = PointSet.from_rows([[1.0], [1.0]])
        assert T.n_elements == 2

    def test_elements_read_only(self):
        T = PointSet.from_rows([[1.0]])
        with pytest.raises(ValueError):
            T.elements[0, 0, 0] = 2.0

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            PointSet.from_rows([[np.nan]])

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        T = PointSet(rng.normal(size=(5, 2, 3)))
        path = tmp_path / "points.csv"
        pointset_to_csv(T, path)
        back = pointset_from_csv(path, k=2)
        np.testing.assert_array_equal(back.elements, T.elements)

    def test_csv_round_trip_keeps_every_bit(self, tmp_path):
        # repr gives the shortest string that reads back to the same double,
        # so signed zero, subnormals and the extremes survive
        values = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
        T = PointSet.from_rows([values[:3], values[3:]])
        path = tmp_path / "points.csv"
        pointset_to_csv(T, path)
        assert pointset_from_csv(path).elements.tobytes() == T.elements.tobytes()

    def test_csv_header_is_stable(self, tmp_path):
        T = PointSet.from_rows([[1.0, 2.0]])
        path = tmp_path / "p.csv"
        pointset_to_csv(T, path)
        header = path.read_text().splitlines()[0]
        assert header == "elem_id,coord_0,coord_1"


class TestDiameter:
    def test_singleton(self):
        assert diameter2(PointSet.from_rows([[1.0, 2.0]])) == 0.0

    def test_two_points_k1(self):
        assert diameter2(PointSet.from_rows([[0.0], [3.0]])) == pytest.approx(3.0)

    def test_three_elements_brute_force(self):
        T = PointSet.from_rows([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        vecs = T.vectorized()
        brute = max(
            float(np.linalg.norm(vecs[i] - vecs[j]))
            for i in range(3) for j in range(3)
        )
        assert brute == pytest.approx(2.0)
        assert diameter2(T) == pytest.approx(brute)

    def test_zero_iff_all_equal(self):
        T = PointSet.from_rows([[1.0, 2.0]] * 4)
        assert diameter2(T) == 0.0
        T2 = PointSet.from_rows([[1.0, 2.0], [1.0, 2.0 + 1e-9]])
        assert diameter2(T2) > 0.0


class TestFiniteMetricSpace:
    def test_singleton_space(self):
        sp = metric_space_from_pointset(PointSet.from_rows([[1.0]]))
        assert sp.size == 1 and sp.dist.shape == (1, 1) and sp.dist[0, 0] == 0.0

    def test_two_points_off_diagonal(self):
        sp = metric_space_from_pointset(PointSet.from_rows([[0.0], [5.0]]))
        assert sp.dist[0, 1] == pytest.approx(5.0)

    def test_random_spaces_pass_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = PointSet(rng.normal(size=(6, 2, 2)))
            sp = metric_space_from_pointset(T)
            d = sp.dist
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            # brute-force triangle check
            m = sp.size
            for i in range(m):
                for j in range(m):
                    for l in range(m):
                        assert d[i, j] <= d[i, l] + d[l, j] + 1e-9

    def test_triangle_violation_rejected(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            FiniteMetricSpace(d)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e100])
    def test_collinear_spaces_pass_at_every_scale(self, scale):
        # {0, v, 2v, 3v} * scale: the slack follows the largest distance
        for v in itertools.product(range(-4, 5), repeat=3):
            T = PointSet(np.arange(4.0)[:, None, None] * np.array(v, dtype=float) * scale)
            assert metric_space_from_pointset(T).size == 4

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_scaled_triangle_violation_rejected(self, scale):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]) * scale
        with pytest.raises(InvalidInputError, match=f"slack {1e-9 * 3.0 * scale:.3e}"):
            FiniteMetricSpace(d)

    def test_asymmetry_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInputError):
            FiniteMetricSpace(d)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="must be square"):
            FiniteMetricSpace(np.zeros(shape))

    def test_empty_space_rejected(self):
        # covering_number, entropy_number and build_admissible_sequence
        # disagreed about an empty space; none of them can meet one now
        with pytest.raises(InvalidInputError, match=r"square and nonempty, got shape \(0, 0\)"):
            FiniteMetricSpace(np.zeros((0, 0)))

    def test_one_point_space_has_diameter_zero(self):
        sp = FiniteMetricSpace(np.zeros((1, 1)))
        assert sp.size == 1 and sp.diameter == 0.0


class TestComplexityEstimate:
    def test_exact_requires_zero_std_error(self):
        with pytest.raises(InvalidInputError):
            ComplexityEstimate(1.0, 0.1, "exact-enumeration", 4, 0)

    def test_monte_carlo_requires_samples(self):
        with pytest.raises(InvalidInputError):
            ComplexityEstimate(1.0, 0.1, "monte-carlo", 0, 0)

    def test_csv_row(self):
        est = ComplexityEstimate(0.5, 0.0, "closed-form", 0, 7)
        assert est.csv_row("b") == ["b", "0.5", "0.0", "closed-form", "0", "7"]


class TestLoaderErrors:
    """The point-set loader reports malformed input as '<path>, line <n>...'."""

    @pytest.mark.parametrize("text, where", [
        ("elem_id,coord_0,coord_1\n0,1.0,2.0\n1,3.0\n", "line 3: expected 3 fields, got 2"),
        ("elem_id,coord_0,coord_1\n0,nan,2.0\n",
         "line 2, column coord_0: expected a finite number, got 'nan'"),
        ("elem_id,coord_0,coord_1\n0,1.0,1e400\n",
         "line 2, column coord_1: expected a finite number, got '1e400'"),
        ("id,coord_0\n0,1.0\n", "line 1: expected header starting with elem_id"),
        ("elem_id\n0\n", "line 1: 0 coordinates do not form k=1 rows"),
        ("elem_id,coord_0\n0,1.0,2.0\n", "line 2: expected 2 fields, got 3"),
        ("elem_id,coord_0\n0,x\n", "line 2, column coord_0: expected a number, got 'x'"),
        ("elem_id,coord_0,coord_1\n0,,2.0\n",
         "line 2, column coord_0: expected a number, got ''"),
        ("elem_id,coord_0\n0,-inf\n",
         "line 2, column coord_0: expected a finite number, got '-inf'"),
        ("elem_id,coord_0\n0,1.0\n\n1,y\n",
         "line 4, column coord_0: expected a number, got 'y'"),
        ("elem_id,coord_0,coord_1\n0,1.0,2.0\n1,3.0,4.0,5.0\n",
         "line 3: expected 3 fields, got 4"),
    ], ids=["pointset-short-row", "pointset-nan", "pointset-overflow", "pointset-header",
            "pointset-no-coordinates", "pointset-long-row", "pointset-not-a-number",
            "pointset-empty-cell", "pointset-negative-infinity", "pointset-line-after-blank",
            "pointset-long-later-row"])
    def test_message_names_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as err:
            pointset_from_csv(path)
        assert str(err.value).startswith(f"{path}, {where}")

    @pytest.mark.parametrize("k, message", [(0, "k must be >= 1, got 0"),
                                            (1.5, "k must be an integer, got 1.5"),
                                            (3.0, "k must be an integer, got 3.0")])
    def test_a_k_that_is_not_a_positive_integer_is_named(self, tmp_path, k, message):
        # 1.5 and 3.0 divide the 3 coordinates: only the integer check stops them
        path = tmp_path / "data.csv"
        path.write_text("elem_id,coord_0,coord_1,coord_2\n0,1.0,2.0,3.0\n")
        with pytest.raises(InvalidInputError) as err:
            pointset_from_csv(path, k=k)
        assert str(err.value) == message

    @pytest.mark.parametrize("k, kn", [(2, 3), (3, 4), (2, 1)])
    def test_coordinates_that_do_not_form_k_rows_are_named(self, tmp_path, k, kn):
        path = tmp_path / "data.csv"
        cols = ",".join(f"coord_{j}" for j in range(kn))
        path.write_text(f"elem_id,{cols}\n0" + ",1.0" * kn + "\n")
        with pytest.raises(InvalidInputError) as err:
            pointset_from_csv(path, k=k)
        assert str(err.value) == f"{path}, line 1: {kn} coordinates do not form k={k} rows"

    # the missing rows are named before the header is read, so a file with a
    # wrong header and no rows reports the rows
    @pytest.mark.parametrize("header", ["elem_id,coord_0", "elem_id,coord_0,coord_1", "",
                                        "id,coord_0"],
                             ids=["pointset", "pointset-two-columns", "empty-file",
                                  "wrong-header"])
    def test_header_without_rows_names_file(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n\n")
        with pytest.raises(InvalidInputError) as err:
            pointset_from_csv(path)
        assert str(err.value) == f"{path}: no data rows"


class TestRowMax:
    """core._row_max, the row maximum of every weight block and of the
    finite classes' products, is the transposed-copy reduction it replaced,
    bit for bit."""

    @staticmethod
    def _block(seed, shape):
        rng = np.random.default_rng(seed)
        P = rng.standard_normal(shape)
        # ties of +0.0 and -0.0: scattered, and whole rows of them
        ties = rng.random(shape) < 0.4
        ties[::7] = True
        P[ties] = np.where(rng.random(int(ties.sum())) < 0.5, 0.0, -0.0)
        return P

    @pytest.mark.parametrize("shape", [(4097, 1), (4097, 2), (4096, 8), (4097, 9),
                                       (4097, 13), (4097, 17), (300, 50), (1, 5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_the_transposed_copy_maximum(self, shape, seed):
        P = self._block(seed, shape)
        ref = np.ascontiguousarray(P.T).max(axis=0)
        got = _row_max(P)
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_zero_ties_carry_both_signs(self):
        # the planted ties reach the maxima, so the signbit check has work to do
        ref = np.ascontiguousarray(self._block(0, (4097, 8)).T).max(axis=0)
        zero = ref == 0.0
        assert np.signbit(ref[zero]).any() and not np.signbit(ref[zero]).all()


def _stack_view(shape):
    """Set 1 of a (3, d, m) array seen as (3, m, d), as the composite
    estimator passes T.elements.transpose(0, 2, 1): a column-major view."""
    m, d = shape
    return np.random.default_rng(m + d).standard_normal((3, d, m)).transpose(0, 2, 1)[1]


class TestSqDistances:
    """The squares inside distances: each block of rows sums the same squares
    in the same order as numpy's reduce over the coordinate axis (coordinate
    by coordinate below 8 coordinates, the reduce itself from 8 on), so at
    any block size the distances of in-range rows are np.sqrt of the
    one-shot squares, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 3), (7, 1), (40, 2), (33, 9), (20, 300)]
                             + [(23, d) for d in range(1, 10)])
    @pytest.mark.parametrize("view", ["rows", "transposed"])
    @pytest.mark.parametrize("block", [1, 200, core.SQ_DISTANCE_BLOCK])
    def test_blocks_equal_the_one_shot_form(self, shape, view, block, monkeypatch):
        if view == "rows":
            X = np.random.default_rng(shape[0]).standard_normal(shape)
        else:
            X = _stack_view(shape)
        diff = X[:, None, :] - X[None, :, :]
        ref = np.sqrt((diff * diff).sum(axis=2))
        monkeypatch.setattr(core, "SQ_DISTANCE_BLOCK", block)  # 1: a row at a time
        assert distances(X).tobytes() == ref.tobytes()

    def test_eight_coordinates_are_where_the_reduce_leaves_coordinate_order(self):
        # why distances keeps the reduce from 8 coordinates on: there numpy
        # adds the squares pairwise, in another order than one at a time
        rng = np.random.default_rng(8)
        for d, same in ((7, True), (8, False)):
            diff = rng.standard_normal((40, 40, d)) ** 2
            in_order = diff[:, :, 0].copy()
            for j in range(1, d):
                in_order += diff[:, :, j]
            assert (diff.sum(axis=2).tobytes() == in_order.tobytes()) is same

    def test_fewer_than_8_coordinates_hold_one_coordinate_beside_the_result(self):
        # (500, 4) in one block: one (rows, m) difference beside the 2 MB
        # result, where the (rows, m, d) difference of the reduce is 8 MB
        X = np.random.default_rng(4).standard_normal((500, 4))
        tracemalloc.start()
        try:
            distances(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 500 * 500 * 8


class TestDistances:
    """distances redoes, within each block of rows, the pairs whose square
    is inf or below 2^-969 on differences scaled by a power of two; a block
    holds at most rows * m pairs, so the redo keeps the block's memory
    bound."""

    @staticmethod
    def _sets(d=9):
        """30 rows of d coordinates: 9 sums them in numpy's reduce, 2 one
        coordinate at a time."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, d))
        mixed = np.concatenate([X[:15] * 1e-170, X[15:]])
        return {"tiny": X * 1e-170, "coincident": np.ones((30, d)),
                "mixed": mixed, "far": X * 1e160}

    @pytest.mark.parametrize("name", ["tiny", "coincident", "mixed", "far"])
    @pytest.mark.parametrize("d", [2, 9])
    @pytest.mark.parametrize("block", [1, 20, 100])
    def test_fix_up_blocks_give_the_same_bits(self, name, d, block, monkeypatch):
        X = self._sets(d)[name]
        ref = distances(X)
        monkeypatch.setattr(core, "SQ_DISTANCE_BLOCK", block)  # 1: a row at a time
        got = distances(X)
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(got, got.T) and np.array_equal(np.diag(got), np.zeros(30))
        assert np.array_equal(got > 0.0, (X[:, None] != X[None, :]).any(axis=2))

    @pytest.mark.parametrize("d", [2, 9])
    def test_tiny_rows_scale_back_exactly(self, d):
        X = self._sets(d)["tiny"]
        ref = np.ldexp(distances(np.ldexp(X, 600)), -600)
        assert distances(X).tobytes() == ref.tobytes()

    def test_fix_up_memory_stays_within_the_block(self, monkeypatch):
        # 200 coincident rows of 100 coordinates: every pair is redone, and
        # one (pairs, d) difference would hold 19900 * 100 doubles, 16 MB
        monkeypatch.setattr(core, "SQ_DISTANCE_BLOCK", 1 << 12)
        X = np.zeros((200, 100))
        tracemalloc.start()
        try:
            dist = distances(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not dist.any()
        assert peak < 2 << 20 < 19900 * 100 * 8

    def test_one_point_past_the_ceiling_raises_before_allocating(self):
        # the (m, m) result would take 512 MiB plus a row; X itself is 64 KiB
        X = np.zeros((core.MAX_DISTANCE_POINTS + 1, 1))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=f"distances between "
                               f"{core.MAX_DISTANCE_POINTS + 1} points exceed the ceiling"):
                distances(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert core.MAX_DISTANCE_POINTS == 2 ** 13 and peak < 1 << 20

    def test_the_ceiling_bounds_every_caller(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_DISTANCE_POINTS", 4)
        assert distances(np.eye(4)).shape == (4, 4)
        T = PointSet.from_rows(np.eye(5))
        for call in (lambda: distances(np.eye(5)), lambda: diameter2(T),
                     lambda: metric_space_from_pointset(T),
                     lambda: lipschitz_ball_sup(np.eye(5), np.ones(5), 1.0, 1.0)):
            with pytest.raises(BudgetExceededError, match="5 points exceed the ceiling of 4"):
                call()

    def test_far_rows_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in ([[1e200], [0.0]], [[1e308], [-1e308]]):
                with pytest.raises(InvalidInputError, match="elements 0 and 1 overflows"):
                    diameter2(PointSet.from_rows(rows))
            pts = [[0.0, 0.0], [1e160, 0.0]]
            assert lipschitz_ball_sup(pts, [1.0, -1.0], 1e-200, 1e200) == 0.0
            assert gaussian_gram(pts, 1e160)[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-15)
            assert np.array_equal(gaussian_gram([[0.0], [1e300]], 1.0), np.eye(2))
            with pytest.raises(InvalidInputError, match="overflows"):
                norm_pq([[1e200, 1e200]], 2, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(2, 5), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(
            st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=math.prod(shape),
                     max_size=math.prod(shape)).map(
                lambda ints: np.array(ints, dtype=float).reshape(shape)),
            st.lists(st.integers(-80, -50), min_size=shape[1], max_size=shape[1]))),
        st.integers(-540, 540))
    def test_general_rows_scale_by_powers_of_two_within_an_ulp(self, rows, e):
        # full 53-bit mantissas, each coordinate at its own scale, so that
        # some coordinate squares are subnormal at one scale only; their
        # rounding can tip a distance by one ulp at most
        ints, exponents = rows
        X = np.ldexp(ints, exponents)
        ref = np.ldexp(distances(X), e)
        got = distances(np.ldexp(X, e))
        assert np.all(np.abs(got - ref) <= np.spacing(ref))

    def test_subnormal_coordinate_square_keeps_the_scaled_bits(self):
        # the square of the pair is just above the smallest normal at 2^-508
        # while that of its second coordinate is subnormal; the pair is redone
        X = np.array([[0.0, 0.0], [0.21697675619657453, 7.262950322431023e-09]])
        assert distances(np.ldexp(X, -508))[0, 1] == np.ldexp(distances(X)[0, 1], -508)
