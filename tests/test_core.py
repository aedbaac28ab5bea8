import math

import numpy as np
import pytest

from berncomp import (
    ComplexityEstimate,
    FiniteMetricSpace,
    InvalidInputError,
    PointSet,
    diameter2,
    entropy_profile_from_csv,
    finite_class_from_csv,
    metric_space_from_pointset,
    norm_pq,
    pointset_from_csv,
    pointset_to_csv,
    sequence_from_text,
)


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

    def test_asymmetry_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInputError):
            FiniteMetricSpace(d)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="must be square"):
            FiniteMetricSpace(np.zeros(shape))

    def test_empty_space_accepted(self):
        sp = FiniteMetricSpace(np.zeros((0, 0)))
        assert sp.size == 0 and sp.diameter == 0.0


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

    def test_estimates_csv_file(self, tmp_path):
        from berncomp import estimates_to_csv

        rows = [
            ("b", ComplexityEstimate(0.5, 0.0, "exact-enumeration", 4, 7)),
            ("g", ComplexityEstimate(0.81, 0.02, "monte-carlo", 1000, 7)),
        ]
        path = tmp_path / "estimates.csv"
        estimates_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,value,std_error,method,samples,seed"
        assert lines[2].startswith("g,0.81,0.02,monte-carlo,1000,7")


def _load_finite_class(path):
    meta = path.with_name("meta.txt")
    meta.write_text("L = 1.0\nB = 1.0\n")
    return finite_class_from_csv(path, meta)


class TestLoaderErrors:
    """Every loader reports malformed input as '<path>, line <n>...'."""

    @pytest.mark.parametrize("load, text, where", [
        (pointset_from_csv, "elem_id,coord_0,coord_1\n0,1.0,2.0\n1,3.0\n",
         "line 3: expected 3 fields, got 2"),
        (pointset_from_csv, "elem_id,coord_0,coord_1\n0,nan,2.0\n",
         "line 2, column coord_0: expected a finite number, got 'nan'"),
        (pointset_from_csv, "elem_id,coord_0,coord_1\n0,1.0,1e400\n",
         "line 2, column coord_1: expected a finite number, got '1e400'"),
        (pointset_from_csv, "id,coord_0\n0,1.0\n",
         "line 1: expected header starting with elem_id"),
        (pointset_from_csv, "elem_id\n0\n", "line 1: 0 coordinates do not form k=1 rows"),
        (entropy_profile_from_csv, "m,e_m,source\n0,nan,exhaustive\n",
         "line 2, column e_m: expected a finite number, got 'nan'"),
        (entropy_profile_from_csv, "m,e,source\n0,1.0,exhaustive\n",
         "line 1: expected header m,e_m,source"),
        (_load_finite_class, "func,point,value\n0,0,0.5\n",
         "line 1: expected header func_id,point_id,value"),
        (sequence_from_text, "level 0: {0,1}\nlevel 1: {1 {0}\n",
         "line 2, column 10: malformed block token '{1'"),
    ], ids=["pointset-short-row", "pointset-nan", "pointset-overflow", "pointset-header",
            "pointset-no-coordinates", "profile-nan", "profile-header", "class-header", "sequence-token"])
    def test_message_names_file_and_line(self, tmp_path, load, text, where):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}, {where}")

    @pytest.mark.parametrize("load, text, message", [
        (sequence_from_text, "", "sequence needs at least one level"),
        (entropy_profile_from_csv, "m,e_m,source\n0,1.0,exhaustive\n1,2.0,exhaustive\n",
         "entropy numbers must be nonincreasing"),
        (_load_finite_class, "func_id,point_id,value\n0,0,2.0\n",
         "table entries exceed the uniform bound"),
    ], ids=["sequence-empty", "profile-increasing", "class-above-bound"])
    def test_invalid_contents_name_file(self, tmp_path, load, text, message):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as err:
            load(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("load, header", [
        (pointset_from_csv, "elem_id,coord_0"),
        (entropy_profile_from_csv, "m,e_m,source"),
        (_load_finite_class, "func_id,point_id,value"),
    ], ids=["pointset", "profile", "class"])
    def test_header_without_rows_names_file(self, tmp_path, load, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n\n")
        with pytest.raises(InvalidInputError) as err:
            load(path)
        assert str(err.value) == f"{path}: no data rows"
