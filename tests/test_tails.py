import math

import numpy as np
import pytest

from berncomp import (
    InvalidInputError,
    expectation_bound_from_tail,
    log_tail_series,
    sample_from_capped_tail,
    tail_crossing_point,
    tail_integral,
    tail_series,
    tail_series_capped,
    uncenter_tail,
)
from berncomp.tails import divergence_threshold


def direct_series(u, w, max_m=None):
    """Independent direct-float evaluation; valid while 2^(2^(m+1+w)) fits a
    float, which covers every non-negligible term for u >= 3."""
    if max_m is None:
        max_m = 8 - w  # 2^(2^(m+1+w)) must stay below the float maximum
    total = 0.0
    for m in range(1, max_m + 1):
        total += (2.0 ** (2 ** (m + 1 + w))) * math.exp(-u * u * 2.0 ** (m - 1))
    return total


class TestTailSeries:
    def test_w0_u10_two_term_hand_value(self):
        # m = 1 term 16 e^-100 dominates; the m = 2 term is ~1e-85
        expected = 16.0 * math.exp(-100.0) + 256.0 * math.exp(-200.0)
        assert tail_series(10.0, 0) == pytest.approx(expected, rel=1e-12)

    def test_divergence_gives_capped_one(self):
        # at u = 1 the first term alone is 16/e > 1 and the terms increase
        w = 0
        assert math.isinf(tail_series(1.0, w))
        assert tail_series_capped(1.0, w) == 1.0

    def test_monotone_in_w(self):
        for u in (2.0, 3.0, 6.0):
            p0 = log_tail_series(u, 0)
            p1 = log_tail_series(u, 1)
            assert p1 > p0

    def test_strictly_decreasing_in_u(self):
        w = 0
        us = np.linspace(1.9, 6.0, 30)
        vals = [log_tail_series(float(u), w) for u in us]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_log_matches_direct_to_12_digits(self):
        for w, u_list in ((0, (3.0, 4.0, 5.0)), (1, (3.0, 4.0, 5.0)), (2, (3.5, 4.0, 5.0))):
            for u in u_list:
                direct = direct_series(u, w)
                ours = tail_series(u, w)
                assert ours == pytest.approx(direct, rel=1e-12)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(InvalidInputError):
            tail_series(0.0)

    def test_rejects_negative_w(self):
        # every tail function passes through one of the first two
        for call in (lambda: divergence_threshold(-1),
                     lambda: log_tail_series(3.0, -1),
                     lambda: tail_series(3.0, -1),
                     lambda: tail_series_capped(3.0, -1),
                     lambda: tail_crossing_point(-1),
                     lambda: tail_integral(-1),
                     lambda: expectation_bound_from_tail(1.0, 0.0, -1),
                     lambda: sample_from_capped_tail(-1, 1.0, 0.0, 10, seed=0)):
            with pytest.raises(InvalidInputError, match="w must be nonnegative"):
                call()


class TestCrossingAndIntegral:
    def test_crossing_point_bracket(self):
        # the dominant-term crossing sqrt(4 ln 2) = 1.665 is a lower sanity
        # bound; the full series crosses a bit later
        u_star = tail_crossing_point(0)
        assert 1.665 < u_star < 2.2
        assert abs(log_tail_series(u_star, 0)) < 1e-9

    def test_frozen_values_w0(self):
        assert tail_crossing_point(0) == pytest.approx(
            1.8279855666670288, abs=1e-9)
        assert tail_integral(0) == pytest.approx(
            2.014245367442934, rel=1e-8)

    def test_integral_matches_scipy_quadrature(self):
        scipy_int = pytest.importorskip("scipy.integrate")
        for w in (0, 1):
            ours = tail_integral(w)

            def q_direct(u, w=w):
                if u <= 0:
                    return 1.0
                return min(1.0, direct_series(max(u, 1e-9), w))

            ref, err = scipy_int.quad(q_direct, 0.0, 30.0, limit=300,
                                      points=[1.5, 2.0, 2.5, 3.0])
            assert ours == pytest.approx(ref, rel=1e-6)

    def test_c_w_increasing_in_w(self):
        c0 = tail_integral(0)
        c1 = tail_integral(1)
        c2 = tail_integral(2)
        assert c0 < c1 < c2

    def test_bound_linear_in_rho(self):
        b1, c1 = expectation_bound_from_tail(1.0, 0.0)
        b2, c2 = expectation_bound_from_tail(2.0, 0.0)
        assert c1 == c2
        assert b2 == pytest.approx(2.0 * b1)
        b3, _ = expectation_bound_from_tail(1.0, 0.7)
        assert b3 == pytest.approx(b1 + 0.7)

    def test_bound_exceeds_crossing(self):
        bound, c_w = expectation_bound_from_tail(1.0, 0.0, 0)
        assert bound == c_w > tail_crossing_point(0)


class TestUncenterTail:
    def test_formula_value(self):
        assert uncenter_tail(0.0, 2.0) == pytest.approx(math.exp(-2.0))

    def test_clamped_at_one(self):
        assert uncenter_tail(3.0, 0.5) == 1.0

    def test_dominates_exactly_constructed_law(self):
        # Y = a + sqrt(E) has P(Y - a > u) = e^(-u^2) exactly.  The bound is
        # attained at u = 2a, so the comparison there is statistical (the
        # empirical tail is a Monte Carlo estimate; 3-sigma band).
        n = 200000
        for a in (0.0, 0.5, 1.0):
            rng = np.random.default_rng(int(a * 10) + 100)
            y = a + np.sqrt(rng.exponential(size=n))
            for u in np.arange(0.5, 4.01, 0.5):
                emp = float((y > u).mean())
                se = math.sqrt(max(emp * (1 - emp), 1e-12) / n)
                bound = uncenter_tail(a, float(u))
                assert emp <= bound + 3.0 * se
                if abs(u - 2 * a) > 0.3:
                    assert emp <= bound  # real margin away from the tight point


class TestCappedTailSampler:
    def test_tail_dominated_by_q(self):
        w = 0
        y = sample_from_capped_tail(w, 1.0, 0.0, 200000, seed=5)
        n = len(y)
        for u in (1.9, 2.1, 2.5, 3.0):
            emp = float((y > u).mean())
            q = tail_series_capped(u, w)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / n)
            assert emp <= q + 3.0 * se

    def test_mean_dominated_by_bound(self):
        w = 0
        bound, _ = expectation_bound_from_tail(2.0, 0.5, w)
        for rep in range(10):
            y = sample_from_capped_tail(w, 2.0, 0.5, 100000, seed=rep)
            assert float(y.mean()) <= bound

    def test_values_at_or_above_shift(self):
        w = 0
        y = sample_from_capped_tail(w, 1.5, 0.25, 1000, seed=1)
        assert float(y.min()) >= 0.25

    def test_determinism(self):
        w = 1
        a = sample_from_capped_tail(w, 1.0, 0.0, 1000, seed=9)
        b = sample_from_capped_tail(w, 1.0, 0.0, 1000, seed=9)
        np.testing.assert_array_equal(a, b)
