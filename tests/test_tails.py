import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from berncomp import tails
from berncomp.tails import (
    CROSSING_S,
    MAX_W,
    SAMPLER_GRID_END,
    SAMPLER_GRID_STEP,
    _erfcx,
    _sampler_grid,
    divergence_threshold,
    tail_integral_bracket,
)
from oracles import reference_sampler_grid


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, MAX_W), st.floats(0.0, 100.0), st.integers(0, 64))
    def test_log_series_stays_below_log_max_terms_above_the_threshold(self, w, excess, ulps):
        # every term is below 1, so the sum of at most _MAX_TERMS of them is
        # below _MAX_TERMS: exp never overflows, and p is exp(log p) bit for
        # bit; a few ulps above the threshold the terms sit nearest to 1
        u = divergence_threshold(w) * (1.0 + excess)
        for _ in range(ulps):
            u = math.nextafter(u, math.inf)
        lp = log_tail_series(u, w)
        if u * u - tails._threshold_sq(w) > 0.0:
            assert lp < math.log(tails._MAX_TERMS)
        else:  # the threshold's square root, squared, rounds to or below it
            assert lp == math.inf
        assert tail_series(u, w) == math.exp(lp)

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

    def test_rejects_w_above_the_ceiling(self):
        # 2^(m+1+w) overflows a float from w = 1021 on
        for call in (lambda: divergence_threshold(MAX_W + 1),
                     lambda: log_tail_series(3.0, MAX_W + 1),
                     lambda: tail_integral(2000)):
            with pytest.raises(InvalidInputError, match=f"w must be at most {MAX_W}"):
                call()
        assert math.isfinite(tail_integral(MAX_W))


class TestCrossingAndIntegral:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, MAX_W))
    def test_one_past_the_threshold_brackets_the_crossing(self, w):
        # p(u0 + 1) < 1, so the closed-form u* lies in [u0, u0 + 1]
        lo = divergence_threshold(w) * (1.0 + 1e-12)
        assert log_tail_series(lo + 1.0, w) < 0.0
        assert divergence_threshold(w) <= tail_crossing_point(w) < lo + 1.0

    def test_crossing_depends_on_u_only_through_u2_minus_threshold2(self):
        # every term is exp(-2^(m-1) (u^2 - u0^2)), so u*^2 - u0^2 is one number
        gaps = [tail_crossing_point(w) ** 2 - divergence_threshold(w) ** 2
                for w in range(11)]
        assert gaps == pytest.approx([gaps[0]] * 11, rel=1e-8)
        assert gaps[0] == pytest.approx(0.568942509703, rel=1e-9)

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

    def test_crossing_s_is_the_root(self):
        # sum_{j>=0} exp(-2^j s) - 1 in 50-digit decimal arithmetic changes
        # sign between the floats on either side of CROSSING_S
        def excess(s):
            with localcontext() as ctx:
                ctx.prec = 50
                return sum((-(2 ** j) * Decimal(s)).exp() for j in range(12)) - 1

        assert excess(math.nextafter(CROSSING_S, 0.0)) > 0
        assert excess(math.nextafter(CROSSING_S, 1.0)) < 0
        for w in (0, 3, 10):
            u_star = tail_crossing_point(w)
            assert log_tail_series(u_star * (1 - 1e-12), w) > 0.0
            assert log_tail_series(u_star * (1 + 1e-12), w) < 0.0

    def test_erfcx_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.concatenate([np.linspace(1.0, 40.0, 4001), np.geomspace(1.0, 1e6, 601),
                             [math.nextafter(26.0, 0.0), 26.0]])
        ours = np.array([_erfcx(float(x)) for x in xs])
        np.testing.assert_allclose(ours, special.erfcx(xs), rtol=1e-13, atol=0.0)

    def test_integral_matches_quadrature_split_at_the_crossing(self):
        # scipy quad of sum_j exp(-2^j (u - u0)(u + u0)) over (u*, inf) in
        # three pieces, plus u*
        scipy_int = pytest.importorskip("scipy.integrate")
        for w in (0, 1, 2, 5, 10):
            u0, u_star = divergence_threshold(w), tail_crossing_point(w)

            def p(u, u0=u0):
                return math.fsum(math.exp(-2.0 ** j * (u - u0) * (u + u0)) for j in range(12))

            cuts = [u_star, u_star + 1.0, u_star + 4.0, math.inf]
            ref = u_star + sum(scipy_int.quad(p, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                               for a, b in zip(cuts, cuts[1:]))
            assert tail_integral(w) == pytest.approx(ref, rel=1e-13, abs=0.0)

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


class TestParameterChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: expectation_bound_from_tail(math.nan, 0.0), "rho_scale must be finite and positive"),
        (lambda: expectation_bound_from_tail(math.inf, 0.0), "rho_scale must be finite and positive"),
        (lambda: expectation_bound_from_tail(1.0, math.nan),
         "zeta_shift must be finite and nonnegative"),
        (lambda: expectation_bound_from_tail(1.0, math.inf),
         "zeta_shift must be finite and nonnegative"),
        (lambda: sample_from_capped_tail(0, math.nan, 0.0, 10, seed=0),
         "rho_scale must be finite and positive"),
        (lambda: sample_from_capped_tail(0, 1.0, math.inf, 10, seed=0),
         "zeta_shift must be finite and nonnegative"),
        (lambda: uncenter_tail(math.nan, 1.0), "a must be finite"),
        (lambda: tail_integral(1.5), "w must be an integer, got 1.5"),
        (lambda: expectation_bound_from_tail(1.0, 0.0, 1.5), "w must be an integer, got 1.5"),
        (lambda: sample_from_capped_tail(0, 1.0, 0.0, 2.5, seed=0),
         "n_samples must be an integer, got 2.5"),
        (lambda: sample_from_capped_tail(0, 1.0, 0.0, 10, seed=-1),
         "seed must be nonnegative, got -1"),
        (lambda: sample_from_capped_tail(0, 1.0, 0.0, 10, seed=1.5),
         "seed must be an integer, got 1.5"),
    ], ids=["bound-rho-nan", "bound-rho-inf", "bound-zeta-nan", "bound-zeta-inf",
            "sampler-rho-nan", "sampler-zeta-inf", "uncenter-a-nan", "integral-w-half",
            "bound-w-half", "sampler-count-half", "sampler-seed-negative", "sampler-seed-half"])
    def test_rejects_bad_parameters(self, call, message):
        # each used to return nan or inf, or raise a bare numpy TypeError or ValueError
        with pytest.raises(InvalidInputError, match=message):
            call()


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

    def test_w_past_the_grid_end_raises_before_the_grid_is_walked(self, monkeypatch):
        # w = 19 puts the threshold at sqrt(2^21 ln 2) = 1205.67; the check
        # must come before the sampler evaluates q at any grid point
        def no_q(u, w):
            raise AssertionError(f"q evaluated at u = {u}")

        monkeypatch.setattr(tails, "tail_series_capped", no_q)
        with pytest.raises(InvalidInputError) as err:
            sample_from_capped_tail(19, 1.0, 0.5, 10, 0)
        assert str(err.value) == ("w = 19 puts the divergence threshold u = 1205.67 at or past "
                                  "the sampler grid end u = 1000")
        assert divergence_threshold(18) < SAMPLER_GRID_END <= divergence_threshold(19)

    @pytest.mark.parametrize("w", [0, 1, 3])
    def test_grid_is_built_once_per_w_with_the_same_bits(self, w):
        grid, qs = _sampler_grid(w)
        ref_grid, ref_qs = reference_sampler_grid(w)
        assert (grid.tobytes(), qs.tobytes()) == (ref_grid.tobytes(), ref_qs.tobytes())
        assert _sampler_grid(w)[0] is grid
        with pytest.raises(ValueError, match="read-only"):
            qs[0] = 0.5

    @pytest.mark.parametrize("w", [0, 1, 3])
    def test_draws_are_the_reference_grid_at_the_one_shot_indices(self, w):
        # the largest j with q(u_j) >= U, by one searchsorted of the seeded
        # uniforms in the reversed q values
        grid, qs = reference_sampler_grid(w)
        for seed in range(4):
            u = np.random.default_rng(seed).uniform(0.0, 1.0, 20000)
            one_shot = len(qs) - 1 - np.searchsorted(qs[::-1], u, side="left")
            assert (sample_from_capped_tail(w, 1.0, 0.0, 20000, seed).tobytes()
                    == grid[one_shot].tobytes())


class TestTailIntegralBracket:
    @pytest.mark.parametrize("w", [0, 1, 3, 10, 18])
    def test_brackets_the_closed_form_within_one_grid_step(self, w):
        lower, upper = tail_integral_bracket(w)
        assert lower <= tail_integral(w) <= upper
        # the two sums differ by h (q(u_0) - q(u_N)) and the tail term
        assert upper - lower < 1.001 * SAMPLER_GRID_STEP

    @pytest.mark.parametrize("w", [0, 1, 3])
    def test_lower_end_is_the_mean_of_the_floored_law(self, w):
        # E X = sum_j u_j P(X = u_j), with P(X = u_j) = q(u_j) - q(u_{j+1})
        # and P(X = u_N) = q(u_N)
        grid, qs = reference_sampler_grid(w)
        mean = math.fsum(grid * (qs - np.append(qs[1:], 0.0)))
        assert tail_integral_bracket(w)[0] == pytest.approx(mean, rel=1e-13)
        draws = sample_from_capped_tail(w, 1.0, 0.0, 200000, seed=5)
        assert abs(draws.mean() - mean) <= 4.0 * draws.std() / math.sqrt(len(draws))

    @pytest.mark.parametrize("w", [0, 3])
    def test_tail_term_dominates_the_integral_past_the_grid(self, w):
        from scipy.integrate import quad

        grid, qs = _sampler_grid(w)
        past, _ = quad(lambda u: tail_series_capped(u, w), grid[-1], math.inf, epsabs=0.0)
        assert 0.9 * qs[-1] / (2.0 * grid[-1]) < past <= qs[-1] / (2.0 * grid[-1])

    def test_w_past_the_grid_end_raises_before_the_grid_is_walked(self, monkeypatch):
        def no_q(u, w):
            raise AssertionError(f"q evaluated at u = {u}")

        monkeypatch.setattr(tails, "tail_series_capped", no_q)
        with pytest.raises(InvalidInputError, match="at or past the sampler grid end"):
            tail_integral_bracket(19)
