"""ExperimentOutcome.gate, the one record of every experiment check, the
bytes of the shipped configs whose outputs make no BLAS product, tails-demo's
exact gates, and the plots write_plot draws or rejects."""

import csv
import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berncomp import InvalidInputError, experiments, tails
from berncomp.config import parse_config
from berncomp.experiments import ExperimentOutcome, run_experiment
from berncomp.svgplot import write_plot

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _gate(*args, **kwargs):
    out = ExperimentOutcome("test")
    return out.gate(*args, **kwargs), out.failures


class TestGate:
    def test_lemma_checks_margins_keep_the_bits_of_their_written_out_forms(self):
        # the three margins lemma-checks writes to results.csv, as they read
        # before the gate took them over: sup l1 + 3 se - b, 4 b + 12 se -
        # diameter and sqrt(pi/2) g - b + 3 (se_b + sqrt(pi/2) se_g)
        rng = np.random.default_rng(3)
        c = math.sqrt(math.pi / 2.0)
        for _ in range(2000):
            b, g, sup_l1, diam = rng.uniform(0.0, 1.0, 4) * 10.0 ** rng.uniform(-6, 6, 4)
            se_b, se_g = rng.uniform(0.0, 1.0, 2) * 10.0 ** rng.uniform(-9, 0, 2)
            pairs = [
                (_gate("l1", b, sup_l1 + 3.0 * se_b)[0], sup_l1 + 3.0 * se_b - b),
                (_gate("diam", diam, 4.0 * b + 12.0 * se_b)[0], 4.0 * b + 12.0 * se_b - diam),
                (_gate("gauss", b, c * g, 3.0 * (se_b + c * se_g))[0],
                 c * g - b + 3.0 * (se_b + c * se_g)),
            ]
            for margin, written in pairs:
                assert margin.hex() == written.hex()

    def test_margin_and_pass(self):
        assert _gate("x", 1.0, 3.0, 0.5) == (2.5, [])
        assert _gate("x", 0.0, 0.0) == (0.0, [])
        assert _gate("x", -math.inf, 0.0) == (math.inf, [])

    @pytest.mark.parametrize("value, bound", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_fails(self, value, bound):
        margin, failures = _gate("x", value, bound, tol=1.0)
        assert math.isnan(margin)
        assert len(failures) == 1

    def test_tol_accepts_exactly_minus_tol_and_nothing_lower(self):
        assert _gate("x", 1.5, 1.0, tol=0.5) == (-0.5, [])
        margin, failures = _gate("x", math.nextafter(1.5, 2.0), 1.0, tol=0.5)
        assert margin < -0.5 and len(failures) == 1
        assert _gate("x", math.nextafter(1.0, 2.0), 1.0)[1] != []

    def test_fail_line_names_value_bound_and_nonzero_slack(self):
        assert _gate("ratio at n=4", 2.0, 1.0, 0.5)[1] == ["FAIL: ratio at n=4: 2 > 1 + 0.5"]
        assert _gate("ratio at n=4", 3.25, 1.0, tol=1e-9)[1] == [
            "FAIL: ratio at n=4: 3.25 > 1"]


# Full SHA-256 of results.csv and summary.csv for the shipped configs whose
# numbers come from no BLAS product, so they hold whatever OpenBLAS core the
# host picks.  lemma-checks, composition-logfree and rkhs-bound are left out:
# their Monte Carlo products round by the core.
PINNED = {
    "tails_demo": (
        "70f9f4df277cca8f13e870ee90c5aed3df81b266be42104e508b7f8e5283202f",
        "a29d1ed7ab3f8e60c71284d47828865af32c96ec70eb7bfe13e77c14162be74e"),
    "chaining_demo": (
        "9c9d2f5fc448fe57ff92609b543e49c85b70f5660f7f95518b5eb1e3c5a2ef79",
        "6cc0753afb7ac2d7dba74a1a33fba0d23e15bd0aff94513b8ad9510be42e0d1b"),
    "scaling_k1": (
        "5ee6007d7b86d188539096624f44e2c6e0c5144000112eae709e50aa900480e9",
        "d7aa94546c0025d4d225ce71b5a15ee17a176744c79bc82d3739a67811ab409b"),
    "scaling_k2": (
        "4ef6a7b382430275d57993c3d968e0d3756476ce41ae09dfd135086f6cc01eee",
        "451921063b905653ff6e663eef505896e0de14c1bcf90b44099a2ce33dfb2f48"),
    "scaling_kk": (
        "88bcaa70be62c09746ed05d3da961fd0bb120db50c58f8310e29692dbfd87ff3",
        "4980116874fcae4fa0283f083e432ade6b4f320baec4fe49cd310aff967fffc6"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_config_keeps_its_bytes(name, tmp_path):
    cfg = parse_config(CONFIGS / f"{name}.txt")
    cfg.out_dir = str(tmp_path)
    assert run_experiment(cfg, echo=lambda line: None) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("results.csv", "summary.csv"))
    assert digests == PINNED[name]


def test_write_plot_keeps_its_bytes(tmp_path):
    # lines are drawn before dots and take the first colours; only labelled
    # series get a legend entry, in drawing order.  No config draws an
    # unlabelled series, so this is the one test that does.
    path = tmp_path / "plot.svg"
    write_plot(path, [("observed", [2.0, 8.0, 32.0], [0.5, 0.25, 0.125])],
               [("fit", [2.0, 32.0], [0.5, 0.125]), ("", [2.0, 32.0], [1.0, 0.0625])],
               title="t", xlabel="n", ylabel="value", loglog=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4205bd5cfb983f9477899145022c99b759e64e784685dd5319ef2018efcdfcd2")


def _run_tails_demo(tmp_path, seed=42, w=0):
    """(exit status, FAIL lines, results.csv rows) of the shipped tails-demo
    config at seed and w."""
    cfg = parse_config(CONFIGS / "tails_demo.txt")
    cfg.out_dir, cfg.seed = str(tmp_path / f"s{seed}w{w}"), seed
    cfg.constants = {**cfg.constants, "w": w}
    lines = []
    status = run_experiment(cfg, echo=lines.append)
    with open(Path(cfg.out_dir) / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return status, [line for line in lines if line.startswith("FAIL")], rows


class TestTailsDemo:
    def test_seed_12_passes_with_the_values_of_seed_42(self, tmp_path):
        # the Monte Carlo uncentering check failed at seed 12, at a = 1, u = 2
        runs = [_run_tails_demo(tmp_path, seed) for seed in (12, 42)]
        assert [run[:2] for run in runs] == [(0, [])] * 2
        # every column but the seed
        assert [row[:6] for row in runs[0][2]] == [row[:6] for row in runs[1][2]]

    @pytest.mark.parametrize("w", [0, 10, 18])
    def test_every_w_the_sampler_grid_admits_passes(self, tmp_path, w):
        assert _run_tails_demo(tmp_path, w=w)[:2] == (0, [])

    @pytest.mark.parametrize("shift, failing", [
        (0.006, "FAIL: C_w over the bracket: "),
        (-0.006, "FAIL: floored mean over C_w: ")])
    def test_c_w_off_by_more_than_the_bracket_fails(self, tmp_path, monkeypatch, shift, failing):
        exact = tails.tail_integral
        monkeypatch.setattr(tails, "tail_integral", lambda w=0: exact(w) + shift)
        status, fails, _ = _run_tails_demo(tmp_path)
        assert status == 1 and [line[:len(failing)] for line in fails] == [failing]

    @pytest.mark.parametrize("bound", [
        lambda a, u: 0.999 * tails.uncenter_tail(a, u),
        lambda a, u: min(1.0, math.exp(a * a - u * u / 4.0))], ids=["scaled-down", "looser"])
    def test_uncentering_bound_off_at_the_tight_point_fails(self, tmp_path, monkeypatch, bound):
        monkeypatch.setattr(experiments, "uncenter_tail", bound)
        status, fails, _ = _run_tails_demo(tmp_path)
        assert status == 1
        for tight in ("a=0.5, u=1.0", "a=1.0, u=2.0"):
            assert any(tight in line for line in fails), tight


# every coordinate attribute of an SVG element, and each number of a polyline
_COORDS = re.compile(r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]*)"|points="([^"]*)"')


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _coords(n):
    """n finite floats of any magnitude, or one of them n times: a flat range."""
    return st.one_of(st.lists(_FLOATS, min_size=n, max_size=n), _FLOATS.map(lambda v: [v] * n))


@settings(max_examples=150, deadline=None)
@given(series=st.lists(st.integers(1, 4).flatmap(lambda n: st.tuples(_coords(n), _coords(n))),
                       min_size=1, max_size=3), loglog=st.booleans())
@example(series=[([1e16, 1e16], [1.0, 2.0])], loglog=False)
@example(series=[([1.0, 2.0], [0.0, 2.0])], loglog=True)
@example(series=[([1.0, math.nan], [1.0, 2.0])], loglog=False)
@example(series=[([-1e308, 1e308], [1.0, 2.0])], loglog=False)
@example(series=[(np.array([-1e308, 1e308]), np.array([1.0, 2.0]))], loglog=False)
def test_write_plot_draws_finite_coordinates_or_raises_before_opening(series, loglog):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plot.svg"
        try:
            write_plot(path, [("dots", xs, ys) for xs, ys in series],
                       [("line", xs, ys) for xs, ys in series[:1]], loglog=loglog)
        except InvalidInputError:
            assert not path.exists()
            return
        numbers = [v for one, many in _COORDS.findall(path.read_text())
                   for v in (one.split() if one else re.split("[ ,]", many))]
        assert numbers and all(math.isfinite(float(v)) for v in numbers)


@pytest.mark.parametrize("xs, ys, loglog, axis", [
    ([1.0, 2.0], [0.0, 2.0], True, "y"),
    ([1.0, math.nan], [1.0, 2.0], False, "x"),
    ([-1e308, 1e308], [1.0, 2.0], False, "x"),
    ([1.0, 2.0], [1e300, 1e308], True, "y")])
def test_write_plot_names_the_axis_it_cannot_draw(tmp_path, xs, ys, loglog, axis):
    with pytest.raises(InvalidInputError, match=f"cannot draw the {axis} values"):
        write_plot(tmp_path / "plot.svg", [("a", xs, ys)], loglog=loglog)
    assert list(tmp_path.iterdir()) == []


def test_flat_range_is_padded_by_its_magnitude(tmp_path):
    # a pad of 0.05 rounded away at 1e16, leaving a range of width 0; 5%
    # of 1e16 puts the points mid-axis between ticks at 9.5e15 and 1.05e16
    write_plot(tmp_path / "plot.svg", [("a", [1e16, 1e16], [1.0, 2.0])])
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.count('<circle cx="345.0"') == 2
    assert '<text x="70.0" y="403" text-anchor="middle">9.5e+15</text>' in svg
    assert '<text x="620.0" y="403" text-anchor="middle">1.05e+16</text>' in svg
