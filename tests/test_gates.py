"""ExperimentOutcome.gate, the one record of every experiment check, the
bytes of the shipped configs whose outputs make no BLAS product, and the
bytes of one plot."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

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
        "8510b16de31b4e01bbe64edd59424d85ae39c27c29f11ab782adfef6735e8970",
        "ca35b092ba6d55d4b7580f5954189f811a4bc5be60336c9ca80e70997f4ca0af"),
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
