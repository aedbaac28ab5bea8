import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest

from berncomp import (BudgetExceededError, ConfigError, InvalidInputError, PointSet,
                      bernoulli_complexity, pointset_to_csv)
from berncomp import core, experiments
from berncomp.cli import main
from berncomp.complexity import MAX_MC_SAMPLES, MAX_WEIGHT_WIDTH, EstimatorConfig
from berncomp.config import ExperimentConfig, default_config, parse_config, parse_config_text
from berncomp.experiments import EXPERIMENTS, ols_fit
from berncomp.tails import sample_from_capped_tail, tail_series
from oracles import ols_by_hand


class TestConfigParsing:
    def test_infinite_constant_rejected(self):
        # checked at parse time: a tails-demo run would step towards u_stop forever
        with pytest.raises(ConfigError, match="line 2, column 1: constants.u_stop must be "
                                              "finite and positive, got inf"):
            parse_config_text("experiment = tails-demo\nconstants.u_stop = inf\n")

    def test_minimal_file_fills_defaults(self):
        cfg = parse_config_text("experiment = scaling-k1\n")
        assert cfg.mc_samples == 20000
        assert cfg.seed == 42
        assert cfg.n_list == [64, 128, 256, 512, 1024, 2048, 4096]
        assert cfg.out_dir.endswith("scaling-k1")

    def test_full_file(self):
        text = """
        # configuration
        experiment = lemma-checks
        n_list = [4, 8, 12]
        k = 1
        seed = 7
        mc_samples = 500
        out_dir = /tmp/somewhere
        constants.n_sets = 5
        """
        cfg = parse_config_text(text)
        assert cfg.seed == 7
        assert cfg.constants == {"n_sets": 5.0}

    def test_undeclared_constant_rejected_with_location(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("experiment = lemma-checks\nconstants.n_set = 5\n")
        assert "line 2, column 1" in str(err.value)
        assert "constants.n_set" in str(err.value)

    def test_constant_read_only_by_another_experiment_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("constants.slope_tol = 0.2\nexperiment = scaling-k2\n")
        assert str(err.value).startswith("line 1, column 1: unknown key 'constants.slope_tol'")

    @pytest.mark.parametrize("second", ["seed = 2", "constants.n_sets = 5",
                                        "experiment = scaling-k1"])
    def test_repeated_key_rejected_at_second_occurrence(self, second):
        text = f"experiment = lemma-checks\nseed = 1\nconstants.n_sets = 4\n  {second}\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        key = second.split(" =")[0]
        assert str(err.value).startswith(f"line 4, column 3: repeated key {key!r}")

    @pytest.mark.parametrize("experiment, k", [
        ("scaling-k1", 3), ("scaling-k1", 2), ("scaling-k2", 1), ("scaling-k2", 4),
        ("scaling-kk", 2), ("lemma-checks", 0), ("rkhs-bound", 5), ("rkhs-bound", 1),
        ("composition-logfree", 2), ("tails-demo", 2),
    ])
    def test_k_outside_the_experiment_range_rejected(self, experiment, k):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"experiment = {experiment}\nk = {k}\n")
        assert str(err.value).startswith("line 2, column 1: ")
        assert f"got k = {k}" in str(err.value)

    @pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.txt")),
                             ids=lambda p: p.stem)
    def test_every_shipped_config_parses(self, path):
        cfg = parse_config(path)
        assert cfg.experiment in EXPERIMENTS
        assert cfg.constants.keys() <= EXPERIMENTS[cfg.experiment].constants.keys()

    @pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.txt")),
                             ids=lambda p: p.stem)
    def test_a_byte_order_mark_is_skipped(self, path, tmp_path):
        marked = tmp_path / path.name
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert parse_config(marked) == parse_config(path)

    def test_float_constant_accepts_an_integer_literal(self):
        cfg = parse_config_text("experiment = composition-logfree\nconstants.L = 1\n")
        assert cfg.constants == {"L": 1}

    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("experiment = scaling-k1\nfoo = 3\n")
        assert "foo" in str(err.value)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("experiment, n", [
        ("lemma-checks", 1000000000), ("composition-logfree", 100000000),
    ])
    def test_n_past_the_weight_ceiling_rejected(self, experiment, n):
        # these runs asked numpy for 59.6 GiB and 5.96 GiB arrays
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"experiment = {experiment}\nn_list = [4, {n}]\n")
        assert str(err.value) == (f"line 2, column 1: {experiment} requires k * n <= "
                                  f"{MAX_WEIGHT_WIDTH}, got k * n = 1 * {n}")

    @pytest.mark.parametrize("experiment", ["lemma-checks", "composition-logfree",
                                            "rkhs-bound"])
    def test_largest_accepted_n_fills_the_weight_ceiling(self, experiment):
        k = EXPERIMENTS[experiment].k
        n = MAX_WEIGHT_WIDTH // k
        assert (k, n) == ((2, 8000) if experiment == "rkhs-bound" else (1, 16000))
        assert parse_config_text(f"experiment = {experiment}\nn_list = [{n}]\n").n_list == [n]
        with pytest.raises(ConfigError, match=f"line 2, column 1: .* <= {MAX_WEIGHT_WIDTH}, "
                                              f"got k \\* n = {k} \\* {n + 1}$"):
            parse_config_text(f"experiment = {experiment}\nn_list = [{n + 1}]\n")

    @pytest.mark.parametrize("body, location, k, n", [
        ("k = 1000000000\nn_list = [4]\n", "line 2", 1000000000, 4),
        ("n_list = [4]\nk = 1000000000\n", "line 3", 1000000000, 4),
        ("k = 4\nn_list = [16000]\n", "line 2", 4, 16000),
        ("n_list = [4, 16000]\nk = 4\n", "line 3", 4, 16000),
        ("k = 4001\n", "line 2", 4001, 12),
    ], ids=["huge-k", "huge-k-set-last", "k4-n16000", "k4-set-last", "k-alone"])
    def test_k_times_n_past_the_weight_ceiling_names_k_past_its_default(self, body, location,
                                                                        k, n):
        # a k of 10^9 at n = 4 asked numpy for a 238 GiB set; k = 4 at
        # n = 16000 for a 2 GiB weight block
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"experiment = lemma-checks\n{body}")
        assert str(err.value) == (f"{location}, column 1: lemma-checks requires k * n <= "
                                  f"{MAX_WEIGHT_WIDTH}, got k * n = {k} * {n}")

    @pytest.mark.parametrize("k, n", [(4, 4000), (16000, 1), (1, 16000)])
    def test_k_times_n_at_the_weight_ceiling_accepted(self, k, n):
        cfg = parse_config_text(f"experiment = lemma-checks\nk = {k}\nn_list = [{n}]\n")
        assert cfg.k * cfg.n_list[-1] == MAX_WEIGHT_WIDTH

    def test_descending_n_list_names_invariant(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("experiment = scaling-k1\nn_list = [8, 4]\n")
        assert "ascending" in str(err.value)

    def test_type_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = scaling-k1\nseed = hello\n")

    @pytest.mark.parametrize("line, message", [
        ("experiment = 3", "experiment must be a name"),
        ("n_list = [8, 16.5]", "n_list must be a list of integers"),
        ("k = 2.5", "k must be an integer"),
        ("seed = hello", "seed must be an integer"),
        ("mc_samples = 1e3", "mc_samples must be an integer"),
        ("out_dir = 5", "out_dir must be a path"),
    ], ids=["experiment", "n_list", "k", "seed", "mc_samples", "out_dir"])
    def test_type_mismatch_message_and_location(self, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"experiment = scaling-k1\n  {line}\n")
        assert str(err.value) == f"line 2, column 3: {message}"

    @pytest.mark.parametrize("experiment, fields, message", [
        ("lemma-checks", {"n_list": [4.5, 8]}, "n_list must be a list of integers"),
        ("lemma-checks", {"n_list": [4, 8], "k": "1"}, "k must be an integer"),
        ("scaling-k1", {"n_list": [64, 128], "constants": {"slope_tol": "0.1"}},
         "constants.slope_tol must be a number, got '0.1'"),
    ], ids=["float-n", "string-k", "string-constant"])
    def test_config_built_in_code_meets_the_parse_time_type_checks(self, tmp_path, experiment,
                                                                   fields, message):
        # these failed in numpy or in a comparison inside validate with a TypeError
        cfg = ExperimentConfig(experiment, out_dir=str(tmp_path / "out"), **fields)
        with pytest.raises(ConfigError) as err:
            experiments.run_experiment(cfg)
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_config_built_in_code_takes_a_path_as_out_dir(self, tmp_path):
        ExperimentConfig("tails-demo", n_list=[1], out_dir=tmp_path).validate()

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = 3\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = not-a-thing\n")

    def test_every_runner_validates_with_its_defaults(self):
        for name in EXPERIMENTS:
            default_config(name).validate()

    @pytest.mark.parametrize("experiment, name", [
        (experiment, name) for experiment, spec in EXPERIMENTS.items()
        for name, default in spec.constants.items() if isinstance(default, int)])
    def test_every_integer_constant_has_the_row_budget_as_its_ceiling(self, experiment, name):
        # n_sets, n_functions, n_elements, n_spaces and replications had no
        # ceiling; w and lp_samples meet this one first
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"experiment = {experiment}\n"
                              f"constants.{name} = {MAX_MC_SAMPLES + 1}\n")
        assert str(err.value) == (f"line 2, column 1: constants.{name} must be at most "
                                  f"{MAX_MC_SAMPLES}, got {MAX_MC_SAMPLES + 1}")
        if name != "w":  # whose own, lower ceiling tails checks
            cfg = parse_config_text(f"experiment = {experiment}\n"
                                    f"constants.{name} = {MAX_MC_SAMPLES}\n")
            assert cfg.constants == {name: MAX_MC_SAMPLES}

    def test_largest_w_the_tail_sampler_runs_is_accepted(self):
        # w = 19 puts the divergence threshold at u = 1205.7, past the grid end
        assert parse_config_text("experiment = tails-demo\nconstants.w = 18\n").constants == {
            "w": 18}
        sample_from_capped_tail(18, 1.0, 0.5, 10, 0)
        with pytest.raises(InvalidInputError, match="sampler grid end u = 1000"):
            sample_from_capped_tail(19, 1.0, 0.5, 10, 0)


class TestOlsFit:
    def test_hand_computed_three_points(self):
        xs = [0.0, 1.0, 2.0]
        ys = [1.0, 3.0, 4.0]
        slope, intercept = ols_fit(xs, ys)
        # by hand: x_mean = 1, y_mean = 8/3, sxy = 3, sxx = 2
        assert slope == pytest.approx(1.5)
        assert intercept == pytest.approx(8.0 / 3.0 - 1.5)
        ref = ols_by_hand(xs, ys)
        assert slope == pytest.approx(ref[0]) and intercept == pytest.approx(ref[1])

    def test_equal_x_raise_invalid_input(self):
        with pytest.raises(InvalidInputError, match="all x equal"):
            ols_fit([2.0, 2.0], [1.0, 3.0])


class TestTailsCommand:
    def test_table_matches_library(self, capsys):
        rc = main(["tails", "--w", "0", "--u-grid", "2.0:3.0:0.5"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["u", "p", "q"]
        for row in rows[1:]:
            u = float(row[0])
            assert float(row[1]) == pytest.approx(tail_series(u, 0),
                                                  rel=1e-12)

    def test_bad_grid_exits_2(self, capsys):
        assert main(["tails", "--u-grid", "oops"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("grid", ["1.7:4.0:nan", "1.7:4.0:inf", "1:inf:1", "-inf:0:1",
                                      "1:2:1e-17"])
    def test_grid_that_never_ends_exits_2(self, capsys, grid):
        # nan and inf steps printed one row; the others never ended
        assert main(["tails", f"--u-grid={grid}"]) == 2
        out, err = capsys.readouterr()
        assert "error: u grid" in err and out == ""

    def test_negative_w_exits_2(self, capsys):
        assert main(["tails", "--w", "-1"]) == 2
        out, err = capsys.readouterr()
        assert "error: w must be nonnegative" in err and out == ""

    def test_w_above_the_ceiling_exits_2(self, capsys):
        assert main(["tails", "--w", "2000"]) == 2
        out, err = capsys.readouterr()
        assert "error: w must be at most 1000" in err and out == ""


class TestEstimateCommand:
    def test_exact_estimate_round_trip(self, tmp_path, capsys):
        T = PointSet.from_rows([[1.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "pts.csv"
        pointset_to_csv(T, path)
        rc = main(["estimate", "--input", str(path), "--quantity", "b", "--exact",
                   "--seed", "3"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "quantity"
        assert float(rows[1][1]) == pytest.approx(0.5)
        assert rows[1][3] == "exact-enumeration"

    def test_mc_estimate_deterministic(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        T = PointSet.from_rows(rng.normal(size=(5, 20)))
        path = tmp_path / "pts.csv"
        pointset_to_csv(T, path)
        outputs = []
        for _ in range(2):
            rc = main(["estimate", "--input", str(path), "--quantity", "g",
                       "--mc", "2000", "--seed", "11"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_matrix_elements_via_k_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        T = PointSet(rng.normal(size=(3, 2, 3)))
        path = tmp_path / "pts.csv"
        pointset_to_csv(T, path)
        rc = main(["estimate", "--input", str(path), "--quantity", "b", "--exact",
                   "--k", "2"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        expected = bernoulli_complexity(T, EstimatorConfig(mode="exact")).value
        assert float(rows[1][1]) == pytest.approx(expected)

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("elem_id,coord_0,coord_1\n0,1.0,2.0\n1,abc,3.0\n")
        assert main(["estimate", "--input", str(path), "--quantity", "b"]) == 2
        assert "line 3, column coord_0" in capsys.readouterr().err

    def test_nan_cell_exits_2_naming_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("elem_id,coord_0,coord_1\n0,1.0,2.0\n1,3.0,nan\n")
        assert main(["estimate", "--input", str(path), "--quantity", "b"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}, line 3, column coord_1: expected a finite number, got 'nan'\n")

    def test_k_below_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        pointset_to_csv(PointSet.from_rows([[1.0, 2.0]]), path)
        assert main(["estimate", "--input", str(path), "--quantity", "b", "--k", "0"]) == 2
        assert "k must be >= 1, got 0" in capsys.readouterr().err

    def test_exact_cutoff_above_20_exits_2(self, tmp_path, capsys):
        # rejected before any sign pattern is built
        path = tmp_path / "pts.csv"
        pointset_to_csv(PointSet.from_rows([[1.0] * 21, [0.0] * 21]), path)
        assert main(["estimate", "--input", str(path), "--quantity", "b",
                     "--exact-cutoff", "21"]) == 2
        assert "exact_cutoff_n must be between 1 and 20, got 21" in capsys.readouterr().err

    def test_exact_with_mc_exits_2_before_reading_the_input(self, tmp_path, capsys):
        # argparse rejects the pair, so the missing file is never opened
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(tmp_path / "missing.csv"), "--quantity", "b",
                  "--exact", "--mc", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --mc: not allowed with argument --exact" in err
        assert "missing.csv" not in err

    def test_exact_gaussian_exits_2_before_reading_the_input(self, tmp_path, capsys):
        # Gaussian weights have no finite enumeration, so --exact cannot hold
        assert main(["estimate", "--input", str(tmp_path / "missing.csv"), "--quantity", "g",
                     "--exact"]) == 2
        assert capsys.readouterr() == ("", "error: --exact needs --quantity b: Gaussian "
                                           "weights have no finite enumeration\n")

    @pytest.mark.parametrize("samples", [MAX_MC_SAMPLES + 1, 10 ** 20])
    def test_mc_past_the_row_budget_exits_2(self, tmp_path, capsys, samples):
        path = tmp_path / "pts.csv"
        pointset_to_csv(PointSet.from_rows([[1.0, 2.0], [0.0, 1.0]]), path)
        assert main(["estimate", "--input", str(path), "--quantity", "b",
                     "--mc", str(samples)]) == 2
        assert capsys.readouterr() == (
            "", f"error: mc_samples must be at most {MAX_MC_SAMPLES}, got {samples}\n")

    def test_defaults_are_the_estimator_defaults(self, tmp_path, capsys):
        T = PointSet.from_rows(np.random.default_rng(2).normal(size=(3, 16)))
        path = tmp_path / "pts.csv"
        pointset_to_csv(T, path)
        assert main(["estimate", "--input", str(path), "--quantity", "b"]) == 0
        row = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1]
        assert row == bernoulli_complexity(T).csv_row("b")

    def test_missing_file_exits_2(self, capsys):
        assert main(["estimate", "--input", "/nonexistent.csv", "--quantity", "b"]) == 2

    @pytest.mark.parametrize("data, message", [
        (b"elem_id,a\n0,\xe9\xff1\n", ": not UTF-8 text"),
        (b"elem_id,a\n0," + b"1" * 200000 + b"\n", ", line 2: field larger than field limit")],
        ids=["not-utf8", "field-past-the-csv-limit"])
    def test_a_file_the_reader_cannot_read_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "pts.csv"
        path.write_bytes(data)
        assert main(["estimate", "--input", str(path), "--quantity", "b"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1  # one error line, no traceback
        assert err.startswith(f"error: {path}{message}")

    @pytest.mark.parametrize("flags", [["--quantity", "g"], ["--quantity", "b", "--mc", "50"]],
                             ids=["gaussian", "monte-carlo"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, flags):
        # both paths draw from a numpy generator, which rejects negative seeds
        path = tmp_path / "pts.csv"
        pointset_to_csv(PointSet.from_rows([[1.0, 2.0], [0.0, 1.0]]), path)
        assert main(["estimate", "--input", str(path), "--seed", "-1"] + flags) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


class _Drawn(Exception):
    """Raised by _NoDraws in place of a draw."""


class _NoDraws:
    """A generator stub whose every draw raises _Drawn, so no test that
    hands it out allocates a point set, even if a budget check regresses."""

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            raise _Drawn(name)
        return draw


class TestPointSetBudget:
    @pytest.mark.parametrize("draw", [
        lambda rng, m, k, n: experiments._random_pointset(rng, m, k, n),
        lambda rng, m, k, n: experiments._random_ball_pointset(rng, m, k, n, 1.0)],
        ids=["box", "ball"])
    @pytest.mark.parametrize("m, k, n", [(2 ** 26, 1, 1), (1, 2 ** 13, 2 ** 13), (4, 2, 2 ** 23)])
    def test_draws_at_the_budget_and_raises_past_it(self, draw, m, k, n):
        with pytest.raises(_Drawn):
            draw(_NoDraws(), m, k, n)
        with pytest.raises(BudgetExceededError, match="exceeds the ceiling of 67108864 values"):
            draw(_NoDraws(), m + 1, k, n)
        assert core.MAX_DISTANCE_POINTS ** 2 == 2 ** 26


class TestRunCommand:
    def test_results_are_byte_identical_across_runs(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        blobs = []
        for run_dir in ("a", "b"):
            out_dir = tmp_path / run_dir
            config.write_text(
                "experiment = chaining-demo\n"
                f"out_dir = {out_dir}\n"
                "n_list = [12]\n"
                "seed = 5\n"
                "constants.n_spaces = 15\n"
            )
            assert main(["run", str(config)]) == 0
            blobs.append((out_dir / "results.csv").read_bytes()
                         + (out_dir / "summary.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_lemma_checks_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys,
                                                                  monkeypatch):
        # n = 4 enumerates its signs; n = 16 draws them, and its Gaussians
        # take two weight blocks.  The plot keeps every set's point in order.
        config = tmp_path / "cfg.txt"
        blobs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(experiments, "_POOL_WORKERS", workers)
            out_dir = tmp_path / str(workers)
            config.write_text("experiment = lemma-checks\n"
                              f"out_dir = {out_dir}\n"
                              "n_list = [4, 16]\n"
                              "seed = 9\n"
                              "mc_samples = 5000\n"
                              "constants.n_sets = 5\n")
            assert main(["run", str(config)]) == 0
            blobs.append([(out_dir / name).read_bytes()
                          for name in ("results.csv", "summary.csv", "plot_lemma_checks.svg")])
        capsys.readouterr()
        assert blobs[0] == blobs[1] == blobs[2]

    def test_assertion_failure_exits_1_and_names_quantity(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "experiment = scaling-k1\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "constants.slope_tol = 0.000001\n"  # unattainably tight
        )
        rc = main(["run", str(config)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "slope" in out
        # the FAIL line gives the gated value, |slope - target|, and its bound
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            slope = next(float(row[2]) for row in csv.reader(fh) if row[1] == "slope")
        assert f": {abs(slope + 0.5):.6g} > 1e-06\n" in out

    def test_scaling_k2_failure_gives_the_ratio_and_its_bound(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "experiment = scaling-k2\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "constants.stability_ratio = 1.0\n"
        )
        assert main(["run", str(config)]) == 1
        assert "FAIL: k=2 rate constant stability: 1.06458 > 1\n" in capsys.readouterr().out

    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_bytes(b"# caf\xe9\nexperiment = scaling-k1\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == ("", f"config error: {config}: not UTF-8 text\n")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("experiment = scaling-k1\nbogus = 1\n")
        assert main(["run", str(config)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_scaling_kk_requires_k_above_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(f"experiment = scaling-kk\nk = 1\nout_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2

    @pytest.mark.parametrize("body, key, location", [
        ("experiment = lemma-checks\nconstants.n_set = 5\n", "constants.n_set",
         "line 2, column 1"),
        ("experiment = scaling-k1\nseed = 1\nseed = 2\n", "seed", "line 3, column 1"),
        ("experiment = scaling-k1\nk = 3\n", "k = 3", "line 2, column 1"),
        ("experiment = tails-demo\nconstants.u_step = 0\n", "constants.u_step",
         "line 2, column 1"),
        ("experiment = tails-demo\nconstants.u_step = -0.25\n", "constants.u_step",
         "line 2, column 1"),
        ("experiment = lemma-checks\nn_list = [-1, 4]\n", "n_list", "line 2, column 1"),
        ("experiment = scaling-k2\nn_list = [1, 2]\n", "n_list", "line 2, column 1"),
        ("experiment = chaining-demo\nn_list = [1]\n", "n_list", "line 2, column 1"),
        ("experiment = lemma-checks\nconstants.n_sets = 2.5\n", "constants.n_sets",
         "line 2, column 1"),
        ("experiment = composition-logfree\nconstants.n_functions = 0\n",
         "constants.n_functions", "line 2, column 1"),
        ("experiment = tails-demo\nconstants.w = -1\n", "constants.w", "line 2, column 1"),
        ("experiment = tails-demo\nconstants.w = 19\n", "constants.w", "line 2, column 1"),
        ("experiment = scaling-k1\nn_list = [64]\n", "n_list", "line 2, column 1"),
        ("experiment = scaling-k2\nn_list = [64]\n", "n_list", "line 2, column 1"),
        ("experiment = scaling-kk\nn_list = [64]\n", "n_list", "line 2, column 1"),
        ("experiment = lemma-checks\nn_list = [16]\nmc_samples = 1\nconstants.n_sets = 2\n",
         "mc_samples", "line 3, column 1"),
        ("experiment = composition-logfree\nconstants.lp_samples = 1\n",
         "constants.lp_samples", "line 2, column 1"),
        ("experiment = lemma-checks\nmc_samples = 1048577\n", "mc_samples",
         "line 2, column 1"),
        ("experiment = lemma-checks\nmc_samples = 99999999999999999999\n", "mc_samples",
         "line 2, column 1"),
        ("experiment = tails-demo\nconstants.u_start = 3.0\nconstants.u_stop = 2.0\n",
         "constants.u_stop", "line 3, column 1"),
        ("experiment = tails-demo\nconstants.u_start = 5.0\n", "constants.u_start",
         "line 2, column 1"),
        ("experiment = tails-demo\nconstants.u_stop = 2.0\nconstants.u_start = 3.0\n",
         "constants.u_start", "line 3, column 1"),
        ("experiment = composition-logfree\nconstants.band = 0\n", "constants.band",
         "line 2, column 1"),
        ("experiment = composition-logfree\nconstants.L = 0\n", "constants.L",
         "line 2, column 1"),
        ("experiment = rkhs-bound\nconstants.R = 0\n", "constants.R", "line 2, column 1"),
        ("experiment = tails-demo\nconstants.u_start = 0\n", "constants.u_start",
         "line 2, column 1"),
        ("experiment = scaling-k1\nconstants.slope_tol = nan\n", "constants.slope_tol",
         "line 2, column 1"),
        ("experiment = tails-demo\nconstants.u_step = 1e-300\n", "constants.u_step",
         "line 2, column 1"),
        ("experiment = lemma-checks\nseed =\n", ": empty value", "line 2, column 7"),
        ("experiment = lemma-checks\nn_list = [4, , 8]\n", ": empty value",
         "line 2, column 9"),
        ("experiment = lemma-checks\nn_list = [4, 8\n", ": unterminated list (missing ])",
         "line 2, column 9"),
        ("experiment = lemma-checks\nn_list = []\n", "at least 1 n_list entries, got 0",
         "line 2, column 1"),
        ("experiment = lemma-checks\nseed 5\n", ": expected `key = value`", "line 2, column 1"),
        ("experiment = lemma-checks\nconstants. = 5\n", ": constants key needs a name",
         "line 2, column 1"),
        ("experiment = lemma-checks\nconstants.n_sets = many\n",
         ": constant 'n_sets' must be numeric", "line 2, column 1"),
        ("experiment = lemma-checks\nseed = -1\n", ": seed must be nonnegative",
         "line 2, column 1"),
    ], ids=["undeclared-constant", "repeated-seed", "scaling-k1-with-k3", "zero-u-step",
            "negative-u-step", "negative-n", "scaling-k2-with-n1", "chaining-demo-with-n1",
            "fractional-count", "zero-count", "negative-w", "w-past-the-sampler-grid",
            "scaling-k1-with-one-n",
            "scaling-k2-with-one-n", "scaling-kk-with-one-n", "one-mc-sample",
            "one-lp-sample", "mc-samples-past-the-row-budget", "twenty-digit-mc-samples",
            "u-stop-below-u-start", "u-start-above-default-u-stop", "u-start-set-after-u-stop",
            "zero-band", "zero-L", "zero-rkhs-R", "zero-u-start", "nan-slope-tol",
            "u-step-that-never-advances", "empty-value", "empty-list-entry",
            "unterminated-list", "empty-n-list", "no-equals-sign", "nameless-constant",
            "non-numeric-constant", "negative-seed"])
    def test_rejected_config_exits_2_naming_the_key(self, tmp_path, capsys, body, key,
                                                    location):
        config = tmp_path / "cfg.txt"
        config.write_text(f"{body}out_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert key in err and location in err
        assert not (tmp_path / "o").exists()

    def test_points_past_the_distance_ceiling_exit_2_writing_nothing(self, tmp_path, capsys,
                                                                      monkeypatch):
        # at the shipped ceiling this is n_list = [100000], whose first
        # space would ask for a 91465 x 91465 matrix
        monkeypatch.setattr(core, "MAX_DISTANCE_POINTS", 4)
        config = tmp_path / "cfg.txt"
        config.write_text("experiment = chaining-demo\nn_list = [12]\nconstants.n_spaces = 5\n"
                          f"out_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == (
            "", "error: distances between 12 points exceed the ceiling of 4 points\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, body, message", [
        ("lemma-checks", "k = 1000000000\nn_list = [4]\n",
         "line 2, column 1: lemma-checks requires k * n <= 16000, got k * n = 1000000000 * 4"),
        ("lemma-checks", "k = 4\nn_list = [16000]\n",
         "line 2, column 1: lemma-checks requires k * n <= 16000, got k * n = 4 * 16000"),
        ("composition-logfree", "n_list = [8, 16001]\n",
         "line 2, column 1: composition-logfree requires k * n <= 16000, got k * n = 1 * 16001"),
        ("rkhs-bound", "n_list = [8, 8001]\n",
         "line 2, column 1: rkhs-bound requires k * n <= 16000, got k * n = 2 * 8001"),
    ], ids=["lemma-checks-huge-k", "lemma-checks-k4-n16000", "composition-logfree",
            "rkhs-bound"])
    def test_k_times_n_past_the_weight_ceiling_exits_2_before_the_run(
            self, tmp_path, capsys, monkeypatch, experiment, body, message):
        # a runner that fails the test: the bound must stop the run before it
        # allocates anything
        def never(cfg, consts):
            raise AssertionError(f"{experiment} ran with k = {cfg.k}, n_list = {cfg.n_list}")

        spec = EXPERIMENTS[experiment]
        monkeypatch.setitem(EXPERIMENTS, experiment, dataclasses.replace(spec, run=never))
        config = tmp_path / "cfg.txt"
        config.write_text(f"experiment = {experiment}\n{body}out_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, line", [
        ("lemma-checks", "constants.n_sets = 1048577"),
        ("composition-logfree", "constants.n_functions = 1000000000"),
    ])
    def test_integer_constant_past_the_row_budget_exits_2_before_the_run(
            self, tmp_path, capsys, monkeypatch, experiment, line):
        # a runner that fails the test: without the ceiling the second run
        # asked numpy for a 119 GiB point set
        def never(cfg, consts):
            raise AssertionError(f"{experiment} ran with {cfg.constants}")

        spec = EXPERIMENTS[experiment]
        monkeypatch.setitem(EXPERIMENTS, experiment, dataclasses.replace(spec, run=never))
        config = tmp_path / "cfg.txt"
        config.write_text(f"experiment = {experiment}\n{line}\nout_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        key, value = line.split(" = ")
        assert capsys.readouterr() == (
            "", f"config error: line 2, column 1: {key} must be at most 1048576, got {value}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error, printed", [
        (MemoryError("Unable to allocate 119. GiB for an array with shape "
                     "(1000000000, 1, 16) and data type float64"),
         "Unable to allocate 119. GiB for an array with shape (1000000000, 1, 16) and data "
         "type float64"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_an_array_numpy_cannot_allocate_exits_2_writing_nothing(
            self, tmp_path, capsys, monkeypatch, error, printed):
        # the error composition-logfree with n_functions = 10^9 met under
        # ulimit -v 3000000, before that constant had a ceiling
        def no_memory(rng, n_elements, k, n, box=1.0):
            raise error

        monkeypatch.setattr(experiments, "_random_pointset", no_memory)
        config = tmp_path / "cfg.txt"
        config.write_text("experiment = composition-logfree\nn_list = [8, 16]\n"
                          f"out_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {printed}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, body, shape", [
        ("rkhs-bound", "n_list = [8000]\nconstants.n_elements = 1048576\n", (1048576, 8000, 1)),
        ("composition-logfree", "n_list = [16000]\nconstants.n_functions = 1048576\n",
         (1048576, 1, 16000)),
    ])
    def test_point_set_past_the_distance_budget_exits_2_writing_nothing(
            self, tmp_path, capsys, monkeypatch, experiment, body, shape):
        # both configs pass validation; the stub generator keeps a regressed
        # check from allocating the 62.5 or 125 GiB set
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoDraws())
        config = tmp_path / "cfg.txt"
        config.write_text(f"experiment = {experiment}\n{body}out_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == (
            "", f"error: a point set of shape {shape} exceeds the ceiling of 67108864 values\n")
        assert not (tmp_path / "o").exists()

    def test_figure_write_plot_cannot_draw_exits_2_writing_no_file(self, tmp_path, capsys,
                                                                 monkeypatch):
        def zero_on_a_log_axis(cfg, consts):
            out = experiments.ExperimentOutcome(cfg.experiment)
            out.add_row(1, 1, "x", 1.0, 0.0, cfg.seed)
            out.figures["plot.svg"] = ([("a", [0.0, 1.0], [1.0, 2.0])], [], {"loglog": True})
            return out

        spec = EXPERIMENTS["tails-demo"]
        monkeypatch.setitem(EXPERIMENTS, "tails-demo",
                            dataclasses.replace(spec, run=zero_on_a_log_axis))
        config = tmp_path / "cfg.txt"
        config.write_text(f"experiment = tails-demo\nout_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot draw the x values")
        assert list((tmp_path / "o").iterdir()) == []

    def test_figures_written(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        out_dir = tmp_path / "figs"
        config.write_text(f"experiment = scaling-k2\nout_dir = {out_dir}\n")
        assert main(["run", str(config)]) == 0
        capsys.readouterr()
        svgs = list(out_dir.glob("*.svg"))
        assert svgs and svgs[0].read_text().startswith("<svg")


def test_math_sanity_of_default_grids():
    # default tails grid starts above the w=0 convergence threshold
    assert 1.7 > math.sqrt(4 * math.log(2)) - 0.05

