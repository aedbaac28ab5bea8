"""What one unit of each workload runs.

A unit is one fresh process.  `make_unit(name, seed, out_dir)` does the
set-up (config parse and input generation), `unit.run(echo)` is the measured
work, `unit.check()` returns failure messages from the correctness checks
made after the measured work, and `unit.output_files()` lists the files whose
bytes must repeat for the same seed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import berncomp
from berncomp import EstimatorConfig, LipschitzBall, PointSet
from berncomp.config import parse_config_text
from berncomp.experiments import run_experiment

# The composition-logfree scenario shortened from about 40 s to about 2 s:
# fewer functions, samples and sizes, but n = 256 stays in, where the line
# DP's quadratic cost shows.
COMPOSITION_K1 = """
experiment = composition-logfree
n_list = [16, 64, 256]
constants.L = 1.0
constants.R = 1.0
constants.n_functions = 4
constants.lp_samples = 24
constants.replications = 3
constants.band = 1.5
"""

# rkhs-bound with three elements per set instead of six; the 4000-row Monte
# Carlo batches at n = 128 and the exact n = 8 enumeration are unchanged.
RKHS = """
experiment = rkhs-bound
n_list = [8, 32, 128]
constants.R = 1.0
constants.n_elements = 3
constants.fit_headroom = 1.5
"""

# The configs/ scenarios that consist of many small calls, unchanged.
CHECKS_MIX = (
    """
experiment = lemma-checks
n_list = [4, 8, 12]
k = 1
mc_samples = 20000
constants.n_sets = 100
""",
    """
experiment = chaining-demo
n_list = [30]
constants.n_spaces = 200
""",
    """
experiment = tails-demo
constants.w = 0
constants.u_start = 0.5
constants.u_stop = 4.0
constants.u_step = 0.25
""",
    """
experiment = scaling-k1
n_list = [64, 128, 256, 512, 1024, 2048, 4096]
constants.slope_tol = 0.15
""",
    """
experiment = scaling-k2
n_list = [64, 128, 256, 512, 1024, 2048, 4096]
constants.stability_ratio = 1.5
""",
    """
experiment = scaling-kk
k = 4
n_list = [64, 128, 256, 512, 1024, 2048, 4096]
""",
)


class ExperimentUnit:
    """Runs `run_experiment` on each config text, with the workload seed."""

    def __init__(self, texts, seed: int, out_dir: Path):
        self.configs = []
        for text in texts:
            name = text.split("experiment =", 1)[1].split()[0]
            self.configs.append(parse_config_text(
                f"{text}\nseed = {seed}\nout_dir = {out_dir / name}\n"))
        self.statuses = []
        self.messages = []

    def run(self, echo) -> None:
        def collect(line):
            self.messages.append(line)
            echo(line)

        self.statuses = [run_experiment(cfg, echo=collect) for cfg in self.configs]

    def check(self) -> list:
        failures = [f"{cfg.experiment} exited {status}"
                    for cfg, status in zip(self.configs, self.statuses) if status != 0]
        failures += [line for line in self.messages if line.startswith("FAIL")]
        return failures

    def output_files(self) -> list:
        return [Path(cfg.out_dir) / name for cfg in self.configs
                for name in ("results.csv", "summary.csv")]


class LipschitzK2Unit:
    """Composite Lipschitz-ball complexity and the increment ratio on random
    k = 2 point sets: every oracle call goes through the all-pairs simplex.

    Calls per unit: 4 elements x 32 samples at 16 points, 3 elements x 8
    samples at 24 points, and 3 pairs x 4 samples at 32 points (the increment
    ratio stacks two 16-column elements).
    """

    L = 1.0
    R = 1.0
    # (label, elements, n, Monte Carlo samples)
    COMPOSITE = (("composite_n16", 4, 16, 32), ("composite_n24", 3, 24, 8))
    INCREMENT = ("increment_n16", 3, 16, 4)

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.tasks = []
        for label, elements, n, samples in self.COMPOSITE + (self.INCREMENT,):
            T = PointSet(rng.uniform(-1.0, 1.0, size=(elements, 2, n)))
            cfg = EstimatorConfig(mode="monte-carlo", mc_samples=samples,
                                  seed=int(rng.integers(2 ** 63)))
            self.tasks.append((label, T, cfg))
        # collinear points for the line-versus-simplex cross-check
        self.line_x = rng.uniform(-1.0, 1.0, size=16)
        self.line_dir = rng.standard_normal(2)
        self.line_c = rng.integers(0, 2, size=(4, 16)) * 2.0 - 1.0
        self.rows = []

    def run(self, echo) -> None:
        # called through the package namespace, so that tracing sees them
        oracle = LipschitzBall(self.L, self.R).as_oracle()
        self.rows = []
        for label, T, cfg in self.tasks[:-1]:
            est = berncomp.composite_bernoulli_complexity(oracle, T, cfg)
            self.rows.append((label, T.n, est.value, est.std_error))
        label, S, cfg = self.tasks[-1]
        self.rows.append((label, S.n, berncomp.increment_ratio(oracle, S, cfg), 0.0))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / "results.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "n", "value", "std_error"])
            for label, n, value, se in self.rows:
                writer.writerow([label, str(n), repr(float(value)), repr(float(se))])
        echo(f"lipschitz-k2: {len(self.rows)} estimates written")

    def check(self) -> list:
        failures = []
        bound = self.L * self.R
        for label, n, value, _ in self.rows:
            # f = 0 is in the class; sum_i |f(s_i) - f(t_i)| <= L * sqrt(n) * ||s - t||
            upper = bound * n if label.startswith("composite") else self.L * math.sqrt(n)
            if not 0.0 <= value <= upper + 1e-9:
                failures.append(f"FAIL: {label} = {value!r} outside [0, {upper}]")
        # On collinear points the adjacent constraints imply all pairwise ones,
        # so the 2-d simplex must agree with the exact line solver.
        direction = self.line_dir / np.linalg.norm(self.line_dir)
        pts = self.line_x[:, None] * direction[None, :]
        for c in self.line_c:
            plane = berncomp.lipschitz_ball_sup(pts, c, self.L, self.R, method="simplex")
            line = berncomp.lipschitz_ball_sup(self.line_x, c, self.L, self.R, method="line")
            if abs(plane - line) > 1e-8 * max(1.0, abs(line)):
                failures.append(f"FAIL: collinear simplex {plane!r} != line {line!r}")
        return failures

    def output_files(self) -> list:
        return [self.out_dir / "results.csv"]


def make_unit(name: str, seed: int, out_dir: Path):
    if name == "composition-k1":
        return ExperimentUnit((COMPOSITION_K1,), seed, out_dir)
    if name == "rkhs":
        return ExperimentUnit((RKHS,), seed, out_dir)
    if name == "checks-mix":
        return ExperimentUnit(CHECKS_MIX, seed, out_dir)
    if name == "lipschitz-k2":
        return LipschitzK2Unit(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
