"""berncomp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each unit of work is a fresh process
(perfbench/worker.py) given the same seed, so every unit must produce
byte-identical outputs.  Inside each unit a speed probe measures how fast the
CPU runs meanwhile; every reported time is scaled to the speed of the
reference machine (see speed.py and README.md).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import ALLPAIRS_BUCKETS, LAYERS, LINE_BUCKETS, RKHS_BUCKETS  # noqa: E402

# The units themselves are defined in workloads.py, which only workers import.
WORKLOADS = ("composition-k1", "rkhs", "checks-mix", "lipschitz-k2")

OUT_DIR = ".perfbench_out"
UNIT_TIMEOUT_S = 120.0
MIN_UNITS = 3        # untraced run: at least this many units
MIN_PAIRS = 2        # traced run: at least this many untraced/traced pairs

# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "berncomp").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> tuple:
    """(vendor and version, thread count) of the BLAS numpy loaded."""
    vendor = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: the stamp says unknown
        pass
    threads = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return vendor, threads


def environment() -> dict:
    vendor, threads = _blas()
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------


def run_unit(workload: str, seed: int, out: str, trace: bool) -> dict:
    """Start one worker process and return its record.  `ok` is False if the
    process failed or reported failures; `error` then says why."""
    env = dict(os.environ)
    env.pop("PC_THREADS", None)  # cells run serially, as by default
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out] + (["--trace"] if trace else [])
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": trace, "error": f"timed out after {UNIT_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "traced": trace,
                "error": f"worker exited {proc.returncode}: {tail[0]}"}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "traced": trace, "error": "worker printed no result"}
    record["setup_s"] = record.pop("ready") - spawn - record.pop("paused_at_ready")
    record["traced"] = trace
    record["ok"] = not record["failures"]
    if not record["ok"]:
        record["error"] = "; ".join(record["failures"][:3])
    return record


def run_units(workload: str, seed: int, seconds: float, trace: bool, run_dir: str):
    """Run units until `seconds` are used up.  A traced run alternates
    untraced and traced units."""
    kinds = (False, True) if trace else (False,)
    minimum = MIN_PAIRS * len(kinds) if trace else MIN_UNITS
    units = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            t0 = time.monotonic()
            out = f"{run_dir}/u{len(units)}"
            unit = run_unit(workload, seed, out, kind)
            unit["elapsed"] = time.monotonic() - t0
            unit["out"] = out
            units.append(unit)
        used = time.monotonic() - start
        per_round = statistics.median(u["elapsed"] for u in units) * len(kinds)
        if len(units) >= minimum and used + per_round > seconds:
            return units
        if not units[-1]["ok"] and "timed out" in units[-1].get("error", ""):
            return units


def mark_digest_mismatches(units) -> str | None:
    """Same seed, same bytes: a unit whose digest differs from the most
    common one fails.  Returns the common digest."""
    digests = collections.Counter(u["digest"] for u in units if "digest" in u)
    if not digests:
        return None
    common = digests.most_common(1)[0][0]
    for u in units:
        if "digest" in u and u["digest"] != common and u["ok"]:
            u["ok"] = False
            u["error"] = f"output digest {u['digest'][:12]} != {common[:12]}"
    return common


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(units) -> dict:
    ok = [u for u in units if u["ok"] and not u["traced"]]
    return {
        "wall_s": statistics.median(u["wall_s"] * u["scale"] for u in ok),
        "setup_s": statistics.median(u["setup_s"] * u["scale"] for u in ok),
        "peak_rss_mib": statistics.median(u["peak_rss_mib"] for u in ok),
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.share"] = "ratio"
    names["classes.lipschitz_line.points"] = "count"
    for n in LINE_BUCKETS:
        names[f"classes.lipschitz_line.us_per_call.n{n}"] = "us"
    for n in ALLPAIRS_BUCKETS:
        names[f"classes.lipschitz_allpairs.us_per_call.n{n}"] = "us"
        names[f"simplex.us_per_call.n{n}"] = "us"
    names["classes.rkhs.rows"] = "count"
    names["classes.rkhs.gflops"] = "GFLOP/s"
    for n in RKHS_BUCKETS:
        names[f"classes.rkhs.us_per_call.n{n}"] = "us"
    for layer in ("complexity.bernoulli", "complexity.gaussian"):
        names[f"{layer}.sign_rows"] = "count"
        names[f"{layer}.exact_share"] = "ratio"
    names["experiments.self_s"] = "s"
    names["experiments.share"] = "ratio"
    names["experiments.cpu_s"] = "s"
    names["trace.wall_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def per_layer(units) -> dict:
    traced = [u for u in units if u["ok"] and u["traced"]]
    plain = [u for u in units if u["ok"] and not u["traced"]]
    metrics = {}

    def layer(u, name):
        return u["trace"]["layers"].get(name, {})

    for name in LAYERS:
        metrics[f"{name}.calls"] = _median(layer(u, name).get("calls", 0) for u in traced)
        metrics[f"{name}.self_s"] = _median(
            layer(u, name).get("self_s", 0.0) * u["scale"] for u in traced)
        metrics[f"{name}.share"] = _median(
            layer(u, name).get("self_s", 0.0) / u["wall_s"] for u in traced)

    def per_call_us(name, n):
        # inclusive per-call time (child spans included), pooled over units
        return _median(d * u["scale"] * 1e6 for u in traced
                       for d in layer(u, name).get("buckets", {}).get(str(n), []))

    line = "classes.lipschitz_line"
    metrics[f"{line}.points"] = _median(layer(u, line).get("points", 0) for u in traced)
    for n in LINE_BUCKETS:
        metrics[f"{line}.us_per_call.n{n}"] = per_call_us(line, n)
    for n in ALLPAIRS_BUCKETS:
        metrics[f"classes.lipschitz_allpairs.us_per_call.n{n}"] = per_call_us(
            "classes.lipschitz_allpairs", n)
        metrics[f"simplex.us_per_call.n{n}"] = per_call_us("simplex", n)
    rkhs = "classes.rkhs"
    metrics[f"{rkhs}.rows"] = _median(layer(u, rkhs).get("rows", 0) for u in traced)
    metrics[f"{rkhs}.gflops"] = _median(
        layer(u, rkhs)["flops"] / (layer(u, rkhs)["self_s"] * u["scale"]) / 1e9
        for u in traced if layer(u, rkhs).get("self_s"))
    for n in RKHS_BUCKETS:
        metrics[f"{rkhs}.us_per_call.n{n}"] = per_call_us(rkhs, n)
    for name in ("complexity.bernoulli", "complexity.gaussian"):
        metrics[f"{name}.sign_rows"] = _median(layer(u, name).get("sign_rows", 0) for u in traced)
        metrics[f"{name}.exact_share"] = _median(
            layer(u, name)["exact"] / layer(u, name)["calls"]
            for u in traced if layer(u, name).get("calls"))
    metrics["experiments.self_s"] = _median(
        u["trace"]["runner_self_s"] * u["scale"] for u in traced)
    metrics["experiments.share"] = _median(
        u["trace"]["runner_self_s"] / u["wall_s"] for u in traced)
    metrics["experiments.cpu_s"] = _median(u["cpu_s"] * u["scale"] for u in plain)
    metrics["trace.wall_s"] = _median(u["wall_s"] * u["scale"] for u in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(
        u["wall_s"] * u["scale"] for u in plain)
    return metrics


# ---------------------------------------------------------------------------
# baseline cross-check
# ---------------------------------------------------------------------------

# (workload, metric, baseline value, source of the baseline, note if it differs)
_NOISE_NOTE = ("on a shared host the speed drifts by about 20% between phases, which the "
               "speed probe only partly removes (README.md, Noise)")
_LINE_NOTE = ("the span times lipschitz_ball_sup, whose input validation the Baseline's "
              "_lipschitz_sup_line timing leaves out, and the per-call time grows with the "
              "number of DP breakpoints, which depends on the data; " + _NOISE_NOTE)
BASELINE = (
    ("composition-k1", "classes.lipschitz_line.us_per_call.n16", 230.0,
     "ROADMAP Baseline: line DP 0.23 ms at n = 16", _LINE_NOTE),
    ("composition-k1", "classes.lipschitz_line.us_per_call.n64", 1200.0,
     "ROADMAP Baseline: line DP 1.2 ms at n = 64", _LINE_NOTE),
    ("composition-k1", "classes.lipschitz_line.us_per_call.n256", 6100.0,
     "ROADMAP Baseline: line DP 6.1 ms at n = 256", _LINE_NOTE),
    ("composition-k1", "classes.lipschitz_line.share", 0.9,
     "ROADMAP: the line DP is almost all of composition-logfree",
     "the shortened scenario has no n = 32 or 128 cells, which changes the mix"),
    ("lipschitz-k2", "classes.lipschitz_allpairs.us_per_call.n16", 6000.0,
     "ROADMAP Baseline: all-pairs simplex 6 ms at n = 16",
     "a second measurement of the same code found 3.6 ms at n = 16 (149 ms at n = 32); "
     "the number of simplex pivots, and so the time, depends on the points and signs; "
     + _NOISE_NOTE),
    ("lipschitz-k2", "classes.lipschitz_allpairs.us_per_call.n32", 160000.0,
     "ROADMAP Baseline: all-pairs simplex 0.16 s at n = 32", _NOISE_NOTE),
    ("rkhs", "classes.rkhs.us_per_call.n128", 168000.0,
     "ROADMAP Baseline: einsum 168 ms at 4000 rows, n = 128",
     "the span also builds the Gram matrix, so on one host it cannot be cheaper than the "
     "einsum alone; numpy's einsum loop runs at different speeds on different hosts, "
     "while the share of classes.rkhs, which does not depend on the host, agrees"),
    ("rkhs", "classes.rkhs.share", 7.9 / 8.6,
     "ROADMAP Baseline: einsum 7.9 s of the 8.6 s profiled rkhs-bound run",
     "the Baseline profile ran the full scenario with six elements per set under a "
     "profiler"),
)


def baseline_report(workload: str, metrics: dict) -> list:
    lines = []
    for name, metric, base, source, note in BASELINE:
        if name != workload:
            continue
        value = metrics[metric]
        ratio = value / base
        verdict = "agrees (within 20%)" if abs(ratio - 1.0) <= 0.2 else "differs"
        lines.append(f"  {metric}: {value:.4g} vs {base:.4g} ({source}): "
                     f"x{ratio:.2f}, {verdict}")
        if verdict == "differs":
            lines.append(f"    why: {note}")
    return lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def summary_lines(units) -> list:
    scales = [u["scale"] for u in units if "scale" in u]
    lines = [f"machine speed: median scale {_median(scales):.3f} reference s per measured s "
             f"(range {min(scales, default=0):.3f}-{max(scales, default=0):.3f}); "
             "times below are scaled"]
    for label, kind in (("untraced", False), ("traced", True)):
        ok = [u for u in units if u["ok"] and u["traced"] == kind]
        if not ok:
            continue
        for key in ("wall_s", "setup_s"):
            raw = sorted(u[key] for u in ok)
            scaled = sorted(u[key] * u["scale"] for u in ok)
            q1, med, q3 = quartiles(scaled)
            lines.append(f"{label} {key}: median {med:.4f} s (p25 {q1:.4f}, p75 {q3:.4f}, "
                         f"n={len(ok)}); raw median {statistics.median(raw):.4f} s")
    attempted = len(units)
    failed = sum(not u["ok"] for u in units)
    lines.append(f"error_rate: {failed}/{attempted} = {failed / attempted:.3f}")
    for u in units:
        if not u["ok"]:
            lines.append(f"  failed unit ({'traced' if u['traced'] else 'untraced'}): {u['error']}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "berncomp" / "__init__.py").is_file():
        print(f"perfbench: no berncomp sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    run_dir = f"{OUT_DIR}/run-{os.getpid()}"
    try:
        units = run_units(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        common = mark_digest_mismatches(units)
        spans_file = next((Path(ROOT / u["out"] / "spans.json") for u in reversed(units)
                           if u["traced"] and u["ok"]), None)
        if spans_file is not None and spans_file.is_file():
            shutil.copy(spans_file, ROOT / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)

    attempted = len(units)
    failed = sum(not u["ok"] for u in units)
    correct = failed == 0
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env))
    print(f"output digest (results.csv + summary.csv): {common}")
    for line in summary_lines(units):
        print(line)

    metrics = {}
    if correct:
        if args.trace:
            values = per_layer(units)
            units_of = per_layer_names()
            print("per-layer (traced units; times in reference seconds):")
            for name, value in values.items():
                if value:
                    print(f"  {name} = {value:.6g} {units_of[name]}")
            self_total = sum(values[f"{name}.self_s"] for name in LAYERS)
            plain_wall = values["trace.wall_s"] - values["trace.overhead_s"]
            print(f"accounting: layer self_s {self_total:.4f} + experiments.self_s "
                  f"{values['experiments.self_s']:.4f} = "
                  f"{self_total + values['experiments.self_s']:.4f} s; untraced wall_s "
                  f"{plain_wall:.4f} s; trace.overhead_s {values['trace.overhead_s']:.4f} s")
            report = baseline_report(args.workload, values)
            if report:
                print("baseline cross-check:")
                for line in report:
                    print(line)
            metrics = {name: {"value": values[name], "unit": units_of[name]}
                       for name in units_of}
        else:
            values = end_to_end(units)
            for name, value in values.items():
                print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
            metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                       for name in END_TO_END_UNITS}
    record = {"env": env, "args": vars(args), "metrics": metrics,
              "units": [{k: v for k, v in u.items() if k != "trace"} for u in units]}
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    with open(ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
