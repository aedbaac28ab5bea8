"""Self-test of the benchmark's tracing and bookkeeping.

    python3 perfbench/selftest.py

Checks that tracing changes no result bits (a traced unit writes the same
output digest as an untraced one, on every workload), that every function
the tracer patches is restored afterwards, that layer self times add up to
the traced wall time, and that BENCHMARK.json lists exactly the metrics the
benchmark prints.
"""

import importlib
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import berncomp.experiments  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 5


def _bindings(wanted):
    """{(namespace, name): object} for every binding in a berncomp module or
    class whose object satisfies `wanted`."""
    found = {}
    for module in tracing._berncomp_modules():
        for name, value in vars(module).items():
            if wanted(value):
                found[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if wanted(member):
                        found[(f"{module.__name__}.{name}", attr)] = member
    return found


def _references():
    """Every binding of a function the tracer wraps."""
    targets = set()
    for module_name, class_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        targets.add(id(vars(owner)[attr]))
    return _bindings(lambda value: id(value) in targets)


def _wrappers():
    return _bindings(lambda value: getattr(value, tracing.WRAPPED_MARK, False))


class TracerRestores(unittest.TestCase):
    def test_install_replaces_and_restore_puts_back(self):
        before = _references()
        tracer = tracing.Tracer()
        with tracer:
            self.assertEqual(set(_wrappers()), set(before))
            self.assertIs(berncomp.classes.lipschitz_ball_sup,
                          berncomp.experiments.lipschitz_ball_sup)
            self.assertTrue(getattr(berncomp.experiments.lipschitz_ball_sup,
                                    tracing.WRAPPED_MARK, False))
            x = np.linspace(-1.0, 1.0, 8)
            c = np.array([1.0, -1.0] * 4)
            berncomp.LipschitzBall(1.0, 1.0).sup(x, c)
            berncomp.LipschitzBall(1.0, 1.0).sup(np.c_[x, x], c)
        self.assertEqual(_references(), before)
        self.assertEqual(_wrappers(), {})
        layers = [span[0] for span in tracer.spans]
        self.assertEqual(layers, ["classes.lipschitz_line", "classes.lipschitz_allpairs",
                                  "simplex"])
        self.assertEqual(tracer.spans[2][1], 1)  # simplex is the all-pairs call's child

    def test_self_times_add_up(self):
        tracer = tracing.Tracer()
        spans = [["a", -1, 0.0, 4.0, None], ["b", 0, 1.0, 3.0, None],
                 ["c", 1, 1.5, 2.0, None], ["a", -1, 5.0, 6.0, None]]
        tracer.spans.extend(spans)
        summary = tracing.summarize(tracer.spans, wall_s=7.0)
        self_s = {name: entry["self_s"] for name, entry in summary["layers"].items()}
        self.assertEqual(self_s, {"a": 3.0, "b": 1.5, "c": 0.5})
        self.assertEqual(summary["runner_self_s"], 2.0)


class TracingKeepsOutputBits(unittest.TestCase):
    def test_traced_and_untraced_digests_match(self):
        out = f"{run.OUT_DIR}/selftest"
        try:
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload):
                    plain = run.run_unit(workload, SEED, f"{out}/{workload}-plain", False)
                    traced = run.run_unit(workload, SEED, f"{out}/{workload}-traced", True)
                    self.assertTrue(plain["ok"], plain.get("error"))
                    self.assertTrue(traced["ok"], traced.get("error"))
                    self.assertEqual(plain["digest"], traced["digest"])
                    summary = traced["trace"]
                    self_total = sum(e["self_s"] for e in summary["layers"].values())
                    self.assertAlmostEqual(self_total + summary["runner_self_s"],
                                           traced["wall_s"], places=9)
        finally:
            shutil.rmtree(ROOT / out, ignore_errors=True)


class BenchmarkJsonMatches(unittest.TestCase):
    def test_metric_lists(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
