"""The names the benchmark in perfbench/ calls or traces must keep resolving.

perfbench/ is read, never changed: these checks stop a cleanup of berncomp
from silently breaking the benchmark's tracer, self-test or workloads.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import berncomp

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("target", _perfbench("tracing").TARGETS, ids=lambda t: ".".join(
    part for part in t[:3] if part))
def test_every_traced_target_resolves(target):
    module_name, class_name, attr, _ = target
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(vars(owner)[attr])


def test_experiments_holds_the_traced_lipschitz_oracle():
    experiments = importlib.import_module("berncomp.experiments")
    assert experiments.lipschitz_ball_sup is berncomp.classes.lipschitz_ball_sup


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_unit_builds(name, tmp_path):
    # building a unit parses its configs and draws its inputs; it is not run
    unit = _perfbench("workloads").make_unit(name, 901, tmp_path)
    assert unit.output_files()


def test_lipschitz_k2_legacy_api_resolves():
    assert callable(berncomp.LipschitzBall(1.0, 1.0).as_oracle)
    assert "method" in inspect.signature(berncomp.lipschitz_ball_sup).parameters
