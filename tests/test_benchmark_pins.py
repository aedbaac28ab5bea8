"""The names the benchmark in perfbench/ calls or traces must keep resolving.

perfbench/ is read, never changed: these checks stop a cleanup of berncomp
from silently breaking the benchmark's tracer, self-test or workloads.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import berncomp

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _tracing().TARGETS, ids=lambda t: ".".join(
    part for part in t[:3] if part))
def test_every_traced_target_resolves(target):
    module_name, class_name, attr, _ = target
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(vars(owner)[attr])


def test_experiments_holds_the_traced_lipschitz_oracle():
    assert berncomp.experiments.lipschitz_ball_sup is berncomp.classes.lipschitz_ball_sup
