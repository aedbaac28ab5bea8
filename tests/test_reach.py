"""Every function and method under src/ is reached by a `pc` run or has a
named reason to stay.  The eight experiments run at reduced sizes through
cli.main(["run", ...]), and `pc tails` and `pc estimate` on a tiny point
set, under sys.setprofile and threading.setprofile (lemma-checks runs its
cells on a pool).  The src/ functions that no call enters must be exactly
the keys of UNREACHED.  A new unreached function fails the test, and so
does a listed one that becomes reached: delete it, or give it a caller or
a reason.  The reduced runs reach the same functions as the full
configs/*.txt runs."""

import ast
import importlib
import sys
import threading
from pathlib import Path

import numpy as np

import berncomp
from berncomp import PointSet, cli, pointset_to_csv, tails

PIN = "perfbench pin: the benchmark's tracer or self-test names it, until ROADMAP item 1 stage A"
ALL_PAIRS = "all-pairs Lipschitz path: ROADMAP items 23 (a k = 2 pc run) and 2 (its solver)"
ANCHOR = "ROADMAP item 4 runs AnchorDistanceClass at k = 2 and 3"
ENTROPY = "entropy route: ROADMAP items 4 and 20 give it a pc run caller"
FINITE = "ROADMAP item 24: an exact lemma-checks gate of Massart's finite-class lemma"
PUBLIC = "public constructor or property of a class the runs reach"
ERROR = "error path: raised only on invalid input"
ONE_BATCH = "sup_batch(points, C) is bind(points)(C) for one batch, which tests and demos call"

UNREACHED = {
    "chaining.EntropyProfile.__post_init__": ENTROPY,
    "chaining.composite_entropy_bound": ENTROPY,
    "chaining.composite_rate": ENTROPY,
    "chaining.covering_number": PIN,
    "chaining.entropy_profile": PIN,
    "chaining.lipschitz_entropy_formula": ENTROPY,
    "chaining.lipschitz_entropy_profile": ENTROPY,
    "classes.AnchorDistanceClass.__post_init__": ANCHOR,
    "classes.AnchorDistanceClass._sup_rows": ANCHOR,
    "classes.AnchorDistanceClass.bind": ANCHOR,
    "classes.AnchorDistanceClass.sup_batch": ANCHOR,
    "classes.AnchorDistanceClass.values": ANCHOR,
    "classes.FiniteFunctionClass.__post_init__": FINITE,
    "classes.FiniteFunctionClass.bind": FINITE,
    "classes.FiniteFunctionClass.bind.<locals>.sups": FINITE,
    "classes.FiniteFunctionClass.n_points": FINITE,
    "classes.FiniteFunctionClass.sup_batch": FINITE,
    "classes.GaussianRkhsBall.sup": PIN,
    "classes.GaussianRkhsBall.sup_batch": f"{PIN}; {ONE_BATCH}",
    "classes.LipschitzBall.as_oracle": PIN,
    "classes.LipschitzBall.sup": PIN,
    "classes.LipschitzBall.sup_batch": ONE_BATCH,
    "classes._lipschitz_sup_simplex": ALL_PAIRS,
    "classes._transport_stack": ALL_PAIRS,
    "classes.lipschitz_ball_sup": PIN,
    "config.ExperimentConfig.validate.<locals>.fail": ERROR,
    "core.PointSet.from_rows": PUBLIC,
    "errors.ConfigError.__init__": ERROR,
    "simplex.simplex_maximize": f"{PIN}; {ALL_PAIRS}",
    "tails.sample_from_capped_tail": f"{PIN}; then ROADMAP item 21 deletes it",
}

# Each experiment at reduced sizes; every run passes its gates.
REDUCED_RUNS = [
    "experiment = chaining-demo\nn_list = [12]\nconstants.n_spaces = 5\n",
    "experiment = composition-logfree\nn_list = [16, 32]\nseed = 7\n"
    "constants.n_functions = 4\nconstants.lp_samples = 24\nconstants.replications = 2\n",
    "experiment = lemma-checks\nn_list = [4, 16]\nseed = 7\nmc_samples = 200\n"
    "constants.n_sets = 3\n",
    "experiment = rkhs-bound\nn_list = [8, 24]\nseed = 7\nmc_samples = 200\n",
    "experiment = scaling-k1\nn_list = [64, 128, 256]\n",
    "experiment = scaling-k2\nn_list = [64, 128, 256]\n",
    "experiment = scaling-kk\nk = 4\nn_list = [64, 128, 256]\n",
    "experiment = tails-demo\n",
]


def definitions(sources: dict) -> dict:
    """{(file, first line, name): qualified name} for every def in sources
    (file name -> source text).  The first line is that of the def's first
    decorator, or of the def itself, as in its code object's
    co_firstlineno.  The qualified name is the file's stem and then the
    def's __qualname__; co_qualname itself needs Python 3.11."""
    found = {}

    def walk(path, stem, body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                found[(path, line, node.name)] = f"{stem}.{prefix}{node.name}"
                walk(path, stem, node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                walk(path, stem, node.body, f"{prefix}{node.name}.")

    for path, source in sources.items():
        stem = Path(path).stem
        walk(path, stem, ast.parse(source).body, "")
    return found


def unreached(sources: dict, run) -> list:
    """The qualified names of the defs in sources whose code no call enters
    while run() runs, on this thread or on any thread it starts."""
    defs = definitions(sources)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    saved = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(saved[0])
        threading.setprofile(saved[1])
    return sorted(name for key, name in defs.items() if key not in entered)


def table_mismatch(names: list, table: dict) -> tuple:
    """(unreached names missing from the table, table keys that were reached)."""
    return sorted(set(names) - set(table)), sorted(set(table) - set(names))


def package_sources() -> dict:
    """{module file: source} for every module under src/berncomp, keyed by
    the file name that its code objects carry."""
    modules = [importlib.import_module("berncomp" if path.stem == "__init__"
                                       else f"berncomp.{path.stem}")
               for path in sorted(Path(berncomp.__file__).parent.glob("*.py"))]
    return {m.__file__: Path(m.__file__).read_text() for m in modules}


def test_collector_finds_planted_cases(tmp_path):
    source = ("import threading\n"
              "def used():\n    return 1\n"
              "def unused():\n    return 2\n"
              "class K:\n    @property\n    def p(self):\n        return used()\n"
              "    def q(self):\n        def inner():\n            pass\n        return inner\n"
              "def on_thread():\n    t = threading.Thread(target=unused)\n"
              "    t.start()\n    t.join()\n")
    path = str(tmp_path / "planted.py")
    namespace = {}
    exec(compile(source, path, "exec"), namespace)
    sources = {path: source}
    names = unreached(sources, lambda: namespace["K"]().p)
    assert names == ["planted.K.q", "planted.K.q.<locals>.inner", "planted.on_thread",
                     "planted.unused"]
    # a planted uncalled function is reported
    table = {"planted.K.q": "", "planted.K.q.<locals>.inner": "", "planted.on_thread": ""}
    assert table_mismatch(names, table) == (["planted.unused"], [])
    # a listed function is reported once something calls it, on a thread too
    names = unreached(sources, lambda: (namespace["K"]().q()(), namespace["on_thread"]()))
    assert names == ["planted.K.p", "planted.used"]
    assert table_mismatch(names, {"planted.K.p": "", "planted.used": "", "planted.unused": ""}) \
        == ([], ["planted.unused"])


def _reduced_runs(tmp_path):
    out = tmp_path / "out"
    for i, body in enumerate(REDUCED_RUNS):
        config = tmp_path / f"config{i}.txt"
        config.write_text(f"{body}out_dir = {out / str(i)}\n")
        assert cli.main(["run", str(config)]) == 0, body
    assert cli.main(["tails", "--u-grid", "1.7:2.0:0.1"]) == 0
    points = tmp_path / "points.csv"
    pointset_to_csv(PointSet(np.random.default_rng(1).uniform(-1.0, 1.0, size=(3, 2, 2))),
                    points)
    assert cli.main(["estimate", "--input", str(points), "--quantity", "b", "--k", "2"]) == 0


def test_every_unreached_function_has_a_reason(tmp_path):
    # lru_cache'd: a run after another one in this process would not call it
    tails._sampler_grid.cache_clear()
    names = unreached(package_sources(), lambda: _reduced_runs(tmp_path))
    assert table_mismatch(names, UNREACHED) == ([], [])
