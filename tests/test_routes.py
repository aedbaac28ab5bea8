"""Each estimator input has one route through the package.  complexity.py
seeds one generator, inside its weight source _weights, and reads raw
generator words only in its sign-block helper _random_signs.  b, g and the
composite estimate each reduce their weights through the one estimate loop
_estimate, which with increment_ratio is all that calls _weights.  Each
estimator calls _weights once and reads only its own words: every element
pair of an increment ratio reads one sign draw.  complexity.py measures no
distance itself, not even through core.distances.  Every distance comes from
core.distances: the element distances (core._element_distances, which alone
raises on an overflowing distance), the k >= 2 Lipschitz oracle, the
Gaussian Gram matrix and the anchor-distance table.  Every oracle in
classes.py validates its coefficient rows in its sup_batch, through
_as_coeff_rows, once per stack: no stack is mapped back through a
sup_batch.  Each sup_batch takes one shape, an (E, n, k) stack and 2-d
rows: none reads .ndim or tests for None, and _as_coeff_rows promotes no
1-d row.  lipschitz_ball_sup and the anchor class's shifts pass their one
row through the same helper.  Every matrix product on weight or
coefficient rows in complexity.py and classes.py is taken in a callback of
core._in_row_chunks, whose row chunks and the weight blocks share one
lone-row rule, core._row_blocks.  The one thread pool is built in
experiments._map_cells.  Exact covering and entropy numbers come from one
search, chaining._min_cover_radius, and the tail sampler reads q through
one searchsorted, in tails.sample_from_capped_tail.  tails-demo draws no
random numbers: it seeds no generator and calls no sampler.  Every
experiment check is an ExperimentOutcome.gate call, and only the gate
records a failure.  Files
are opened in four places only: every CSV file the package loads or saves,
point sets and experiment results alike, goes through
core.pointset_from_csv, the one CSV reader, or core._write_csv, config
files through config.parse_config and figures
through svgplot.write_plot.  Which functions the runs reach is checked in
test_reach.py."""

import ast
from pathlib import Path

import numpy as np

from berncomp import EstimatorConfig, GaussianRkhsBall, PointSet, complexity

SRC = Path(__file__).resolve().parents[1] / "src" / "berncomp"


def _functions(tree):
    """(qualified name, node) for each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


def callers(source: str, name: str) -> list:
    """The functions of source that call `name`, as a plain function or as
    an attribute, once per call; "<module>" for calls outside functions."""
    tree = ast.parse(source)

    def is_call(node):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    found = [qual for qual, fn in _functions(tree) for node in ast.walk(fn) if is_call(node)]
    total = sum(is_call(node) for node in ast.walk(tree))
    return sorted(found + ["<module>"] * (total - len(found)))


def overflow_raisers(source: str) -> list:
    """The functions of source with a raise statement whose message text
    mentions an overflow."""
    return sorted(qual for qual, fn in _functions(ast.parse(source))
                  if any(isinstance(node, ast.Raise) and "overflow" in ast.unparse(node)
                         for node in ast.walk(fn)))


def passed_to(source: str, name: str) -> list:
    """The names and attributes in the arguments of every call of `name`
    in source, sorted."""
    return sorted(node.id if isinstance(node, ast.Name) else node.attr
                  for call in ast.walk(ast.parse(source))
                  if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                  for arg in call.args + [kw.value for kw in call.keywords]
                  for node in ast.walk(arg) if isinstance(node, (ast.Name, ast.Attribute)))


def shape_branches(source: str) -> list:
    """The sup_batch methods of source that read an .ndim or name None."""
    return sorted(qual for qual, fn in _functions(ast.parse(source)) if qual.endswith(".sup_batch")
                  and any(getattr(node, "attr", None) == "ndim"
                          or (isinstance(node, ast.Constant) and node.value is None)
                          for node in ast.walk(fn)))


def loose_products(source: str) -> list:
    """The functions of source ("<module>" outside any) with a matrix
    product `@` that is not inside a lambda passed to core._in_row_chunks."""
    tree = ast.parse(source)
    inside = {id(node) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and "_in_row_chunks" in (
                  getattr(call.func, "id", None), getattr(call.func, "attr", None))
              for arg in call.args if isinstance(arg, ast.Lambda) for node in ast.walk(arg.body)}

    def loose(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and id(node) not in inside)

    found = [qual for qual, fn in _functions(tree) for node in ast.walk(fn) if loose(node)]
    total = sum(loose(node) for node in ast.walk(tree))
    return sorted(found + ["<module>"] * (total - len(found)))


def _read(module: str) -> str:
    return (SRC / module).read_text()


def called_by(name: str) -> set:
    """(module file, function) for every call of `name` in src/."""
    return {(path.name, qual) for path in SRC.glob("*.py")
            for qual in callers(path.read_text(), name)}


def test_checkers_find_planted_cases():
    source = ("import numpy as np\n"
              "def a():\n    np.random.default_rng(1)\n"
              "def b():\n    default_rng(2)\n    return np.random.default_rng(3)\n"
              "class C:\n    def m(self):\n        raise ValueError(f'{self} overflows')\n"
              "x = np.random.default_rng(5)\n"
              "def d():\n    from concurrent.futures import ThreadPoolExecutor\n"
              "    with ThreadPoolExecutor(2) as pool:\n        return pool\n"
              "y = futures.ThreadPoolExecutor()\n")
    assert callers(source, "default_rng") == ["<module>", "a", "b", "b"]
    assert callers(source, "ThreadPoolExecutor") == ["<module>", "d"]
    assert callers(source, "norm") == []
    assert overflow_raisers(source) == ["C.m"]
    assert passed_to("def f(self, p, C):\n    return g(self.h, p, C=C)\n", "g") == [
        "C", "h", "p", "self"]
    assert loose_products("def f(C, G):\n    return _in_row_chunks(lambda r: r @ G, C)\n"
                          "def g(C, G):\n    return C @ G\n"
                          "def h(C, G):\n    return core._in_row_chunks(lambda r: r @ G @ G, C @ G)\n"
                          "x = a @ b\n") == ["<module>", "g", "h"]
    assert shape_branches("class A:\n    def sup_batch(self, p, C):\n        return p.ndim\n"
                          "class B:\n    def sup_batch(self, p, C):\n        return p is None\n"
                          "class D:\n    def sup_batch(self, p, C):\n        return p\n"
                          "def sup_batch(p):\n    return p.ndim\n") == [
        "A.sup_batch", "B.sup_batch"]


def test_complexity_seeds_one_generator_in_the_weight_source():
    assert callers(_read("complexity.py"), "default_rng") == ["_weights"]


def test_every_estimator_draws_its_weights_through_one_routine():
    assert callers(_read("complexity.py"), "_weights") == ["_estimate", "increment_ratio"]


def test_every_estimate_reduces_its_weights_in_one_loop():
    assert callers(_read("complexity.py"), "_estimate") == [
        "_linear_sup_estimate", "composite_bernoulli_complexity"]
    assert called_by("_estimate") == {("complexity.py", "_linear_sup_estimate"),
                                      ("complexity.py", "composite_bernoulli_complexity")}


def test_raw_generator_words_are_read_only_by_the_sign_block_helper():
    assert {(path.name, qual) for path in SRC.glob("*.py")
            for qual in callers(path.read_text(), "random_raw")} == {("complexity.py", "_random_signs")}


def test_each_estimator_reads_its_own_words_only(monkeypatch):
    words = []

    class Counting:
        def __init__(self, bitgen):
            self.bitgen = bitgen

        def random_raw(self, size):
            words.append(size)
            return self.bitgen.random_raw(size)

    draw = complexity._random_signs
    monkeypatch.setattr(complexity, "_random_signs",
                        lambda bitgen, shape, out=None: draw(Counting(bitgen), shape, out))
    ball = GaussianRkhsBall(sigma=1.0, rho=1.0)
    for mc, k, n in [(301, 1, 5), (301, 2, 5), (4097, 3, 3), (9000, 2, 7)]:
        T = PointSet(np.random.default_rng(k).uniform(-1.0, 1.0, size=(3, k, n)))
        cfg = EstimatorConfig(mode="monte-carlo", mc_samples=mc, seed=1)
        for estimate, width in [
                (lambda: complexity.bernoulli_complexity(T, cfg), k * n),
                (lambda: complexity.composite_bernoulli_complexity(ball, T, cfg), n),
                (lambda: complexity.increment_ratio(ball, T, cfg), n),  # three pairs, one draw
                (lambda: complexity.gaussian_complexity(T, cfg), 0)]:  # reads no sign words
            words.clear()
            estimate()
            assert sum(words) == (mc * width + 1) // 2


def test_files_are_opened_by_one_reader_and_one_writer_per_format():
    assert called_by("open") == {("core.py", "pointset_from_csv"), ("core.py", "_write_csv"),
                                 ("config.py", "parse_config"), ("svgplot.py", "write_plot")}
    assert [called_by(name) for name in ("read_text", "write_text", "read_bytes",
                                         "write_bytes")] == [set()] * 4


def test_the_one_executor_is_the_lemma_checks_pool():
    built = {(path.name, qual) for path in SRC.glob("*.py")
             for name in ("ThreadPoolExecutor", "ProcessPoolExecutor")
             for qual in callers(path.read_text(), name)}
    assert built == {("experiments.py", "_map_cells")}


def test_complexity_measures_no_distance_itself():
    source = _read("complexity.py")
    assert [callers(source, name) for name in ("norm", "distances")] == [[], []]


def test_element_distances_have_one_routine():
    assert called_by("distances") == {("core.py", "_element_distances"),
                                      ("classes.py", "_lipschitz_sup_simplex"),
                                      ("classes.py", "gaussian_gram"),
                                      ("classes.py", "AnchorDistanceClass.values")}
    raisers = {(path.name, qual) for path in SRC.glob("*.py")
               for qual in overflow_raisers(path.read_text())}
    assert raisers == {("core.py", "norm_pq"), ("core.py", "_element_distances")}


def test_every_oracle_validates_its_rows_through_one_helper():
    # the one-row lipschitz_ball_sup and the anchor class's shifts too
    source = _read("classes.py")
    sup_batches = [qual for qual, _ in _functions(ast.parse(source)) if qual.endswith(".sup_batch")]
    assert sup_batches and callers(source, "_as_coeff_rows") == sorted(
        sup_batches + ["lipschitz_ball_sup", "AnchorDistanceClass.__post_init__"])


def test_every_sup_batch_takes_one_shape():
    source = _read("classes.py")
    assert len([qual for qual, _ in _functions(ast.parse(source))
                if qual.endswith(".sup_batch")]) == 4
    assert shape_branches(source) == []
    assert "_as_coeff_rows" not in callers(source, "atleast_2d")


def test_a_stack_is_not_mapped_back_through_sup_batch():
    # _each_set takes a checked stack; a public sup_batch would check C again per set
    passed = passed_to(_read("classes.py"), "_each_set")
    assert "_sup_rows" in passed and "sup_batch" not in passed


def test_every_product_on_rows_is_taken_in_row_chunks():
    # b(T)'s W @ vecs.T and the three classes that multiply by their rows
    assert [loose_products(_read(module)) for module in ("complexity.py", "classes.py")] == [[], []]
    assert called_by("_in_row_chunks") == {
        ("complexity.py", "_linear_sup_estimate"), ("classes.py", "FiniteFunctionClass.sup_batch"),
        ("classes.py", "GaussianRkhsBall._sup_rows"), ("classes.py", "AnchorDistanceClass._sup_rows")}


def test_weight_blocks_and_product_chunks_share_one_lone_row_rule():
    assert called_by("_row_blocks") == {("complexity.py", "_blocks"), ("core.py", "_in_row_chunks")}


def test_exact_covering_and_entropy_numbers_share_one_search():
    source = _read("chaining.py")
    assert callers(source, "_min_cover_radius") == ["covering_number", "entropy_number"]
    assert callers(source, "combinations") == []


def test_the_tail_sampler_has_one_searchsorted():
    assert called_by("searchsorted") == {("tails.py", "sample_from_capped_tail")}


def test_tails_demo_draws_no_random_numbers():
    source = _read("experiments.py")
    for name in ("cell_seed", "default_rng", "sample_from_capped_tail"):
        assert "_run_tails_demo" not in callers(source, name), name


def failure_writers(source: str) -> list:
    """The functions of source that grow a `failures` list: a method call
    on it (append, extend, ...) or an augmented assignment to it."""
    def grows(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
        elif isinstance(node, ast.AugAssign):
            target = node.target
        else:
            return False
        return "failures" in (getattr(target, "attr", None), getattr(target, "id", None))

    return sorted(qual for qual, fn in _functions(ast.parse(source))
                  for node in ast.walk(fn) if grows(node))


def test_failure_writers_find_planted_cases():
    source = ("class O:\n    def g(self):\n        self.failures.append(1)\n"
              "def f(out, failures):\n    out.failures.extend([2])\n    failures += [3]\n"
              "def h(out):\n    return out.failures[0], out.rows.append(4)\n")
    assert failure_writers(source) == ["O.g", "f", "f"]


def test_every_experiment_check_is_a_gate():
    source = _read("experiments.py")
    assert failure_writers(source) == ["ExperimentOutcome.gate"]
    assert "ExperimentOutcome.check" not in dict(_functions(ast.parse(source)))
    assert callers(source, "check") == []
    assert set(callers(source, "gate")) == {
        "_run_lemma_checks", "_run_scaling", "_run_composition", "_run_rkhs",
        "_run_tails_demo", "_run_chaining_demo"}
