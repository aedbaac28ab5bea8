"""Each estimator input has one route through the package.  complexity.py
seeds one generator, inside its weight source _weights, reads raw generator
words only in its sign-block helper _random_signs, and measures no distance
itself, not even through core.distances.  Every distance comes from
core.distances: the element distances (core._element_distances, which alone
raises on an overflowing distance), the k >= 2 Lipschitz oracle and the
Gaussian Gram matrix.  The one thread pool is built in
experiments._map_cells."""

import ast
from pathlib import Path

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


def _read(module: str) -> str:
    return (SRC / module).read_text()


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


def test_complexity_seeds_one_generator_in_the_weight_source():
    assert callers(_read("complexity.py"), "default_rng") == ["_weights"]


def test_raw_generator_words_are_read_only_by_the_sign_block_helper():
    assert {(path.name, qual) for path in SRC.glob("*.py")
            for qual in callers(path.read_text(), "random_raw")} == {("complexity.py", "_random_signs")}


def test_the_one_executor_is_the_lemma_checks_pool():
    built = {(path.name, qual) for path in SRC.glob("*.py")
             for name in ("ThreadPoolExecutor", "ProcessPoolExecutor")
             for qual in callers(path.read_text(), name)}
    assert built == {("experiments.py", "_map_cells")}


def test_complexity_measures_no_distance_itself():
    source = _read("complexity.py")
    assert [callers(source, name) for name in ("norm", "distances")] == [[], []]


def test_element_distances_have_one_routine():
    def called_by(name):
        return {(path.name, qual) for path in SRC.glob("*.py")
                for qual in callers(path.read_text(), name)}

    assert called_by("distances") == {("core.py", "_element_distances"),
                                      ("classes.py", "_lipschitz_sup_simplex"),
                                      ("classes.py", "gaussian_gram")}
    raisers = {(path.name, qual) for path in SRC.glob("*.py")
               for qual in overflow_raisers(path.read_text())}
    assert raisers == {("core.py", "norm_pq"), ("core.py", "_element_distances")}
