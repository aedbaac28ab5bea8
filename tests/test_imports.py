"""Every name a berncomp module imports is used in that module, and every
module-level constant is read somewhere in the package, so deleting code
cannot leave an orphaned import or constant behind.  The code-line counter
of code_lines.py is checked on a planted source."""

import ast
from pathlib import Path

import pytest

from code_lines import code_lines, docstring_lines

SRC = Path(__file__).resolve().parents[1] / "src" / "berncomp"

EXEMPT = {
    # perfbench/selftest.py asserts that berncomp.experiments holds this name
    ("experiments.py", "lipschitz_ball_sup"),
}


def unused_imports(source: str) -> list:
    """Names bound by the import statements of source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_a_planted_import():
    assert unused_imports("import os\nimport numpy as np\nfrom math import pi, e\nnp.sin(pi)\n") \
        == ["e", "os"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.name, name) not in EXEMPT]
    assert unused == []


def unread_constants(sources: dict) -> list:
    """(module, NAME) for each module-level UPPER_CASE assignment in sources
    (module name -> source text) that no module reads, by name or as an
    attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    constants = [(module, target.id) for module, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return sorted(c for c in constants if c[1] not in read)


def test_checker_finds_a_planted_constant():
    sources = {"a.py": "LIMIT = 3\n_CUT: float = 0.5\nUNREAD = 1\nlower = 2\n",
               "b.py": "from . import a\nx = a.LIMIT + _CUT\n"}
    assert unread_constants(sources) == [("a.py", "UNREAD")]


def test_every_module_constant_is_read():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unread_constants(sources) == []


PLANTED = '''"""Module
docstring."""

import os  # a trailing comment leaves the line a code line
# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return os.path.join(
            "a",
            "b",
        )


TEXT = """a string, not
a docstring"""
'''


def test_code_line_counter_on_a_planted_source():
    # import, class, def, the four lines of the call and the two of TEXT
    assert docstring_lines(PLANTED) == {1, 2, 9, 12, 13}
    assert code_lines(PLANTED) == 9
