"""Every name a berncomp module imports is used in that module, so deleting
code cannot leave an orphaned import behind."""

import ast
from pathlib import Path

import pytest

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
