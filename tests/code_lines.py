"""Code lines of src/berncomp, the count ROADMAP.md and CHANGES.md quote.

A line counts when a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER lies on it (a multi-line string lies on every line it
spans), and it is not inside a module, class or function docstring.

    python tests/code_lines.py

prints the count of each module and the total.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "berncomp"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The lines of the module, class and function docstrings of source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")


if __name__ == "__main__":
    main()
