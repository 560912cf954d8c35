"""Count the physical and the code lines of each ``src/ramseybias`` module.

A code line is a line that some statement or expression of the module's
syntax tree spans, other than a docstring, and that is neither blank nor
comment-only. Lines are judged by their text, so a line of a multi-line
string that starts with ``#`` counts as a comment. Trimming comments or
docstrings changes the physical count alone; the code count moves only with
the code.

Usage, from the repository root::

    python tools/code_lines.py [module.py ...]

With no arguments it prints every module of ``src/ramseybias`` and the
total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ramseybias"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines of a module's source text."""
    tree = ast.parse(source)
    spanned, docstrings = set(), set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    text = [line.strip() for line in source.splitlines()]
    return sum(1 for n in spanned - docstrings
               if text[n - 1] and not text[n - 1].startswith("#"))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total_physical = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for path in paths:
        source = path.read_text(encoding="utf-8")
        physical, code = len(source.splitlines()), code_lines(source)
        total_physical += physical
        total_code += code
        print(f"{path.name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
