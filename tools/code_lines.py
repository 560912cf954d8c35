"""Count the physical and the code lines of each ``src/ramseybias`` module.

A code line is a line that some statement or expression of the module's
syntax tree spans, other than a docstring, and that is neither blank nor
comment-only. Lines are judged by their text, so a line of a multi-line
string that starts with ``#`` counts as a comment. Trimming comments or
docstrings changes the physical count alone; the code count moves only with
the code.

Usage, from the repository root::

    python tools/code_lines.py [module.py ...]
    python tools/code_lines.py --against REV

With no arguments it prints every module of ``src/ramseybias`` and the
total. ``--against REV`` prints each module's counts at the git revision
``REV``, in the working tree, and the change between them; a module that
one side lacks counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ramseybias"
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


def _counts(source: str | None) -> tuple[int, int]:
    """Physical and code lines of a module's source; 0 and 0 for none."""
    return (0, 0) if source is None else (len(source.splitlines()), code_lines(source))


def compare(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """Table rows of the physical and code lines of each module, by name,
    in ``before`` and ``after`` and their change."""
    rows = [f"{'':<20} {'---- physical ----':>20} {'------ code ------':>20}",
            f"{'module':<20} {'rev':>6} {'now':>6} {'change':>6}"
            f" {'rev':>6} {'now':>6} {'change':>6}"]
    total = [0, 0, 0, 0]
    for name in sorted(before.keys() | after.keys()):
        (p0, c0), (p1, c1) = _counts(before.get(name)), _counts(after.get(name))
        total = [t + n for t, n in zip(total, (p0, p1, c0, c1))]
        rows.append(_compare_row(name, p0, p1, c0, c1))
    return rows + [_compare_row("total", *total)]


def _compare_row(name: str, p0: int, p1: int, c0: int, c1: int) -> str:
    return f"{name:<20} {p0:>6} {p1:>6} {p1 - p0:>+6} {c0:>6} {c1:>6} {c1 - c0:>+6}"


def _package_at(rev: str) -> dict[str, str]:
    """Source of each ``src/ramseybias`` module at the git revision ``rev``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout

    paths = git("ls-tree", "--name-only", rev, "src/ramseybias/").split()
    return {Path(p).name: git("show", f"{rev}:{p}") for p in paths if p.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the physical and code "
                                     "lines of each module.")
    parser.add_argument("paths", nargs="*", type=Path, metavar="module.py")
    parser.add_argument("--against", metavar="REV",
                        help="compare the package with its state at git revision REV")
    args = parser.parse_args(argv)
    if args.against is not None:
        if args.paths:
            parser.error("--against compares the whole package; name no modules")
        now = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
        print("\n".join(compare(_package_at(args.against), now)))
        return 0
    paths = args.paths or sorted(PACKAGE.glob("*.py"))
    total_physical = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for path in paths:
        physical, code = _counts(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
