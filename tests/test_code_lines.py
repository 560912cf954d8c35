"""The physical and code line counter of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", PATH)
tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tool)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


def area(r):
    """Docstring."""
    # a comment in a body
    return (math.pi

            # a comment inside an expression
            * r ** 2)


class Shape:
    """Docstring
    of a class."""

    sides = """not a docstring,
# read as a comment
over three lines"""
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, def, the two lines of the return, class, and the first and
    # last line of the string
    assert tool.code_lines(SNIPPET) == 7
    assert tool.code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    path = tmp_path / "shapes.py"
    path.write_text(SNIPPET)
    assert tool.main([str(path), str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "physical", "code"], ["shapes.py", "24", "7"],
                    ["shapes.py", "24", "7"], ["total", "48", "14"]]


def test_compare_counts_a_module_missing_on_one_side_as_0():
    before = {"shapes.py": SNIPPET, "gone.py": "x = 1\n"}
    after = {"shapes.py": SNIPPET + "y = 2\n", "new.py": "# comment\nz = 3\n"}
    rows = [line.split() for line in tool.compare(before, after)[1:]]
    assert rows == [
        ["module", "rev", "now", "change", "rev", "now", "change"],
        ["gone.py", "1", "0", "-1", "1", "0", "-1"],
        ["new.py", "0", "2", "+2", "0", "1", "+1"],
        ["shapes.py", "24", "25", "+1", "7", "8", "+1"],
        ["total", "25", "27", "+2", "8", "9", "+1"]]
