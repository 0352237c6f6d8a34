"""The code-line counter in tools/code_lines.py, on a sample module.

The tool is loaded from its file, as it is run: `python tools/code_lines.py`.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _tool()

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment is on a code line


def f(x):
    """A function docstring."""
    # a comment line

    s = """a string that is not a docstring
spans two code lines"""
    return (x +
            len(s))


class C:
    """A class docstring
    over two lines."""

    y = os.sep
'''


def test_counts_code_lines_only():
    # import, def, the two lines of s, the two of return, class, y
    assert tool.code_lines(SAMPLE) == 8


def test_a_module_of_docstring_and_comments_has_no_code():
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", "a.py"], ["2", "sub/b.py"], ["10", "total"]]
