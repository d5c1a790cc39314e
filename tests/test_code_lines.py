import runpy
from pathlib import Path

CODE_LINES = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"))

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


def f(x):
    """A one-line docstring."""
    # a comment line
    text = """not a docstring:
    an assigned string"""

    return (x,
            text)


class C:
    """A class docstring."""
    value = 1
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # counted: import, def, both lines of the assigned string, both lines of
    # the return, class, value
    assert CODE_LINES["code_lines"](SOURCE) == 8
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert CODE_LINES["main"]([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  a.py\n     1  b.py\n     9  total\n"
