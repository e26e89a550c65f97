import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(a,
      b):
    """Function docstring."""
    return (a +
            b)
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    # import (1), the two-line def (2) and the two-line return (2)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SOURCE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "5\n"
