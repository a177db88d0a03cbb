"""The code-line counter of ``ci/code_lines.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "ci" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """A class docstring."""

    def area(self, w, h):
        """A function docstring
        over two lines."""
        # a comment line
        total = (w
                 * h)
        return math.fabs(total)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of one statement, and return
    assert code_lines.code_lines(SNIPPET) == 6


def test_a_string_that_is_not_a_docstring_counts():
    source = 'x = 1\ny = """two\nlines"""\n"""a bare string after code"""\n'
    assert code_lines.code_lines(source) == 4


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    out = subprocess.run([sys.executable, str(ROOT / "ci" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == ["6", "1", "7"]
    assert out[-1].split()[1] == "total"


def test_against_a_ref_prints_both_counts_and_their_difference(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                       capture_output=True, check=True)

    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text(SNIPPET)
    (src / "gone.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (src / "a.py").write_text(SNIPPET + "y = 2\n")
    (src / "gone.py").unlink()
    (src / "new.py").write_text("z = 3\nw = 4\n")
    out = subprocess.run([sys.executable, str(ROOT / "ci" / "code_lines.py"), "--against", "HEAD",
                          "src"], cwd=tmp_path, capture_output=True, text=True, check=True)
    assert [line.split() for line in out.stdout.splitlines()] == [
        ["ref", "here", "diff"],
        ["6", "7", "+1", "src/a.py"],
        ["1", "0", "-1", "src/gone.py"],
        ["0", "2", "+2", "src/new.py"],
        ["7", "9", "+2", "total"],
    ]
