"""The unused-surface scan of ``ci/public_surface.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("public_surface", ROOT / "ci" / "public_surface.py")
public_surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(public_surface)

SHAPES = '''"""Shapes; see area and unused_helper."""


def area(w, h):
    return w * h


def unused_helper():
    """Calls area, but only in this docstring: mentioned_only()."""
    return 0


def mentioned_only():
    return 1


def imported_only():
    return 2


def recursive(n):
    return recursive(n - 1) if n else 0


class Box:
    def volume(self):
        return area(1, 2)

    def never_called(self):
        return self.volume()

    def _private(self):
        return 3
'''

USER = '''from .shapes import imported_only


def run(box):
    return box.volume()
'''

INIT = '''from .shapes import unused_helper, never_called
from .user import run
'''


def test_lists_the_public_names_nothing_uses():
    found = public_surface.unused_names({"shapes": SHAPES, "user": USER, "__init__": INIT})
    # area is called, Box.volume is used only as an attribute, imported_only
    # only through an import; the re-exports of __init__ and the docstrings
    # do not count, nor does recursive's call of itself
    assert [(m, shown) for m, _, shown in found] == [
        ("shapes", "unused_helper"),
        ("shapes", "mentioned_only"),
        ("shapes", "recursive"),
        ("shapes", "Box"),
        ("shapes", "Box.never_called"),
        ("user", "run"),
    ]
    assert [line for _, line, _ in found][:2] == [8, 13]


def test_prints_each_name_and_the_count(tmp_path):
    for name, text in (("shapes", SHAPES), ("user", USER), ("__init__", INIT)):
        (tmp_path / f"{name}.py").write_text(text)
    out = subprocess.run([sys.executable, str(ROOT / "ci" / "public_surface.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == f"{tmp_path / 'shapes.py'}:8: unused_helper"
    assert out[-1] == f"6 public names with no use in {tmp_path}"
    assert len(out) == 7
