"""Every module of ``src/fpet`` and ``tests`` uses each name it imports.

A name counts as used when the module reads it anywhere as a ``Name``
(``f(x)``, ``mod.attr``, an annotation).  ``from __future__`` imports bind no
name, and the re-exports of ``__init__.py`` are its purpose, so neither is
scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each import in ``source`` whose name is never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


SNIPPET = '''from __future__ import annotations

import cmath
import math
import os.path
import numpy as np
from fractions import Fraction, Decimal as D
from typing import Sequence


def f(xs: Sequence[int]) -> float:
    import json
    return math.fsum(xs) + np.pi + len(os.path.sep) + Fraction(1, 2)
'''


def test_finds_the_names_a_module_never_reads():
    # cmath, the alias D and json inside a function are never read; math and
    # np are read through an attribute, os through os.path, Sequence in an
    # annotation
    assert unused_imports(SNIPPET) == [(3, "cmath"), (7, "D"), (12, "json")]


def test_every_import_is_used():
    paths = [p for p in sorted((ROOT / "src" / "fpet").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in paths for line, name in unused_imports(p.read_text())]
    assert found == []
