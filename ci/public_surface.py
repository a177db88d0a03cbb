"""List the public surface of ``src/fpet`` that no code in ``src/fpet`` uses.

A public name is a module-level function or class, or a method of a
module-level class, whose name does not start with an underscore.  It is
used when its name appears anywhere in the package outside its own
definition as a ``Name`` (``f(x)``), as an ``Attribute`` (``obj.f``) or in
an import (``from .mod import f``).  The re-exports of ``__init__.py`` and
the text of docstrings and comments are not uses.  Run from the root of a
checkout:

    python3 ci/public_surface.py [directory]

It prints one line per unused name, ``path:line: name`` with methods as
``Class.method``, and the count; it checks nothing.

The scan matches names, not bindings: a method that shares its name with a
variable, parameter or attribute used elsewhere counts as used, so the list
can miss a dead name but never names one that the package reaches by its
name.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path


def _uses(tree: ast.AST) -> Counter:
    """How often each name occurs as a Name, an Attribute or an import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def _definitions(tree: ast.Module):
    """(name, shown name, node) of each public definition of one module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield item.name, f"{node.name}.{item.name}", item


def unused_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, shown name) of each public definition among ``sources``
    (module name -> source text) that no other code uses, in module and
    line order.  A module named ``__init__`` contributes neither
    definitions nor uses."""
    trees = {name: ast.parse(src) for name, src in sources.items() if name != "__init__"}
    total = Counter()
    for tree in trees.values():
        total += _uses(tree)
    unused = []
    for module, tree in sorted(trees.items()):
        for name, shown, node in _definitions(tree):
            if total[name] - _uses(node)[name] == 0:
                unused.append((module, node.lineno, shown))
    return unused


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/fpet")
    paths = {p.stem: p for p in sorted(root.glob("*.py"))}
    unused = unused_names({stem: p.read_text() for stem, p in paths.items()})
    for module, line, shown in unused:
        print(f"{paths[module]}:{line}: {shown}")
    print(f"{len(unused)} public names with no use in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
