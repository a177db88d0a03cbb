"""Count the code lines of each module of ``src/fpet``.

A code line is a physical line that holds a token of a statement: blank
lines, comment lines and the lines of docstrings (the string that opens a
module, class or function) are not counted, and a statement written over
several lines counts each of them.  Run from the root of a checkout:

    python3 ci/code_lines.py [directory ...]
    python3 ci/code_lines.py --against <git-ref> [directory ...]

It prints one line per module and the total; it checks nothing.
``--against <git-ref>`` also counts the same directories in a ``git
archive`` of the ref, extracted into a temporary directory, and prints per
module and for the total the ref's count, this checkout's and their
difference (a module that only one tree has counts 0 in the other).
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def tree_counts(root: Path, dirs: list[Path]) -> dict[str, int]:
    """The code lines of each module of the directories ``dirs`` of the tree
    ``root``, keyed by the module's path under ``root``."""
    return {str(d / path.name): code_lines(path.read_text())
            for d in dirs for path in sorted((root / d).glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", type=Path, metavar="directory")
    parser.add_argument("--against", metavar="GIT_REF",
                        help="also count a git archive of this ref, and print the difference")
    args = parser.parse_args(argv)
    dirs = args.dirs or [Path("src/fpet")]
    here = tree_counts(Path(), dirs)
    if args.against is None:
        for name, n in here.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(here.values()):6d}  total")
        return 0
    with tempfile.TemporaryDirectory() as name:
        tar = subprocess.run(["git", "archive", args.against], capture_output=True,
                             check=True).stdout
        subprocess.run(["tar", "-x", "-C", name], input=tar, check=True)
        before = tree_counts(Path(name), dirs)
    print(f"{'ref':>6} {'here':>6} {'diff':>6}")
    rows = [(key, before.get(key, 0), here.get(key, 0)) for key in dict.fromkeys([*before, *here])]
    rows.append(("total", sum(before.values()), sum(here.values())))
    for key, old, new in rows:
        print(f"{old:6d} {new:6d} {new - old:+6d}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
