"""Line-oriented `key = value` text scanning shared by all file formats.

Every parse problem is reported as a :class:`ParseError` carrying the file
path and 1-based line number.  :func:`read_indexed` reads the table formats
(torus systems, families, observables) on top of :func:`scan_kv`.  Exact
rationals are written as ``p/q`` tokens both ways: :func:`parse_rational`
reads one as a ``Fraction`` and :func:`rational_text` writes a row of them
from integers over one denominator, the form the exact layer stores.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence


class ParseError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        where = f"{path}:{line}" if line else path
        super().__init__(f"{where}: {message}")


def scan_kv(text: str, path: str) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, key, value) triples; '#' starts a comment, blanks skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(path, lineno, "empty key")
        yield lineno, key, value


def parse_rational(token: str, path: str, lineno: int, key: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, lineno, f"malformed rational {token!r} in {key}") from None


def rational_text(row: Iterable[int], sep: str = " ", den: int = 1) -> str:
    """The ``p/q`` tokens of the rationals a/den for the ints a of ``row``,
    each in lowest terms (q = 1 for an integer), joined by ``sep``."""
    gcd = math.gcd
    return sep.join(f"{a // g}/{den // g}" for a, g in ((a, gcd(a, den)) for a in row))


def parse_int(token: str, path: str, lineno: int, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, lineno, f"{key} must be an integer, got {token!r}") from None


def parse_float(token: str, path: str, lineno: int, key: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"{key} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"{key} must be finite, got {token!r}")
    return value


def read_indexed(
    text: str,
    path: str,
    header: Sequence[str],
    entry: str,
    layout: Callable[[dict[str, int]], tuple[tuple[int, ...] | int, int]],
) -> tuple[dict[str, int], dict[tuple[int, ...], tuple[int, list[str]]]]:
    """Read positive integer header keys followed by indexed entries.

    Every key in ``header`` appears once, before the first entry.  Then
    ``layout(header_values)`` gives ``(shape, width)``: each entry holds
    ``width`` whitespace-separated tokens.  A tuple ``shape`` of bounds makes
    the entries dense, written ``entry[i][j]... = tokens`` with one 1-based
    index per bound, and every index in that box must appear.  An integer
    ``shape`` n makes them sparse, written ``entry = i_1 ... i_n : tokens``
    with integers of any sign, and any index may be absent.

    Returns the header values and ``{index: (lineno, tokens)}``, dense entries
    in index order and sparse ones in file order.  Duplicate, unknown and
    non-positive keys, malformed or out-of-range indices, wrong token counts
    and missing entries raise :class:`ParseError`.
    """
    values: dict[str, int] = {}
    entries: dict[tuple[int, ...], tuple[int, list[str]]] = {}
    shape = width = None

    def complete_header(lineno: int):
        """The layout once every header key is read; lineno 0 is the end of the text."""
        for name in header:
            if name in values:
                continue
            if lineno:
                raise ParseError(path, lineno, f"{name} must come before the first {entry}")
            raise ParseError(path, 0, f"missing key {name!r}")
        return layout(values)

    for lineno, key, value in scan_kv(text, path):
        if key in header:
            if key in values:
                raise ParseError(path, lineno, f"duplicate key {key!r}")
            values[key] = parse_int(value, path, lineno, key)
            if values[key] < 1:
                raise ParseError(path, lineno, f"{key} must be positive")
            continue
        if key != entry and not key.startswith(entry + "["):
            raise ParseError(path, lineno, f"unknown key {key!r}")
        if shape is None:
            shape, width = complete_header(lineno)
        if isinstance(shape, int):
            if key != entry or ":" not in value:
                form = f"{entry} = i ... : value ..."
                raise ParseError(path, lineno, f"{entry} needs the form {form!r}")
            index_part, _, value = value.partition(":")
            index_tokens = index_part.split()
            name = " ".join([entry, *index_tokens])
            what = f"index of {entry!r}"
            index = tuple(parse_int(tok, path, lineno, what) for tok in index_tokens)
            if len(index) != shape:
                raise ParseError(
                    path, lineno, f"{entry} index has {len(index)} entries, expected {shape}"
                )
        else:
            parts = key[len(entry) + 1 : -1].split("][")
            if not key.endswith("]") or len(parts) != len(shape):
                raise ParseError(
                    path, lineno, f"bad index {key!r}: {entry} takes {len(shape)} bracketed indices"
                )
            index = tuple(parse_int(tok, path, lineno, f"index of {key!r}") for tok in parts)
            name = key
            if not all(1 <= i <= bound for i, bound in zip(index, shape)):
                raise ParseError(path, lineno, f"unexpected entry {key}")
        if index in entries:
            raise ParseError(path, lineno, f"duplicate entry {name}")
        tokens = value.split()
        if len(tokens) != width:
            raise ParseError(path, lineno, f"{name} has {len(tokens)} entries, expected {width}")
        entries[index] = (lineno, tokens)
    if shape is None:
        shape, width = complete_header(0)
    if isinstance(shape, int):
        return values, entries
    if len(entries) != math.prod(shape):
        # lazily: the box may be far larger than the file
        box = itertools.product(*(range(1, b + 1) for b in shape))
        missing = next(index for index in box if index not in entries)
        raise ParseError(path, 0, f"missing entry {entry}" + "".join(f"[{i}]" for i in missing))
    return values, dict(sorted(entries.items()))
