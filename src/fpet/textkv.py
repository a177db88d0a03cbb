"""Line-oriented `key = value` text scanning shared by all file formats.

Every parse problem is reported as a :class:`ParseError` carrying the file
path and 1-based line number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator


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


def parse_rational(token: str, path: str, lineno: int) -> Fraction:
    try:
        f = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, lineno, f"malformed rational {token!r}") from None
    return f


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
