"""Reduced row-echelon form over Q, kept as the tests' reference for the
library's one exact route (the Hermite form behind goodness and the
characteristic factor): a textbook elimination on ``Fraction`` rows that
shares no code with it."""

from fractions import Fraction
from typing import Sequence

from fpet.ratlinalg import RatVec, as_fraction_vector


def rref(rows: Sequence[Sequence[Fraction]]) -> list[RatVec]:
    """Reduced row-echelon form over Q; returns the nonzero rows.

    Equal row spans produce literally equal outputs, so the result doubles as
    a canonical basis of the span.
    """
    work = [list(as_fraction_vector(r)) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    piv_r = 0
    for piv_c in range(ncols):
        pivot = next((i for i in range(piv_r, len(work)) if work[i][piv_c] != 0), None)
        if pivot is None:
            continue
        work[piv_r], work[pivot] = work[pivot], work[piv_r]
        inv = 1 / work[piv_r][piv_c]
        work[piv_r] = [x * inv for x in work[piv_r]]
        for i in range(len(work)):
            if i != piv_r and work[i][piv_c] != 0:
                f = work[i][piv_c]
                work[i] = [a - f * b for a, b in zip(work[i], work[piv_r])]
        piv_r += 1
        if piv_r == len(work):
            break
    return [tuple(r) for r in work[:piv_r] if any(x != 0 for x in r)]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows))
