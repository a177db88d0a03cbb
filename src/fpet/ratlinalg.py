"""Exact linear algebra over Q and Z.

Rational routines work on tuples of `fractions.Fraction` and decide rank and
independence symbolically, never through floating-point thresholds.  Integer
routines use arbitrary-precision ints; subgroups of Z^m are canonicalized
through a column-style Hermite normal form with positive pivots, so equal
subgroups compare equal literally.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

RatVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def as_fraction_vector(entries: Iterable) -> RatVec:
    """Coerce a sequence of ints / Fractions / 'p/q' strings to exact rationals.

    Floats are rejected: every caller of this module is an exact computation
    and a silently converted float would defeat the point.
    """
    out = []
    for x in entries:
        if isinstance(x, float):
            raise ValueError(f"refusing to coerce float {x!r} to an exact rational")
        out.append(Fraction(x))
    return tuple(out)


def rref(rows: Sequence[Sequence[Fraction]]) -> list[RatVec]:
    """Reduced row-echelon form over Q; returns the nonzero rows.

    Equal row spans produce literally equal outputs, so the result doubles as
    a canonical basis of the span.
    """
    work = [[Fraction(x) for x in r] for r in rows]
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


_P = 2**61 - 1  # a Mersenne prime: residues stay machine-sized


def _full_rank_mod_p(rows: Sequence[IntVec]) -> bool:
    """Gaussian elimination over GF(_P); True iff the rows are independent there."""
    work = [[x % _P for x in r] for r in rows]
    ncols = len(work[0])
    col = 0
    for i in range(len(work)):
        while True:
            if col == ncols:
                return False
            pivot = next((j for j in range(i, len(work)) if work[j][col]), None)
            if pivot is not None:
                break
            col += 1
        work[i], work[pivot] = work[pivot], work[i]
        inv = pow(work[i][col], -1, _P)
        row = work[i]
        for j in range(i + 1, len(work)):
            f = work[j][col] * inv % _P
            if f:
                work[j] = [(a - f * b) % _P for a, b in zip(work[j], row)]
        col += 1
    return True


def is_independent(rows: Sequence[Sequence[Fraction]]) -> bool:
    """True iff the rows are linearly independent over Q (so all nonzero).

    One-sided modular certificate: each row is scaled to an integer row
    (which keeps the rank over Q) and eliminated mod the prime p = 2^61 - 1.
    A nonzero maximal minor mod p is nonzero over Z, so full rank mod p
    proves independence over Q.  A deficient result proves nothing (p may
    divide every maximal minor), so it falls back to the exact
    :func:`rank`; the answer is exact either way, with no threshold.
    """
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in r] for r in rows]
    if not rows:
        return True
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if len(rows) > ncols:
        return False
    if _full_rank_mod_p([clear_denominators(r) for r in rows]):
        return True
    return rank(rows) == len(rows)


def matvec(matrix: Sequence[RatVec], vec: Sequence[Fraction]) -> RatVec:
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in matrix)


def clear_denominators(row: Sequence[Fraction]) -> IntVec:
    """Scale a rational row by a positive integer to make it integral.

    Row scaling preserves kernels, which is the only use made of this here.
    """
    denom = lcm(*(f.denominator for f in row)) if row else 1
    return tuple(f.numerator * (denom // f.denominator) for f in row)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def column_hermite(generators: Iterable[Sequence[int]], m: int) -> tuple[IntVec, ...]:
    """Canonical basis of the subgroup of Z^m generated by `generators`.

    Column-style Hermite normal form: basis vectors have strictly increasing
    pivot rows, positive pivots, and in each pivot row the entries of the
    earlier basis vectors are reduced into [0, pivot).  The form is unique,
    so subgroup equality is literal tuple equality of bases.
    """
    cols = [list(g) for g in generators if any(g)]
    for c in cols:
        if len(c) != m:
            raise ValueError(f"generator of length {len(c)} in Z^{m}")
    npiv = 0
    for i in range(m):
        # combine every column with a nonzero entry in row i into one pivot
        j = npiv
        while j < len(cols):
            if cols[j][i] == 0:
                j += 1
                continue
            if cols[npiv][i] == 0:
                cols[npiv], cols[j] = cols[j], cols[npiv]
                continue
            if j == npiv:
                j += 1
                continue
            a, b = cols[npiv][i], cols[j][i]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            new_p = [x * p + y * q for p, q in zip(cols[npiv], cols[j])]
            new_j = [-bg * p + ag * q for p, q in zip(cols[npiv], cols[j])]
            cols[npiv], cols[j] = new_p, new_j
            if not any(cols[j]):
                cols.pop(j)
            else:
                j += 1
        if npiv < len(cols) and cols[npiv][i] != 0:
            if cols[npiv][i] < 0:
                cols[npiv] = [-x for x in cols[npiv]]
            pivot = cols[npiv][i]
            for j in range(npiv):
                q = cols[j][i] // pivot
                if q:
                    cols[j] = [p - q * r for p, r in zip(cols[j], cols[npiv])]
            npiv += 1
            if npiv == len(cols):
                break
    return tuple(tuple(c) for c in cols[:npiv])


def hermite_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the subgroup with the given HNF basis."""
    v = list(vec)
    for col in basis:
        i = next(r for r, x in enumerate(col) if x != 0)
        q, r = divmod(v[i], col[i])
        if r != 0:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, col)]
    return not any(v)


def int_kernel(rows: Sequence[Sequence[int]], n: int) -> tuple[IntVec, ...]:
    """Canonical basis of {x in Z^n : R x = 0} for an integer matrix R.

    The columns (R e_j ; e_j) generate {(R x ; x) : x in Z^n}.  In their
    Hermite form the basis vectors with zero R-part, whose pivots lie below R,
    generate exactly the vectors (0 ; x) with R x = 0; their lower parts,
    put in Hermite form, are the kernel's canonical basis.
    """
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != n:
            raise ValueError("constraint row of wrong length")
    k = len(rows)
    augmented = [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    basis = column_hermite(augmented, k + n)
    return column_hermite((b[k:] for b in basis if not any(b[:k])), n)
