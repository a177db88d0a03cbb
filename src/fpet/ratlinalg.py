"""Exact linear algebra over Q and Z.

Exact rationals enter the library here.  :func:`as_fraction_vector` coerces a
row of ints, ``Fraction`` values or ``p/q`` strings and refuses floats, and
:func:`integer_rows` turns rational rows into integer rows over one positive
denominator in lowest terms, the one number form of the exact layer (the
coefficients of :class:`~fpet.fpoly.FPoly`, the matrix of
:class:`~fpet.torus.TorusSystem`).  Integer routines use arbitrary-precision
ints; subgroups of Z^m are canonicalized through a column-style Hermite
normal form with positive pivots, so equal subgroups compare equal
literally.  Independence over Q (goodness of fractional polynomials) needs
only a rank, which :func:`rows_independent` reads from a fraction-free
elimination; scaling rows by positive integers keeps their rank, so integer
rows go to it as they are stored.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

RatVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def as_fraction_vector(entries: Iterable) -> RatVec:
    """Coerce a sequence of ints / Fractions / 'p/q' strings to exact rationals.

    Floats are rejected, numpy's float32, float16 and longdouble too (every
    real number type that is not rational): every caller of this module is an
    exact computation and a silently converted float would defeat the point.
    """
    out = []
    for x in entries:
        if type(x) is not Fraction:
            if not isinstance(x, numbers.Rational) and isinstance(x, numbers.Real):
                raise ValueError(f"refusing to coerce float {x!r} to an exact rational")
            x = Fraction(x)
        out.append(x)
    return tuple(out)


def integer_rows(rows: Iterable[Iterable]) -> tuple[int, tuple[IntVec, ...]]:
    """Rational rows (ints / Fractions / 'p/q' strings; floats raise, see
    :func:`as_fraction_vector`) as ``(den, int_rows)`` with
    rows[i][j] == int_rows[i][j] / den in lowest terms: den is the lcm of the
    entries' reduced denominators (1 for no rows), so den and the entries
    share no factor."""
    vecs = [as_fraction_vector(r) for r in rows]
    den = lcm(*(x.denominator for v in vecs for x in v))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in v) for v in vecs)


def _lowest(den: int, rows: tuple[IntVec, ...]) -> tuple[int, tuple[IntVec, ...]]:
    """``(den, rows)`` divided by the gcd of den and every entry."""
    g = den
    for r in rows:
        if g == 1:
            break
        g = gcd(g, *r)
    if g == 1:
        return den, rows
    return den // g, tuple(tuple(a // g for a in r) for r in rows)


def _check_rows(den: int, rows: tuple[IntVec, ...], make: str) -> None:
    """Raise ``ValueError`` unless ``rows`` is a tuple of tuples of ints over
    the positive int ``den`` in lowest terms; ``make`` names the builder from
    rationals."""
    if type(rows) is not tuple or any(
        type(r) is not tuple or any(type(a) is not int for a in r) for r in rows
    ):
        raise ValueError(f"rows are tuples of ints; build rationals with {make}")
    if type(den) is not int or den < 1:
        raise ValueError("the denominator must be a positive integer")
    if _lowest(den, rows)[0] != den:
        raise ValueError("rows and denominator share a factor")


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
    so subgroup equality is literal tuple equality of bases, and any sequence
    of unimodular column operations that reaches it gives the same result.
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
            if b % a == 0:
                # one column operation clears b and leaves the pivot column
                c = b // a
                cols[j] = [q - c * p for p, q in zip(cols[npiv], cols[j])]
            else:
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


def rows_independent(rows: Sequence[Sequence[int]], m: int) -> bool:
    """Are the integer rows, each of length m, linearly independent over Q?

    Fraction-free elimination (after Bareiss, Math. Comp. 22, 1968): each
    pivot column updates only the rows with a nonzero entry there, each
    updated row is divided by its content, and the search stops once every
    row has a pivot or a row is zero."""
    work = list(rows)
    if any(len(r) != m for r in work):
        raise ValueError(f"row of wrong length in Z^{m}")
    n = len(work)
    npiv = 0
    for c in range(m):
        for j in range(npiv, n):
            if work[j][c]:
                break
        else:
            continue
        piv = work[j]
        work[j] = work[npiv]
        work[npiv] = piv
        a = piv[c]
        # after the swap rows npiv + 1, ..., j are zero in column c
        for i in range(j + 1, n):
            b = work[i][c]
            if b:
                row = [a * x - b * y for x, y in zip(work[i], piv)]
                g = gcd(*row)
                if not g:
                    return False
                work[i] = [x // g for x in row] if g > 1 else row
        npiv += 1
        if npiv == n:
            return True
    return npiv == n


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
