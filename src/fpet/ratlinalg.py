"""Exact linear algebra over Q and Z.

Rational routines work on tuples of `fractions.Fraction` and refuse floats.
Integer routines use arbitrary-precision ints; subgroups of Z^m are
canonicalized through a column-style Hermite normal form with positive
pivots, so equal subgroups compare equal literally.  That one integer
elimination is the module's only exact route: it also decides independence
over Q, since scaling rows by positive integers keeps their rank.
:func:`is_independent` clears the denominators of ``Fraction`` rows first;
goodness of fractional polynomials (:mod:`fpet.fpoly`) hands it integer rows
as they are stored, each member's vectors over its one denominator.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import lcm
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


def is_independent(rows: Sequence[Sequence[Fraction]]) -> bool:
    """True iff the rows are linearly independent over Q (so all nonzero).

    Scaling a row by a positive integer keeps the rank over Q, and integer
    rows are independent over Q exactly when the subgroup of Z^n they
    generate has rank equal to their number.  That rank is the length of
    the subgroup's :func:`column_hermite` basis, an exact integer answer
    with no threshold.  Floats raise ``ValueError``.
    """
    rows = [as_fraction_vector(r) for r in rows]
    if not rows:
        return True
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if len(rows) > ncols:
        return False
    return len(column_hermite(map(clear_denominators, rows), ncols)) == len(rows)


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
