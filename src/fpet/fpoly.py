"""Fractional polynomials over Q^D and their families.

A fractional polynomial of height d in ambient dimension D is the map

    phi(t) = sum_{j=1}^{d} t^(j/d) * v_j,        v_j in Q^D,  t >= 0.

The height is part of the object's identity: the same map rewritten at a
doubled height (zero vectors at the odd indices) is a different object, and
the goodness predicate genuinely depends on the choice.  All coefficients are
exact rationals; every predicate here is decided symbolically.

The lead of phi is the integer j of its last nonzero vector v_j (0 for the
zero map); its degree is the paper's j/d.  Within one height degrees compare
as leads do, so the precedence order and the descent moves work on leads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .ratlinalg import (
    RatVec,
    as_fraction_vector,
    is_independent,
    matvec,
)
from .textkv import parse_rational, read_indexed

_ZERO = Fraction(0)


def _cache_hash(obj, fields: tuple) -> None:
    """Store the hash of a frozen value once, at construction.

    It is the hash the dataclass would compute on every call, hash(fields);
    rehashing nested ``Fraction`` tuples on each cache or dict lookup would
    dominate the descent DAG.
    """
    object.__setattr__(obj, "_hash", hash(fields))


@dataclass(frozen=True)
class FPoly:
    """One fractional polynomial: height, ambient dimension, coefficient rows.

    ``coeffs[j-1]`` is the vector attached to the power t^(j/d).  ``lead``,
    computed once at construction and outside equality and hashing, is the
    largest j with v_j != 0, or 0 for the zero map.
    """

    height: int
    ambient_dim: int
    coeffs: tuple[RatVec, ...]

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be a positive integer")
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be a positive integer")
        if len(self.coeffs) != self.height:
            raise ValueError(
                f"need exactly {self.height} coefficient vectors, got {len(self.coeffs)}"
            )
        for v in self.coeffs:
            if len(v) != self.ambient_dim:
                raise ValueError("coefficient vector of wrong dimension")
        _cache_hash(self, (self.height, self.ambient_dim, self.coeffs))
        lead = next((j for j in range(self.height, 0, -1) if any(self.coeffs[j - 1])), 0)
        object.__setattr__(self, "lead", lead)

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, rows: Sequence[Iterable], height: int | None = None) -> "FPoly":
        """Build from coefficient rows (ints / Fractions / 'p/q' strings).

        ``height`` may exceed ``len(rows)``; missing top rows are zero.
        """
        vecs = [as_fraction_vector(r) for r in rows]
        if not vecs:
            raise ValueError("at least one coefficient row is required")
        dim = len(vecs[0])
        d = height if height is not None else len(vecs)
        if d < len(vecs):
            raise ValueError("declared height smaller than the coefficient list")
        vecs.extend([(_ZERO,) * dim] * (d - len(vecs)))
        return cls(height=d, ambient_dim=dim, coeffs=tuple(vecs))


def degree(p: FPoly) -> Fraction:
    """Largest j/d with v_j != 0; the zero map has degree 0."""
    return Fraction(p.lead, p.height)


def is_top_degree(p: FPoly) -> bool:
    return p.lead == p.height


@lru_cache(maxsize=65536)
def is_good(p: FPoly) -> bool:
    """v_1, ..., v_{d*deg} linearly independent over Q (hence all nonzero).

    The singleton case of :func:`family_is_good`, so the zero map is never
    good.  Values are immutable, so results are cached.
    """
    return family_is_good(FPolyFamily(p.height, p.ambient_dim, (p,)))


def lower_part(p: FPoly) -> FPoly:
    """Drop the top coefficient v_d; equals p when p is not top-degree."""
    zero = (_ZERO,) * p.ambient_dim
    return FPoly(p.height, p.ambient_dim, p.coeffs[:-1] + (zero,))


def subtract(p: FPoly, q: FPoly) -> FPoly:
    if p.height != q.height or p.ambient_dim != q.ambient_dim:
        raise ValueError("height/dimension mismatch in fractional-polynomial difference")
    rows = tuple(
        tuple(a - b for a, b in zip(u, w)) for u, w in zip(p.coeffs, q.coeffs)
    )
    return FPoly(p.height, p.ambient_dim, rows)


def map_coefficients(matrix: Sequence[Sequence], p: FPoly) -> FPoly:
    """Apply a rational linear map (rows of a D' x D matrix) to every v_j."""
    rows = [as_fraction_vector(r) for r in matrix]
    if any(len(r) != p.ambient_dim for r in rows):
        raise ValueError("matrix has the wrong number of columns")
    new = tuple(matvec(rows, v) for v in p.coeffs)
    return FPoly(p.height, len(rows), new)


@dataclass(frozen=True)
class FPolyFamily:
    """An ordered tuple of fractional polynomials sharing height and dimension.

    The empty family (k = 0) is allowed; it is the terminal object of
    precedence chains and keeps its height and dimension.
    """

    height: int
    ambient_dim: int
    members: tuple[FPoly, ...]

    def __post_init__(self):
        for p in self.members:
            if p.height != self.height or p.ambient_dim != self.ambient_dim:
                raise ValueError("family members must share height and ambient dimension")
        _cache_hash(self, (self.height, self.ambient_dim, self.members))

    def __hash__(self):
        return self._hash

    @classmethod
    def of(cls, members: Sequence[FPoly]) -> "FPolyFamily":
        if not members:
            raise ValueError("use the explicit constructor for an empty family")
        return cls(members[0].height, members[0].ambient_dim, tuple(members))

    @classmethod
    def make(cls, member_rows: Sequence[Sequence[Iterable]], height: int | None = None) -> "FPolyFamily":
        """Build from a list of coefficient-row lists, padded to a shared height."""
        d = height if height is not None else max(len(rows) for rows in member_rows)
        return cls.of([FPoly.make(rows, height=d) for rows in member_rows])

    @property
    def k(self) -> int:
        return len(self.members)


@lru_cache(maxsize=65536)
def family_is_good(f: FPolyFamily) -> bool:
    """Every member nonzero, and v_{i,1}, ..., v_{i,lead_i} of all members
    jointly independent over Q, decided by one :func:`is_independent` call.

    This is the same as every member good and all nonzero v_{i,j} across the
    family jointly independent: above its lead a member's vectors are zero,
    and below it a zero or repeated vector is a dependence.  Cached: this is
    the hot predicate of the precedence order."""
    if any(p.lead == 0 for p in f.members):
        return False
    return is_independent([v for p in f.members for v in p.coeffs[: p.lead]])


def lift_to_independent(
    polys: Sequence[Sequence[Iterable]], height: int | None = None
) -> tuple[FPolyFamily, tuple[RatVec, ...]]:
    """Rewrite integer/rational polynomial maps with formally independent coefficients.

    ``polys[i]`` lists the coefficient vectors u_{i,1}, ..., u_{i,d_i} of
    t -> sum_j t^j u_{i,j} (no constant term).  With d a common degree bound,
    the result is the family of height-d maps whose coefficients are the
    standard basis of Q^(k*d), paired with the D x (k*d) matrix sending basis
    vector (i, j) back to u_{i,j}.  Applying the matrix to the lifted family
    (see :func:`map_coefficients`) reproduces the inputs coefficient-wise.
    """
    if not polys:
        raise ValueError("at least one polynomial is required")
    coeff_lists = [[as_fraction_vector(u) for u in p] for p in polys]
    if any(not p for p in coeff_lists):
        raise ValueError("each polynomial needs at least one coefficient vector")
    dim = len(coeff_lists[0][0])
    for p in coeff_lists:
        for u in p:
            if len(u) != dim:
                raise ValueError("coefficient vectors of mixed dimension")
    d = height if height is not None else max(len(p) for p in coeff_lists)
    if d < max(len(p) for p in coeff_lists):
        raise ValueError("degree bound smaller than an input degree")
    k = len(coeff_lists)
    big = k * d
    zero_pad = (_ZERO,) * dim
    members = []
    for i in range(k):
        rows = []
        for j in range(d):
            e = [_ZERO] * big
            e[i * d + j] = Fraction(1)
            rows.append(tuple(e))
        members.append(FPoly(d, big, tuple(rows)))
    # matrix rows: D entries indexed by (i, j) column order
    matrix = []
    for r in range(dim):
        row = []
        for i in range(k):
            padded = coeff_lists[i] + [zero_pad] * (d - len(coeff_lists[i]))
            row.extend(padded[j][r] for j in range(d))
        matrix.append(tuple(row))
    return FPolyFamily.of(members), tuple(matrix)


def random_good_family(
    rng: random.Random, k: int, height: int, dim: int
) -> FPolyFamily:
    """A random good family: degrees drawn freely, coefficients taken from a
    random invertible rational matrix so joint independence holds by
    construction.  Requires dim >= sum of the leading indices drawn; degrees
    are resampled until they fit."""
    if k < 1 or height < 1 or dim < k:
        raise ValueError("need k >= 1, height >= 1 and dim >= k")
    while True:
        leads = [rng.randint(1, height) for _ in range(k)]
        if sum(leads) <= dim:
            break
    # random unimodular matrix via integer shears, then rational row scaling
    mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    scales = [Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2, 3])) for _ in range(dim)]
    rows = [tuple(s * x for x in row) for s, row in zip(scales, mat)]
    rng.shuffle(rows)
    members = []
    pos = 0
    for lead in leads:
        members.append(FPoly.make(rows[pos : pos + lead], height=height))
        pos += lead
    return FPolyFamily.of(members)


# ---------------------------------------------------------------------------
# text format: height / ambient_dim / coefficient table of "p/q" strings


def family_to_text(f: FPolyFamily) -> str:
    lines = [
        f"height = {f.height}",
        f"ambient_dim = {f.ambient_dim}",
        f"members = {f.k}",
    ]
    for i, p in enumerate(f.members, start=1):
        for j, v in enumerate(p.coeffs, start=1):
            entries = " ".join(f"{x.numerator}/{x.denominator}" for x in v)
            lines.append(f"v[{i}][{j}] = {entries}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str, path: str = "<family>") -> FPolyFamily:
    head, table = read_indexed(
        text, path, ("height", "ambient_dim", "members"), "v",
        lambda h: ((h["members"], h["height"]), h["ambient_dim"]),
    )
    d, dim = head["height"], head["ambient_dim"]
    rows = [tuple(parse_rational(t, path, line) for t in toks) for line, toks in table.values()]
    members = tuple(FPoly(d, dim, tuple(rows[i : i + d])) for i in range(0, len(rows), d))
    return FPolyFamily(d, dim, members)
