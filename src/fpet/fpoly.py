"""Fractional polynomials over Q^D and their families.

A fractional polynomial of height d in ambient dimension D is the map

    phi(t) = sum_{j=1}^{d} t^(j/d) * v_j,        v_j in Q^D,  t >= 0.

The height is part of the object's identity: the same map rewritten at a
doubled height (zero vectors at the odd indices) is a different object, and
the goodness predicate genuinely depends on the choice.  All coefficients are
exact rationals; every predicate here is decided symbolically.

The coefficients are stored as integer rows over one positive denominator,
v_j = rows[j-1] / den, in lowest terms: den and the entries have no common
factor, so the zero map has den = 1.  That form is unique, so two maps are
equal exactly when their integer rows and denominators are, and the descent
moves (differences, lower parts, height drops) run in integer arithmetic.
Rationals enter through :meth:`FPoly.make` (see
:func:`~fpet.ratlinalg.integer_rows`); the coefficients are written back as
text from the integers.

The lead of phi is the integer j of its last nonzero vector v_j (0 for the
zero map); its degree is the paper's j/d.  Within one height degrees compare
as leads do, so the precedence order and the descent moves work on leads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .ratlinalg import (IntVec, RatVec, _check_rows, _lowest, as_fraction_vector, integer_rows,
                        rows_independent)
from .textkv import parse_rational, rational_text, read_indexed


def _setup(p, height: int, dim: int, den: int, rows: tuple[IntVec, ...]) -> "FPoly":
    """Set the fields of a new frozen ``FPoly``, its lead and its hash."""
    lead = height
    while lead and not any(rows[lead - 1]):
        lead -= 1
    # the hash the dataclass would compute on every call, stored once: every
    # cache and dict lookup of the descent DAG hashes families
    key = (height, dim, den, rows)
    vars(p).update(height=height, ambient_dim=dim, den=den, rows=rows, lead=lead, _hash=hash(key))
    return p


def _fpoly(height: int, dim: int, den: int, rows: tuple[IntVec, ...]) -> "FPoly":
    """An ``FPoly`` from rows already in lowest terms over ``den``, unchecked:
    the constructor of the descent moves, whose inputs are valid by
    construction."""
    return _setup(object.__new__(FPoly), height, dim, den, rows)


@dataclass(frozen=True)
class FPoly:
    """One fractional polynomial: height, ambient dimension, and the
    coefficient vectors as integer rows over one denominator.

    ``rows[j-1] / den`` is the vector attached to the power t^(j/d).  The rows
    are tuples of ints, den is positive, and den and the entries have no
    common factor (den = 1 for the zero map), so each map has one form and
    equality and hashing compare plain int tuples.
    ``lead``, computed once at construction and outside equality and hashing,
    is the largest j with v_j != 0, or 0 for the zero map.  Build from
    rationals with :meth:`make`.
    """

    height: int
    ambient_dim: int
    den: int
    rows: tuple[IntVec, ...]

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be a positive integer")
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be a positive integer")
        rows = self.rows
        _check_rows(self.den, rows, "FPoly.make")
        if len(rows) != self.height:
            raise ValueError(f"need exactly {self.height} coefficient vectors, got {len(rows)}")
        if any(len(v) != self.ambient_dim for v in rows):
            raise ValueError("coefficient vector of wrong dimension")
        _setup(self, self.height, self.ambient_dim, self.den, rows)

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, rows: Sequence[Iterable], height: int | None = None) -> "FPoly":
        """Build from coefficient rows (ints / Fractions / 'p/q' strings).

        ``height`` may exceed ``len(rows)``; missing top rows are zero.
        """
        if height is not None and height < 1:
            raise ValueError("height must be a positive integer")
        den, ints = integer_rows(rows)
        if not ints:
            raise ValueError("at least one coefficient row is required")
        dim = len(ints[0])
        d = height if height is not None else len(ints)
        if d < len(ints):
            raise ValueError("declared height smaller than the coefficient list")
        return cls(d, dim, den, ints + ((0,) * dim,) * (d - len(ints)))


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


# the descent DAG repeats its moves (on the benchmark template 284 distinct
# differences serve 1,078 type-I results), so both moves are cached
@lru_cache(maxsize=65536)
def lower_part(p: FPoly) -> FPoly:
    """Drop the top coefficient v_d; equals p when p is not top-degree."""
    if p.lead < p.height:
        return p
    zero = (0,) * p.ambient_dim
    return _fpoly(p.height, p.ambient_dim, *_lowest(p.den, p.rows[:-1] + (zero,)))


@lru_cache(maxsize=65536)
def subtract(p: FPoly, q: FPoly) -> FPoly:
    if p.height != q.height or p.ambient_dim != q.ambient_dim:
        raise ValueError("height/dimension mismatch in fractional-polynomial difference")
    if p.den == q.den:
        den = p.den
        rows = tuple(tuple(a - b for a, b in zip(u, w)) for u, w in zip(p.rows, q.rows))
    else:
        den = lcm(p.den, q.den)
        sp, sq = den // p.den, den // q.den
        rows = tuple(
            tuple(a * sp - b * sq for a, b in zip(u, w)) for u, w in zip(p.rows, q.rows)
        )
    return _fpoly(p.height, p.ambient_dim, *_lowest(den, rows))


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
        object.__setattr__(self, "_hash", hash((self.height, self.ambient_dim, self.members)))

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
        d = height if height is not None else max(map(len, member_rows), default=1)
        return cls.of([FPoly.make(rows, height=d) for rows in member_rows])

    @property
    def k(self) -> int:
        return len(self.members)


@lru_cache(maxsize=65536)
def family_is_good(f: FPolyFamily) -> bool:
    """Every member nonzero, and v_{i,1}, ..., v_{i,lead_i} of all members
    jointly independent over Q, decided by one :func:`rows_independent` call.

    This is the same as every member good and all nonzero v_{i,j} across the
    family jointly independent: above its lead a member's vectors are zero,
    and below it a zero or repeated vector is a dependence.  A member's rows
    are its vectors scaled by its positive denominator, which keeps the rank,
    so they go to the rank test as they are.  Cached: this is the hot
    predicate of the precedence order."""
    if any(p.lead == 0 for p in f.members):
        return False
    rows = [r for p in f.members for r in p.rows[: p.lead]]
    if len(rows) > f.ambient_dim:
        return False
    return rows_independent(rows, f.ambient_dim)


def lift_to_independent(
    polys: Sequence[Sequence[Iterable]], height: int | None = None
) -> tuple[FPolyFamily, tuple[RatVec, ...]]:
    """Rewrite integer/rational polynomial maps with formally independent coefficients.

    ``polys[i]`` lists the coefficient vectors u_{i,1}, ..., u_{i,d_i} of
    t -> sum_j t^j u_{i,j} (no constant term).  With d a common degree bound
    and k the number of maps, member i of the lifted family is the height-d
    map whose coefficients are rows i*d, ..., i*d + d - 1 of the (k*d) x (k*d)
    identity, and the matrix is the transpose of the inputs' coefficient
    vectors, each input zero-padded to d vectors, in member order: a
    D x (k*d) matrix sending basis vector i*d + j - 1 back to u_{i,j}.
    Applying the matrix to every coefficient vector of member i reproduces
    input i coefficient-wise.
    """
    if not polys:
        raise ValueError("at least one polynomial is required")
    coeff_lists = [[as_fraction_vector(u) for u in p] for p in polys]
    if any(not p for p in coeff_lists):
        raise ValueError("each polynomial needs at least one coefficient vector")
    dim = len(coeff_lists[0][0])
    if dim == 0:
        raise ValueError("coefficient vectors must be nonempty")
    for p in coeff_lists:
        for u in p:
            if len(u) != dim:
                raise ValueError("coefficient vectors of mixed dimension")
    d = height if height is not None else max(len(p) for p in coeff_lists)
    if d < max(len(p) for p in coeff_lists):
        raise ValueError("degree bound smaller than an input degree")
    big = len(coeff_lists) * d
    identity = tuple(tuple(int(r == c) for c in range(big)) for r in range(big))
    family = FPolyFamily.of([FPoly(d, big, 1, identity[i : i + d]) for i in range(0, big, d)])
    padded = [u for p in coeff_lists for u in p + [(Fraction(0),) * dim] * (d - len(p))]
    return family, tuple(zip(*padded))


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
    mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    scales = [(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2, 3])) for _ in range(dim)]
    # row i is (num_i * mat[i]) / den_i
    rows = [(tuple(num * x for x in row), den) for (num, den), row in zip(scales, mat)]
    rng.shuffle(rows)
    members = []
    pos = 0
    for lead in leads:
        part = rows[pos : pos + lead]
        den = lcm(*(q for _, q in part))
        ints = tuple(tuple(x * (den // q) for x in r) for r, q in part)
        ints += ((0,) * dim,) * (height - lead)
        members.append(_fpoly(height, dim, *_lowest(den, ints)))
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
        for j, v in enumerate(p.rows, start=1):
            lines.append(f"v[{i}][{j}] = {rational_text(v, den=p.den)}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str, path: str = "<family>") -> FPolyFamily:
    head, table = read_indexed(
        text, path, ("height", "ambient_dim", "members"), "v",
        lambda h: ((h["members"], h["height"]), h["ambient_dim"]),
    )
    d, dim = head["height"], head["ambient_dim"]
    rows = [tuple(parse_rational(t, path, line, f"v[{i}][{j}]") for t in toks)
            for (i, j), (line, toks) in table.items()]
    members = tuple(FPoly.make(rows[i : i + d], height=d) for i in range(0, len(rows), d))
    return FPolyFamily(d, dim, members)
