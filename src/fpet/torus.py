"""Translation flows on the m-torus driven by a rational embedding matrix.

A system is the R^D-action tau^w x = x + A w (mod 1) on T^m for a rational
matrix A; it preserves Haar measure.  A is stored as fractional polynomials
store their coefficients (:mod:`fpet.fpoly`): integer rows over one positive
denominator in lowest terms, so products A v with a member's vectors are
integer dot products over the product of the two denominators.  Observables
are trigonometric polynomials, stored as finitely supported maps from integer
frequency vectors to complex coefficients.  Factors fixed by the subaction of
a rational subspace V are character sublattices {chi : chi^T A v = 0 for v in
V}, computed by exact integer kernels; joins of factors are subgroup sums in
Hermite form.  The conditional expectation onto a factor is the truncation
of an observable to the frequencies in its lattice; it is never built:
:func:`~fpet.averages.partially_characteristic_check` sums the surviving
tuples whose last frequency lies outside the lattice, which are the
contribution of f_k - E(f_k | factor).
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fpoly import FPolyFamily, is_top_degree, subtract
from .ratlinalg import (
    IntVec,
    _check_rows,
    column_hermite,
    hermite_contains,
    int_kernel,
    integer_rows,
)
from .textkv import parse_float, parse_rational, rational_text, read_indexed


@dataclass(frozen=True)
class TorusSystem:
    """Action of R^D on T^m through the rational matrix A = rows / den
    (m rows, D columns).

    The rows are tuples of ints, den is a positive int, and den and the
    entries have no common factor, so each matrix has one form and equality
    and hashing compare ints.  Build from rationals with :meth:`make`.
    """

    m: int
    D: int
    den: int
    rows: tuple[IntVec, ...]

    def __post_init__(self):
        if self.m < 1 or self.D < 1:
            raise ValueError("torus and acting dimensions must be positive")
        _check_rows(self.den, self.rows, "TorusSystem.make")
        if len(self.rows) != self.m or any(len(r) != self.D for r in self.rows):
            raise ValueError("A must be an m x D matrix")

    @classmethod
    def make(cls, rows: Iterable[Iterable]) -> "TorusSystem":
        """Build from the rows of A (ints / Fractions / 'p/q' strings)."""
        den, ints = integer_rows(rows)
        return cls(len(ints), len(ints[0]) if ints else 0, den, ints)


_QUARTER_PHASES = {
    Fraction(0): 1.0 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1.0 + 0j,
    Fraction(3, 4): -1j,
}


def _unit_phase(phi: Fraction) -> complex:
    """exp(2 pi i phi) of an exact rational phase, reduced mod 1 first; the
    quarter-turn values come out exactly."""
    phi = phi % 1
    exact = _QUARTER_PHASES.get(phi)
    if exact is not None:
        return exact
    return cmath.exp(2j * cmath.pi * float(phi))


def _frequency(chi: Sequence[int]) -> tuple[int, ...]:
    """chi as a tuple of ints; an entry that is not an integer (1.5, and also
    1.0 or Fraction(1)) is a ValueError rather than truncated.  numpy integers
    are integers."""
    try:
        return tuple(map(operator.index, chi))
    except TypeError:
        raise ValueError(f"frequency {tuple(chi)!r} has a non-integer entry") from None


class TrigPoly:
    """Finitely supported frequency-to-coefficient map on T^m.

    Instances are immutable by convention; every operation returns a fresh
    object and drops exactly-zero coefficients.  Frequencies must be integer
    vectors and coefficients finite (else ``ValueError``).
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[tuple[int, ...], complex] | None = None):
        if m < 1:
            raise ValueError("torus dimension must be positive")
        table: dict[tuple[int, ...], complex] = {}
        for chi, c in (terms or {}).items():
            chi = _frequency(chi)
            if len(chi) != m:
                raise ValueError(f"frequency {chi} does not live on T^{m}")
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} at frequency {chi} is not finite")
            if c != 0:
                table[chi] = c
        self.m = m
        self.terms = table

    @classmethod
    def one(cls, m: int) -> "TrigPoly":
        return cls(m, {(0,) * m: 1.0 + 0j})

    @classmethod
    def character(cls, m: int, chi: Sequence[int], coeff: complex = 1.0) -> "TrigPoly":
        return cls(m, {tuple(chi): coeff})

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.terms))

    def coeff(self, chi: Sequence[int]) -> complex:
        return self.terms.get(tuple(chi), 0j)

    def _binop(self, other: "TrigPoly", sign: int) -> "TrigPoly":
        if self.m != other.m:
            raise ValueError("mixed torus dimensions")
        out = dict(self.terms)
        for chi, c in other.terms.items():
            out[chi] = out.get(chi, 0j) + sign * c
        return TrigPoly(self.m, out)

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def norm2(self) -> float:
        """Exact Parseval norm: sqrt(sum |c_chi|^2)."""
        return sum(abs(c) ** 2 for c in self.terms.values()) ** 0.5

    def l1(self) -> float:
        return sum(abs(c) for c in self.terms.values())

    def __eq__(self, other):
        return (
            isinstance(other, TrigPoly) and self.m == other.m and self.terms == other.terms
        )

    def __repr__(self):
        inside = ", ".join(f"{chi}: {c:.6g}" for chi, c in sorted(self.terms.items()))
        return f"TrigPoly(m={self.m}, {{{inside}}})"


@dataclass(frozen=True)
class CharacterLattice:
    """A subgroup of Z^m, held as a canonical Hermite basis (pivot rows
    strictly increasing, pivots positive)."""

    m: int
    basis: tuple[IntVec, ...]

    @classmethod
    def from_generators(cls, m: int, gens: Iterable[Sequence[int]]) -> "CharacterLattice":
        return cls(m, column_hermite(gens, m))

    @classmethod
    def full(cls, m: int) -> "CharacterLattice":
        return cls.from_generators(m, [[int(i == j) for i in range(m)] for j in range(m)])

    def contains(self, chi: Sequence[int]) -> bool:
        chi = _frequency(chi)
        if len(chi) != self.m:
            raise ValueError("character of the wrong dimension")
        return hermite_contains(self.basis, chi)

    @property
    def rank(self) -> int:
        return len(self.basis)


def isotropy_lattice(sys: TorusSystem, subspace_basis: Sequence[Iterable]) -> CharacterLattice:
    """Characters fixed by the subaction of the rational subspace spanned by
    ``subspace_basis``: the exact integer kernel of the rows (A v)^T."""
    return _isotropy(sys, integer_rows(subspace_basis)[1])


def _images(sys: TorusSystem, vecs: Iterable[IntVec]) -> list[IntVec]:
    """A v for integer vectors v, as integers: the image of v / q is the
    returned vector over sys.den * q."""
    return [tuple(sum(a * x for a, x in zip(row, v)) for row in sys.rows) for v in vecs]


def _isotropy(sys: TorusSystem, vecs: Sequence[IntVec]) -> CharacterLattice:
    """:func:`isotropy_lattice` of integer vectors: (A v)^T scaled by a
    positive integer has the same kernel, so the rows are :func:`_images`."""
    if any(len(v) != sys.D for v in vecs):
        raise ValueError("subspace basis vector of wrong dimension")
    rows = [r for r in _images(sys, vecs) if any(r)]
    if not rows:
        return CharacterLattice.full(sys.m)
    return CharacterLattice(sys.m, int_kernel(rows, sys.m))


def lattice_join(*lattices: CharacterLattice) -> CharacterLattice:
    """Subgroup generated by the union; the factor join in the torus model."""
    if not lattices:
        raise ValueError("join of no lattices")
    m = lattices[0].m
    if any(l.m != m for l in lattices):
        raise ValueError("join of lattices in different ambient groups")
    gens = [b for l in lattices for b in l.basis]
    return CharacterLattice.from_generators(m, gens)


def xi_factor(sys: TorusSystem, fam: FPolyFamily) -> CharacterLattice:
    """The candidate partially characteristic factor for a good family whose
    last member is top-degree: the join of the isotropy lattice of the line
    through that member's leading coefficient with the isotropy lattices of
    the spans of the differences (member_i - member_k)."""
    if fam.k == 0:
        raise ValueError("empty family")
    last = fam.members[-1]
    if not is_top_degree(last):
        raise ValueError("the last family member must be top-degree")
    pieces = [_isotropy(sys, last.rows[-1:])]
    for member in fam.members[:-1]:
        pieces.append(_isotropy(sys, subtract(member, last).rows))
    return lattice_join(*pieces)


# ---------------------------------------------------------------------------
# text formats


def system_to_text(sys: TorusSystem) -> str:
    lines = [f"m = {sys.m}", f"D = {sys.D}"]
    for r, row in enumerate(sys.rows, start=1):
        lines.append(f"A[{r}] = {rational_text(row, den=sys.den)}")
    return "\n".join(lines) + "\n"


def system_from_text(text: str, path: str = "<system>") -> TorusSystem:
    head, rows = read_indexed(text, path, ("m", "D"), "A", lambda h: ((h["m"],), h["D"]))
    matrix = [[parse_rational(t, path, line, f"A[{r}]") for t in toks]
              for (r,), (line, toks) in rows.items()]
    return TorusSystem(head["m"], head["D"], *integer_rows(matrix))


def trigpoly_to_text(f: TrigPoly) -> str:
    lines = [f"m = {f.m}"]
    for chi in f.support():
        c = f.terms[chi]
        freq = " ".join(str(x) for x in chi)
        lines.append(f"term = {freq} : {c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"


def trigpoly_from_text(text: str, path: str = "<observable>") -> TrigPoly:
    head, terms = read_indexed(text, path, ("m",), "term", lambda h: (h["m"], 2))
    coeffs = {
        chi: complex(parse_float(re, path, line, "re"), parse_float(im, path, line, "im"))
        for chi, (line, (re, im)) in terms.items()
    }
    return TrigPoly(head["m"], coeffs)
