"""Translation flows on the m-torus driven by a rational embedding matrix.

A system is the R^D-action tau^w x = x + A w (mod 1) on T^m for a rational
matrix A; it preserves Haar measure.  Observables are trigonometric
polynomials, stored as finitely supported maps from integer frequency vectors
to complex coefficients.  Factors fixed by the subaction of a rational
subspace V are character sublattices {chi : chi^T A v = 0 for v in V},
computed by exact integer kernels; joins of factors are subgroup sums in
Hermite form, and conditional expectations are Fourier truncations.
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
    RatVec,
    as_fraction_vector,
    clear_denominators,
    column_hermite,
    hermite_contains,
    int_kernel,
    matvec,
)
from .textkv import parse_float, parse_rational, rational_text, read_indexed


@dataclass(frozen=True)
class TorusSystem:
    """Action of R^D on T^m through the rational matrix A (m rows, D columns)."""

    m: int
    D: int
    A: tuple[RatVec, ...]

    def __post_init__(self):
        if self.m < 1 or self.D < 1:
            raise ValueError("torus and acting dimensions must be positive")
        if len(self.A) != self.m or any(len(r) != self.D for r in self.A):
            raise ValueError("A must be an m x D matrix")

    @classmethod
    def make(cls, rows: Sequence[Iterable]) -> "TorusSystem":
        A = tuple(as_fraction_vector(r) for r in rows)
        return cls(len(A), len(A[0]), A)

    def phase(self, chi: Sequence[int], w: Sequence) -> Fraction:
        """chi . (A w), exact; a float entry of w raises ``ValueError``."""
        w = as_fraction_vector(w)
        if len(chi) != self.m or len(w) != self.D:
            raise ValueError("dimension mismatch in phase computation")
        return sum(c * x for c, x in zip(chi, matvec(self.A, w)))


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

    def __mul__(self, other):
        """Pointwise product of functions = convolution of coefficient maps."""
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        if self.m != other.m:
            raise ValueError("mixed torus dimensions")
        out: dict[tuple[int, ...], complex] = {}
        for chi1, c1 in self.terms.items():
            for chi2, c2 in other.terms.items():
                chi = tuple(a + b for a, b in zip(chi1, chi2))
                out[chi] = out.get(chi, 0j) + c1 * c2
        return TrigPoly(self.m, out)

    def scale(self, z: complex) -> "TrigPoly":
        return TrigPoly(self.m, {chi: z * c for chi, c in self.terms.items()})

    def conj(self) -> "TrigPoly":
        return TrigPoly(
            self.m, {tuple(-x for x in chi): c.conjugate() for chi, c in self.terms.items()}
        )

    def inner(self, other: "TrigPoly") -> complex:
        """L^2(Haar) inner product <f, g> = sum c_chi * conj(d_chi)."""
        if self.m != other.m:
            raise ValueError("mixed torus dimensions")
        small, big = sorted((self.terms, other.terms), key=len)
        if small is self.terms:
            return sum(c * big.get(chi, 0j).conjugate() for chi, c in small.items())
        return sum(self.terms.get(chi, 0j) * c.conjugate() for chi, c in small.items())

    def norm2(self) -> float:
        """Exact Parseval norm: sqrt(sum |c_chi|^2)."""
        return sum(abs(c) ** 2 for c in self.terms.values()) ** 0.5

    def l1(self) -> float:
        return sum(abs(c) for c in self.terms.values())

    def haar(self) -> complex:
        """Integral against Haar measure: the coefficient at frequency 0."""
        return self.terms.get((0,) * self.m, 0j)

    def __eq__(self, other):
        return (
            isinstance(other, TrigPoly) and self.m == other.m and self.terms == other.terms
        )

    def __repr__(self):
        inside = ", ".join(f"{chi}: {c:.6g}" for chi, c in sorted(self.terms.items()))
        return f"TrigPoly(m={self.m}, {{{inside}}})"


def act(sys: TorusSystem, w: Sequence, f: TrigPoly) -> TrigPoly:
    """Compose an observable with the translation tau^w: each coefficient picks
    up the unimodular factor exp(2 pi i chi . A w).  The shift w must be
    rational (a float raises ``ValueError``), and every phase is exact."""
    w = as_fraction_vector(w)
    if f.m != sys.m:
        raise ValueError("observable does not live on this torus")
    return TrigPoly(
        f.m, {chi: c * _unit_phase(sys.phase(chi, w)) for chi, c in f.terms.items()}
    )


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

    @classmethod
    def zero(cls, m: int) -> "CharacterLattice":
        return cls(m, ())

    def contains(self, chi: Sequence[int]) -> bool:
        chi = _frequency(chi)
        if len(chi) != self.m:
            raise ValueError("character of the wrong dimension")
        return hermite_contains(self.basis, chi)

    def contains_lattice(self, other: "CharacterLattice") -> bool:
        return all(self.contains(b) for b in other.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)


def isotropy_lattice(sys: TorusSystem, subspace_basis: Sequence[Iterable]) -> CharacterLattice:
    """Characters fixed by the subaction of the rational subspace spanned by
    ``subspace_basis``: the exact integer kernel of the rows (A v)^T."""
    rows = []
    for v in subspace_basis:
        vec = as_fraction_vector(v)
        if len(vec) != sys.D:
            raise ValueError("subspace basis vector of wrong dimension")
        rows.append(clear_denominators(matvec(sys.A, vec)))
    rows = [r for r in rows if any(r)]
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


def project_factor(f: TrigPoly, lattice: CharacterLattice) -> TrigPoly:
    """Conditional expectation onto the factor generated by the lattice:
    keep exactly the terms whose frequency lies in it (an orthogonal,
    idempotent, L^2-contractive projection)."""
    if f.m != lattice.m:
        raise ValueError("observable and lattice dimensions differ")
    return TrigPoly(f.m, {chi: c for chi, c in f.terms.items() if lattice.contains(chi)})


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
    pieces = [isotropy_lattice(sys, [last.coeffs[-1]])]
    for member in fam.members[:-1]:
        pieces.append(isotropy_lattice(sys, subtract(member, last).coeffs))
    return lattice_join(*pieces)


# ---------------------------------------------------------------------------
# text formats


def system_to_text(sys: TorusSystem) -> str:
    lines = [f"m = {sys.m}", f"D = {sys.D}"]
    for r, row in enumerate(sys.A, start=1):
        lines.append(f"A[{r}] = {rational_text(row)}")
    return "\n".join(lines) + "\n"


def system_from_text(text: str, path: str = "<system>") -> TorusSystem:
    head, rows = read_indexed(text, path, ("m", "D"), "A", lambda h: ((h["m"],), h["D"]))
    matrix = tuple(tuple(parse_rational(t, path, line, f"A[{r}]") for t in toks)
                   for (r,), (line, toks) in rows.items())
    return TorusSystem(head["m"], head["D"], matrix)


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
