"""Multiple ergodic averages on torus systems and their exact limits.

For observables f_1, ..., f_k and a family of fractional polynomials phi_i,
the interval average of the product prod_i f_i(x + A phi_i(t)) decomposes
over frequency tuples (chi_1, ..., chi_k): each tuple contributes its
coefficient product times the scalar average of exp(2*pi*i*theta(t)), where
theta(t) = sum_j c_j t^(j/d) and c_j = sum_i chi_i^T A v_{i,j}.  The c_j are
exact rationals, so the tempered-uniform limit of each scalar average is
decided symbolically (1 when every c_j vanishes, else 0); only finite-
interval averages touch floating point, through the oscillatory quadrature
engine.  The same enumeration yields self-joining moments, the off-diagonal
shift test, correlation averages for the van der Corput bound, and the
partially-characteristic-factor diagnostic.
"""

from __future__ import annotations

import itertools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .fpoly import FPolyFamily, family_is_good
from .interval import TemperedSequence
from .quadrature import DEFAULT_BUDGET, adaptive_integral, osc_phase_average
from .ratlinalg import RatVec
from .torus import (
    CharacterLattice,
    TorusSystem,
    TrigPoly,
    _unit_phase,
    project_factor,
    xi_factor,
)

Freq = tuple[int, ...]


@dataclass(frozen=True)
class AverageResult:
    """A finite-interval multiple average in Fourier coordinates, with a
    per-coefficient quadrature error bound."""

    value: TrigPoly
    interval: tuple[float, float]
    est_error: dict[Freq, float]

    def max_coeff_error(self) -> float:
        return max(self.est_error.values(), default=0.0)


@dataclass(frozen=True)
class MomentQuery:
    """A self-joining moment: observables f_0, ..., f_k against a family of k
    fractional polynomials, optionally shifted by the off-diagonal flow at
    coordinate j (1-based) and exact rational time t."""

    observables: tuple[TrigPoly, ...]
    family: FPolyFamily
    shift: tuple[int, Fraction] | None = None

    def __post_init__(self):
        if len(self.observables) != self.family.k + 1:
            raise ValueError("need exactly k + 1 observables (f_0 through f_k)")
        if self.shift is not None:
            j, t = self.shift
            if not 1 <= j <= self.family.height:
                raise ValueError(f"shift coordinate {j} out of range 1..{self.family.height}")
            if not isinstance(t, numbers.Rational):
                raise ValueError("shift times must be exact rationals")


def _chi_row(sys: TorusSystem, chi: Freq) -> RatVec:
    """chi^T A as an exact rational row of length D."""
    return tuple(
        sum(chi[r] * sys.A[r][c] for r in range(sys.m) if chi[r]) for c in range(sys.D)
    )


def _phase_vector(
    sys: TorusSystem, fam: FPolyFamily, chis: Sequence[Freq], cache: dict
) -> tuple[Fraction, ...]:
    """c_j = sum_i chi_i^T A v_{i,j} for j = 1..d, exact."""
    c = [Fraction(0)] * fam.height
    for member, chi in zip(fam.members, chis):
        row = cache.get(chi)
        if row is None:
            row = cache[chi] = _chi_row(sys, chi)
        for j, v in enumerate(member.coeffs):
            c[j] += sum(r * x for r, x in zip(row, v) if x)
    return tuple(c)


def _tuple_data(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> Iterator[tuple[tuple[Freq, ...], Freq, complex, tuple[Fraction, ...]]]:
    """Enumerate frequency tuples: (tuple, output frequency, coefficient
    product, exact phase vector), in deterministic sorted order."""
    if len(fs) != fam.k:
        raise ValueError(f"need {fam.k} observables, got {len(fs)}")
    for f in fs:
        if f.m != sys.m:
            raise ValueError("observable does not live on this torus")
    if fam.ambient_dim != sys.D:
        raise ValueError("family and system acting dimensions differ")
    cache: dict = {}
    for combo in itertools.product(*(f.support() for f in fs)):
        prod = 1.0 + 0j
        for f, chi in zip(fs, combo):
            prod *= f.terms[chi]
        out = tuple(sum(x) for x in zip(*combo))
        yield combo, out, prod, _phase_vector(sys, fam, combo, cache)


def weyl_limit(phase_coeffs: Sequence) -> complex:
    """Tempered-uniform limit of the average of exp(2*pi*i * sum_j c_j t^(j/d)):
    1 when every coefficient vanishes, else 0.  The zero test is exact for
    rational inputs."""
    return 1.0 + 0j if all(c == 0 for c in phase_coeffs) else 0j


def multiple_average(
    sys: TorusSystem,
    fam: FPolyFamily,
    fs: Sequence[TrigPoly],
    interval: tuple[float, float],
    tol: float = 1e-8,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> AverageResult:
    """The multiple ergodic average over a finite interval.

    Each distinct exact phase vector is integrated once; an identically zero
    phase contributes exactly 1 with zero error.  ``tol`` bounds the absolute
    quadrature error of each distinct phase integral, not of each output
    coefficient: a coefficient sums several integrals, and its bound,
    sum |coefficient product| * integral error, is the one reported in
    ``AverageResult.est_error``.
    """
    a, b = float(interval[0]), float(interval[1])
    if not 0 <= a < b:
        raise ValueError("need an interval (a, b) with 0 <= a < b")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = fam.height
    groups: dict[tuple[Fraction, ...], list[tuple[Freq, complex]]] = {}
    for _, out, prod, cvec in _tuple_data(sys, fam, fs):
        groups.setdefault(cvec, []).append((out, prod))
    order = sorted(groups)

    def integrate(cvec):
        if all(c == 0 for c in cvec):
            return 1.0 + 0j, 0.0
        value, err, _ = osc_phase_average(
            {Fraction(j + 1, d): float(c) for j, c in enumerate(cvec)}, a, b, tol, budget
        )
        return value, err

    if threads > 1 and len(order) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            integrals = list(pool.map(integrate, order))
    else:
        integrals = [integrate(c) for c in order]

    value: dict[Freq, complex] = {}
    errors: dict[Freq, float] = {}
    for cvec, (avg, err) in zip(order, integrals):
        for out, prod in groups[cvec]:
            value[out] = value.get(out, 0j) + prod * avg
            errors[out] = errors.get(out, 0.0) + abs(prod) * err
    return AverageResult(TrigPoly(sys.m, value), (a, b), errors)


def symbolic_limit(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> TrigPoly:
    """Exact tempered-uniform limit of the multiple averages: a frequency
    tuple survives iff its entire phase vector vanishes."""
    value: dict[Freq, complex] = {}
    for _, out, prod, cvec in _tuple_data(sys, fam, fs):
        if weyl_limit(cvec) == 1:
            value[out] = value.get(out, 0j) + prod
    return TrigPoly(sys.m, value)


def furstenberg_moment(sys: TorusSystem, q: MomentQuery) -> complex:
    """Moment of the limiting self-joining: integrate f_0 x f_1 x ... x f_k.

    A tuple (chi_0, ..., chi_k) contributes iff the chi_i sum to zero (Haar
    orthogonality) and the phase vector of (chi_1, ..., chi_k) vanishes.  An
    off-diagonal shift multiplies each surviving tuple by exp(2*pi*i*t*c_j),
    computed exactly; since c_j = 0 on surviving tuples the shift never
    changes the moment, which is the invariance this function exposes.
    """
    fam = q.family
    if not family_is_good(fam):
        raise ValueError("self-joining moments are defined for good families")
    f0, rest = q.observables[0], q.observables[1:]
    if f0.m != sys.m:
        raise ValueError("observable does not live on this torus")
    total = 0j
    for combo, out, prod, cvec in _tuple_data(sys, fam, rest):
        chi0 = tuple(-x for x in out)
        c0 = f0.terms.get(chi0)
        if c0 is None or any(c != 0 for c in cvec):
            continue
        weight = c0 * prod
        if q.shift is not None:
            j, t = q.shift
            weight *= _unit_phase(Fraction(t) * cvec[j - 1])
        total += weight
    return total


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    a: float
    b: float
    distance: float
    cauchy_diff: float
    max_coeff_err: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    limit: TrigPoly
    passed: bool
    tol: float


def convergence_diagnostic(
    sys: TorusSystem,
    fam: FPolyFamily,
    fs: Sequence[TrigPoly],
    seq: TemperedSequence,
    n_max: int,
    tol: float = 1e-2,
    quad_tol: float = 1e-8,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ConvergenceReport:
    """Track || A_{I_n} - limit ||_2 (exact Parseval distance) and successive
    Cauchy differences along a tempered sequence; passes when the final
    distance is below ``tol``."""
    limit = symbolic_limit(sys, fam, fs)
    rows = []
    prev: TrigPoly | None = None
    for n in range(1, n_max + 1):
        a, b = seq.interval(n)
        res = multiple_average(sys, fam, fs, (a, b), quad_tol, budget, threads)
        dist = (res.value - limit).norm2()
        cauchy = (res.value - prev).norm2() if prev is not None else math.nan
        rows.append(ConvergenceRow(n, a, b, dist, cauchy, res.max_coeff_error()))
        prev = res.value
    return ConvergenceReport(tuple(rows), limit, rows[-1].distance < tol, tol)


@dataclass(frozen=True)
class VdcReport:
    lhs: float
    rhs_core: float
    slack: float
    margin: float
    passed: bool
    T: float
    H: float


def _correlation_pairs(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> list[tuple[complex, np.ndarray, np.ndarray]]:
    """Weighted pairs of phase vectors entering <u(t+h), u(t)>: frequency
    tuples pair up exactly when their output frequencies agree (Haar
    orthogonality)."""
    by_out: dict[Freq, list[tuple[complex, tuple[Fraction, ...]]]] = {}
    for _, out, prod, cvec in _tuple_data(sys, fam, fs):
        by_out.setdefault(out, []).append((prod, cvec))
    pairs = []
    for out in sorted(by_out):
        entries = by_out[out]
        for p1, c1 in entries:
            for p2, c2 in entries:
                pairs.append(
                    (
                        p1 * p2.conjugate(),
                        np.array([float(x) for x in c1]),
                        np.array([float(x) for x in c2]),
                    )
                )
    return pairs


def _correlation_average(
    pairs, d: int, T: float, h: float, tol: float, budget: int
) -> complex:
    """avg over t in (0, T) of <u(t+h), u(t)>.

    Each pair contributes the average of exp(2*pi*i*(theta_1(t+h) -
    theta_2(t))); the substitution t = u^d keeps the phase derivative bounded
    near zero even for fractional exponents.
    """
    total = 0j
    uhi = T ** (1.0 / d)
    for weight, a1, a2 in pairs:
        if not a1.any() and not a2.any():
            total += weight
            continue

        def integrand(u, a1=a1, a2=a2):
            u = np.asarray(u, dtype=float)
            shifted = u**d + h
            phase = np.zeros_like(u)
            for j in range(d):
                if a1[j]:
                    phase = phase + a1[j] * shifted ** ((j + 1) / d)
                if a2[j]:
                    phase = phase - a2[j] * u ** (j + 1)
            return (d * u ** (d - 1)) * np.exp(2j * np.pi * phase)

        def dphase(u, a1=a1, a2=a2):
            u = np.asarray(u, dtype=float)
            shifted = u**d + h
            with np.errstate(all="ignore"):
                out_f = np.zeros_like(u)
                for j in range(d):
                    if a1[j]:
                        out_f = out_f + a1[j] * (j + 1) * u ** (d - 1) * shifted ** (
                            (j + 1) / d - 1.0
                        )
                    if a2[j]:
                        out_f = out_f - a2[j] * (j + 1) * u**j
            return np.abs(out_f)

        value, _, _ = adaptive_integral(integrand, 0.0, uhi, tol * T, budget, dphase)
        total += weight * value / T
    return total


def vdc_bound_check(
    sys: TorusSystem,
    fam: FPolyFamily,
    fs: Sequence[TrigPoly],
    T: float,
    H: float,
    quad_tol: float = 1e-5,
    budget: int = DEFAULT_BUDGET,
) -> VdcReport:
    """Check the van der Corput bound for the product curve u(t):

        || avg_(0,T) u ||^2  <=  avg_{h in (0,H)} | avg_(0,T) <u(t+h), u(t)> |
                                  + slack(T, H)

    with slack = 8 * (prod_i |f_i|_l1)^2 * (H/T + 1/H); the l1 coefficient
    norm bounds the sup norm, and the constant 8 absorbs the absolute
    constants of the correlation estimate.  The reported margin is
    rhs_core - lhs (nonnegative margin means the core inequality already
    holds without slack)."""
    if T <= 0 or H <= 0:
        raise ValueError("T and H must be positive")
    avg = multiple_average(sys, fam, fs, (0.0, T), quad_tol, budget)
    lhs = avg.value.norm2() ** 2
    pairs = _correlation_pairs(sys, fam, fs)
    d = fam.height

    def outer(hs):
        return np.array(
            [
                abs(_correlation_average(pairs, d, T, float(h), quad_tol, budget))
                for h in np.atleast_1d(hs)
            ]
        )

    rhs_value, _, _ = adaptive_integral(outer, 0.0, H, 1e-3 * H, budget)
    rhs_core = float(np.real(rhs_value)) / H
    bound = 8.0 * math.prod(f.l1() for f in fs) ** 2
    slack = bound * (H / T + 1.0 / H)
    margin = rhs_core - lhs
    return VdcReport(lhs, rhs_core, slack, margin, lhs <= rhs_core + slack, T, H)


@dataclass(frozen=True)
class CharacteristicReport:
    verdict: str  # "AGREE" | "DISAGREE"
    distance: float
    witnesses: tuple[tuple[Freq, ...], ...]
    factor: CharacterLattice


def partially_characteristic_check(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> CharacteristicReport:
    """Compare the exact limit against the limit with the last observable
    replaced by its conditional expectation onto the candidate factor.

    AGREE means the two limits coincide exactly.  DISAGREE is a legitimate
    experimental outcome and is reported, not raised; the witnesses are the
    surviving frequency tuples whose last frequency lies outside the factor
    lattice."""
    factor = xi_factor(sys, fam)
    limit_full = symbolic_limit(sys, fam, fs)
    projected = project_factor(fs[-1], factor)
    limit_proj = symbolic_limit(sys, fam, list(fs[:-1]) + [projected])
    witnesses = tuple(
        combo
        for combo, _, _, cvec in _tuple_data(sys, fam, fs)
        if weyl_limit(cvec) == 1 and not factor.contains(combo[-1])
    )
    diff = limit_full - limit_proj
    verdict = "AGREE" if not diff.terms else "DISAGREE"
    return CharacteristicReport(verdict, diff.norm2(), witnesses, factor)
