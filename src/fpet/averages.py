"""Multiple ergodic averages on torus systems and their exact limits.

For observables f_1, ..., f_k and a family of fractional polynomials phi_i,
the interval average of the product prod_i f_i(x + A phi_i(t)) decomposes
over frequency tuples (chi_1, ..., chi_k): each tuple contributes its
coefficient product times the scalar average of exp(2*pi*i*theta(t)), where
theta(t) = sum_j c_j t^(j/d) and c_j = sum_i chi_i^T A v_{i,j}.  The c_j are
exact rationals, so the tempered-uniform limit of each scalar average is
decided symbolically (1 when every c_j vanishes, else 0); only finite-
interval averages touch floating point.  Each scalar average, and each van
der Corput correlation theta_1(t + h) - theta_2(t), is one
:class:`~fpet.quadrature.Phase`.  At height d <= 2 a scalar average is a
Fresnel closed form with a derived error bound (see
:meth:`~fpet.quadrature.Phase.average`); where that bound misses the
tolerance, the narrow-window rules (a sinc or one Gauss piece, also with a
bound) come next, and only where they miss it too do adaptive Gauss panels
run.  Higher heights and the correlations run on the panels.

c_j is linear in the tuple, so each member's contribution chi^T A v_{i,j} is
computed once per support frequency, as integers over one common denominator
(the phase tables).  One generator, :func:`_tuple_data`, enumerates choices of
table entries with their integer phase vectors; every tuple, whole or half,
comes from it.  A finite-interval command enumerates the tuples once,
grouped by phase vector and output (:func:`_phase_groups`): a window averages
each distinct phase vector once, by
:func:`~fpet.quadrature.osc_phase_average` on the group's table, which keeps
its phase for every window; the convergence
diagnostic takes its limit from the group whose phase vector vanishes, and
the van der Corput step pairs phase groups.  A van der Corput correlation
runs at many shifts h at once: each pair's phase is moved to a batch of
shifts and integrated in one adaptive pass (see
:func:`_correlation_average`).  The exact limits, self-joining
moments and the partially-characteristic-factor witnesses need only the
tuples whose phase vector vanishes.  Each exact command finds them once, with a
meet-in-the-middle hash join of two half enumerations, one over the first
ceil(k/2) tables and one over the rest (:func:`_resonant_tuples`), at a cost
of about |S|^ceil(k/2) plus the number of survivors for supports of size |S|,
instead of |S|^k; Haar orthogonality against f_0 is then one lookup per
survivor, outside the join.  The characteristic check sums the products of
the witnesses, the survivors whose last frequency lies outside the factor,
exactly by output: that is the contribution of f_k - E(f_k | factor), and
AGREE means it vanishes at every output.  Survivors come out in
itertools.product order, the order a full enumeration visits them, and
multiply their k coefficients left to right as it does, so every float sum
is the same.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fpoly import FPolyFamily, family_is_good
from .interval import TemperedSequence
from .quadrature import (
    _BATCH_ROWS,
    DEFAULT_BUDGET,
    Phase,
    PhaseTable,
    adaptive_integral,
    osc_phase_average,
)
from .ratlinalg import IntVec
from .torus import (
    CharacterLattice,
    TorusSystem,
    TrigPoly,
    _images,
    _unit_phase,
    xi_factor,
)

Freq = tuple[int, ...]


@dataclass(frozen=True)
class AverageResult:
    """A finite-interval multiple average in Fourier coordinates and its
    per-coefficient error (an estimate wherever adaptive panels ran)."""

    value: TrigPoly
    interval: tuple[float, float]
    est_error: dict[Freq, float]

    def max_coeff_error(self) -> float:
        return max(self.est_error.values(), default=0.0)


_Entry = tuple[Freq, complex, tuple[int, ...]]  # (chi, coefficient, integer phase row)
_Group = tuple[dict[Fraction, float], dict[Freq, complex]]  # see _phase_groups


def _columns(sys: TorusSystem, fam: FPolyFamily) -> tuple[list[list[IntVec]], int]:
    """A v_{i,j} for every member i and j = 1..d as integer vectors over one
    denominator, the lcm of the members' denominators times A's; a positive
    multiple of the lcm of the entries' reduced denominators."""
    scale = math.lcm(*(p.den for p in fam.members))
    cols = [[tuple(scale // p.den * y for y in col) for col in _images(sys, p.rows)]
            for p in fam.members]
    return cols, scale * sys.den


def _phase_tables(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> tuple[list[list[_Entry]], int]:
    """Each member's phase contribution, once per support frequency.

    Entry (chi, coefficient, n) of table i, in sorted support order, has
    chi^T A v_{i,j} = n_j / denom for j = 1..d.  The denominator is common to
    every member, so the phase vector of a tuple is the sum of its members'
    integer vectors over ``denom``, and it vanishes iff that sum does.
    """
    if len(fs) != fam.k:
        raise ValueError(f"need {fam.k} observables, got {len(fs)}")
    for f in fs:
        if f.m != sys.m:
            raise ValueError("observable does not live on this torus")
    if fam.ambient_dim != sys.D:
        raise ValueError("family and system acting dimensions differ")
    cols, denom = _columns(sys, fam)
    tables = [
        [(chi, f.terms[chi], tuple(sum(c * a for c, a in zip(chi, col)) for col in member))
         for chi in f.support()]
        for f, member in zip(fs, cols)
    ]
    return tables, denom


def _vsum(vectors: Iterable[tuple[int, ...]], width: int) -> tuple[int, ...]:
    return tuple(map(sum, zip((0,) * width, *vectors)))


def _tuple_term(entries: Sequence[_Entry], m: int):
    """(frequency tuple, output frequency on T^m, coefficient product) of one
    choice of table entries; the coefficients multiply left to right."""
    combo = tuple(chi for chi, _, _ in entries)
    prod = 1.0 + 0j
    for _, c, _ in entries:
        prod *= c
    return combo, _vsum(combo, m), prod


def _tuple_data(
    tables: Sequence[Sequence[_Entry]], width: int
) -> Iterator[tuple[tuple[_Entry, ...], tuple[int, ...]]]:
    """Enumerate the choices of one entry per table with their integer phase
    vector over denom, in itertools.product order: the one enumerator of
    frequency tuples."""
    for entries in itertools.product(*tables):
        yield entries, _vsum((n for _, _, n in entries), width)


def _phase_groups(sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]) -> list[_Group]:
    """The tuples grouped by phase vector n, in increasing n.  A group holds
    its PhaseTable {j/d: n_j/denom} (a plain {} for n = 0) and, per
    output, P: the sum of its tuples' coefficient products, taken in
    itertools.product order."""
    tables, denom = _phase_tables(sys, fam, fs)
    d = fam.height
    groups: dict[tuple[int, ...], dict[Freq, complex]] = {}
    for entries, n in _tuple_data(tables, d):
        _, out, prod = _tuple_term(entries, sys.m)
        by_out = groups.setdefault(n, {})
        by_out[out] = by_out.get(out, 0j) + prod
    return [
        (PhaseTable({Fraction(j + 1, d): nj / denom for j, nj in enumerate(n)}) if any(n) else {},
         groups[n])
        for n in sorted(groups)
    ]


def _resonant_tuples(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> list[tuple[tuple[Freq, ...], Freq, complex]]:
    """(tuple, output frequency, coefficient product) of the frequency tuples
    whose exact phase vector vanishes, in itertools.product order.

    Meet in the middle: the entry tuples of the last floor(k/2) tables go
    into a hash table under the negation of their phase vector, and each
    entry tuple of the first ceil(k/2) tables looks up its matches there.
    With supports of size |S| this enumerates |S|^ceil(k/2) + |S|^floor(k/2)
    partial tuples, plus one item per match, instead of the |S|^k tuples.
    The first half is scanned in product order and each bucket keeps product
    order, so the matches come out in product order too, and each product is
    taken left to right over all k entries, as a full enumeration takes it."""
    tables, _ = _phase_tables(sys, fam, fs)
    half = (len(tables) + 1) // 2
    right: dict[tuple[int, ...], list[tuple[_Entry, ...]]] = {}
    for entries, n in _tuple_data(tables[half:], fam.height):
        right.setdefault(tuple(-x for x in n), []).append(entries)
    return [
        _tuple_term(left + tail, sys.m)
        for left, n in _tuple_data(tables[:half], fam.height)
        for tail in right.get(n, ())
    ]


def _sum_by_output(m: int, terms) -> TrigPoly:
    value: dict[Freq, complex] = {}
    for _, out, prod in terms:
        value[out] = value.get(out, 0j) + prod
    return TrigPoly(m, value)


def multiple_average(
    sys: TorusSystem,
    fam: FPolyFamily,
    fs: Sequence[TrigPoly],
    interval: tuple[float, float],
    tol: float = 1e-8,
    budget: int = DEFAULT_BUDGET,
) -> AverageResult:
    """The multiple ergodic average over a finite interval.

    Each distinct exact phase vector is averaged once, by
    :func:`~fpet.quadrature.osc_phase_average` on its float coefficients; an
    identically zero phase contributes exactly 1 with zero error.  At height
    d <= 2 the average is the Fresnel closed form and its error a derived
    bound; where that bound exceeds ``tol``, the narrow-window rules of
    :meth:`~fpet.quadrature.Phase.average` (a sinc or one Gauss piece, with a
    bound) are tried next, and where they miss ``tol`` too, or at height
    d > 2, it is adaptive panels and their error estimate.  ``tol`` applies
    to each distinct phase average, not to each output coefficient, whose
    ``AverageResult.est_error`` is the sum over phase vectors of |P| *
    average error, P the summed coefficient products of the tuples with that
    phase vector and output: a bound or an estimate as above, and never
    above the per-tuple sum of |product| * average error.
    """
    return _window_average(sys.m, _phase_groups(sys, fam, fs), interval, tol, budget)


def _window_average(
    m: int, groups: Sequence[_Group], interval: tuple[float, float], tol: float, budget: int
) -> AverageResult:
    """:func:`multiple_average` over one window, from the phase groups."""
    a, b = float(interval[0]), float(interval[1])
    if not 0 <= a < b:
        raise ValueError("need an interval (a, b) with 0 <= a < b")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    value: dict[Freq, complex] = {}
    errors: dict[Freq, float] = {}
    for coeffs, by_out in groups:
        avg, err = osc_phase_average(coeffs, a, b, tol, budget)[:2] if coeffs else (1.0 + 0j, 0.0)
        for out, P in by_out.items():
            value[out] = value.get(out, 0j) + P * avg
            errors[out] = errors.get(out, 0.0) + abs(P) * err
    return AverageResult(TrigPoly(m, value), (a, b), errors)


def symbolic_limit(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> TrigPoly:
    """Exact tempered-uniform limit of the multiple averages: a frequency
    tuple survives iff its entire phase vector vanishes.

    Only the surviving tuples are built, by the hash join on the members'
    integer phase tables (see :func:`_resonant_tuples`): with supports of
    size |S| the cost is about |S|^ceil(k/2) plus the number of survivors,
    not |S|^k.  Survivors are summed in itertools.product order, as a full
    enumeration would sum them.
    """
    return _sum_by_output(sys.m, _resonant_tuples(sys, fam, fs))


def furstenberg_moment(
    sys: TorusSystem,
    fam: FPolyFamily,
    observables: Sequence[TrigPoly],
    shifts: Sequence[tuple[int, Fraction]] = (),
) -> tuple[complex, list[complex]]:
    """Moment of the limiting self-joining, integrating f_0 x f_1 x ... x f_k,
    and the moment after each off-diagonal shift (j, t): the flow at
    coordinate j (1-based) for exact rational time t.

    A tuple (chi_0, ..., chi_k) contributes iff the phase vector of
    (chi_1, ..., chi_k) vanishes, which one hash join decides (see
    :func:`symbolic_limit`), and chi_0 cancels their output frequency (Haar
    orthogonality: one lookup in f_0).  A shift multiplies each contributing
    tuple by exp(2*pi*i*t*c_j), with c_j = sum_i chi_i^T A v_{i,j} an exact
    rational computed from A and the v, not from the join's tables: the
    products A v_{i,j} are integer vectors over one denominator (see
    :func:`_columns`), and c_j is their sum against the tuple over it.  On a
    correct join c_j = 0, the factor is exactly 1 and the moment is
    invariant; a join that let through a tuple with c_j != 0 would change the
    shifted moment.  Tuples are summed in itertools.product order over
    (chi_1, ..., chi_k).
    """
    if len(observables) != fam.k + 1:
        raise ValueError("need exactly k + 1 observables (f_0 through f_k)")
    for j, t in shifts:
        if not 1 <= j <= fam.height:
            raise ValueError(f"shift coordinate {j} out of range 1..{fam.height}")
        if not isinstance(t, numbers.Rational):
            raise ValueError("shift times must be exact rationals")
    if not family_is_good(fam):
        raise ValueError("self-joining moments are defined for good families")
    f0 = observables[0]
    if f0.m != sys.m:
        raise ValueError("observable does not live on this torus")
    resonant = _resonant_tuples(sys, fam, observables[1:])
    cols, denom = _columns(sys, fam)
    moment, shifted = 0j, [0j] * len(shifts)
    for combo, out, prod in resonant:
        c0 = f0.terms.get(tuple(-x for x in out))
        if c0 is None:
            continue
        weight = c0 * prod
        moment += weight
        for s, (j, t) in enumerate(shifts):
            c_j = Fraction(sum(c * x for chi, member in zip(combo, cols)
                               for c, x in zip(chi, member[j - 1]) if c), denom)
            shifted[s] += weight * _unit_phase(t * c_j)
    return moment, shifted


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
) -> ConvergenceReport:
    """Track || A_{I_n} - limit ||_2 (exact Parseval distance) and successive
    Cauchy differences along a tempered sequence; passes when the final
    distance is below ``tol``.

    One enumeration of the tuples serves the command: the limit is the
    phase group with phase vector 0 of :func:`_phase_groups`, whose P per
    output sums the same products in the same itertools.product order as
    :func:`symbolic_limit`'s join, so it is the same to the bit."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    groups = _phase_groups(sys, fam, fs)
    limit = TrigPoly(sys.m, next((by_out for coeffs, by_out in groups if not coeffs), {}))
    rows = []
    prev: TrigPoly | None = None
    for n in range(1, n_max + 1):
        a, b = seq.interval(n)
        res = _window_average(sys.m, groups, (a, b), quad_tol, budget)
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


def _correlation_pairs(groups: Sequence[_Group]) -> list[tuple[complex, Phase]]:
    """Weighted phases theta_1(t + h) - theta_2(t) entering <u(t+h), u(t)>:
    two phase groups pair up at each output they share (Haar orthogonality),
    weighted P * conj(P'), P the group's summed coefficient products there."""
    by_out: dict[Freq, list[tuple[complex, dict[Fraction, float]]]] = {}
    for coeffs, outs in groups:
        for out, P in outs.items():
            by_out.setdefault(out, []).append((P, coeffs))
    return [
        (p1 * p2.conjugate(), Phase({e: -c for e, c in c2.items()}, shifted=c1))
        for out in sorted(by_out)
        for p1, c1 in by_out[out]
        for p2, c2 in by_out[out]
    ]


def _correlation_average(
    pairs: Sequence[tuple[complex, Phase]], T: float, hs, tol: float, budget: int
):
    """avg over t in (0, T) of <u(t+h), u(t)> at each shift h of ``hs``: a
    complex for a scalar h, else an array over the shifts.

    Each non-constant pair is integrated after its substitution t = u^L,
    which keeps the phase derivative bounded near zero even for fractional
    exponents, on batches of ``_BATCH_ROWS`` (63) shifts: one
    :func:`~fpet.quadrature.adaptive_integral` per batch, whose rows share
    their panels and each meet ``tol`` on their own.  The window guard of a
    batch (which refuses a window too far out for the float phase) takes
    its largest shift, and the panels are graded toward the branch point
    of its smallest (:meth:`~fpet.quadrature.Phase.at`).  A pair whose
    phase is constant in t (at height 1, two groups with one phase vector)
    takes one panel per batch."""
    shifts = np.atleast_1d(np.asarray(hs, dtype=float))
    total = np.zeros(shifts.shape, dtype=complex)
    for weight, phase in pairs:
        if not (phase.coeffs or phase.shifted):
            total += weight
            continue
        for s in range(0, len(shifts), _BATCH_ROWS):
            moved = phase.at(shifts[s : s + _BATCH_ROWS])
            L, integrand, theta = moved.substitute(T, tol)
            values, _, _ = adaptive_integral(
                integrand, 0.0, T ** (1.0 / L), tol * T, budget, theta, branch=moved.branch
            )
            total[s : s + _BATCH_ROWS] += weight * values / T
    return complex(total[0]) if np.ndim(hs) == 0 else total


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
    if not (0 < T < math.inf and 0 < H < math.inf):
        raise ValueError("T and H must be finite and positive")
    groups = _phase_groups(sys, fam, fs)
    lhs = _window_average(sys.m, groups, (0.0, T), quad_tol, budget).value.norm2() ** 2
    pairs = _correlation_pairs(groups)

    def outer(hs):
        return np.abs(_correlation_average(pairs, T, hs, quad_tol, budget))

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

    The two limits differ by the contribution of f_k - E(f_k | factor): the
    witnesses, the surviving frequency tuples whose last frequency lies
    outside the factor lattice.  Their products are taken and summed by
    output exactly, as Fractions of the float coefficients (see
    :func:`symbolic_limit` for the cost of the join).  AGREE means every
    sum is 0; ``distance`` is the norm of the sums correctly rounded.
    DISAGREE, a legitimate outcome, is reported, not raised."""
    factor = xi_factor(sys, fam)
    outside = [term for term in _resonant_tuples(sys, fam, fs) if not factor.contains(term[0][-1])]
    sums: dict[Freq, tuple[Fraction, Fraction]] = {}
    for combo, out, _ in outside:
        re, im = Fraction(1), Fraction(0)
        for f, chi in zip(fs, combo):
            x, y = map(Fraction, (f.terms[chi].real, f.terms[chi].imag))
            re, im = re * x - im * y, re * y + im * x
        s_re, s_im = sums.get(out, (0, 0))
        sums[out] = s_re + re, s_im + im
    try:
        rounded = [float(x) for pair in sums.values() for x in pair]
    except OverflowError:
        raise ValueError("a witness sum exceeds the float range") from None
    verdict = "DISAGREE" if any(x for pair in sums.values() for x in pair) else "AGREE"
    witnesses = tuple(combo for combo, _, _ in outside)
    # hypot scales its terms, where squares of sums below 1e-154 underflow
    return CharacteristicReport(verdict, math.hypot(*rounded), witnesses, factor)
