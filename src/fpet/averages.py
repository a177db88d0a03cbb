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
(the phase tables).  A finite-interval command enumerates the tuples once,
grouped by phase vector and output (:func:`_phase_groups`): a window averages
each distinct phase vector once, the convergence diagnostic takes its limit
from the group whose phase vector vanishes, and the van der Corput step pairs
phase groups.  A van der Corput correlation runs at many shifts h at once: each
pair's phase is moved to a batch of shifts and integrated in one adaptive
pass (see :func:`_correlation_average`).  The exact limits, self-joining
moments and the partially-characteristic-factor witnesses need only the
tuples whose phase vector vanishes.  Each exact command finds them once, with a
meet-in-the-middle hash join on the tables (:func:`_resonant_tuples`), at a
cost of about |S|^ceil(k/2) plus the number of survivors for supports of size
|S|, instead of |S|^k; Haar orthogonality against f_0 is then one lookup per
survivor, outside the join.  Survivors come out in itertools.product order,
the order a full enumeration visits them, so every float sum is the same.
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
from .quadrature import _BATCH_ROWS, DEFAULT_BUDGET, Phase, adaptive_integral, osc_phase_average
from .ratlinalg import matvec
from .torus import (
    CharacterLattice,
    TorusSystem,
    TrigPoly,
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
    cols = [[matvec(sys.A, v) for v in member.coeffs] for member in fam.members]
    denom = math.lcm(*(x.denominator for member in cols for col in member for x in col))
    tables = []
    for f, member in zip(fs, cols):
        icols = [[x.numerator * (denom // x.denominator) for x in col] for col in member]
        tables.append(
            [
                (chi, f.terms[chi], tuple(sum(c * a for c, a in zip(chi, col)) for col in icols))
                for chi in f.support()
            ]
        )
    return tables, denom


def _vsum(vectors: Iterable[tuple[int, ...]], width: int) -> tuple[int, ...]:
    return tuple(map(sum, zip((0,) * width, *vectors)))


def _tuple_term(entries: Sequence[_Entry]):
    """(frequency tuple, output frequency, coefficient product) of one choice
    of table entries."""
    combo = tuple(chi for chi, _, _ in entries)
    prod = 1.0 + 0j
    for _, c, _ in entries:
        prod *= c
    return combo, tuple(sum(x) for x in zip(*combo)), prod


def _tuple_data(
    tables: Sequence[Sequence[_Entry]], width: int
) -> Iterator[tuple[tuple[Freq, ...], Freq, complex, tuple[int, ...]]]:
    """Enumerate frequency tuples: (tuple, output frequency, coefficient
    product, integer phase vector over denom), in itertools.product order."""
    for entries in itertools.product(*tables):
        yield *_tuple_term(entries), _vsum((n for _, _, n in entries), width)


def _phase_groups(sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]) -> list[_Group]:
    """The tuples grouped by phase vector n, in increasing n.  A group holds
    its Phase coefficients {j/d: n_j/denom} (empty for n = 0) and, per
    output, P: the sum of its tuples' coefficient products, taken in
    itertools.product order."""
    tables, denom = _phase_tables(sys, fam, fs)
    d = fam.height
    groups: dict[tuple[int, ...], dict[Freq, complex]] = {}
    for _, out, prod, n in _tuple_data(tables, d):
        by_out = groups.setdefault(n, {})
        by_out[out] = by_out.get(out, 0j) + prod
    return [
        ({Fraction(j + 1, d): nj / denom for j, nj in enumerate(n)} if any(n) else {}, groups[n])
        for n in sorted(groups)
    ]


def _partial_sums(
    keys: Sequence[Sequence[tuple[int, ...]]], width: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(index tuple, key sum) over the product of the key lists, in
    itertools.product order."""
    return [
        (tuple(i for i, _ in picks), _vsum((key for _, key in picks), width))
        for picks in itertools.product(*(list(enumerate(ks)) for ks in keys))
    ]


def _zero_sum_indices(
    keys: Sequence[Sequence[tuple[int, ...]]], width: int
) -> list[tuple[int, ...]]:
    """Index tuples (one index per key list) whose keys sum to zero, in
    itertools.product order.

    Meet in the middle: the partial sums of the last floor(n/2) lists go into
    a hash table under their negation, and each partial sum of the first
    ceil(n/2) lists looks up its matches there.  With lists of length |S| this
    builds |S|^ceil(n/2) + |S|^floor(n/2) partial sums, plus one item per
    match, instead of the |S|^n full sums.  The first half is scanned in
    product order and each bucket keeps product order, so the matches come
    out in product order too.
    """
    half = (len(keys) + 1) // 2
    right: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for idx, key in _partial_sums(keys[half:], width):
        right.setdefault(tuple(-x for x in key), []).append(idx)
    return [
        idx + tail
        for idx, key in _partial_sums(keys[:half], width)
        for tail in right.get(key, ())
    ]


def _resonant_tuples(
    sys: TorusSystem, fam: FPolyFamily, fs: Sequence[TrigPoly]
) -> list[tuple[tuple[Freq, ...], Freq, complex]]:
    """(tuple, output frequency, coefficient product) of the frequency tuples
    whose exact phase vector vanishes, joined on the phase tables, in
    itertools.product order."""
    tables, _ = _phase_tables(sys, fam, fs)
    hits = _zero_sum_indices([[n for _, _, n in t] for t in tables], fam.height)
    return [_tuple_term([t[i] for t, i in zip(tables, idx)]) for idx in hits]


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
    integer phase tables (see :func:`_zero_sum_indices`): with supports of
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
    tuple by exp(2*pi*i*t*c_j), with c_j = sum_i chi_i^T A v_{i,j} in exact
    rationals from A and the v (A v_{i,j} once per member and j), not from the
    join's integer tables.  On a correct join c_j = 0, the factor is exactly
    1 and the moment is invariant; a join that let through a tuple with
    c_j != 0 would change the shifted moment.  Tuples are summed in
    itertools.product order over (chi_1, ..., chi_k).
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
    cols = {j: [matvec(sys.A, p.coeffs[j - 1]) for p in fam.members] for j, _ in shifts}
    moment, shifted = 0j, [0j] * len(shifts)
    for combo, out, prod in resonant:
        c0 = f0.terms.get(tuple(-x for x in out))
        if c0 is None:
            continue
        weight = c0 * prod
        moment += weight
        for s, (j, t) in enumerate(shifts):
            c_j = sum(c * x for chi, col in zip(combo, cols[j]) for c, x in zip(chi, col) if c)
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
    exponents, on batches of ``_BATCH_ROWS`` shifts: one
    :func:`~fpet.quadrature.adaptive_integral` per batch, whose rows share
    their panels and each meet ``tol`` on their own.  The window guard of a
    batch (which refuses a window too far out for the float phase) takes
    its largest shift."""
    shifts = np.atleast_1d(np.asarray(hs, dtype=float))
    total = np.zeros(shifts.shape, dtype=complex)
    for weight, phase in pairs:
        if not (phase.coeffs or phase.shifted):
            total += weight
            continue
        for s in range(0, len(shifts), _BATCH_ROWS):
            L, integrand, theta = phase.at(shifts[s : s + _BATCH_ROWS]).substitute(T, tol)
            values, _, _ = adaptive_integral(integrand, 0.0, T ** (1.0 / L), tol * T, budget, theta)
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

    AGREE means the two limits coincide exactly.  DISAGREE is a legitimate
    experimental outcome and is reported, not raised; the witnesses are the
    surviving frequency tuples whose last frequency lies outside the factor
    lattice.

    Both limits and the witnesses come from one hash join (see
    :func:`symbolic_limit` for the cost): projecting f_k keeps its terms in
    the factor, so the projected limit sums the survivors whose last
    frequency lies there, in the product order a join on the projected f_k
    would visit them.  Witnesses keep itertools.product order."""
    factor = xi_factor(sys, fam)
    resonant = _resonant_tuples(sys, fam, fs)
    inside = [factor.contains(combo[-1]) for combo, _, _ in resonant]
    limit_full = _sum_by_output(sys.m, resonant)
    limit_proj = _sum_by_output(sys.m, (term for term, keep in zip(resonant, inside) if keep))
    witnesses = tuple(term[0] for term, keep in zip(resonant, inside) if not keep)
    diff = limit_full - limit_proj
    verdict = "AGREE" if not diff.terms else "DISAGREE"
    return CharacteristicReport(verdict, diff.norm2(), witnesses, factor)
