import cmath
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpet import averages
from fpet.averages import (
    convergence_diagnostic,
    furstenberg_moment,
    multiple_average,
    partially_characteristic_check,
    symbolic_limit,
    vdc_bound_check,
)
from fpet.fpoly import FPolyFamily, random_good_family
from fpet.interval import TemperedSequence, tempered_family
from fpet.quadrature import _BATCH_ROWS, DEFAULT_BUDGET, Phase, adaptive_integral, osc_phase_average
from fpet.torus import CharacterLattice, TorusSystem, TrigPoly, act, project_factor, xi_factor

F = Fraction


def test_weyl_limit_matches_numeric_average():
    """A nonzero phase sum_j c_j t^(j/d) averages to the tempered-uniform
    limit 0."""
    value, _, _ = osc_phase_average({F(1, 2): 1.0}, 0.0, 1e6, 1e-6)
    assert abs(value) < 1e-2


def test_multiple_average_all_ones(plane_system, linear_pair_family):
    ones = [TrigPoly.one(2), TrigPoly.one(2)]
    res = multiple_average(plane_system, linear_pair_family, ones, (3.0, 50.0), 1e-9)
    assert res.value.terms == {(0, 0): 1.0 + 0j}
    assert res.est_error[(0, 0)] == 0.0


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_multiple_average_rejects_non_finite_tol(plane_system, linear_pair_family, tol):
    # every phase vector vanishes, so no quadrature would catch the tolerance
    ones = [TrigPoly.one(2), TrigPoly.one(2)]
    with pytest.raises(ValueError, match="tolerance"):
        multiple_average(plane_system, linear_pair_family, ones, (3.0, 50.0), tol)


def test_multiple_average_k1_closed_form(circle_system):
    fam = FPolyFamily.make([[[1]]])
    f = TrigPoly.character(1, (1,))
    for T in (10.0, 500.0, 12345.0):
        res = multiple_average(circle_system, fam, [f], (0.0, T), 1e-10)
        oracle = (np.exp(2j * np.pi * T) - 1) / (2j * np.pi * T)
        assert abs(res.value.coeff((1,)) - oracle) < 1e-9


def test_multiple_average_resonant_exact(plane_system, linear_pair_family):
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, -1))]
    res = multiple_average(plane_system, linear_pair_family, fs, (0.0, 37.0), 1e-9)
    assert res.value.coeff((1, -1)) == 1.0 + 0j  # phase cancels identically
    assert res.est_error[(1, -1)] == 0.0


def test_multiple_average_support_law(plane_system, linear_pair_family, rng):
    for _ in range(5):
        fs = []
        for _ in range(2):
            terms = {
                (rng.randint(-2, 2), rng.randint(-2, 2)): complex(rng.uniform(-1, 1))
                for _ in range(3)
            }
            fs.append(TrigPoly(2, terms))
        res = multiple_average(plane_system, linear_pair_family, fs, (1.0, 40.0), 1e-6)
        minkowski = {
            tuple(a + b for a, b in zip(c1, c2))
            for c1 in fs[0].support()
            for c2 in fs[1].support()
        }
        assert set(res.value.support()) <= minkowski


def test_symbolic_limit_examples(circle_system, plane_system, linear_pair_family):
    fam = FPolyFamily.make([[[1]]])
    nonresonant = symbolic_limit(circle_system, fam, [TrigPoly.character(1, (1,))])
    assert nonresonant.terms == {}
    ones = symbolic_limit(plane_system, linear_pair_family, [TrigPoly.one(2), TrigPoly.one(2)])
    assert ones.terms == {(0, 0): 1.0 + 0j}
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, -1))]
    resonant = symbolic_limit(plane_system, linear_pair_family, fs)
    assert resonant.terms == {(1, -1): 1.0 + 0j}


def test_symbolic_limit_matches_projection_k1(circle_system):
    # the k = 1 limit is the conditional expectation onto the invariant factor
    from fpet.torus import isotropy_lattice

    fam = FPolyFamily.make([[[1]]])
    f = TrigPoly(1, {(0,): 0.5, (1,): 1.0, (-2,): 2.0})
    limit = symbolic_limit(circle_system, fam, [f])
    invariant = isotropy_lattice(circle_system, [[1]])
    assert limit == project_factor(f, invariant)


def test_furstenberg_probability(plane_system, linear_pair_family):
    ones = tuple(TrigPoly.one(2) for _ in range(3))
    assert furstenberg_moment(plane_system, linear_pair_family, ones) == (1.0 + 0j, [])


def test_furstenberg_resonant_triple(plane_system, linear_pair_family):
    fs = (
        TrigPoly.character(2, (-1, 1)),
        TrigPoly.character(2, (1, 0)),
        TrigPoly.character(2, (0, -1)),
    )
    assert furstenberg_moment(plane_system, linear_pair_family, fs)[0] == 1.0 + 0j


def test_furstenberg_marginals(plane_system, linear_pair_family, rng):
    # with all but one observable constant, the moment is the Haar integral
    for slot in range(3):
        f = TrigPoly(2, {(0, 0): 0.7, (1, 2): 0.3j, (-1, 0): 0.1})
        fs = [TrigPoly.one(2)] * 3
        fs[slot] = f
        moment, _ = furstenberg_moment(plane_system, linear_pair_family, fs)
        assert abs(moment - f.haar()) < 1e-15


def test_furstenberg_shift_invariance_exact(plane_system, linear_pair_family, rng):
    fs = (
        TrigPoly(2, {(-1, 1): 1.0, (0, 0): 0.25}),
        TrigPoly(2, {(1, 0): 1.0, (2, 1): 0.5j}),
        TrigPoly(2, {(0, -1): 1.0, (-2, -1): -0.5}),
    )
    shifts = [
        (j, t)
        for j in range(1, linear_pair_family.height + 1)
        for t in (F(-1), F(1), F(-1, 3), F(1, 3), F(7))
    ]
    base, shifted = furstenberg_moment(plane_system, linear_pair_family, fs, shifts)
    assert base != 0 and shifted == [base] * len(shifts)


def test_furstenberg_moment_validation(plane_system, linear_pair_family):
    ones = tuple(TrigPoly.one(2) for _ in range(3))
    bad = [
        ((TrigPoly.one(2),), ()),  # k + 1 observables
        (ones, [(3, F(1))]),  # 1 <= j <= height
        (ones, [(0, F(1))]),
        (ones, [(1, 0.5)]),  # exact rational t
        ((TrigPoly.one(1), *ones[1:]), ()),  # f_0 on the same torus
    ]
    for observables, shifts in bad:
        with pytest.raises(ValueError):
            furstenberg_moment(plane_system, linear_pair_family, observables, shifts)
    not_good = FPolyFamily.make([[[1, 0]], [[2, 0]]])
    with pytest.raises(ValueError, match="good"):
        furstenberg_moment(plane_system, not_good, ones)


def test_convergence_constant_observables(plane_system, linear_pair_family):
    ones = [TrigPoly.one(2), TrigPoly.one(2)]
    report = convergence_diagnostic(
        plane_system, linear_pair_family, ones, tempered_family("pinned"), 6, tol=1e-12
    )
    assert report.passed
    assert all(row.distance == 0.0 for row in report.rows)


def test_convergence_k1_decay(circle_system):
    fam = FPolyFamily.make([[[F(1, 3)]]])
    f = TrigPoly.character(1, (1,))
    report = convergence_diagnostic(
        circle_system, fam, [f], tempered_family("pinned"), 14, tol=1e-2
    )
    assert report.passed
    dists = [row.distance for row in report.rows]
    assert all(d2 <= d1 for d1, d2 in zip(dists[3:], dists[4:]))
    cauchy = [row.cauchy_diff for row in report.rows[1:]]
    assert all(c2 <= c1 for c1, c2 in zip(cauchy[2:], cauchy[3:]))


def test_convergence_sliding_same_limit(circle_system):
    fam = FPolyFamily.make([[[F(1, 3)]]])
    f = TrigPoly.character(1, (1,))
    finals = []
    for name in ("pinned", "sliding-k1", "sliding-k5"):
        report = convergence_diagnostic(
            circle_system, fam, [f], tempered_family(name), 13, tol=2e-2
        )
        assert report.passed
        finals.append(report.rows[-1].distance)
    assert max(finals) < 2e-2


def test_convergence_rejects_empty_prefix(circle_system):
    fam = FPolyFamily.make([[[F(1, 3)]]])
    f = TrigPoly.character(1, (1,))
    with pytest.raises(ValueError, match="n_max"):
        convergence_diagnostic(circle_system, fam, [f], tempered_family("pinned"), 0)


@pytest.mark.parametrize("T,H", [(100.0, float("inf")), (float("inf"), 10.0)])
def test_vdc_rejects_non_finite_horizons(plane_system, linear_pair_family, T, H):
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, 1))]
    with pytest.raises(ValueError, match="finite"):
        vdc_bound_check(plane_system, linear_pair_family, fs, T, H)


def test_vdc_constant_is_tight(plane_system, linear_pair_family):
    ones = [TrigPoly.one(2), TrigPoly.one(2)]
    report = vdc_bound_check(plane_system, linear_pair_family, ones, 100.0, 10.0)
    assert report.passed
    assert report.lhs == pytest.approx(1.0, abs=1e-9)
    assert report.rhs_core == pytest.approx(1.0, abs=1e-6)
    assert report.margin == pytest.approx(0.0, abs=1e-6)


def test_vdc_resonant_both_sides_one(plane_system, linear_pair_family):
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, -1))]
    report = vdc_bound_check(plane_system, linear_pair_family, fs, 1000.0, 50.0)
    assert report.passed
    assert report.lhs == pytest.approx(1.0, abs=1e-8)
    assert report.rhs_core == pytest.approx(1.0, abs=1e-5)


def test_vdc_random_small_instances(plane_system, linear_pair_family):
    rng = random.Random(5)
    for _ in range(5):
        chi1 = (rng.randint(1, 3), 0)
        chi2 = (0, rng.randint(-3, -1))
        fs = [TrigPoly.character(2, chi1), TrigPoly.character(2, chi2)]
        report = vdc_bound_check(plane_system, linear_pair_family, fs, 1e4, 1e2)
        assert report.passed


def test_characteristic_k1_always_agrees(circle_system):
    fam = FPolyFamily.make([[[F(2, 3)]]])
    f = TrigPoly(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    report = partially_characteristic_check(circle_system, fam, [f])
    assert report.verdict == "AGREE"
    assert report.distance == 0.0
    assert report.witnesses == ()


def test_characteristic_projected_observable_trivially_agrees(plane_system, linear_pair_family):
    xi = xi_factor(plane_system, linear_pair_family)
    f2 = project_factor(TrigPoly(2, {(0, 1): 1.0, (1, 1): 2.0}), xi)
    fs = [TrigPoly.character(2, (1, 0)), f2]
    report = partially_characteristic_check(plane_system, linear_pair_family, fs)
    assert report.verdict == "AGREE"


def test_characteristic_resonant_pair(plane_system, linear_pair_family):
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, -1))]
    report = partially_characteristic_check(plane_system, linear_pair_family, fs)
    assert report.verdict == "AGREE"
    assert report.distance == 0.0


def test_shift_consistency_linear(plane_system, linear_pair_family):
    # a common rational shift w commutes with averaging:
    # A_I(f_1 o tau^w, f_2 o tau^w) = A_I(f_1, f_2) o tau^w
    fs = [TrigPoly(2, {(1, 0): 1.0}), TrigPoly(2, {(0, 1): 0.5, (0, -1): 0.25})]
    w = [F(1, 3), F(2, 5)]
    shifted_obs = [act(plane_system, w, f) for f in fs]
    lhs = multiple_average(plane_system, linear_pair_family, shifted_obs, (0.0, 200.0), 1e-9)
    base = multiple_average(plane_system, linear_pair_family, fs, (0.0, 200.0), 1e-9)
    rhs = act(plane_system, w, base.value)
    for chi in set(lhs.value.support()) | set(rhs.support()):
        assert abs(lhs.value.coeff(chi) - rhs.coeff(chi)) < 1e-12


def test_oracle_consistency_distance_decreases(plane_system):
    fam = FPolyFamily.make([[[F(1, 3), 0]], [[0, F(1, 3)]]])
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, 1))]
    limit = symbolic_limit(plane_system, fam, fs)
    dists = []
    for T in (1e2, 1e3, 1e4, 1e5):
        res = multiple_average(plane_system, fam, fs, (0.0, T), 1e-8)
        dists.append((res.value - limit).norm2())
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-2


# ---------------------------------------------------------------------------
# the zero-phase hash join against a full itertools.product enumeration


def ref_resonant(sys, fam, fs):
    """(combo, output frequency, coefficient product) of every tuple whose
    exact phase vector vanishes, by full enumeration and TorusSystem.phase."""
    found = []
    for combo in itertools.product(*(f.support() for f in fs)):
        phase = [
            sum(sys.phase(chi, p.coeffs[j]) for chi, p in zip(combo, fam.members))
            for j in range(fam.height)
        ]
        if any(phase):
            continue
        prod = 1.0 + 0j
        for f, chi in zip(fs, combo):
            prod *= f.terms[chi]
        found.append((combo, tuple(sum(x) for x in zip(*combo)), prod))
    return found


def ref_limit(sys, fam, fs):
    value = {}
    for _, out, prod in ref_resonant(sys, fam, fs):
        value[out] = value.get(out, 0j) + prod
    return {out: c for out, c in value.items() if c != 0}


def ref_moment(sys, fam, observables, shift=None):
    f0, rest = observables[0], observables[1:]
    total = 0j
    for _, out, prod in ref_resonant(sys, fam, rest):
        c0 = f0.terms.get(tuple(-x for x in out))
        if c0 is None:
            continue
        weight = c0 * prod
        if shift is not None:
            weight *= cmath.exp(2j * cmath.pi * float(shift[1] * 0))
        total += weight
    return total


def assert_join_matches(sys, fam, fs, f0, shift):
    limit = symbolic_limit(sys, fam, fs)
    # same values and the same insertion order (it fixes later float sums)
    assert list(limit.terms.items()) == list(ref_limit(sys, fam, fs).items())
    observables = (f0, *fs)
    moment, shifted = furstenberg_moment(sys, fam, observables, [shift])
    assert moment == ref_moment(sys, fam, observables)
    assert shifted == [ref_moment(sys, fam, observables, shift)]
    report = partially_characteristic_check(sys, fam, fs)
    # the projected limit, bit for bit, as a join on the projected f_k finds it
    projected = symbolic_limit(sys, fam, [*fs[:-1], project_factor(fs[-1], report.factor)])
    diff = limit - projected
    assert (report.verdict == "AGREE") == (not diff.terms)
    assert report.distance == diff.norm2()
    assert report.witnesses == tuple(
        combo
        for combo, _, _ in ref_resonant(sys, fam, fs)
        if not report.factor.contains(combo[-1])
    )


_SCALES = (F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(2, 3))


@st.composite
def join_cases(draw):
    """A good family (k in 1..4, height 1 or 2) of sheared, scaled basis
    vectors, a small integer system on T^1 or T^2, and observables with small
    supports, so that resonant tuples are common."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    D = k * d
    A = [[draw(st.sampled_from([0, 0, 0, 1, -1, 2])) for _ in range(D)] for _ in range(m)]
    if not any(any(row) for row in A):
        A[0][0] = 1
    vectors = []
    for r in range(D):
        row = [F(0)] * D
        row[r] = draw(st.sampled_from(_SCALES))
        if r:
            # a shear by an earlier row keeps the vectors jointly independent
            c, src = draw(st.sampled_from([0, 0, 0, 1, -1, F(1, 2)])), draw(st.integers(0, r - 1))
            row = [x + c * y for x, y in zip(row, vectors[src])]
        vectors.append(row)
    fam = FPolyFamily.make([vectors[i * d : (i + 1) * d] for i in range(k)], height=d)
    freq = st.tuples(*[st.integers(-1, 1)] * m)
    coeff = st.sampled_from([1.0, -0.5, 0.25j, 0.3 - 0.7j, 1.5 + 0.1j])

    def obs(max_terms):
        return TrigPoly(m, draw(st.dictionaries(freq, coeff, max_size=max_terms)))

    fs = [obs(4) for _ in range(k)]
    f0 = obs(6)
    shift = (draw(st.integers(1, d)), draw(st.sampled_from([F(1, 3), F(-7), F(5, 2)])))
    return TorusSystem.make(A), fam, fs, f0, shift


@settings(max_examples=100, deadline=None)
@given(join_cases())
def test_zero_phase_join_matches_full_enumeration(case):
    assert_join_matches(*case)


def test_zero_phase_join_edge_cases(plane_system, linear_pair_family):
    # non-resonant: t e_1 against the character (1, 0) never loses its phase
    fam1 = FPolyFamily.make([[[1, 0]]])
    f = TrigPoly(2, {(1, 0): 1.0, (2, 1): 0.5})
    assert symbolic_limit(plane_system, fam1, [f]).terms == {}
    assert ref_resonant(plane_system, fam1, [f]) == []
    assert_join_matches(plane_system, fam1, [f], TrigPoly(2, {(-1, 0): 1.0}), (1, F(1, 3)))
    # an observable emptied by project_factor contributes no tuple at all
    emptied = project_factor(TrigPoly(2, {(1, 1): 1.0}), CharacterLattice.zero(2))
    assert emptied.terms == {}
    fs = [TrigPoly(2, {(1, 0): 1.0, (0, 0): 0.5}), emptied]
    assert symbolic_limit(plane_system, linear_pair_family, fs).terms == {}
    assert_join_matches(plane_system, linear_pair_family, fs, TrigPoly.one(2), (1, F(7)))
    # resonant tuples exist, but f_0 has no frequency cancelling their output
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, -1))]
    assert symbolic_limit(plane_system, linear_pair_family, fs).terms == {(1, -1): 1.0 + 0j}
    f0 = TrigPoly(2, {(1, -1): 1.0, (0, 0): 2.0})
    assert furstenberg_moment(plane_system, linear_pair_family, (f0, *fs))[0] == 0j
    assert_join_matches(plane_system, linear_pair_family, fs, f0, (1, F(-1, 3)))
    # a torus coordinate the flow never moves: survivors outside the factor
    still = TorusSystem.make([[1, 0, -1], [0, 0, 0]])
    fam2 = FPolyFamily.make([[[-1, -1, 0]], [[1, -1, 0]]])
    grid = list(itertools.product((-1, 0, 1), repeat=2))
    fs = [TrigPoly(2, {chi: 1.0 + 0.25j * n for n, chi in enumerate(grid)}) for _ in range(2)]
    report = partially_characteristic_check(still, fam2, fs)
    assert report.verdict == "DISAGREE" and len(report.witnesses) > 1
    assert_join_matches(still, fam2, fs, TrigPoly(2, {(1, 1): 1.0, (2, 0): -1.0}), (1, F(1, 3)))


def test_zero_phase_join_partial_sum_count(monkeypatch):
    # k = 3 with 16-term observables: 16 + 16^2 partial sums, not 16^3 tuples
    built = []
    real = averages._partial_sums

    def counting(keys, width):
        sums = real(keys, width)
        built.append(len(sums))
        return sums

    monkeypatch.setattr(averages, "_partial_sums", counting)
    sys3 = TorusSystem.make([[1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 1]])
    fam = FPolyFamily.make(
        [[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
         [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
         [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]],
    )
    support = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 0, 1, 2)]
    fs = [TrigPoly(3, {chi: 1.0 + 0.5j * i for chi in support}) for i in range(3)]
    limit = symbolic_limit(sys3, fam, fs)
    assert sum(built) <= 16 + 16**2
    assert list(limit.terms.items()) == list(ref_limit(sys3, fam, fs).items())


def closure_reference(a1, a2, d, h):
    """The correlation phase and integrand as closures over float
    coefficient arrays (index j holds the coefficient of t^((j + 1)/d)),
    after t = u^d: the formula the correlation phase must reproduce."""

    def phase(u):
        shifted = u**d + h
        out = np.zeros_like(u)
        for j in range(d):
            if a1[j]:
                out = out + a1[j] * shifted ** ((j + 1) / d)
            if a2[j]:
                out = out - a2[j] * u ** (j + 1)
        return out

    def integrand(u):
        return (d * u ** (d - 1)) * np.exp(2j * np.pi * phase(u))

    return integrand, phase


def _grouped_reference(sys, fam, fs):
    """The tuple rows of ``_tuple_data`` grouped by (output, n): per output,
    in sorted order, the sorted (n, summed coefficient products)."""
    tables, denom = averages._phase_tables(sys, fam, fs)
    sums = {}
    for _, out, prod, n in averages._tuple_data(tables, fam.height):
        row = sums.setdefault(out, {})
        row[n] = row.get(n, 0j) + prod
    return denom, [sorted(sums[out].items()) for out in sorted(sums)]


def test_correlation_phase_matches_closure_formula(plane_system):
    fam = FPolyFamily.make([[[1, 0], [0, 1]], [[F(1, 3), 1], [1, 0]]])
    fs = [
        TrigPoly(2, {(1, 0): 0.5, (0, 1): 0.3j, (1, 1): -0.2}),
        TrigPoly(2, {(-1, 0): 0.7, (0, 0): 0.1, (0, -1): 0.4 - 0.1j}),
    ]
    d = fam.height
    denom, by_out = _grouped_reference(plane_system, fam, fs)
    expected = [
        (p1 * p2.conjugate(), np.array(n1) / denom, np.array(n2) / denom)
        for groups in by_out
        for n1, p1 in groups
        for n2, p2 in groups
    ]
    pairs = averages._correlation_pairs(averages._phase_groups(plane_system, fam, fs))
    assert [w for w, _ in pairs] == [w for w, _, _ in expected]
    u = np.linspace(0.0, 10.0, 201)
    seen = set()
    for (_, phase), (_, a1, a2) in zip(pairs, expected):
        constant = not (phase.coeffs or phase.shifted)
        assert constant == (not a1.any() and not a2.any())
        if constant:
            continue
        for h in (0.3, 1.7, 25.0):
            L, integrand, theta = phase.at(h).substitute(u[-1] ** d, 1e-8)
            ref_integrand, ref_theta = closure_reference(a1, a2, d, h)
            # the phase substitutes t = v^L with L | d; at v = u^(d/L) its
            # u-density is its v-density times dv/du, and theta is the same
            k = d // L
            seen.add(L)
            v, jac = u**k, k * u ** (k - 1)
            assert L * k == d
            assert np.max(np.abs(integrand(v) * jac - ref_integrand(u))) <= 1e-12 * d * u[-1] ** (d - 1)
            assert np.allclose(theta(v), ref_theta(u), rtol=1e-12, atol=1e-12)
    assert seen == {1, 2}


def test_correlation_pairs_merge_tuples_with_one_phase_and_output(plane_system):
    """Two identical members on the identity system: a tuple's phase vector is
    its output frequency, so each output holds one phase group.  The 25
    tuples have 12 outputs, hence 12 group pairs against 65 tuple pairs, and
    both sums of correlations agree within the quadrature tolerance."""
    fam = FPolyFamily.make([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    support = [(-1, -1), (-1, 0), (0, -1), (0, 0), (1, 0)]
    fs = [
        TrigPoly(2, {chi: complex(0.3 + 0.1 * i, 0.2 * j - 0.15) for i, chi in enumerate(support)})
        for j in range(2)
    ]
    pairs = averages._correlation_pairs(averages._phase_groups(plane_system, fam, fs))
    assert len(pairs) == 12
    _, by_out = _grouped_reference(plane_system, fam, fs)
    assert [w for w, _ in pairs] == [
        p1 * p2.conjugate() for groups in by_out for _, p1 in groups for _, p2 in groups
    ]

    tables, denom = averages._phase_tables(plane_system, fam, fs)
    tuples = {}
    for _, out, prod, n in averages._tuple_data(tables, fam.height):
        coeffs = {F(j + 1, fam.height): x / denom for j, x in enumerate(n)}
        tuples.setdefault(out, []).append((prod, coeffs))
    tuple_pairs = [
        (p1 * p2.conjugate(), Phase({e: -c for e, c in c2.items()}, shifted=c1))
        for out in sorted(tuples)
        for p1, c1 in tuples[out]
        for p2, c2 in tuples[out]
    ]
    assert len(tuple_pairs) == 65
    T, tol = 50.0, 1e-6
    slack = 2 * tol * sum(abs(w) for w, _ in tuple_pairs)
    for h in (0.3, 1.7, 4.0):
        grouped = averages._correlation_average(pairs, T, h, tol, DEFAULT_BUDGET)
        single = averages._correlation_average(tuple_pairs, T, h, tol, DEFAULT_BUDGET)
        assert abs(grouped - single) <= slack


def test_multiple_average_sums_each_phase_group_once(plane_system):
    """Two identical members on the identity system, so several tuples share
    each (phase vector, output).  The average matches the per-tuple sum of
    product * osc_phase_average within its reported error, and that error is
    the sum of |P| * err over the groups, P a group's summed products: never
    above the per-tuple sum of |product| * err."""
    fam = FPolyFamily.make([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    support = [(-1, -1), (-1, 0), (0, -1), (0, 0), (1, 0)]
    fs = [
        TrigPoly(2, {chi: complex(0.3 + 0.1 * i, 0.2 * j - 0.15) for i, chi in enumerate(support)})
        for j in range(2)
    ]
    window, tol = (3.0, 50.0), 1e-9
    res = multiple_average(plane_system, fam, fs, window, tol)

    tables, denom = averages._phase_tables(plane_system, fam, fs)
    value, per_tuple, groups = {}, {}, {}
    for _, out, prod, n in averages._tuple_data(tables, fam.height):
        coeffs = {F(j + 1, fam.height): x / denom for j, x in enumerate(n)}
        avg, err, _ = osc_phase_average(coeffs, *window, tol)
        value[out] = value.get(out, 0j) + prod * avg
        per_tuple[out] = per_tuple.get(out, 0.0) + abs(prod) * err
        P, _, count = groups.get((out, n), (0j, err, 0))
        groups[(out, n)] = (P + prod, err, count + 1)
    assert max(count for _, _, count in groups.values()) > 1
    grouped = {}
    for (out, _), (P, err, _) in groups.items():
        grouped[out] = grouped.get(out, 0.0) + abs(P) * err
    assert value.keys() == res.est_error.keys()
    for out, ref in value.items():
        # TrigPoly drops an exactly zero coefficient
        assert abs(res.value.terms.get(out, 0j) - ref) <= res.est_error[out]
        assert res.est_error[out] == pytest.approx(grouped[out], rel=1e-12, abs=0.0)
        assert res.est_error[out] <= per_tuple[out] * (1 + 1e-12)


def test_tuples_are_enumerated_once_per_command(circle_system, monkeypatch):
    """One enumeration of the tuples per command; a convergence command
    also builds the phase tables once, taking its limit from the phase
    group with phase vector 0 rather than from a second, joined pass."""
    calls, tables = [], []
    enumerate_tuples, phase_tables = averages._tuple_data, averages._phase_tables

    def counted(*args):
        calls.append(args)
        return enumerate_tuples(*args)

    def counted_tables(*args):
        tables.append(args)
        return phase_tables(*args)

    monkeypatch.setattr(averages, "_tuple_data", counted)
    monkeypatch.setattr(averages, "_phase_tables", counted_tables)
    fam = FPolyFamily.make([[[F(1, 3)], [1]]])
    f = TrigPoly(1, {(1,): 0.5, (-2,): 0.3j, (0,): 0.2})
    report = convergence_diagnostic(circle_system, fam, [f], tempered_family("pinned"), 4)
    assert len(report.rows) == 4 and len(calls) == 1 and len(tables) == 1
    assert report.limit.terms == symbolic_limit(circle_system, fam, [f]).terms
    calls.clear()
    vdc_bound_check(circle_system, fam, [f], 20.0, 2.0)
    assert len(calls) == 1


def _panel_correlation(pairs, T, h, tol):
    """avg over (0, T) of <u(t+h), u(t)>, each pair on its own panels at the
    one shift h: the route of every non-constant pair before batching."""
    total = 0j
    for weight, phase in pairs:
        if phase.coeffs or phase.shifted:
            L, integrand, theta = phase.at(h).substitute(T, tol)
            u1 = T ** (1.0 / L)
            value, _, _ = adaptive_integral(integrand, 0.0, u1, tol * T, DEFAULT_BUDGET, theta)
            total += weight * value / T
        else:
            total += weight
    return total


def _counting_integrals(monkeypatch):
    calls = []
    real = averages.adaptive_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(averages, "adaptive_integral", counted)
    return calls


def test_correlation_batches_match_scalar_shifts(plane_system, monkeypatch):
    """At height 2 every non-constant pair, linear ones included, runs one
    adaptive integral per batch of at most _BATCH_ROWS shifts, and the
    batched correlations agree with the pairs' own panels at each shift."""
    fam = FPolyFamily.make([[[1, 0], [0, 1]], [[F(1, 3), 1], [1, 0]]])
    fs = [
        TrigPoly(2, {(1, 0): 0.5, (0, 1): 0.3j, (1, 1): -0.2}),
        TrigPoly(2, {(-1, 0): 0.7, (0, 0): 0.1, (0, -1): 0.4 - 0.1j}),
    ]
    pairs = averages._correlation_pairs(averages._phase_groups(plane_system, fam, fs))
    moving = sum(1 for _, phase in pairs if phase.coeffs or phase.shifted)
    T, tol = 50.0, 1e-7
    hs = np.linspace(0.1, 6.0, 2 * _BATCH_ROWS + 3)
    calls = _counting_integrals(monkeypatch)
    batched = averages._correlation_average(pairs, T, hs, tol, DEFAULT_BUDGET)
    assert len(calls) == 3 * moving > 0
    assert batched.shape == hs.shape
    slack = tol * sum(abs(w) for w, _ in pairs)
    for h, value in zip(hs, batched):
        assert abs(value - _panel_correlation(pairs, T, h, tol)) <= slack
    assert isinstance(averages._correlation_average(pairs, T, 1.5, tol, DEFAULT_BUDGET), complex)
