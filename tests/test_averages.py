import cmath
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

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
from fpet.fpoly import FPolyFamily
from fpet.interval import tempered_family
from fpet.quadrature import _BATCH_ROWS, DEFAULT_BUDGET, Phase, adaptive_integral, osc_phase_average
from fpet.torus import (
    CharacterLattice,
    TorusSystem,
    TrigPoly,
    system_from_text,
    system_to_text,
    xi_factor,
)
import fpoly_reference as ref

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


@pytest.mark.parametrize("route", [
    lambda sys_obj, fam, fs: multiple_average(sys_obj, fam, fs, (0.0, 10.0)),
    symbolic_limit,
], ids=["window", "limit"])
@pytest.mark.parametrize("case, error", [
    ("count", "need 2 observables, got 1"),
    ("torus", "observable does not live on this torus"),
    ("dimension", "family and system acting dimensions differ"),
])
def test_phase_tables_reject_mismatched_inputs(plane_system, linear_pair_family, route, case,
                                               error):
    fam, fs = linear_pair_family, [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, 1))]
    if case == "count":
        fs = fs[:1]
    elif case == "torus":
        fs = [fs[0], TrigPoly.character(1, (1,))]
    else:
        fam = FPolyFamily.make([[[1, 0, 0]], [[0, 1, 0]]])
    with pytest.raises(ValueError, match=error):
        route(plane_system, fam, fs)


@pytest.mark.parametrize("interval", [(5.0, 5.0), (6.0, 5.0), (-1.0, 5.0), (math.nan, 5.0)])
def test_multiple_average_rejects_bad_intervals(plane_system, linear_pair_family, interval):
    fs = [TrigPoly.character(2, (1, 0)), TrigPoly.character(2, (0, 1))]
    with pytest.raises(ValueError, match=r"need an interval \(a, b\) with 0 <= a < b"):
        multiple_average(plane_system, linear_pair_family, fs, interval)


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
    assert limit == ref.project_factor(f, invariant)


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
        assert abs(moment - f.coeff((0, 0))) < 1e-15


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


def _fresh_phase_rows(sys_obj, fam, fs, seq, n_max, quad_tol, budget):
    """The rows of :func:`convergence_diagnostic`, each (group, window)
    averaged by a fresh ``Phase`` and each output summed in group order."""
    groups = averages._phase_groups(sys_obj, fam, fs)
    limit = TrigPoly(sys_obj.m, next((by_out for coeffs, by_out in groups if not coeffs), {}))
    rows, prev = [], None
    for n in range(1, n_max + 1):
        a, b = seq.interval(n)
        value, errors = {}, {}
        for coeffs, by_out in groups:
            avg, err = Phase(coeffs).average(a, b, quad_tol, budget)[:2] if coeffs else (1 + 0j, 0.0)
            for out, P in by_out.items():
                value[out] = value.get(out, 0j) + P * avg
                errors[out] = errors.get(out, 0.0) + abs(P) * err
        avg = TrigPoly(sys_obj.m, value)
        cauchy = (avg - prev).norm2() if prev is not None else math.nan
        rows.append((n, a, b, (avg - limit).norm2(), cauchy, max(errors.values(), default=0.0)))
        prev = avg
    return rows


FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", [
    "convergence/1", "convergence/2", "convergence/3",
    # the other run-convergence fixture, broken.cfg, has a family that does not parse
    "fixtures/conv_k1",
])
def test_convergence_rows_match_fresh_phases(tmp_path, monkeypatch, name):
    """Every row of the benchmark's run-convergence configs (seeds 1-3) and
    of the run-convergence fixture equals, to the bit, the row built from a
    fresh phase per group and window."""
    from fpet.cli import _load_inputs, parse_config

    where, _, which = name.partition("/")
    if where == "fixtures":
        configs = [FIXTURES / f"{which}.cfg"]
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import inputs

        configs = [op.config for op in inputs.generate(where, int(which), tmp_path)]
    assert configs
    for config in configs:
        spec = parse_config(config.read_text(), str(config))
        assert spec.command == "run-convergence"
        sys_obj, fam, fs = _load_inputs(spec)
        seq = tempered_family(spec.intervals)
        report = convergence_diagnostic(sys_obj, fam, fs, seq, spec.n_max, tol=spec.pass_tol,
                                        quad_tol=spec.tol, budget=spec.budget)
        rows = [(r.n, r.a, r.b, r.distance, r.cauchy_diff, r.max_coeff_err) for r in report.rows]
        reference = _fresh_phase_rows(sys_obj, fam, fs, seq, spec.n_max, spec.tol, spec.budget)
        assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in reference]


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
    f2 = ref.project_factor(TrigPoly(2, {(0, 1): 1.0, (1, 1): 2.0}), xi)
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
    shifted_obs = [ref.act(plane_system, w, f) for f in fs]
    lhs = multiple_average(plane_system, linear_pair_family, shifted_obs, (0.0, 200.0), 1e-9)
    base = multiple_average(plane_system, linear_pair_family, fs, (0.0, 200.0), 1e-9)
    rhs = ref.act(plane_system, w, base.value)
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
    exact phase vector vanishes, by full enumeration and ``ref.phase``."""
    found = []
    for combo in itertools.product(*(f.support() for f in fs)):
        phase = [
            sum(ref.phase(sys, chi, ref.fractions_of(p)[j]) for chi, p in zip(combo, fam.members))
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
    # the witnesses' products summed by output in product order: the
    # contribution of f_k - E(f_k | factor), the two limits' difference term
    # for term (a float difference of the two limits can lose it)
    witnesses = [
        term for term in ref_resonant(sys, fam, fs) if not report.factor.contains(term[0][-1])
    ]
    gap = {}
    for _, out, prod in witnesses:
        gap[out] = gap.get(out, 0j) + prod
    gap = TrigPoly(sys.m, gap)
    assert (report.verdict == "AGREE") == (not gap.terms)
    assert report.distance == gap.norm2()
    assert report.witnesses == tuple(combo for combo, _, _ in witnesses)


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
    # an observable emptied by a projection contributes no tuple at all
    emptied = ref.project_factor(TrigPoly(2, {(1, 1): 1.0}), CharacterLattice(2, ()))
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


def test_zero_phase_join_keeps_a_witness_the_float_limits_absorb():
    """The check-characteristic fixture whose one witness contributes -3e-21
    at output (-1, 0), where the in-factor tuples sum to 0.03: the witness
    sum, not the difference of the two float limits, decides the verdict."""
    from fpet.cli import _load_inputs, parse_config

    config = FIXTURES / "char_absorbed.cfg"
    sys_obj, fam, fs = _load_inputs(parse_config(config.read_text(), str(config)))
    limit = symbolic_limit(sys_obj, fam, fs)
    expectation = ref.project_factor(fs[-1], xi_factor(sys_obj, fam))
    assert limit == symbolic_limit(sys_obj, fam, [*fs[:-1], expectation])
    report = partially_characteristic_check(sys_obj, fam, fs)
    assert report.verdict == "DISAGREE" and report.distance == 3e-21
    assert report.witnesses == (((-1, 0), (0, -1), (0, 1)),)
    assert_join_matches(sys_obj, fam, fs, TrigPoly(2, {(1, 0): 1.0, (0, 0): 0.5}), (1, F(1, 3)))


def _cancel_inputs():
    from fpet.cli import _load_inputs, parse_config

    config = FIXTURES / "char_cancel.cfg"
    return _load_inputs(parse_config(config.read_text(), str(config)))


def test_characteristic_distance_is_the_exact_witness_sum_rounded():
    """The fixture's three witnesses meet at output (-3, -2) with products
    1 * 1 * c, c the last observable's coefficients.  With c = 0.1, 0.2 and
    -0.3 the float sum is 2^-54, the exact sum of the three floats 2^-55."""
    sys_obj, fam, fs = _cancel_inputs()
    assert partially_characteristic_check(sys_obj, fam, fs).distance == 1e-20
    last = TrigPoly(2, {(1, -2): 0.1, (0, -1): 0.2, (-2, 1): -0.3})
    assert 0.1 + 0.2 - 0.3 == 2.0**-54
    report = partially_characteristic_check(sys_obj, fam, [*fs[:2], last])
    assert report.verdict == "DISAGREE" and report.distance == 2.0**-55


@pytest.mark.parametrize("c", [1e-60, 1e-200])
def test_characteristic_witness_sums_near_and_beyond_the_float_range(c):
    """The fixture's three witnesses with every coefficient c sum to 3 c^3
    at one output.  At c = 1e-60 that is 3e-180, whose square underflows,
    and the distance is still 3e-180; at c = 1e-200 the sum rounds to 0.0
    but is no exact 0, so the verdict is DISAGREE at distance 0.0.
    Products of 1e600 overflow, which is a ValueError, as an infinite
    coefficient is."""
    sys_obj, fam, fs = _cancel_inputs()
    small = [TrigPoly(2, {chi: c for chi in f.terms}) for f in fs]
    report = partially_characteristic_check(sys_obj, fam, small)
    assert report.verdict == "DISAGREE" and report.distance == float(3 * F(c) ** 3)
    huge = [TrigPoly(2, {chi: 1e200 for chi in f.terms}) for f in fs]
    with pytest.raises(ValueError, match="float range"):
        partially_characteristic_check(sys_obj, fam, huge)


# the empty family: one empty tuple, with coefficient 1, output 0 and phase 0


def test_empty_family_limit_is_one(plane_system):
    assert symbolic_limit(plane_system, FPolyFamily(1, 2, ()), []) == TrigPoly.one(2)


def test_empty_family_average_is_one_with_no_error(plane_system):
    res = multiple_average(plane_system, FPolyFamily(1, 2, ()), [], (0.5, 40.0))
    assert res.value == TrigPoly.one(2)
    assert res.est_error == {(0, 0): 0.0}


def test_empty_family_moment_is_the_mean_of_f0(plane_system):
    f0 = TrigPoly(2, {(0, 0): 0.25, (1, 0): 1.0})
    moment, shifted = furstenberg_moment(plane_system, FPolyFamily(1, 2, ()), [f0], [(1, F(1, 3))])
    assert moment == 0.25 and shifted == [0.25]


def test_zero_phase_join_partial_sum_count(monkeypatch):
    # k = 3 with 16-term observables: the join enumerates 16 + 16^2 partial
    # tuples, not 16^3 tuples
    built = []
    real = averages._tuple_data

    def counting(tables, width):
        for item in real(tables, width):
            built.append(1)
            yield item

    monkeypatch.setattr(averages, "_tuple_data", counting)
    sys3 = TorusSystem.make([[1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 1]])
    fam = FPolyFamily.make(
        [[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
         [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
         [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]],
    )
    support = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 0, 1, 2)]
    fs = [TrigPoly(3, {chi: 1.0 + 0.5j * i for chi in support}) for i in range(3)]
    limit = symbolic_limit(sys3, fam, fs)
    assert len(built) <= 16 + 16**2
    assert list(limit.terms.items()) == list(ref_limit(sys3, fam, fs).items())


# entries over 1, 2, 3, 4, 6 and 12, mixed within and across A and the members
_MIXED = (F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 4), F(2, 3), F(-5, 6), F(1, 12))
_MATRIX = (F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3, 4), F(5, 6), F(-1, 4), F(7, 12))


@st.composite
def mixed_cases(draw):
    """A good family (k in 1..3, height 1 or 2) whose last member is
    top-degree, of scaled basis vectors sheared by earlier ones, a system on
    T^1 or T^2 whose matrix mixes denominators, observables with small
    supports, f_0, and two shifts."""
    k, d, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    leads = [draw(st.integers(1, d)) for _ in range(k - 1)] + [d]
    D = sum(leads)
    vectors = []
    for r in range(D):
        row = [F(0)] * D
        row[r] = draw(st.sampled_from(_MIXED))
        if r:
            c = draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3)]))
            row = [x + c * y for x, y in zip(row, vectors[draw(st.integers(0, r - 1))])]
        vectors.append(row)
    members, pos = [], 0
    for lead in leads:
        members.append(vectors[pos : pos + lead] + [[F(0)] * D] * (d - lead))
        pos += lead
    A = [[draw(st.sampled_from(_MATRIX)) for _ in range(D)] for _ in range(m)]
    freq = st.tuples(*[st.integers(-1, 1)] * m)
    coeff = st.sampled_from([1.0, -0.5, 0.25j, 0.3 - 0.7j])

    def obs(max_terms):
        return TrigPoly(m, draw(st.dictionaries(freq, coeff, min_size=1, max_size=max_terms)))

    fs = [obs(3) for _ in range(k)]
    shifts = [(draw(st.integers(1, d)), draw(st.sampled_from([F(1, 3), F(-7), F(5, 2)])))
              for _ in range(2)]
    return A, FPolyFamily.make(members, height=d), fs, obs(6), shifts


def _close(a, b):
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 * (1 + abs(y)) for x, y in zip(a, b))


@settings(max_examples=50, deadline=None)
@given(mixed_cases())
def test_integer_matrix_matches_the_fraction_reference(case):
    """The torus matrix on integer rows over one denominator against the
    route on ``Fraction`` rows (A v in rationals, then the lcm of the reduced
    denominators): the matrix's form, the phase tables as rationals, the
    zero-phase join, the shifted moments (with the shift phases from A and
    the v, also on a join that lets every tuple through) and the factor."""
    A, fam, fs, f0, shifts = case
    sys_obj = TorusSystem.make(A)
    assert ref.fractions_of(sys_obj) == ref.rows_of(A)
    assert sys_obj.den == math.lcm(*(x.denominator for row in A for x in row))
    assert system_from_text(system_to_text(sys_obj)) == sys_obj
    tables, denom = averages._phase_tables(sys_obj, fam, fs)
    ref_tables, ref_denom = ref.phase_tables(sys_obj, fam, fs)
    assert [[(chi, c, tuple(F(n, denom) for n in ns)) for chi, c, ns in t] for t in tables] == ref_tables
    assert denom == math.lcm(*(p.den for p in fam.members)) * sys_obj.den
    assert denom % ref_denom == 0
    assert averages._resonant_tuples(sys_obj, fam, fs) == ref.tuples(ref_tables)
    observables = (f0, *fs)
    moment, shifted = furstenberg_moment(sys_obj, fam, observables, shifts)
    ref_moment, ref_shifted = ref.furstenberg_moment(sys_obj, fam, observables, shifts)
    assert moment == ref_moment and _close(shifted, ref_shifted)
    assert xi_factor(sys_obj, fam).basis == ref.xi_factor_basis(sys_obj, fam)
    # a join blind to the phases lets every tuple through: the shifted
    # moments still take each tuple's own c_j, from A and the v
    real = averages._phase_tables

    def blind(*args):
        tables, denom = real(*args)
        return [[(chi, c, (0,) * len(ns)) for chi, c, ns in t] for t in tables], denom

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(averages, "_phase_tables", blind)
        moment, shifted = furstenberg_moment(sys_obj, fam, observables, shifts)
    every = ref.tuples(ref_tables, resonant=False)
    ref_moment, ref_shifted = ref.furstenberg_moment(sys_obj, fam, observables, shifts, every)
    assert moment == ref_moment and _close(shifted, ref_shifted)


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
    """The tuples of ``_tuple_data`` grouped by (output, n): per output,
    in sorted order, the sorted (n, summed coefficient products)."""
    tables, denom = averages._phase_tables(sys, fam, fs)
    sums = {}
    for entries, n in averages._tuple_data(tables, fam.height):
        _, out, prod = averages._tuple_term(entries, sys.m)
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
    for entries, n in averages._tuple_data(tables, fam.height):
        _, out, prod = averages._tuple_term(entries, plane_system.m)
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
    for entries, n in averages._tuple_data(tables, fam.height):
        _, out, prod = averages._tuple_term(entries, plane_system.m)
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


def test_constant_in_t_pairs_take_one_panel(plane_system, linear_pair_family, monkeypatch):
    """At height 1 a pair of groups with one phase vector c has the phase
    c (t + h) - c t = c h, constant in t.  Each batch of such a pair takes
    one panel, 24 + 15 evaluations per row (31 panels under a layout with a
    floor of 16), and the check's rhs_core stays the same to the bit."""
    fs = [
        TrigPoly(2, {(1, 0): 0.5, (0, 1): 0.3j, (1, 1): -0.2}),
        TrigPoly(2, {(-1, 0): 0.7, (0, 0): 0.1, (0, -1): 0.4 - 0.1j}),
    ]
    groups = averages._phase_groups(plane_system, linear_pair_family, fs)
    pairs = averages._correlation_pairs(groups)
    constant = [(w, phase) for w, phase in pairs
                if phase.shifted and phase.coeffs == {e: -c for e, c in phase.shifted.items()}]
    assert len(constant) == 5
    evals = []
    real = averages.adaptive_integral

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        evals.append(result[2])
        return result

    monkeypatch.setattr(averages, "adaptive_integral", counted)
    hs = np.linspace(0.1, 2.0, 2 * _BATCH_ROWS + 3)
    averages._correlation_average(constant, 20.0, hs, 1e-6, DEFAULT_BUDGET)
    assert evals == [24 + 15] * (3 * len(constant))
    monkeypatch.setattr(averages, "adaptive_integral", real)
    report = vdc_bound_check(plane_system, linear_pair_family, fs, 20.0, 2.0)
    assert report.rhs_core == 0.16033188126978018


def test_benchmark_vdc_evaluations_are_bounded(tmp_path, monkeypatch):
    """The benchmark's seed-1 check-vdc integrates its correlations in at
    most 400,000 integrand points and lays them out from at most 400,000
    probe points.  A layout with a floor of 16 uniform panels and 513 probes
    per row took 3,030,690 and 1,280,448 there."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    from fpet.cli import main

    op = next(op for op in inputs.generate("timechange_vdc", 1, tmp_path / "in")
              if op.command == "check-vdc")
    points = {"integrand": 0, "probe": 0}
    real = averages.adaptive_integral

    def counted(f, lo, hi, abs_tol, budget=DEFAULT_BUDGET, phase=None, **kwargs):
        def integrand(u):
            points["integrand"] += np.size(u)
            return f(u)

        def probed(u):
            theta = phase(u)
            points["probe"] += np.size(theta)
            return theta

        return real(integrand, lo, hi, abs_tol, budget, phase and probed, **kwargs)

    monkeypatch.setattr(averages, "adaptive_integral", counted)
    assert main(["--config", str(op.config), "--out", str(tmp_path / "out")]) == 0
    assert 0 < points["integrand"] <= 400_000
    assert 0 < points["probe"] <= 400_000
