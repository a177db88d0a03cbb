from fractions import Fraction

import numpy as np
import pytest
import fpoly_reference as ref
from rref_reference import rref

from fpet.fpoly import FPolyFamily, random_good_family, subtract
from fpet.torus import (
    CharacterLattice,
    TorusSystem,
    TrigPoly,
    isotropy_lattice,
    lattice_join,
    system_from_text,
    system_to_text,
    trigpoly_from_text,
    trigpoly_to_text,
    xi_factor,
)

F = Fraction


def test_act_identity(plane_system):
    f = TrigPoly(2, {(1, 0): 1.0, (0, 2): 0.5j})
    assert ref.act(plane_system, [0, 0], f) == f


def test_act_half_turn(circle_system):
    f = TrigPoly.character(1, (1,))
    moved = ref.act(circle_system, [F(1, 2)], f)
    assert moved.coeff((1,)) == -1.0 + 0j  # exactly -1: exact phase reduction


def test_act_rejects_float_shifts(circle_system):
    # a float shift used to take a float phase branch: -1 + 1.2e-16j here
    with pytest.raises(ValueError, match="float"):
        ref.act(circle_system, [0.5], TrigPoly.character(1, (1,)))
    with pytest.raises(ValueError, match="float"):
        ref.phase(circle_system, (1,), [0.5])
    with pytest.raises(ValueError, match="non-integer"):
        ref.phase(circle_system, (0.5,), [1])


def test_act_preserves_l2_norm(plane_system, rng):
    for _ in range(10):
        terms = {
            (rng.randint(-3, 3), rng.randint(-3, 3)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(4)
        }
        f = TrigPoly(2, terms)
        w = [F(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(2)]
        assert abs(ref.act(plane_system, w, f).norm2() - f.norm2()) < 1e-12


def test_act_group_law_exact_phases(plane_system):
    w1 = [F(1, 3), F(2, 7)]
    w2 = [F(5, 6), F(-1, 7)]
    w12 = [a + b for a, b in zip(w1, w2)]
    for chi in [(1, 0), (2, -3), (0, 5)]:
        p1 = ref.phase(plane_system, chi, w1)
        p2 = ref.phase(plane_system, chi, w2)
        p12 = ref.phase(plane_system, chi, w12)
        assert (p1 + p2 - p12) % 1 == 0  # exact rational identity


def test_isotropy_trivial_subspace(plane_system):
    lat = isotropy_lattice(plane_system, [])
    assert lat == CharacterLattice.full(2)
    assert lat.contains((5, -7))


def test_isotropy_axis(plane_system):
    lat = isotropy_lattice(plane_system, [[1, 0]])
    assert lat.contains((0, 3))
    assert not lat.contains((1, 0))
    assert lat.basis == ((0, 1),)


def test_isotropy_degenerate_matrix():
    sys_obj = TorusSystem.make([[1, 0], [1, 0]])
    lat = isotropy_lattice(sys_obj, [[1, 0]])
    # constraint chi_1 + chi_2 = 0
    assert lat.contains((1, -1))
    assert not lat.contains((1, 1))


def test_isotropy_rejects_floats(plane_system):
    with pytest.raises(ValueError):
        isotropy_lattice(plane_system, [[0.5, 0]])


def test_lattice_join_examples():
    a = CharacterLattice.from_generators(2, [(1, 0)])
    b = CharacterLattice.from_generators(2, [(0, 1)])
    assert lattice_join(a, b) == CharacterLattice.full(2)
    assert lattice_join(a, CharacterLattice(2, ())) == a
    assert lattice_join(a, b) == lattice_join(b, a)


def test_lattice_join_order_invariance(rng):
    for _ in range(20):
        lats = [
            CharacterLattice.from_generators(
                3, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
            )
            for _ in range(3)
        ]
        shuffled = list(lats)
        rng.shuffle(shuffled)
        assert lattice_join(*lats) == lattice_join(*shuffled)


def test_project_factor(plane_system):
    f = TrigPoly(2, {(1, 0): 1.0, (0, 1): 1.0})
    lat = isotropy_lattice(plane_system, [[1, 0]])  # chi_1 = 0
    proj = ref.project_factor(f, lat)
    assert proj == TrigPoly(2, {(0, 1): 1.0})
    assert ref.project_factor(proj, lat) == proj  # idempotent, exact
    assert ref.project_factor(f, CharacterLattice.full(2)) == f


def test_project_factor_contractive(plane_system, rng):
    lat = isotropy_lattice(plane_system, [[1, 1]])
    for _ in range(10):
        terms = {
            (rng.randint(-3, 3), rng.randint(-3, 3)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(5)
        }
        f = TrigPoly(2, terms)
        assert ref.project_factor(f, lat).norm2() <= f.norm2() + 1e-15


def test_xi_factor_k1(circle_system):
    fam = FPolyFamily.make([[[1]]])
    xi = xi_factor(circle_system, fam)
    assert xi == isotropy_lattice(circle_system, [[1]])


def test_xi_factor_join_example(plane_system, linear_pair_family):
    xi = xi_factor(plane_system, linear_pair_family)
    # join of {chi . e2 = 0} and {chi . (e1 - e2) = 0} is everything
    assert xi == CharacterLattice.full(2)


def test_xi_factor_contains_full_invariance(plane_system, rng):
    import fpet.fpoly as fpoly

    for _ in range(10):
        fam = fpoly.random_good_family(rng, k=2, height=1, dim=2)
        if fam.members[-1].lead != 1:
            continue
        xi = xi_factor(plane_system, fam)
        identity = [[1, 0], [0, 1]]
        full_inv = isotropy_lattice(plane_system, identity)
        assert all(map(xi.contains, full_inv.basis))


def test_xi_factor_matches_the_rref_span_route(rng):
    """Each difference member - last enters through its own coefficient
    vectors, not a reduced basis of their span: the isotropy lattice of a
    spanning set is that of the span, so the old route (a canonical rref
    basis per difference) must give the same factor."""
    entries = [F(0)] * 4 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(2, 3)]
    checked = 0
    while checked < 300:
        k, height = rng.randint(1, 4), rng.randint(1, 3)
        fam = random_good_family(rng, k, height, rng.randint(k, k * height))
        top = [p for p in fam.members if p.lead == height]
        if not top:
            continue
        last = top[0]
        fam = FPolyFamily.of([p for p in fam.members if p is not last] + [last])
        sys_obj = TorusSystem.make(
            [[rng.choice(entries) for _ in range(fam.ambient_dim)] for _ in range(rng.randint(1, 4))]
        )
        old = lattice_join(
            isotropy_lattice(sys_obj, [ref.fractions_of(last)[-1]]),
            *(isotropy_lattice(sys_obj, rref(ref.fractions_of(subtract(p, last))))
              for p in fam.members[:-1]),
        )
        assert xi_factor(sys_obj, fam) == old
        checked += 1


def test_xi_factor_requires_top_degree(plane_system):
    fam = FPolyFamily.make([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], height=2)
    with pytest.raises(ValueError):
        xi_factor(plane_system, fam)


def test_isotropy_of_sum_is_intersection(rng):
    sys_obj = TorusSystem.make([[1, 0, F(1, 2)], [0, 1, F(1, 3)], [1, 1, 0]])
    for _ in range(15):
        v1 = [F(rng.randint(-3, 3)) for _ in range(3)]
        v2 = [F(rng.randint(-3, 3)) for _ in range(3)]
        joint = isotropy_lattice(sys_obj, [v1, v2])
        l1 = isotropy_lattice(sys_obj, [v1])
        l2 = isotropy_lattice(sys_obj, [v2])
        for b in joint.basis:
            assert l1.contains(b) and l2.contains(b)
        for b in l1.basis:
            if l2.contains(b):
                assert joint.contains(b)


def test_isotropy_annihilates_exactly(plane_system, rng):
    for _ in range(10):
        v = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        lat = isotropy_lattice(plane_system, [v])
        for chi in lat.basis:
            assert ref.phase(plane_system, chi, v) == 0


def test_trigpoly_algebra():
    f = TrigPoly(1, {(1,): 1.0})
    g = TrigPoly(1, {(-1,): 1.0})
    assert (f + g).norm2() == pytest.approx(2**0.5)
    assert (f - f).terms == {}


def test_trigpoly_rejects_non_integer_frequencies():
    # int() used to truncate: the (1.5, 0) term silently became (1, 0) and was
    # then overwritten by the genuine (1, 0) term
    with pytest.raises(ValueError, match="non-integer"):
        TrigPoly(2, {(1.5, 0): 1.0, (1, 0): 2.0})
    with pytest.raises(ValueError, match="non-integer"):
        TrigPoly(1, {(F(1, 2),): 1.0})
    f = TrigPoly(2, {(np.int64(1), np.int32(-2)): 1.0})
    assert f.terms == {(1, -2): 1.0 + 0j}
    assert all(type(x) is int for x in f.support()[0])


def test_lattice_contains_rejects_non_integer_characters():
    full = CharacterLattice.full(2)
    with pytest.raises(ValueError, match="non-integer"):
        full.contains((0.5, 0))
    assert full.contains(np.array([1, -2]))
    assert not CharacterLattice.from_generators(2, [[2, 0], [0, 1]]).contains((1, 0))


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_trigpoly_rejects_non_finite_coefficients(c):
    # a nan coefficient used to pass, and multiple_average then returned nan+nanj
    with pytest.raises(ValueError, match="not finite"):
        TrigPoly(2, {(1, 0): c})


def test_constructor_messages():
    for rows in ([], [[]]):
        with pytest.raises(ValueError, match="torus and acting dimensions must be positive"):
            TorusSystem.make(rows)
    for entry in (F(1, 2), 0.5):
        with pytest.raises(ValueError, match="tuples of ints"):
            TorusSystem(1, 1, 1, ((entry,),))
    with pytest.raises(ValueError, match="tuples of ints"):
        TorusSystem(1, 1, 1, [[1]])
    for den in (0, -2, 2.0, F(2)):
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            TorusSystem(1, 1, den, ((1,),))
    with pytest.raises(ValueError, match="share a factor"):
        TorusSystem(1, 2, 2, ((2, 4),))
    for m, D, rows in ((2, 2, ((1, 0), (1,))), (2, 2, ((1, 0),)), (1, 1, ((1, 0),))):
        with pytest.raises(ValueError, match="m x D matrix"):
            TorusSystem(m, D, 1, rows)
    with pytest.raises(ValueError, match="refusing to coerce float"):
        TorusSystem.make([[0.5]])
    assert TorusSystem(1, 2, 2, ((1, 4),)) == TorusSystem.make([["1/2", 2]])


def test_integer_matrix_is_canonical():
    half, quarters = TorusSystem.make([["1/2"]]), TorusSystem.make([["2/4"]])
    assert half == quarters and hash(half) == hash(quarters)
    assert (half.den, half.rows) == (2, ((1,),)) == (quarters.den, quarters.rows)
    assert TorusSystem.make([[2, "1/3"], [0, F(-4, 6)]]) == TorusSystem(2, 2, 3, ((6, 1), (0, -2)))


def test_system_text_round_trip():
    sys_obj = TorusSystem.make([[1, F(1, 2)], [0, F(-2, 3)]])
    text = system_to_text(sys_obj)
    assert system_from_text(text) == sys_obj
    assert system_to_text(system_from_text(text)) == text


def test_trigpoly_text_round_trip():
    f = TrigPoly(2, {(1, -2): 0.25 - 1.5j, (0, 0): 3.0})
    text = trigpoly_to_text(f)
    assert trigpoly_from_text(text) == f
    assert trigpoly_to_text(trigpoly_from_text(text)) == text


def test_text_errors_carry_positions():
    with pytest.raises(ValueError) as exc:
        system_from_text("m = 1\nD = 1\nA[1] = 1/0\n", path="sys.txt")
    assert "sys.txt:3" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        trigpoly_from_text("m = 1\nterm = 1 : zz 0\n", path="obs.txt")
    assert "obs.txt:2" in str(exc.value)
