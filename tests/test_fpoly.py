import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpet.fpoly import (
    FPoly,
    FPolyFamily,
    degree,
    family_from_text,
    family_is_good,
    family_to_text,
    is_good,
    lift_to_independent,
    lower_part,
    random_good_family,
    subtract,
)
from fpet.order import StepKind, _family_line, canonical_family, dag_to_text, induction_dag, precedents
import fpoly_reference as ref
from rref_reference import rank

F = Fraction


def fp(rows, height=None):
    return FPoly.make(rows, height=height)


def test_degree_examples():
    assert degree(fp([[1, 0], [0, 0]])) == F(1, 2)
    assert degree(fp([[0], [0], [1]])) == 1
    assert degree(fp([[0, 0]], height=2)) == 0


def _scanned_lead(p):
    """The largest j whose v_j has an entry != 0, or 0 for the zero map."""
    rows = ref.fractions_of(p)
    return max((j for j, v in enumerate(rows, start=1) if any(x != 0 for x in v)), default=0)


def test_lead_is_the_last_nonzero_index(rng):
    members = [
        p
        for _ in range(40)
        for p in random_good_family(rng, k=rng.randint(1, 4), height=rng.randint(1, 4), dim=14).members
    ]
    assert any(p.lead > 1 for p in members)
    padded = [fp([[1, 0]], height=3), fp([[0, 0], [2, 1]], height=4), fp([[0, 0]], height=2),
              fp([[1], [0], [1]]), fp([[0], [0], [1]])]
    assert [p.lead for p in padded] == [1, 2, 0, 3, 3]
    zeros = [lower_part(fp([[1]])), lower_part(fp([[0, 0], [1, 0]], height=2))]
    zeros += [subtract(p, p) for p in members[:10]]
    assert all(p.lead == 0 for p in zeros)
    for p in members + padded + zeros + [lower_part(p) for p in members]:
        assert p.lead == _scanned_lead(p)


def test_is_good_examples():
    assert is_good(fp([[1, 0], [0, 1]]))
    assert not is_good(fp([[1, 0], [2, 0]]))
    # zero map is never good
    assert not is_good(fp([[0, 0]], height=2))


def test_is_good_height_doubling_breaks_goodness():
    p = fp([[1, 0], [0, 1]])
    doubled_rows = []
    for v in ref.fractions_of(p):
        doubled_rows.append([0] * p.ambient_dim)
        doubled_rows.append(list(v))
    doubled = fp(doubled_rows, height=2 * p.height)
    assert is_good(p)
    assert not is_good(doubled)


def test_family_is_good_examples():
    assert family_is_good(FPolyFamily.make([[[1]]]))
    f = FPolyFamily.make([[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]])
    assert family_is_good(f)
    repeated = FPolyFamily.make([[[1, 0]], [[1, 0]]])
    assert not family_is_good(repeated)


def _old_family_is_good(f):
    """The two-stage definition: every member good (its vectors up to the
    lead independent), and every nonzero vector of the family jointly
    independent.  Decided by rref rank, a route independent of the Hermite
    form behind family_is_good."""

    def good(p):
        lead = p.lead
        return lead > 0 and rank(ref.fractions_of(p)[:lead]) == lead

    vectors = [v for p in f.members for v in ref.fractions_of(p) if any(v)]
    return all(good(p) for p in f.members) and rank(vectors) == len(vectors)


def test_family_is_good_matches_the_two_stage_definition(rng):
    entries = [F(0)] * 6 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2)]
    verdicts = []
    for _ in range(2000):
        d, dim, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3)
        pool = [tuple(rng.choice(entries) for _ in range(dim)) for _ in range(3)]
        members = []
        for _ in range(k):
            # draw from a small pool so repeated vectors across members occur
            rows = [rng.choice(pool) if rng.random() < 0.3 else
                    tuple(rng.choice(entries) for _ in range(dim)) for _ in range(d)]
            members.append(FPoly.make(rows, height=d))
        fam = FPolyFamily(d, dim, tuple(members))
        expected = _old_family_is_good(fam)
        assert family_is_good(fam) == expected
        for p in members:
            assert is_good(p) == _old_family_is_good(FPolyFamily(d, dim, (p,)))
        verdicts.append(expected)
    assert 200 < sum(verdicts) < 1800  # both answers are well represented


def test_lower_part():
    p = fp([[1, 0], [0, 1]])
    assert lower_part(p) == fp([[1, 0], [0, 0]])
    not_top = fp([[1, 0], [0, 0]])
    assert lower_part(not_top) == not_top
    assert degree(lower_part(fp([[1]]))) == 0


def test_subtract_examples():
    p = fp([[1, 2], [3, 4]])
    zero = subtract(p, p)
    assert degree(zero) == 0
    a, b = fp([[1, 0]]), fp([[0, 1]])
    assert subtract(a, b) == fp([[1, -1]])
    with pytest.raises(ValueError):
        subtract(fp([[1]]), fp([[1, 0]]))
    with pytest.raises(ValueError):
        subtract(fp([[1]]), fp([[1]], height=2))


def test_subtract_never_cancels_below_minimal_degree():
    rng = random.Random(7)
    for _ in range(30):
        fam = random_good_family(rng, k=3, height=3, dim=10)
        j_min = min(p.lead for p in fam.members)
        for i, p in enumerate(fam.members):
            for q in fam.members[i + 1 :]:
                diff = subtract(p, q)
                for j in range(j_min):
                    assert any(x != 0 for x in ref.fractions_of(diff)[j])


def test_lift_single():
    fam, matrix = lift_to_independent([[[5]]])
    assert fam.ambient_dim == 1 and fam.k == 1
    assert matrix == ((F(5),),)


def test_lift_two_collinear():
    fam, matrix = lift_to_independent([[[3]], [[6]]])
    assert fam.ambient_dim == 2
    assert matrix == ((F(3), F(6)),)
    assert fam.members[0] == fp([[1, 0]])
    assert fam.members[1] == fp([[0, 1]])
    assert family_is_good(fam)


def test_lift_reexpands_exactly(rng):
    for _ in range(20):
        k = rng.randint(1, 3)
        d = rng.randint(1, 3)
        dim = rng.randint(1, 4)
        polys = [
            [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(1, d))]
            for _ in range(k)
        ]
        fam, matrix = lift_to_independent(polys, height=d)
        assert family_is_good(fam)
        for i, rows in enumerate(polys):
            recovered = ref.map_coefficients(matrix, fam.members[i])
            assert recovered == fp(rows, height=d)


def test_lift_empty_input_rejected():
    # empty coefficient vectors used to lift to polynomials into R^0 and the
    # empty matrix (), which TorusSystem refuses
    for polys in ([], [[[]]], [[[], []], [[]]]):
        with pytest.raises(ValueError):
            lift_to_independent(polys)


@given(st.permutations(list(range(4))))
@settings(max_examples=30, deadline=None)
def test_is_good_invariant_under_coordinate_permutation(perm):
    p = fp([[1, 0, 0, 2], [0, 3, 0, 0], [0, 0, 1, 1]])
    rows = [[int(i == perm[j]) for i in range(4)] for j in range(4)]
    # permutation matrices are invertible, so goodness must be preserved
    assert is_good(ref.map_coefficients(rows, p)) == is_good(p)


def test_is_good_invariant_under_invertible_maps(rng):
    p = fp([[1, 0, 0], [0, 1, 0]])
    for _ in range(20):
        mat = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        assert is_good(ref.map_coefficients(mat, p))


def test_family_good_implies_members_good(rng):
    for _ in range(20):
        fam = random_good_family(rng, k=rng.randint(1, 4), height=rng.randint(1, 3), dim=12)
        assert family_is_good(fam)
        assert all(is_good(p) for p in fam.members)


def test_lower_part_degree_drop(rng):
    for _ in range(20):
        fam = random_good_family(rng, k=1, height=rng.randint(2, 3), dim=6)
        p = fam.members[0]
        if degree(p) == 1:
            assert degree(lower_part(p)) < degree(p)


def test_eval_subtract_linearity(rng):
    for _ in range(10):
        fam = random_good_family(rng, k=2, height=2, dim=6)
        p, q = fam.members
        diff = subtract(p, q)
        rp, rq = ref.fractions_of(p), ref.fractions_of(q)
        assert ref.fractions_of(diff) == tuple(
            tuple(a - b for a, b in zip(u, w)) for u, w in zip(rp, rq)
        )
        assert subtract(diff, diff).lead == 0


def test_family_text_round_trip(rng):
    for _ in range(10):
        fam = random_good_family(rng, k=rng.randint(1, 3), height=rng.randint(1, 3), dim=8)
        text = family_to_text(fam)
        again = family_from_text(text)
        assert again == fam
        assert family_to_text(again) == text


def test_family_text_rejects_bad_rational():
    text = "height = 1\nambient_dim = 1\nmembers = 1\nv[1][1] = 3/0\n"
    with pytest.raises(ValueError) as exc:
        family_from_text(text, path="fam.txt")
    assert "fam.txt:4" in str(exc.value)
    assert "3/0" in str(exc.value)


def test_hash_is_cached_and_structural():
    a = fp([[1, "1/2"], [0, 3]])
    b = FPoly(2, 2, 2, ((2, 1), (0, 6)))
    c = subtract(fp([[2, 1], [0, 4]]), fp([[1, "1/2"], [0, 1]]))
    d = ref.map_coefficients([[1, 0], [0, 1]], a)
    for p in (b, c, d):
        assert p == a and hash(p) == hash(a)
    assert hash(a) == hash((a.height, a.ambient_dim, a.den, a.rows))
    other = fp([[0, 1], [1, 0]])
    f1 = FPolyFamily.of([a, other])
    f2 = FPolyFamily.make([[[1, "1/2"], [0, 3]], [[0, 1], [1, 0]]])
    f3 = FPolyFamily(2, 2, (c, FPoly(2, 2, 1, ((0, 1), (1, 0)))))
    assert f1 == f2 == f3 and hash(f1) == hash(f2) == hash(f3)
    assert hash(f1) == hash((f1.height, f1.ambient_dim, f1.members))
    assert len({f1, f2, f3}) == 1 and f2 in {f1: 0}


_SCALES = (F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 4), F(2, 3), F(-5, 6))


@st.composite
def mixed_good_families(draw):
    """A good family (k in 1..4, height 1..3) whose vectors are scaled basis
    vectors sheared by earlier ones, with entries over 1, 2, 3, 4, 6 and 12
    mixed within and across members; and its rows as Fractions."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    leads = [draw(st.integers(1, d)) for _ in range(k)]
    n = sum(leads)
    dim = n + draw(st.integers(0, 1))
    vectors = []
    for r in range(n):
        row = [F(0)] * dim
        row[r] = draw(st.sampled_from(_SCALES))
        if dim > n:
            row[n] = draw(st.sampled_from([F(0), F(1, 2), F(-4, 3)]))
        if r:
            # a shear by an earlier vector keeps the vectors jointly independent
            c = draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3)]))
            src = draw(st.integers(0, r - 1))
            row = [x + c * y for x, y in zip(row, vectors[src])]
        vectors.append(tuple(row))
    members, pos = [], 0
    for lead in leads:
        members.append(ref.rows_of(vectors[pos : pos + lead] + [(F(0),) * dim] * (d - lead)))
        pos += lead
    return d, dim, members


@settings(max_examples=50, deadline=None)
@given(mixed_good_families())
def test_integer_rows_match_the_fraction_reference(case):
    d, dim, members = case
    fam = FPolyFamily.make(members, height=d)
    assert [ref.fractions_of(p) for p in fam.members] == members
    assert [p.lead for p in fam.members] == [ref.lead(p) for p in members]
    assert family_is_good(fam) and ref.family_is_good(members)
    for p, rp in zip(fam.members, members):
        low = lower_part(p)
        assert ref.fractions_of(low) == ref.lower_part(rp) and low == fp(ref.lower_part(rp))
        assert family_is_good(FPolyFamily.of([p, low])) == ref.family_is_good([rp, ref.lower_part(rp)])
        for q, rq in zip(fam.members, members):
            diff, rdiff = subtract(p, q), ref.subtract(rp, rq)
            assert ref.fractions_of(diff) == rdiff and diff.lead == ref.lead(rdiff)
            assert diff == fp(rdiff) and hash(diff) == hash(fp(rdiff))
            trio = FPolyFamily.of([p, q, diff])
            assert family_is_good(trio) == ref.family_is_good([rp, rq, rdiff])
    canon = canonical_family(fam)
    assert [ref.fractions_of(p) for p in canon.members] == list(ref.canonical(members))
    assert _family_line(canon) == ref.family_line(d, dim, ref.canonical(members))
    # one height up nobody is top-degree, so the height drop applies to
    # every family that descends (two members or more)
    up = FPolyFamily.make(members, height=d + 1)
    if up.k > 1:
        step = precedents(up)[-1]
        assert step.kind is StepKind.HEIGHT_DROP
        dropped = tuple(ref.fractions_of(p) for p in step.result.members)
        assert (step.result.height, dropped) == ref.height_drop([ref.fractions_of(p) for p in up.members])
    assert dag_to_text(induction_dag(fam)) == ref.dag_text(d, dim, members)


def test_values_built_on_different_routes_are_canonical():
    a, b = fp([["2/4", 1]]), fp([["1/2", 1]])
    assert a == b and hash(a) == hash(b) and (a.den, a.rows) == (2, ((1, 2),))
    p = fp([["1/2", "1/3"], [1, 0]])
    q = fp([["1/6", 0], ["1/4", 1]])
    r = fp([["-2/3", "1/3"], ["-1/4", -1]])
    diff = subtract(subtract(p, q), r)
    assert diff == fp([[1, 0], [1, 0]]) and hash(diff) == hash(fp([[1, 0], [1, 0]]))
    assert diff.den == 1
    zero = subtract(subtract(p, q), subtract(p, q))
    assert (zero.den, zero.lead) == (1, 0) and zero == fp([[0, 0], [0, 0]])
    family_is_good.cache_clear()
    built = FPolyFamily.of([diff, lower_part(fp([[0, "3/3"], ["1/7", 0]]))])
    direct = FPolyFamily.make([[[1, 0], [1, 0]], [[0, 1]]], height=2)
    assert built == direct and hash(built) == hash(direct)
    assert not family_is_good(built)
    before = family_is_good.cache_info()
    assert not family_is_good(direct)
    after = family_is_good.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_constructor_messages():
    with pytest.raises(ValueError, match="use the explicit constructor for an empty family"):
        FPolyFamily.make([])
    with pytest.raises(ValueError, match="height must be a positive integer"):
        FPoly.make([[1]], height=0)
    with pytest.raises(ValueError, match="share a factor"):
        FPoly(1, 2, 2, ((2, 4),))
    with pytest.raises(ValueError, match="tuples of ints"):
        FPoly(1, 1, 1, ((F(1, 2),),))
    with pytest.raises(ValueError, match="denominator must be a positive integer"):
        FPoly(1, 1, -1, ((1,),))
