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
    map_coefficients,
    random_good_family,
    subtract,
)
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
    return max((j for j, v in enumerate(p.coeffs, start=1) if any(x != 0 for x in v)), default=0)


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
    for v in p.coeffs:
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
    form behind is_independent."""

    def good(p):
        lead = p.lead
        return lead > 0 and rank(p.coeffs[:lead]) == lead

    vectors = [v for p in f.members for v in p.coeffs if any(v)]
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
            members.append(FPoly(d, dim, tuple(rows)))
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
                    assert any(x != 0 for x in diff.coeffs[j])


def test_lift_single():
    fam, matrix = lift_to_independent([[[5]]])
    assert fam.ambient_dim == 1 and fam.k == 1
    assert matrix == ((F(5),),)


def test_lift_two_collinear():
    fam, matrix = lift_to_independent([[[3]], [[6]]])
    assert fam.ambient_dim == 2
    assert matrix == ((F(3), F(6)),)
    assert fam.members[0].coeffs == ((F(1), F(0)),)
    assert fam.members[1].coeffs == ((F(0), F(1)),)
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
            recovered = map_coefficients(matrix, fam.members[i])
            padded = [tuple(F(x) for x in r) for r in rows]
            padded += [tuple([F(0)] * dim)] * (d - len(rows))
            assert recovered.coeffs == tuple(padded)


def test_lift_empty_input_rejected():
    with pytest.raises(ValueError):
        lift_to_independent([])


@given(st.permutations(list(range(4))))
@settings(max_examples=30, deadline=None)
def test_is_good_invariant_under_coordinate_permutation(perm):
    p = fp([[1, 0, 0, 2], [0, 3, 0, 0], [0, 0, 1, 1]])
    rows = [[int(i == perm[j]) for i in range(4)] for j in range(4)]
    # permutation matrices are invertible, so goodness must be preserved
    assert is_good(map_coefficients(rows, p)) == is_good(p)


def test_is_good_invariant_under_invertible_maps(rng):
    p = fp([[1, 0, 0], [0, 1, 0]])
    for _ in range(20):
        mat = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        assert is_good(map_coefficients(mat, p))


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
        assert diff.coeffs == tuple(
            tuple(a - b for a, b in zip(u, w)) for u, w in zip(p.coeffs, q.coeffs)
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
    b = FPoly(2, 2, ((F(2, 2), F(1, 2)), (F(0), F(3))))
    c = subtract(fp([[2, 1], [0, 4]]), fp([[1, "1/2"], [0, 1]]))
    d = map_coefficients([[1, 0], [0, 1]], a)
    for p in (b, c, d):
        assert p == a and hash(p) == hash(a)
    assert hash(a) == hash((a.height, a.ambient_dim, a.coeffs))
    other = fp([[0, 1], [1, 0]])
    f1 = FPolyFamily.of([a, other])
    f2 = FPolyFamily.make([[[1, "1/2"], [0, 3]], [[0, 1], [1, 0]]])
    f3 = FPolyFamily(2, 2, (c, FPoly(2, 2, ((F(0), F(1)), (F(1), F(0))))))
    assert f1 == f2 == f3 and hash(f1) == hash(f2) == hash(f3)
    assert hash(f1) == hash((f1.height, f1.ambient_dim, f1.members))
    assert len({f1, f2, f3}) == 1 and f2 in {f1: 0}
