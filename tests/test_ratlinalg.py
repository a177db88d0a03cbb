from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpet.fpoly import FPoly
from fpet.ratlinalg import (
    as_fraction_vector,
    column_hermite,
    hermite_contains,
    int_kernel,
    integer_rows,
    rows_independent,
)
from rref_reference import rank, rref

F = Fraction


def hermite_rank(rows):
    """The rank over Q of rational rows: the length of the Hermite basis of
    their integer rows over one denominator."""
    _, ints = integer_rows(rows)
    return len(column_hermite(ints, len(ints[0]) if ints else 0))


def test_rref_canonical():
    # span{e1, e2} however presented
    assert rref([[1, 0], [0, 1]]) == rref([[2, 2], [0, 3]]) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    assert rref([[1, 2], [2, 4]]) == [(Fraction(1), Fraction(2))]
    assert rref([[0, 0], [0, 0]]) == []


def test_rank_and_independence():
    assert rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert hermite_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert hermite_rank([[1, 0], [1, 1]]) == 2
    assert hermite_rank([[1, 0], [2, 0]]) == 1
    assert hermite_rank([[0, 0]]) == 0


def test_as_fraction_vector_rejects_floats():
    with pytest.raises(ValueError):
        as_fraction_vector([0.5])
    assert as_fraction_vector(["1/2", 3]) == (Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize("x", [np.float32(0.1), np.float16(0.1), np.longdouble(0.1)],
                         ids=["float32", "float16", "longdouble"])
def test_numpy_floats_are_refused(x):
    with pytest.raises(ValueError, match="refusing to coerce float"):
        as_fraction_vector([x])
    with pytest.raises(ValueError, match="refusing to coerce float"):
        FPoly.make([[x]])
    assert as_fraction_vector([Decimal("0.1"), "1/3"]) == (Fraction(1, 10), Fraction(1, 3))


def test_clear_denominators():
    row = (Fraction(1, 2), Fraction(2, 3), Fraction(0))
    assert integer_rows([row]) == (6, ((3, 4, 0),))
    assert integer_rows([["2/4", 1], [0, "-1/3"]]) == (6, ((3, 6), (0, -2)))
    assert integer_rows([[0, 0]]) == (1, ((0, 0),)) and integer_rows([]) == (1, ())
    assert hermite_rank([row]) == 1


def test_column_hermite_canonical_and_membership():
    # subgroup generated by (2,1) and (2,-1): contains (4,0) and (0,2)
    basis = column_hermite([(2, 1), (2, -1)], 2)
    assert basis == column_hermite([(4, 0), (2, 1), (0, 2)], 2)
    assert hermite_contains(basis, (4, 0))
    assert hermite_contains(basis, (2, 1))
    assert not hermite_contains(basis, (1, 0))
    assert hermite_contains(basis, (0, 0))


def test_column_hermite_full_lattice():
    basis = column_hermite([(1, 0), (0, 1)], 2)
    assert basis == ((1, 0), (0, 1))
    assert basis == column_hermite([(3, 1), (2, 1), (5, 7)], 2)


def test_int_kernel_simple():
    # kernel of [1 1] in Z^2 is generated by (1, -1) up to sign convention
    basis = int_kernel([[1, 1]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and abs(v[0]) == 1


def test_int_kernel_is_saturated_and_annihilates(rng):
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(rng.randint(1, 3))]
        basis = int_kernel(rows, 5)
        for b in basis:
            for r in rows:
                assert sum(x * y for x, y in zip(r, b)) == 0
        # saturation: if n*x is in the kernel lattice then so is x
        for b in basis:
            doubled = tuple(2 * x for x in b)
            assert hermite_contains(basis, doubled)


def test_int_kernel_full_and_trivial():
    assert int_kernel([[0, 0]], 2) == ((1, 0), (0, 1))
    assert int_kernel([[1, 0], [0, 1]], 2) == ()


def test_hermite_rank_agrees_with_exact_rank(rng):
    for _ in range(400):
        ncols = rng.randint(1, 5)
        nrows = rng.randint(1, ncols + 1)
        rows = [
            [F(rng.randint(-2, 2), rng.choice([1, 1, 2, 3, 7])) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows >= 3 and rng.random() < 0.5:  # plant a dependence
            i, j, l = rng.sample(range(nrows), 3)
            a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3), 5)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
        assert hermite_rank(rows) == rank(rows)


# (rows, rank): full rank over Q although 2^61 - 1 divides every maximal
# minor of the first; mixed denominators; more rows than columns; a zero
# row; a repeated row; no rows
@pytest.mark.parametrize("rows, expected", [
    ([[1, 1], [1, 1 + 2**61 - 1]], 2),
    ([[F(1, 2), 1], [1, F(1, 3)]], 2),
    ([[1, 0], [0, 1], [1, 1]], 2),
    ([[1, 2, 3], [0, 0, 0]], 1),
    ([[F(1, 3), 2, 3], [F(1, 3), 2, 3]], 1),
    ([], 0),
])
def test_hermite_rank_of_integer_rows(rows, expected):
    assert hermite_rank(rows) == rank(rows) == expected
    _, ints = integer_rows(rows)
    assert rows_independent(ints, len(ints[0]) if ints else 0) == (expected == len(rows))


@st.composite
def integer_matrices(draw):
    """(rows, m): up to m + 2 rows in Z^m with entries up to 10^3, often
    sparse, with a planted dependence (a row replaced by an integer
    combination of two others) and a zero row at times."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, m + 2))
    entry = st.one_of(st.integers(-1, 1), st.integers(-1000, 1000))
    rows = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, l = draw(st.permutations(range(n)))[:3]
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * m
    return [tuple(r) for r in rows], m


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
# a pivot found below its place must be swapped up; every row below the
# pivot with an entry in its column must be updated, not only the next one
@example(([(0, 1), (1, 0)], 2))
@example(([(1, 1, 0), (0, 0, 1), (1, 1, 0)], 3))
def test_rows_independent_agrees_with_the_hermite_rank(case):
    rows, m = case
    assert rows_independent(rows, m) == (len(column_hermite(rows, m)) == len(rows))


def test_rows_independent_rejects_a_row_of_wrong_length():
    with pytest.raises(ValueError):
        rows_independent([(1, 2), (1,)], 2)


@pytest.mark.parametrize("route", [integer_rows, rank, rref])
def test_exact_routines_reject_floats(route):
    # 0.1 is not 1/10 in binary: a silent conversion would call these rows
    # independent although [1/10, 3/10] and [1, 3] are dependent over Q
    with pytest.raises(ValueError, match="float"):
        route([[0.1, 0.3], [1, 3]])


def test_hermite_rank_rejects_a_ragged_matrix():
    with pytest.raises(ValueError):
        hermite_rank([[1, 2], [1]])
