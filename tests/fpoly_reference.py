"""Fractional polynomials and torus matrices on ``Fraction`` rows, kept as
the tests' reference for the library's integer rows over one denominator: the
descent moves, the canonical member order, goodness and the descent DAG's
text, written out from their definitions with no code shared with
``fpet.fpoly`` or ``fpet.order``; and the exact layer of the averages and the
factor as it ran on ``Fraction`` rows (``A v`` in rationals, then the lcm of
the reduced denominators), sharing only the integer kernel and Hermite form
of ``fpet.ratlinalg``.  The last section keeps, as references, tools that
the library dropped once no command used them: the exact phase chi . (A w)
and the composition with a translation, the truncation of an observable to a
factor, a linear map on the coefficient vectors, and the finite-prefix
temperedness check.  These take and return library objects.

A member is a tuple of ``Fraction`` rows v_1, ..., v_d; a family is a pair
(height, members).
"""

import cmath
import itertools
from collections import deque
from fractions import Fraction
from math import lcm
from typing import Sequence

from fpet.fpoly import FPoly
from fpet.ratlinalg import as_fraction_vector, column_hermite, int_kernel
from fpet.torus import TrigPoly, _frequency, _unit_phase
from rref_reference import rank

Rows = tuple[tuple[Fraction, ...], ...]


def rows_of(rows: Sequence[Sequence]) -> Rows:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def fractions_of(value) -> Rows:
    """The ``Fraction`` rows of a library ``FPoly`` (its coefficient vectors)
    or ``TorusSystem`` (its matrix A): the integer rows over the denominator."""
    return tuple(tuple(Fraction(a, value.den) for a in r) for r in value.rows)


def lead(p: Rows) -> int:
    """The largest j with v_j != 0, or 0 for the zero map."""
    return max((j for j, v in enumerate(p, start=1) if any(x != 0 for x in v)), default=0)


def subtract(p: Rows, q: Rows) -> Rows:
    return tuple(tuple(a - b for a, b in zip(u, w)) for u, w in zip(p, q))


def lower_part(p: Rows) -> Rows:
    """v_d replaced by the zero vector."""
    return p[:-1] + (tuple(Fraction(0) for _ in p[-1]),)


def height_drop(members: Sequence[Rows]) -> tuple[int, tuple[Rows, ...]]:
    """The family re-declared at its largest lead, each member cut to that
    many rows."""
    d = max(lead(p) for p in members)
    return d, tuple(p[:d] for p in members)


def canonical(members: Sequence[Rows]) -> tuple[Rows, ...]:
    """Members sorted by lead descending, then by their rows as rationals."""
    return tuple(sorted(members, key=lambda p: (-lead(p), p)))


def family_is_good(members: Sequence[Rows]) -> bool:
    """Every member nonzero and all vectors up to each member's lead jointly
    independent, by ``rref`` rank."""
    vectors = [v for p in members for v in p[: lead(p)]]
    return all(lead(p) > 0 for p in members) and rank(vectors) == len(vectors)


def family_line(height: int, dim: int, members: Sequence[Rows]) -> str:
    """The DAG text's description of one family: every entry as reduced p/q."""
    text = " ; ".join(
        "|".join(",".join(f"{x.numerator}/{x.denominator}" for x in v) for v in p)
        for p in members
    )
    return f"h={height} D={dim} k={len(members)} {text}".rstrip()


def dag_text(height: int, dim: int, members: Sequence[Rows]) -> str:
    """The descent DAG of a good family, breadth first from its canonical
    form, with the moves in the library's order: type I (subtract the first
    member of least lead from the others), type II on each top-degree member
    by index (its lower part, dropped when zero), and the height drop when no
    member is top-degree.  Nodes are deduplicated by canonical form."""
    root = (height, canonical(members))
    ids = {root: 0}
    nodes, edges = [root], []
    queue = deque([root])
    while queue:
        fam = queue.popleft()
        d, mem = fam
        if len(mem) <= 1:
            continue
        leads = [lead(p) for p in mem]
        i1 = leads.index(min(leads))
        steps = [((d, tuple(subtract(p, mem[i1]) for i, p in enumerate(mem) if i != i1)),
                  f"type1 i1={i1 + 1} j1={leads[i1]}")]
        for i, p in enumerate(mem):
            if leads[i] == d:
                low = lower_part(p)
                kept = (low,) if lead(low) else ()
                steps.append(((d, mem[:i] + kept + mem[i + 1:]), f"type2 i={i + 1}"))
        if max(leads) < d:
            new_d, cut = height_drop(mem)
            steps.append(((new_d, cut), f"heightdrop d={new_d}"))
        for (rd, rmem), label in steps:
            res = (rd, canonical(rmem))
            if res not in ids:
                ids[res] = len(nodes)
                nodes.append(res)
                queue.append(res)
            edges.append(f"edge {ids[fam]} {ids[res]} {label}")
    lines = [f"node {i} {family_line(d, dim, mem)}" for i, (d, mem) in enumerate(nodes)]
    return "\n".join(lines + edges) + "\n"


# ---------------------------------------------------------------------------
# the exact layer of the averages and the factor on Fraction rows


def matvec(A: Rows, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def phase_tables(sys, fam, fs):
    """Per member, per support frequency in sorted order, (chi, coefficient,
    (chi^T A v_j for j = 1..d) as Fractions), and the lcm of the reduced
    denominators of the entries of every A v_{i,j}."""
    A = fractions_of(sys)
    cols = [[matvec(A, v) for v in fractions_of(p)] for p in fam.members]
    denom = lcm(*(x.denominator for member in cols for col in member for x in col))
    tables = [
        [(chi, f.terms[chi], tuple(sum(c * x for c, x in zip(chi, col)) for col in member))
         for chi in f.support()]
        for f, member in zip(fs, cols)
    ]
    return tables, denom


def _term(entries):
    combo = tuple(chi for chi, _, _ in entries)
    prod = 1.0 + 0j
    for _, c, _ in entries:
        prod *= c
    return combo, tuple(sum(x) for x in zip(*combo)), prod


def tuples(tables, resonant: bool = True):
    """(tuple, output, coefficient product) of the tuples of table entries,
    by full enumeration in itertools.product order: those whose phase vector
    vanishes, or with ``resonant`` false all of them."""
    return [
        _term(entries)
        for entries in itertools.product(*tables)
        if not (resonant and any(map(sum, zip(*(phases for _, _, phases in entries)))))
    ]


def shift_phase(sys, fam, combo, j: int) -> Fraction:
    """c_j = sum_i chi_i^T A v_{i,j} of a frequency tuple, in Fractions."""
    A = fractions_of(sys)
    return sum(
        sum(c * x for c, x in zip(chi, matvec(A, fractions_of(p)[j - 1])))
        for chi, p in zip(combo, fam.members)
    )


def furstenberg_moment(sys, fam, observables, shifts, resonant=None):
    """The moment and the shifted moments over ``resonant`` (the resonant
    tuples by default), each tuple's shift phase from A and the v."""
    f0 = observables[0]
    if resonant is None:
        resonant = tuples(phase_tables(sys, fam, observables[1:])[0])
    moment, shifted = 0j, [0j] * len(shifts)
    for combo, out, prod in resonant:
        c0 = f0.terms.get(tuple(-x for x in out))
        if c0 is None:
            continue
        weight = c0 * prod
        moment += weight
        for s, (j, t) in enumerate(shifts):
            shifted[s] += weight * cmath.exp(2j * cmath.pi * float(t * shift_phase(sys, fam, combo, j) % 1))
    return moment, shifted


def _isotropy_basis(A: Rows, m: int, vectors) -> tuple:
    """The integer kernel of the rows (A v)^T, each scaled to integers by
    the lcm of its reduced denominators."""
    rows = []
    for v in vectors:
        w = matvec(A, v)
        den = lcm(*(x.denominator for x in w))
        if any(w):
            rows.append(tuple(x.numerator * (den // x.denominator) for x in w))
    if not rows:
        return tuple(tuple(int(i == j) for i in range(m)) for j in range(m))
    return int_kernel(rows, m)


def xi_factor_basis(sys, fam) -> tuple:
    """The Hermite basis of the join of the isotropy lattices of the last
    member's top vector and of each difference member - last."""
    A, m = fractions_of(sys), sys.m
    last = fractions_of(fam.members[-1])
    spans = [[last[-1]]] + [subtract(fractions_of(p), last) for p in fam.members[:-1]]
    return column_hermite([b for span in spans for b in _isotropy_basis(A, m, span)], m)


# ---------------------------------------------------------------------------
# tools the library dropped, on library objects


def phase(sys, chi, w) -> Fraction:
    """chi . (A w), exact; a float entry of w, or an entry of chi that is not
    an integer, raises ``ValueError``."""
    chi, w = _frequency(chi), as_fraction_vector(w)
    if len(chi) != sys.m or len(w) != sys.D:
        raise ValueError("dimension mismatch in phase computation")
    return sum(c * y for c, y in zip(chi, matvec(fractions_of(sys), w)))


def act(sys, w, f):
    """f composed with the translation tau^w: each coefficient picks up the
    unimodular factor exp(2 pi i chi . A w), from the exact phase."""
    return TrigPoly(f.m, {chi: c * _unit_phase(phase(sys, chi, w)) for chi, c in f.terms.items()})


def project_factor(f, lattice):
    """The conditional expectation onto the factor of a character lattice:
    the terms of f whose frequency lies in it."""
    return TrigPoly(f.m, {chi: c for chi, c in f.terms.items() if lattice.contains(chi)})


def map_coefficients(matrix, p):
    """The rational linear map with rows ``matrix`` applied to every
    coefficient vector of p."""
    M = rows_of(matrix)
    return FPoly.make([matvec(M, v) for v in fractions_of(p)], height=p.height)


def is_tempered_prefix(seq, n_max: int) -> bool:
    """a_n <= seq.K (b_n - a_n) for every n <= n_max, and the largest length
    of the second half of the prefix beats that of the first (the finite
    stand-in for |I_n| -> infinity); a malformed interval raises."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lengths = []
    for n in range(1, n_max + 1):
        a, b = seq.interval(n)
        if not 0 <= a < b:
            raise ValueError(f"malformed interval ({a}, {b}) at n = {n}")
        if a > seq.K * (b - a):
            return False
        lengths.append(b - a)
    half = n_max // 2
    return n_max == 1 or max(lengths[half:]) > max(lengths[:half])
