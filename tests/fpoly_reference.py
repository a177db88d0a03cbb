"""Fractional polynomials on ``Fraction`` rows, kept as the tests' reference
for the library's integer rows over one denominator: the descent moves, the
canonical member order, goodness and the descent DAG's text, written out from
their definitions with no code shared with ``fpet.fpoly`` or ``fpet.order``.

A member is a tuple of ``Fraction`` rows v_1, ..., v_d; a family is a pair
(height, members).
"""

from collections import deque
from fractions import Fraction
from typing import Sequence

from rref_reference import rank

Rows = tuple[tuple[Fraction, ...], ...]


def rows_of(rows: Sequence[Sequence]) -> Rows:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


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
