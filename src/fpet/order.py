"""The precedence partial order on good families and its descent moves.

A family psi precedes a family phi of the same height when psi is no larger,
its degree-sorted members are pointwise no larger in degree, and something is
strictly smaller (fewer members, or a strict degree drop).  At one height d a
degree is a lead j over d, so the comparison runs on the members' integer
leads (:class:`~fpet.fpoly.FPoly`).  Families of distinct heights always
compare by height.  :func:`precedents` lists the three descent constructions
that realize the order:

* type I:   subtract a member of minimal leading degree from all others;
* type II:  replace a top-degree member by its lower part (omitting it
            entirely when that lower part is the zero map);
* height drop: when no member is top-degree, re-declare the family at the
            height equal to its maximal leading index (a fractional-power
            time change; the coefficient vectors are unchanged).

The order has no infinite descending chains, so exhaustively applying the
moves from any good family yields a finite DAG.  Each check runs once:
:func:`precedents` checks its input (at least two members, good), and
:func:`induction_dag` checks that each new node is good and that each edge
descends, by the same comparison of sorted leads that :func:`precedes` makes
after checking that both families are good.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import lcm

from .fpoly import (
    FPoly,
    FPolyFamily,
    _fpoly,
    family_is_good,
    is_top_degree,
    lower_part,
    subtract,
)
from .textkv import rational_text


class StepKind(str, Enum):
    TYPE_I = "type1"
    TYPE_II = "type2"
    HEIGHT_DROP = "heightdrop"


@dataclass(frozen=True)
class PrecedentStep:
    """One descent move.  ``detail`` uses 1-based member indices:
    (i_1, j_1) for type I, (i,) for type II, (new_height,) for a height drop.
    """

    kind: StepKind
    result: FPolyFamily
    detail: tuple[int, ...]


def _shape(f: FPolyFamily) -> tuple[int, list[int]]:
    return f.height, sorted((p.lead for p in f.members), reverse=True)


def _descends(a: tuple[int, list[int]], b: tuple[int, list[int]]) -> bool:
    # the order's rule on the shapes (height, sorted leads), with no goodness lookup
    (ha, la), (hb, lb) = a, b
    if ha != hb:
        return ha < hb
    if len(la) > len(lb) or any(x > y for x, y in zip(la, lb)):
        return False
    return len(la) < len(lb) or any(x < y for x, y in zip(la, lb))


def precedes(a: FPolyFamily, b: FPolyFamily) -> bool:
    """Does family ``a`` strictly precede family ``b``?"""
    if a.k == 0 or b.k == 0:
        raise ValueError("precedence is defined on nonempty families")
    if not family_is_good(a) or not family_is_good(b):
        raise ValueError("precedence is defined on good families")
    return _descends(_shape(a), _shape(b))


def precedents(f: FPolyFamily) -> list[PrecedentStep]:
    """The descent moves from a good family of at least two members, in the
    DAG's successor order: type I (subtract the first member of minimal
    leading degree), then type II at each top-degree member by index (its
    lower part, omitted when that is the zero map, as always at height 1),
    then the height drop when no member is top-degree (the coefficient rows
    are reused verbatim and unchecked: the dropped rows are zero, so each
    denominator stays as it is, in lowest terms)."""
    if f.k < 2:
        raise ValueError("precedents are defined on families of at least two members")
    if not family_is_good(f):
        raise ValueError("precedents are defined on good families")
    h, dim = f.height, f.ambient_dim
    leads = [p.lead for p in f.members]
    j1 = min(leads)
    i1 = leads.index(j1)  # smallest index among the minimizers
    base = f.members[i1]
    rest = tuple(subtract(p, base) for i, p in enumerate(f.members) if i != i1)
    steps = [PrecedentStep(StepKind.TYPE_I, FPolyFamily(h, dim, rest), (i1 + 1, j1))]
    for i, p in enumerate(f.members):
        if is_top_degree(p):
            low = lower_part(p)
            new = f.members[:i] + ((low,) if low.lead else ()) + f.members[i + 1 :]
            steps.append(PrecedentStep(StepKind.TYPE_II, FPolyFamily(h, dim, new), (i + 1,)))
    if len(steps) == 1:
        new_d = max(leads)
        members = tuple(_fpoly(new_d, dim, p.den, p.rows[:new_d]) for p in f.members)
        steps.append(PrecedentStep(StepKind.HEIGHT_DROP, FPolyFamily(new_d, dim, members), (new_d,)))
    return steps


def canonical_family(f: FPolyFamily) -> FPolyFamily:
    """Members sorted by (lead descending, lexicographic coefficients).

    Coefficients compare as rationals: each member's rows are scaled to the
    family's common denominator, and over one positive denominator integer
    rows order as the rationals they stand for."""
    common = lcm(*(p.den for p in f.members))

    def key(p):
        scale = common // p.den
        if scale == 1:
            return -p.lead, p.rows
        return -p.lead, tuple(tuple(a * scale for a in r) for r in p.rows)

    members = tuple(sorted(f.members, key=key))
    return f if members == f.members else FPolyFamily(f.height, f.ambient_dim, members)


@dataclass(frozen=True)
class InductionDag:
    """Deduplicated descent DAG.  ``nodes[0]`` is the canonicalized root;
    edges are (source node id, result node id, step)."""

    nodes: tuple[FPolyFamily, ...]
    edges: tuple[tuple[int, int, PrecedentStep], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


class DagBudgetError(RuntimeError):
    """Raised when the node budget is exhausted; carries the partial DAG."""

    def __init__(self, message: str, partial: InductionDag):
        super().__init__(message)
        self.partial = partial


def induction_dag(f: FPolyFamily, max_nodes: int = 10_000) -> InductionDag:
    """Exhaustively apply :func:`precedents` until every leaf is a singleton
    or empty family.  Nodes are deduplicated after canonical sorting;
    traversal is breadth first in the successor order of :func:`precedents`,
    so the DAG is deterministic.  The moves provably keep goodness and
    descend; each new node is checked good once, and each edge is checked to
    descend on its leads, raising ``RuntimeError`` if either fails."""
    root = canonical_family(f)
    if not family_is_good(root):
        raise ValueError("the induction starts from a good family")
    ids: dict[FPolyFamily, int] = {root: 0}
    nodes: list[FPolyFamily] = [root]
    edges: list[tuple[int, int, PrecedentStep]] = []
    queue = deque([root])
    while queue:
        fam = queue.popleft()
        if fam.k <= 1:
            continue
        shape = _shape(fam)
        for step in precedents(fam):
            res = canonical_family(step.result)
            if not _descends(_shape(res), shape):
                raise RuntimeError(f"{step.kind.value} result does not precede its source")
            if res not in ids:
                if not family_is_good(res):
                    raise RuntimeError(f"{step.kind.value} produced a non-good family")
                if len(nodes) >= max_nodes:
                    partial = InductionDag(tuple(nodes), tuple(edges))
                    raise DagBudgetError(
                        f"node budget {max_nodes} exhausted with work remaining",
                        partial,
                    )
                ids[res] = len(nodes)
                nodes.append(res)
                queue.append(res)
            edges.append((ids[fam], ids[res], step))
    return InductionDag(tuple(nodes), tuple(edges))


def _member_text(p: FPoly) -> str:
    return "|".join(rational_text(v, ",", p.den) for v in p.rows)


def _family_line(f: FPolyFamily, member_text=_member_text) -> str:
    members = " ; ".join(map(member_text, f.members))
    return f"h={f.height} D={f.ambient_dim} k={f.k} {members}".rstrip()


_DETAIL_NAMES = {
    StepKind.TYPE_I: ("i1", "j1"),
    StepKind.TYPE_II: ("i",),
    StepKind.HEIGHT_DROP: ("d",),
}


def dag_to_text(dag: InductionDag) -> str:
    """Line-oriented export: one node line per canonical family, one edge line
    per step with its kind and detail.  Ordering is the deterministic
    construction order, suitable for golden files."""
    # equal members recur across nodes (146 distinct in the 1,652 members of
    # the benchmark template's DAG), so each is written once
    member_text = cache(_member_text)
    lines = [f"node {i} {_family_line(fam, member_text)}" for i, fam in enumerate(dag.nodes)]
    for src, dst, step in dag.edges:
        detail = " ".join(
            f"{name}={value}"
            for name, value in zip(_DETAIL_NAMES[step.kind], step.detail)
        )
        lines.append(f"edge {src} {dst} {step.kind.value} {detail}".rstrip())
    return "\n".join(lines) + "\n"
