"""The precedence partial order on good families and its descent moves.

A family psi precedes a family phi of the same height when psi is no larger,
its degree-sorted members are pointwise no larger in degree, and something is
strictly smaller (fewer members, or a strict degree drop).  At one height d a
degree is a lead j over d, so the comparison runs on the members' integer
leads (:class:`~fpet.fpoly.FPoly`).  Families of distinct heights always
compare by height.  Three descent constructions realize the order:

* type I:   subtract a member of minimal leading degree from all others;
* type II:  replace a top-degree member by its lower part (omitting it
            entirely when that lower part is the zero map);
* height drop: when no member is top-degree, re-declare the family at the
            height equal to its maximal leading index (a fractional-power
            time change; the coefficient vectors are unchanged).

The order has no infinite descending chains, so exhaustively applying the
moves from any good family yields a finite DAG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .fpoly import (
    FPoly,
    FPolyFamily,
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
    source: FPolyFamily
    result: FPolyFamily
    detail: tuple[int, ...]


def precedes(a: FPolyFamily, b: FPolyFamily) -> bool:
    """Does family ``a`` strictly precede family ``b``?"""
    if a.k == 0 or b.k == 0:
        raise ValueError("precedence is defined on nonempty families")
    if not family_is_good(a) or not family_is_good(b):
        raise ValueError("precedence is defined on good families")
    if a.height != b.height:
        return a.height < b.height
    la = sorted((p.lead for p in a.members), reverse=True)
    lb = sorted((p.lead for p in b.members), reverse=True)
    if len(la) > len(lb):
        return False
    if any(x > y for x, y in zip(la, lb)):
        return False
    return len(la) < len(lb) or any(x < y for x, y in zip(la, lb))


def _checked(step: PrecedentStep) -> PrecedentStep:
    # the constructions below provably preserve goodness and descend; verify anyway
    if not family_is_good(step.result):
        raise RuntimeError(f"{step.kind.value} produced a non-good family")
    if step.result.k > 0 and not precedes(step.result, step.source):
        raise RuntimeError(f"{step.kind.value} result does not precede its source")
    return step


def type1_precedent(f: FPolyFamily) -> PrecedentStep:
    """Subtract the first member of minimal leading degree from all others."""
    if f.k < 2:
        raise ValueError("a type-I precedent needs at least two members")
    if not family_is_good(f):
        raise ValueError("type-I precedent is defined on good families")
    leads = [p.lead for p in f.members]
    j1 = min(leads)
    i1 = leads.index(j1)  # smallest index among the minimizers
    base = f.members[i1]
    rest = [subtract(p, base) for i, p in enumerate(f.members) if i != i1]
    result = FPolyFamily(f.height, f.ambient_dim, tuple(rest))
    return _checked(PrecedentStep(StepKind.TYPE_I, f, result, (i1 + 1, j1)))


def type2_precedent(f: FPolyFamily, i: int) -> PrecedentStep:
    """Replace member ``i`` (1-based) by its lower part, omitting it when that
    lower part is the zero map (always the case at height 1)."""
    if not 1 <= i <= f.k:
        raise ValueError(f"member index {i} out of range 1..{f.k}")
    if not family_is_good(f):
        raise ValueError("type-II precedent is defined on good families")
    member = f.members[i - 1]
    if not is_top_degree(member):
        raise ValueError("type-II precedent requires a top-degree member")
    low = lower_part(member)
    if low.lead == 0:
        new = f.members[: i - 1] + f.members[i:]
    else:
        new = f.members[: i - 1] + (low,) + f.members[i:]
    result = FPolyFamily(f.height, f.ambient_dim, new)
    return _checked(PrecedentStep(StepKind.TYPE_II, f, result, (i,)))


def height_drop(f: FPolyFamily) -> PrecedentStep:
    """Re-declare a family with no top-degree member at its maximal leading
    index; the coefficient vectors are reused verbatim."""
    if f.k == 0:
        raise ValueError("cannot drop the height of an empty family")
    if not family_is_good(f):
        raise ValueError("height drop is defined on good families")
    new_d = max(p.lead for p in f.members)
    if new_d == f.height:
        raise ValueError("height drop applies only when no member is top-degree")
    members = tuple(
        FPoly(new_d, f.ambient_dim, p.coeffs[:new_d]) for p in f.members
    )
    result = FPolyFamily(new_d, f.ambient_dim, members)
    return _checked(PrecedentStep(StepKind.HEIGHT_DROP, f, result, (new_d,)))


def canonical_family(f: FPolyFamily) -> FPolyFamily:
    """Members sorted by (lead descending, lexicographic coefficients)."""
    members = sorted(f.members, key=lambda p: (-p.lead, p.coeffs))
    return FPolyFamily(f.height, f.ambient_dim, tuple(members))


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
    """Exhaustively apply the descent moves until every leaf is a singleton or
    empty family.  Nodes are deduplicated after canonical sorting; traversal
    is breadth first with a fixed successor order (type I, then type II by
    member index, then height drop), so the DAG is deterministic."""
    if not family_is_good(f):
        raise ValueError("the induction starts from a good family")
    root = canonical_family(f)
    ids: dict[FPolyFamily, int] = {root: 0}
    nodes: list[FPolyFamily] = [root]
    edges: list[tuple[int, int, PrecedentStep]] = []
    queue = deque([root])
    while queue:
        fam = queue.popleft()
        if fam.k <= 1:
            continue
        steps = [type1_precedent(fam)]
        steps += [
            type2_precedent(fam, i)
            for i, p in enumerate(fam.members, start=1)
            if is_top_degree(p)
        ]
        if not any(is_top_degree(p) for p in fam.members):
            steps.append(height_drop(fam))
        for step in steps:
            res = canonical_family(step.result)
            if res not in ids:
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


def _family_line(f: FPolyFamily) -> str:
    members = " ; ".join(
        "|".join(rational_text(v, ",") for v in p.coeffs) for p in f.members
    )
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
    lines = [f"node {i} {_family_line(fam)}" for i, fam in enumerate(dag.nodes)]
    for src, dst, step in dag.edges:
        detail = " ".join(
            f"{name}={value}"
            for name, value in zip(_DETAIL_NAMES[step.kind], step.detail)
        )
        lines.append(f"edge {src} {dst} {step.kind.value} {detail}".rstrip())
    return "\n".join(lines) + "\n"
