import hashlib
import random
from collections import deque
from functools import cache
from fractions import Fraction
from pathlib import Path

import pytest

from fpet.fpoly import (FPoly, FPolyFamily, degree, family_is_good, is_good, lift_to_independent,
                        lower_part, random_good_family, subtract)
from fpet import order
from fpet.order import (
    DagBudgetError,
    StepKind,
    canonical_family,
    dag_to_text,
    induction_dag,
    precedents,
    precedes,
)

F = Fraction


def fam(member_rows, height=None):
    return FPolyFamily.make(member_rows, height=height)


def steps_of(f, kind):
    return [step for step in precedents(f) if step.kind is kind]


def oracle_precedes(a, b):
    """Independent restatement of the order: height clause, then the three
    size/degree bullets on degree-sorted members."""
    if a.height != b.height:
        return a.height < b.height
    da = sorted((degree(p) for p in a.members), reverse=True)
    db = sorted((degree(p) for p in b.members), reverse=True)
    if len(da) > len(db):
        return False
    pointwise_ok = all(x <= y for x, y in zip(da, db))
    strict = len(da) < len(db) or any(x < y for x, y in zip(da, db))
    return pointwise_ok and strict


def test_precedes_example_same_height():
    a = fam([[[1, 0, 0], [0, 0, 0]]], height=2)  # t^(1/2) e1
    b = fam([[[0, 1, 0], [0, 0, 1]]], height=2)  # t^(1/2) e2 + t e3
    assert precedes(a, b)
    assert not precedes(b, a)


def test_precedes_irreflexive():
    a = fam([[[1, 0]], [[0, 1]]])
    assert not precedes(a, a)


def test_precedes_distinct_heights():
    low = fam([[[1, 0], [0, 1]]], height=2)
    high = fam([[[1, 0], [0, 1], [0, 0]]], height=3)
    # height 3 member has degree 2/3 < 1 = degree of the height 2 member,
    # yet the lower height always precedes
    assert precedes(low, high)
    assert not precedes(high, low)


def test_precedes_requires_good_nonempty():
    good = fam([[[1, 0]]])
    bad = fam([[[1, 0]], [[2, 0]]])
    with pytest.raises(ValueError):
        precedes(bad, good)
    empty = FPolyFamily(1, 2, ())
    with pytest.raises(ValueError):
        precedes(empty, good)


def test_precedes_fewer_members_is_not_enough():
    # one top-degree member does not precede two members of low degree
    one_top = fam([[[1, 0, 0], [0, 1, 0]]], height=2)
    two_low = fam(
        [[[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]]], height=2
    )
    assert not precedes(one_top, two_low)


def test_type1_example_two_full_members():
    f = fam([[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]])
    step = precedents(f)[0]
    assert step.kind is StepKind.TYPE_I
    assert step.detail == (1, 2)
    (psi,) = step.result.members
    assert psi == FPoly.make([[-1, 0, 1, 0], [0, -1, 0, 1]])
    assert precedes(step.result, f)


def test_type1_minimality_scan():
    # degree 1/2 member and degree 1 member: j1 = 1, i1 = the low-degree one
    f = fam(
        [
            [[0, 0, 1], [0, 0, 0]],  # t^(1/2) e3, degree 1/2
            [[1, 0, 0], [0, 1, 0]],  # degree 1
        ],
        height=2,
    )
    step = precedents(f)[0]
    assert step.kind is StepKind.TYPE_I
    assert step.detail == (1, 1)
    assert step.result.k == 1


def test_type1_requires_two_members():
    with pytest.raises(ValueError, match="at least two members"):
        precedents(fam([[[1]]]))


def test_precedents_require_a_good_family():
    with pytest.raises(ValueError, match="good families"):
        precedents(fam([[[1, 0]], [[2, 0]]]))


def test_type1_random_results_good_and_preceding(rng):
    for _ in range(200):
        f = random_good_family(rng, k=rng.randint(2, 4), height=rng.randint(1, 3), dim=12)
        step = precedents(f)[0]
        assert step.kind is StepKind.TYPE_I
        assert family_is_good(step.result)
        assert precedes(step.result, f)


def test_type2_replacement():
    f = fam([[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]]], height=2)
    (step,) = steps_of(f, StepKind.TYPE_II)
    assert step.detail == (1,)
    assert step.result.members[0] == FPoly.make([[1, 0, 0], [0, 0, 0]])
    assert step.result.members[1] == f.members[1]
    assert precedes(step.result, f)


def test_type2_omission_at_height_one():
    f = fam([[[1, 0]], [[0, 1]]])
    step = precedents(f)[2]
    assert step.kind is StepKind.TYPE_II
    assert step.detail == (2,)
    assert step.result.k == 1
    assert step.result.members[0] == FPoly.make([[1, 0]])


def test_type2_rejects_non_top_degree():
    f = fam([[[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1]]], height=2)
    # member 1 is not top-degree, so only member 2 has a type-II step
    (step,) = steps_of(f, StepKind.TYPE_II)
    assert step.detail == (2,)
    assert family_is_good(step.result)


def test_type2_random_results_good_and_preceding(rng):
    for _ in range(200):
        f = random_good_family(rng, k=rng.randint(2, 4), height=rng.randint(1, 3), dim=12)
        tops = [i for i, p in enumerate(f.members, start=1) if degree(p) == 1]
        steps = steps_of(f, StepKind.TYPE_II)
        assert [step.detail for step in steps] == [(i,) for i in tops]
        for step in steps:
            assert family_is_good(step.result)
            assert precedes(step.result, f)


def test_height_drop():
    f = fam(
        [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]]],
        height=3,
    )
    step = precedents(f)[-1]
    assert step.kind is StepKind.HEIGHT_DROP
    assert step.detail == (2,)
    assert step.result.height == 2
    # coefficient vectors are reused verbatim
    assert step.result.members[1] == FPoly.make([[0, 1, 0], [0, 0, 1]])
    assert precedes(step.result, f)
    # the result has a top-degree member, so it has no height drop
    assert steps_of(step.result, StepKind.HEIGHT_DROP) == []


def test_induction_dag_singleton():
    dag = induction_dag(fam([[[1, 0], [0, 1]]]))
    assert dag.node_count == 1
    assert dag.edges == ()


def test_induction_dag_k2_height1_by_hand():
    f = fam([[[1, 0]], [[0, 1]]])
    dag = induction_dag(f)
    # root, the type-I singleton difference, and the two type-II omissions
    assert dag.node_count == 4
    assert len(dag.edges) == 3
    kinds = sorted(step.kind.value for _, _, step in dag.edges)
    assert kinds == ["type1", "type2", "type2"]
    for src, dst, step in dag.edges:
        assert src == 0 and dst in (1, 2, 3)


def test_induction_dag_edges_precede(rng):
    for _ in range(40):
        f = random_good_family(rng, k=rng.randint(2, 4), height=rng.randint(1, 3), dim=12)
        dag = induction_dag(f)
        for src, dst, step in dag.edges:
            if dag.nodes[dst].k:
                assert precedes(dag.nodes[dst], dag.nodes[src])


def test_induction_dag_budget_error():
    rng = random.Random(3)
    f = random_good_family(rng, k=4, height=3, dim=12)
    with pytest.raises(DagBudgetError) as exc:
        induction_dag(f, max_nodes=3)
    assert exc.value.partial.node_count == 3


def test_induction_dag_raises_when_a_move_does_not_descend(monkeypatch):
    # a type-II move that keeps the member leaves the family where it was;
    # the cached true moves of a first run must not hide it
    f = fam([[[1, 0]], [[0, 1]]])
    induction_dag(f)
    monkeypatch.setattr(order, "lower_part", lambda p: p)
    with pytest.raises(RuntimeError, match="type2 result does not precede its source"):
        induction_dag(f)


def test_induction_dag_raises_when_a_move_breaks_goodness(monkeypatch):
    # a type-I move that repeats the subtracted member gives a dependent
    # family; the cached true moves of a first run must not hide it
    f = fam([[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]])
    induction_dag(f)
    monkeypatch.setattr(order, "subtract", lambda p, q: q)
    with pytest.raises(RuntimeError, match="type1 produced a non-good family"):
        induction_dag(f)


def test_dag_text_deterministic(rng):
    f = random_good_family(rng, k=3, height=2, dim=9)
    text1 = dag_to_text(induction_dag(f))
    text2 = dag_to_text(induction_dag(canonical_family(f)))
    assert text1 == text2
    assert text1.startswith("node 0 ")


def test_precedes_matches_oracle_and_is_transitive():
    rng = random.Random(11)
    fams = [
        random_good_family(rng, k=rng.randint(1, 4), height=rng.randint(1, 3), dim=12)
        for _ in range(60)
    ]
    rel = {}
    for i, a in enumerate(fams):
        for j, b in enumerate(fams):
            got = precedes(a, b)
            assert got == oracle_precedes(a, b)
            rel[(i, j)] = got
        assert not rel[(i, i)]
    for i in range(len(fams)):
        for j in range(len(fams)):
            if rel[(i, j)]:
                for k in range(len(fams)):
                    if rel[(j, k)]:
                        assert rel[(i, k)]


def golden_family():
    """Height 3, D = 9, leading degrees (1, 1, 2/3, 1/3), with non-unit entries."""
    return fam(
        [
            [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0]],
            [[0, 0, 0, 1, "1/2", 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0]],
            [[0, 0, 0, 0, 0, 0, 1, 0, 0], [0, "2/3", 0, 0, 0, 0, 0, 1, 0]],
            [[0, 1, 0, 0, 0, 0, 0, -3, 1]],
        ],
        height=3,
    )


def test_dag_text_golden_digest():
    # golden values: the DAG text must not depend on how goodness or hashes are computed
    text = dag_to_text(induction_dag(golden_family()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d107355e1256f348d495f50d83985fa1eb4b06a319552989f08ccb0ea9cb40bd"
    )
    assert text.count("\nedge ") == 228 and text.count("node ") == 122


def test_goodness_cache_counts_on_golden_dag():
    # one miss per node (one rank test each) and one hit per node that
    # precedents expands; cached hashes must leave every lookup where it is
    family_is_good.cache_clear()
    is_good.cache_clear()
    induction_dag(golden_family())
    fig, good = family_is_good.cache_info(), is_good.cache_info()
    assert (fig.hits, fig.misses) == (87, 122)
    # family_is_good decides goodness in one independence test, not through is_good
    assert (good.hits, good.misses) == (0, 0)


def template_family(monkeypatch):
    """The benchmark's descent template (perfbench/inputs.py, read only):
    leads (3, 3, 2, 2, 1, 1) at height 3 in Q^12."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    p = inputs.descent_template()
    return FPolyFamily.make(p.members, height=p.height)


def test_goodness_cache_counts_on_template_dag(monkeypatch):
    fam0 = template_family(monkeypatch)
    family_is_good.cache_clear()
    is_good.cache_clear()
    dag = induction_dag(fam0)
    assert (dag.node_count, len(dag.edges)) == (574, 1478)
    fig, good = family_is_good.cache_info(), is_good.cache_info()
    assert (fig.hits, fig.misses) == (496, 574)
    assert (good.hits, good.misses) == (0, 0)


def test_move_cache_counts_on_template_dag(monkeypatch):
    # 1,078 type-I differences on 284 distinct pairs, and 930 lower parts of
    # 87 distinct members
    fam0 = template_family(monkeypatch)
    subtract.cache_clear()
    lower_part.cache_clear()
    induction_dag(fam0)
    sub, low = subtract.cache_info(), lower_part.cache_info()
    assert (sub.hits, sub.misses) == (794, 284)
    assert (low.hits, low.misses) == (843, 87)


def shape(f):
    return f.height, tuple(sorted((p.lead for p in f.members), reverse=True))


def shape_dag(root):
    """The descent DAG on (height, leads sorted descending), with no
    arithmetic: type I drops one least lead, type II lowers one lead equal to
    the height by one (dropping it at 1), and the height drop re-declares at
    the largest lead when none equals the height."""
    nodes, edges, queue = {root}, set(), deque([root])
    while queue:
        src = queue.popleft()
        h, leads = src
        if len(leads) <= 1:
            continue
        succ = [(h, leads[:-1])]
        for i, lead in enumerate(leads):
            if lead == h:
                lowered = leads[:i] + (lead - 1,) * (lead > 1) + leads[i + 1 :]
                succ.append((h, tuple(sorted(lowered, reverse=True))))
        if leads[0] < h:
            succ.append((leads[0], leads))
        for dst in succ:
            edges.add((src, dst))
            if dst not in nodes:
                nodes.add(dst)
                queue.append(dst)
    return nodes, edges


def assert_dag_maps_onto_shapes(f):
    dag = induction_dag(f)
    nodes, edges = shape_dag(shape(f))
    images = {(shape(dag.nodes[a]), shape(dag.nodes[b])) for a, b, _ in dag.edges}
    assert images <= edges, images - edges
    assert images == edges and {shape(n) for n in dag.nodes} == nodes
    return len(nodes)


def test_descent_dag_maps_onto_its_shape_dag(monkeypatch):
    assert assert_dag_maps_onto_shapes(template_family(monkeypatch)) == 47
    # k up to 8 and h up to 4, with k * h <= 12 so that each DAG stays within
    # a few hundred nodes (k = 7, h = 2 can pass 3,000)
    pairs = [(k, h) for k in range(2, 9) for h in range(1, 5) if k * h <= 12]
    rng = random.Random(9)
    for _ in range(25):
        k, h = rng.choice(pairs)
        assert_dag_maps_onto_shapes(random_good_family(rng, k=k, height=h, dim=k * h))


@pytest.mark.parametrize(
    "k, d, nodes, edges, longest",
    [(2, 2, 12, 12, 5), (3, 3, 100, 146, 11), (4, 4, 687, 1_370, 19),
     (5, 4, 2_945, 7_083, 23), (6, 3, 7_171, 19_669, 20), (8, 2, 28_351, 95_632, 17)],
)
def test_lifted_dag_size_is_pinned(k, d, nodes, edges, longest):
    """The descent DAG of a lifted family, pinned: its nodes, its edges and
    its longest path, counted in nodes."""
    lifted, _ = lift_to_independent([[[1]] * d] * k)
    dag = induction_dag(lifted, max_nodes=nodes)
    assert (dag.node_count, len(dag.edges)) == (nodes, edges)
    succ = {}
    for src, dst, _ in dag.edges:
        succ.setdefault(src, []).append(dst)

    @cache
    def depth(n):
        return 1 + max(map(depth, succ.get(n, ())), default=0)

    assert depth(0) == longest


@pytest.mark.parametrize("k, d", [(3, 3), (4, 4)])
def test_lifted_dag_text_depends_only_on_k_and_d(k, d):
    """A lifted family's coefficients are rows of the identity, so two tuples
    of polynomials with the same (k, d) give the same DAG text."""
    ones, _ = lift_to_independent([[[1]] * d] * k)
    other, _ = lift_to_independent([[[j - i, 2 * i + 1] for j in range(d)] for i in range(k)])
    assert dag_to_text(induction_dag(other)) == dag_to_text(induction_dag(ones))
