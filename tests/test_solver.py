import random
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sepchoose import (
    BudgetExceeded,
    Graph,
    ListAssignment,
    build_cycle,
    build_path,
    canonicalize,
    color_with_lists,
    compute_sep,
    cycle_color_precolored,
    decide_choosable,
    enumerate_canonical,
    is_valid_coloring,
    realize,
    separation,
)
from sepchoose.solver import _enumerate_entries, _lists_to_masks, _solve_masks
from helpers import brute_force_colorable, brute_force_witness, random_cycle_lists

F = frozenset

K4E = Graph(n=4, edges=F({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}))


# --- canonical enumeration -------------------------------------------------

def test_enumeration_counts_frozen():
    """Counts fixed by hand enumeration over traces.

    C3 a=1 c=0: only all-private.  C3 a=1 c=1: traces of the triangle with
    per-vertex mass 1 and edge cap 1.  K2 a=2 c=1: the shared mass s obeys
    s <= 1 and determines the rest, so exactly two classes."""
    g3 = build_cycle(3)
    k2 = Graph(n=2, edges=frozenset({(0, 1)}))
    assert sum(1 for _ in enumerate_canonical(g3, 1, 1, 0)) == 1
    assert sum(1 for _ in enumerate_canonical(g3, 1, 1, 1)) == 5
    assert sum(1 for _ in enumerate_canonical(k2, 2, 1, 1)) == 2


def test_enumeration_includes_all_equal_assignment():
    g3 = build_cycle(3)
    stream = [t.entries for t in enumerate_canonical(g3, 1, 1, 1)]
    assert (((0, 1, 2), 1),) in stream


def test_enumeration_respects_precolored_mass():
    g3 = build_cycle(3)
    for t in enumerate_canonical(g3, 2, 1, 1, precolored=1):
        lists = realize(t, g3, 2, precolored=1).lists
        assert len(lists[1]) == 1
        assert len(lists[0]) == 2


def test_enumeration_respects_edge_cap():
    g4 = build_cycle(4)
    for t in enumerate_canonical(g4, 2, 1, 1):
        assert separation(realize(t, g4, 2)) <= 1


def test_enumeration_counts_connected_only():
    # splitting disconnected traces collapses classes: frozen via exhaustion
    g4 = build_cycle(4)
    assert sum(1 for _ in enumerate_canonical(g4, 2, 1, 1)) == 90
    assert sum(1 for _ in enumerate_canonical(g4, 2, 1, 1, connected_only=True)) == 35
    assert sum(1 for _ in enumerate_canonical(g4, 2, 1, 1, precolored=0)) == 50


def _has_room(g, connected_only, c, shared, singles):
    """Some pair trace could still take a single from each end: both ends
    keep a single and, on an edge, the edge keeps slack."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            edge = (u, v) in g.edges
            if connected_only and not edge:
                continue  # not a pair trace: {u, v} is disconnected
            mass = sum(m for sub, m in shared if u in sub and v in sub)
            if singles[u] and singles[v] and (not edge or mass < c):
                return True
    return False


@seed(20200902)
@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_saturated_stream_is_full_stream_without_room(data):
    # the pruned walk drops exactly the instances in which a pair trace has
    # room, and keeps the order of the ones it yields
    n = data.draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = _graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    a = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, a))
    cap = [a] * n
    pinned = data.draw(st.none() | st.integers(0, n - 1))
    if pinned is not None:
        cap[pinned] = data.draw(st.integers(1, a))
    connected_only = data.draw(st.booleans())
    full = list(_enumerate_entries(g, cap, c, connected_only))
    saturated = list(_enumerate_entries(g, cap, c, connected_only, _saturated=True))
    assert saturated == [x for x in full if not _has_room(g, connected_only, c, *x)]


def test_enumeration_handles_large_loose_universe():
    # over 1000 candidate traces; must not hit the recursion limit
    g = build_path(10)
    stream = enumerate_canonical(g, 1, 1, 1, connected_only=False)
    for _, t in zip(range(5), stream):
        assert len(realize(t, g, 1).lists[0]) == 1


def test_relabeling_completeness_spot_check():
    rng = random.Random(3)
    g = build_cycle(3)
    stream = set()
    for t in enumerate_canonical(g, 2, 1, 2):
        stream.add(t.entries)
    for _ in range(100):
        lists = tuple(F(rng.sample(range(8), 2)) for _ in range(3))
        L = ListAssignment(graph=g, lists=lists, a=2)
        if separation(L) <= 2:
            assert canonicalize(L).entries in stream


# --- exact instance solving -------------------------------------------------

def test_witness_is_valid_and_lex_least():
    g = build_cycle(4)
    lists = (F({1, 2, 3}), F({1, 2, 3}), F({1, 2, 3}), F({1, 2, 3}))
    L = ListAssignment(graph=g, lists=lists, a=3)
    out = color_with_lists(L, 1)
    assert out.colorable
    assert is_valid_coloring(L, out.witness, 1)
    assert out.witness == (F({1}), F({2}), F({1}), F({2}))


def test_solver_agrees_with_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 5)
        dense = rng.random() < 0.5
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < (0.8 if dense else 0.4):
                    edges.add((u, v))
        g = Graph(n=n, edges=frozenset(edges))
        a = rng.randint(1, 3)
        b = rng.randint(1, a)
        lists = tuple(F(rng.sample(range(6), a)) for _ in range(n))
        L = ListAssignment(graph=g, lists=lists, a=a)
        got = color_with_lists(L, b)
        assert got.colorable == brute_force_colorable(L, b)
        if got.colorable:
            assert is_valid_coloring(L, got.witness, b)


def _graph(n, pairs):
    return Graph(n=n, edges=F((min(u, v), max(u, v)) for u, v in pairs))


# no path or cycle annotation: the core sees them only as adjacency
UNANNOTATED = [
    K4E,
    _graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),  # C3.C3
    _graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (0, 5)]),  # C3.C4
    _graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),  # triangle with pendants
]


@st.composite
def list_instances(draw):
    if draw(st.booleans()):
        g = draw(st.sampled_from(UNANNOTATED))
    else:
        n = draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = _graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, min(a, 2)))
    pinned = draw(st.none() | st.integers(0, g.n - 1))
    pool = st.integers(0, a + 3)
    lists = tuple(
        F(draw(st.lists(pool, min_size=b if v == pinned else a,
                        max_size=b if v == pinned else a, unique=True)))
        for v in range(g.n)
    )
    return ListAssignment(graph=g, lists=lists, a=a, precolored=pinned), b


@st.composite
def linear_instances(draw):
    """Paths and cycles with vertex numbers shuffled along the order, so the
    smallest vertex often sits inside the path; path ends may carry short
    lists.  a <= 3 keeps the brute-force product small at n = 8."""
    cyclic = draw(st.booleans())
    n = draw(st.integers(3 if cyclic else 1, 8))
    order = tuple(draw(st.permutations(range(n))))
    walk = list(zip(order, order[1:])) + ([(order[-1], order[0])] if cyclic else [])
    g = Graph(n=n, edges=F((min(u, v), max(u, v)) for u, v in walk),
              cycle_order=order if cyclic else None, path_order=None if cyclic else order)
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, min(a, 2)))
    pinned = draw(st.none() | st.integers(0, n - 1))
    ends = {order[0], order[-1]} if not cyclic and n >= 2 else set()
    pool = st.integers(0, a + draw(st.integers(0, 2)))
    lists = []
    for v in range(n):
        lo, hi = (b, b) if v == pinned else (1 if v in ends else a, a)
        lists.append(F(draw(st.lists(pool, min_size=lo, max_size=hi, unique=True))))
    return ListAssignment(graph=g, lists=tuple(lists), a=a, precolored=pinned), b


@seed(20200901)
@settings(max_examples=600, deadline=None, database=None)
@given(list_instances() | linear_instances())
def test_core_modes_agree_with_brute_force(inst):
    L, b = inst
    decided, _, phimask = _solve_masks(L.graph.adj, _lists_to_masks(L.lists)[1], b, None, False)
    assert phimask is None
    out = color_with_lists(L, b)
    assert decided == out.colorable == brute_force_colorable(L, b)
    # the witness is the lex-least coloring, found without the solver
    assert out.witness == brute_force_witness(L, b)
    if out.colorable:
        assert is_valid_coloring(L, out.witness, b)


def test_easy_long_path_witness():
    # P_4000 walks the path witness once, with no recursion per vertex; on
    # these lists the lex-least coloring is the left-to-right greedy one
    n = 4000
    L = ListAssignment(graph=build_path(n), lists=tuple(F({i % 3, (i + 1) % 3}) for i in range(n)), a=2)
    out = color_with_lists(L, 1)
    assert out.colorable and is_valid_coloring(L, out.witness, 1)
    greedy, prev = [], F()
    for lst in L.lists:
        prev = F({min(lst - prev)})
        greedy.append(prev)
    assert out.witness == tuple(greedy)


def test_free_requires_pinned_vertex():
    g = build_cycle(3)
    L = ListAssignment(graph=g, lists=(F({1, 2}), F({2, 3}), F({3, 4})), a=2)
    with pytest.raises(ValueError, match="no pinned vertex"):
        cycle_color_precolored(L, 1)


def test_budget_exhaustion_raises():
    g = build_cycle(5)
    with pytest.raises(BudgetExceeded) as ei:
        decide_choosable(g, 4, 2, 2, budget=10)
    assert ei.value.nodes_explored > 10


def test_nested_budget_counts_outer_and_inner_nodes():
    # K4-e has no annotation, so every instance runs the core; the reported
    # count is instances plus core nodes and always exceeds the budget
    full = decide_choosable(K4E, 4, 2, 2)
    assert full.colorable
    for budget in (50, full.nodes_explored // 2):
        with pytest.raises(BudgetExceeded) as ei:
            decide_choosable(K4E, 4, 2, 2, budget=budget)
        assert ei.value.nodes_explored > budget
    assert decide_choosable(K4E, 4, 2, 2, budget=full.nodes_explored).colorable
    with pytest.raises(BudgetExceeded) as ei:
        decide_choosable(K4E, 4, 2, 2, budget=full.nodes_explored - 1)
    assert ei.value.nodes_explored == full.nodes_explored


def test_compute_sep_budget_sums_across_c():
    spent = sum(decide_choosable(K4E, 4, 2, c).nodes_explored for c in (4, 3))
    full_c2 = decide_choosable(K4E, 4, 2, 2).nodes_explored
    for budget in (50, spent + full_c2 // 2, spent + 100):
        with pytest.raises(BudgetExceeded) as ei:
            compute_sep(K4E, 4, 2, budget=budget)
        assert ei.value.nodes_explored > budget


def test_decide_counterexample_reverifies():
    g = build_cycle(4)
    out = decide_choosable(g, 2, 1, 2, free=True)
    assert not out.colorable
    cx = out.counterexample
    assert separation(cx) <= 2
    assert not color_with_lists(cx, 1).colorable


def test_connected_only_matches_full_enumeration():
    # the split-by-component reduction must not change any verdict: brute
    # force over the full stream, disconnected traces included, agrees
    for g, a, b in [(build_cycle(3), 3, 1), (build_cycle(4), 2, 1), (build_cycle(3), 4, 2)]:
        for c in range(a + 1):
            for free in (False, True):
                full = all(
                    brute_force_colorable(realize(t, g, a, precolored=r), b)
                    for r in (range(g.n) if free else [None])
                    for t in enumerate_canonical(g, a, b, c, precolored=r, connected_only=False)
                )
                assert decide_choosable(g, a, b, c, free=free).colorable == full, (g.n, a, b, c, free)


def test_deep_search_leaves_recursion_limit_alone(monkeypatch):
    # numbered across its rungs, a ladder keeps a degree-3 vertex in the
    # uncolored rest until its last rung, so the generic search goes one
    # level per vertex, deeper than the default recursion limit
    n = 600
    edges = [(v, v + 1) for v in range(0, n, 2)] + [(v, v + 2) for v in range(n - 2)]
    L = ListAssignment(graph=_graph(n, edges), lists=(F({0, 1, 2}),) * n, a=3)
    limit = sys.getrecursionlimit()

    def refuse(_):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    out = color_with_lists(L, 1)
    assert out.colorable and is_valid_coloring(L, out.witness, 1)
    assert sys.getrecursionlimit() == limit


def _first_uncolorable(g, a, b, c, free):
    """Reference for decide_choosable without its solver or its pruning: the
    first instance of the full connected stream, over every root in order,
    that brute force cannot color."""
    for r in range(g.n) if free else [None]:
        for t in enumerate_canonical(g, a, b, c, precolored=r, connected_only=True):
            L = realize(t, g, a, precolored=r)
            if not brute_force_colorable(L, b):
                return L
    return None


ORACLE_GRAPHS = [build_cycle(3), build_cycle(4), build_cycle(5), build_path(2),
                 build_path(3), build_path(4), build_path(5), K4E, UNANNOTATED[1]]


def _check_against_reference(g, a, b, c, free):
    out = decide_choosable(g, a, b, c, free=free)
    ref = _first_uncolorable(g, a, b, c, free)
    assert out.colorable == (ref is None), (g, a, b, c, free)
    if ref is not None:
        cx = out.counterexample
        assert (cx.lists, cx.precolored) == (ref.lists, ref.precolored), (g, a, b, c, free)


@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_decide_matches_brute_force_reference(g):
    # free roots on annotated cycles and paths are orbit representatives;
    # the reference tries every root, and by symmetry finds the same first one
    for a in range(1, 4):
        for b in range(1, a + 1):
            for c in range(a + 1):
                for free in (False, True):
                    _check_against_reference(g, a, b, c, free)


@seed(20200903)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_decide_matches_brute_force_reference_on_random_graphs(data):
    n = data.draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = _graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    a = data.draw(st.integers(1, 3))
    b = data.draw(st.integers(1, a))
    c = data.draw(st.integers(0, a))
    _check_against_reference(g, a, b, c, data.draw(st.booleans()))


def test_compute_sep_known_cycle_values():
    """Values pinned by exhaustive search over canonical assignments."""
    assert compute_sep(build_cycle(4), 2, 1) == 2
    assert compute_sep(build_cycle(3), 5, 2) == 4
    assert compute_sep(build_cycle(3), 2, 1, free=True) == 1
    assert compute_sep(build_cycle(5), 3, 1, free=True) == 3


def test_compute_sep_downward_monotone():
    # once choosable at c, choosable at every smaller c
    g = build_cycle(4)
    a, b = 3, 1
    val = compute_sep(g, a, b)
    for c in range(val + 1):
        assert decide_choosable(g, a, b, c).colorable
    for c in range(val + 1, a + 1):
        assert not decide_choosable(g, a, b, c).colorable


def test_realized_counterexamples_match_canonical_stream():
    rng = random.Random(23)
    g = build_cycle(3)
    for _ in range(40):
        lists = tuple(random_cycle_lists(rng, 3, 3, 2))
        L = ListAssignment(graph=g, lists=lists, a=3)
        R = realize(canonicalize(L), g, 3)
        assert color_with_lists(L, 1).colorable == color_with_lists(R, 1).colorable
