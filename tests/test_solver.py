import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sepchoose import (
    BudgetExceeded,
    Graph,
    ListAssignment,
    SolveOutcome,
    build_cycle,
    build_path,
    canonicalize,
    color_with_lists,
    compute_sep,
    cycle_color_precolored,
    decide_choosable,
    decide_with_lists,
    enumerate_canonical,
    gen_flower,
    identify_vertices,
    is_valid_coloring,
    realize,
    separation,
)
from sepchoose import solver
from sepchoose.solver import _automorphisms, _enumerate_entries, _level_plan
from helpers import brute_force_colorable, brute_force_witness, huge_colors, random_cycle_lists

F = frozenset

K4E = Graph(n=4, edges=F({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}))
C3C4 = identify_vertices(build_cycle(3), 0, build_cycle(4), 0)
# a triangle with a pendant path: mapping vertex 0 to 3 is a dead end of
# the automorphism search
TRI_PENDANT = Graph(n=5, edges=F({(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)}))


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


def _merges(g, c, shared, singles):
    """Two color classes (a shared trace, or one vertex's singles) could
    share one color: they are disjoint, some edge joins them, and every
    edge between them shares fewer than c colors."""
    classes = [set(sub) for sub, _ in shared] + [{v} for v, k in enumerate(singles) if k]
    for i, s in enumerate(classes):
        for t in classes[i + 1:]:
            between = [(u, v) for u in s for v in t if (min(u, v), max(u, v)) in g.edges]
            if not s & t and between and all(
                    sum(m for sub, m in shared if u in sub and v in sub) < c for u, v in between):
                return True
    return False


@seed(20200902)
@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_saturated_stream_is_full_stream_without_room(data):
    # the pruned walk drops exactly the instances in which a pair trace has
    # room or two classes merge, and keeps the order of the ones it yields
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
    full = list(_enumerate_entries(_level_plan(g, connected_only, lambda: None), cap, c))
    saturated = list(_enumerate_entries(_level_plan(g, connected_only, lambda: None, True), cap, c))
    assert saturated == [x for x in full if not (_has_room(g, connected_only, c, *x) or _merges(g, c, *x))]


def _brute_automorphisms(g, fixed=None):
    return [p for p in itertools.permutations(range(g.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in g.edges for u, v in g.edges)
            and (fixed is None or p[fixed] == fixed)]


def _first_in_orbit(stream, group):
    """The instances of a stream that no earlier instance maps to."""
    seen, out = set(), []
    for shared, singles in stream:
        key = frozenset(shared)
        if key not in seen:
            out.append((shared, singles))
            seen.update(frozenset((tuple(sorted(p[v] for v in sub)), m) for sub, m in shared) for p in group)
    return out


@seed(20201019)
@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_orbit_stream_is_saturated_stream_first_in_orbit(data):
    # orderly pruning keeps exactly the first instance of each orbit of the
    # saturated stream under Aut(G), or the pin's stabiliser, in stream order
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
    assert sorted(_automorphisms(g, lambda: None)) == _brute_automorphisms(g)
    group = _brute_automorphisms(g, pinned)
    saturated = list(_enumerate_entries(_level_plan(g, connected_only, lambda: None, True), cap, c))
    orderly = list(_enumerate_entries(_level_plan(g, connected_only, lambda: None, True, group), cap, c))
    assert orderly == _first_in_orbit(saturated, group)


def test_orbit_roots_of_a_rotated_cycle_start_at_its_order():
    g = Graph(n=5, edges=build_cycle(5).edges, cycle_order=(2, 3, 4, 0, 1))
    out = decide_choosable(g, 2, 1, 2, free=True)
    assert not out.colorable and out.counterexample.precolored == 2
    assert not color_with_lists(out.counterexample, 1).colorable


@pytest.mark.parametrize("free", [False, True])
def test_budget_bounds_the_trace_universe(free):
    # C_30 has 871 connected traces and 2^30 vertex subsets; the budget
    # error must come from the eleventh trace, before any instance
    with pytest.raises(BudgetExceeded) as ei:
        decide_choosable(build_cycle(30), 3, 1, 2, free=free, budget=10)
    assert ei.value.nodes_explored == 11


def test_budget_charges_the_automorphism_search():
    # the search's dead end costs the first node, before any trace is built
    with pytest.raises(BudgetExceeded) as ei:
        decide_choosable(TRI_PENDANT, 2, 1, 1, budget=0)
    assert ei.value.nodes_explored == 1


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


def test_pin_without_b_colors_is_uncolorable():
    # phi(r) = L(r) cannot hold when |L(r)| != b, although the lists leave
    # room for a b-subset at r; neither mode searches
    L = ListAssignment(graph=build_path(2), lists=(F({0, 1}), F({2, 3})), a=2, precolored=0)
    for solve in (color_with_lists, decide_with_lists):
        assert solve(L, 1) == SolveOutcome(colorable=False)
    assert color_with_lists(ListAssignment(graph=L.graph, lists=L.lists, a=2), 1).colorable


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
    decided = decide_with_lists(L, b)
    assert decided.witness is None
    out = color_with_lists(L, b)
    assert decided.colorable == out.colorable == brute_force_colorable(L, b)
    # the witness is the lex-least coloring, found without the solver
    assert out.witness == brute_force_witness(L, b)
    if out.colorable:
        assert is_valid_coloring(L, out.witness, b)


@seed(20200903)
@settings(max_examples=300, deadline=None, database=None)
@given(linear_instances())
def test_huge_sparse_colors_map_the_witness(inst):
    L, b = inst
    big, up = huge_colors(L)
    out, big_out = color_with_lists(L, b), color_with_lists(big, b)
    assert big_out.colorable == decide_with_lists(big, b).colorable == out.colorable
    mapped = None if out.witness is None else tuple(F(map(up, s)) for s in out.witness)
    assert big_out.witness == mapped


@pytest.mark.parametrize("n", [1, 2, 9, 40])
@pytest.mark.parametrize("falling", [False, True], ids=["rising", "falling"])
@pytest.mark.parametrize("b", [1, 2])
def test_path_witness_is_one_sweep(monkeypatch, n, falling, b):
    # with vertex numbers rising or falling along the path, the witness walk
    # sweeps the path once from one end and then only scans candidates
    g = build_path(n)
    if falling:
        g = Graph(n=n, edges=g.edges, path_order=g.path_order[::-1])
    width = 3 * b  # lists of 2b colors out of 3b, shifted by b along the path
    lists = tuple(F((i * b + k) % width for k in range(2 * b)) for i in range(n))
    calls = []
    advance = solver._advance
    monkeypatch.setattr(solver, "_advance", lambda *args: calls.append(args) or advance(*args))
    out = color_with_lists(ListAssignment(graph=g, lists=lists, a=2 * b), b)
    assert out.colorable
    assert len(calls) == n - 1
    if n == 1:
        return
    # uncolorable: the end at vertex 0 forces the colors 0..b-1 there, each
    # interior list of 2b colors then alternates, and the far end's b colors
    # are its neighbour's; the sweep is the decision, so the walk stops after
    # at most one sweep, charging one node for the line and one for the root
    low, high = F(range(b)), F(range(b, 2 * b))
    lists = (low, *[low | high] * (n - 2), low if n % 2 == 0 else high)
    calls.clear()
    out = color_with_lists(ListAssignment(graph=g, lists=lists, a=2 * b), b)
    assert not out.colorable and out.witness is None
    assert len(calls) <= n - 1
    assert out.nodes_explored == 2


def _brute_line_colorable(masks, b, cyclic):
    """Every b-subset choice along the line, position by position; a choice
    depends only on its left neighbour's (and, closing a cycle, on
    position 0's), so the search is memoized on those."""
    def choices(mask):
        bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        return [sum(c) for c in itertools.combinations(bits, b)]

    def rest(i, prev, first):
        if i == len(masks):
            return True
        barred = prev | (first if cyclic and i == len(masks) - 1 else 0)
        return any(memo(i + 1, phi, first) for phi in choices(masks[i] & ~barred))

    memo = functools.cache(rest)
    return any(memo(1, phi, phi) for phi in choices(masks[0]))


def test_line_kernels_match_brute_force():
    # the decision kernels count the last step; a last list shorter than b
    # must fail however many colors the step before it has to spare
    assert solver._path_colorable([0b1110, 0b1], 2) is False
    # on this C_3, position 0's one color is the last position's closing
    # color and leaves it none, though position 1 has a color to spare
    assert solver._cycle_colorable([0b1, 0b110, 0b1], 1) is False
    assert solver._cycle_colorable([0b1, 0b110, 0b11], 1) is True
    # a 1-position path colors iff its list holds b colors
    assert [solver._path_colorable([m], 2) for m in (0b1, 0b101, 0b111)] == [False, True, True]
    rng = random.Random(20201018)
    for _ in range(3000):
        b, n = rng.randint(1, 3), rng.randint(1, 7)
        width = rng.randint(b, 3 * b + 2)
        masks = [sum(1 << c for c in rng.sample(range(width), rng.randint(max(0, b - 1), min(width, 2 * b + 1))))
                 for _ in range(n)]
        assert solver._path_colorable(masks, b) == _brute_line_colorable(masks, b, False), (masks, b)
        if n >= 3:
            assert solver._cycle_colorable(masks, b) == _brute_line_colorable(masks, b, True), (masks, b)


@pytest.mark.parametrize("b", [1, 2])
def test_decision_kernels_count_the_last_step(monkeypatch, b):
    # the path DP lists shadows up to the second-last position only: n - 2
    # _advance calls on P_n, and none on C_3, whose runs start there
    calls = []
    advance = solver._advance
    monkeypatch.setattr(solver, "_advance", lambda *args: calls.append(args) or advance(*args))
    for g, expected in ((build_path(2), 0), (build_path(3), 1), (build_path(9), 7), (build_cycle(3), 0)):
        lists = tuple(F((i * b + k) % (3 * b) for k in range(2 * b)) for i in range(g.n))
        calls.clear()
        assert decide_with_lists(ListAssignment(graph=g, lists=lists, a=2 * b), b).colorable
        assert len(calls) == expected


def test_subsets_read_set_bits_only():
    # combinations order of the set bits, lowest first, however high they sit
    rng = random.Random(20201020)
    for _ in range(300):
        bits = sorted(rng.sample(range(rng.choice([12, 100_000])), rng.randint(0, 6)))
        mask = sum(1 << i for i in bits)
        for k in range(len(bits) + 2):
            expected = [sum(1 << i for i in c) for c in itertools.combinations(bits, k)]
            assert list(solver._subsets(mask, k)) == expected


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


def test_decide_rejects_negative_c():
    with pytest.raises(ValueError, match="c must be >= 0"):
        decide_choosable(build_cycle(4), 2, 1, -1)


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
    # the scan fails at c = 4 and 3 and succeeds at c = 2; the last budget
    # covers each of those calls alone, but not the scan
    spent = sum(decide_choosable(K4E, 4, 2, c).nodes_explored for c in (4, 3))
    full_c2 = decide_choosable(K4E, 4, 2, 2).nodes_explored
    assert spent + 60 >= full_c2
    for budget in (50, spent + full_c2 // 2, spent + 60):
        with pytest.raises(BudgetExceeded) as ei:
            compute_sep(K4E, 4, 2, budget=budget)
        assert ei.value.nodes_explored > budget


def test_compute_sep_sets_each_graph_up_once():
    # the scan tries c = 2 (fails) and c = 1 (succeeds); the automorphism
    # search's dead end and the 13-trace universe are charged once for
    # both, not once per c
    per_c = [decide_choosable(TRI_PENDANT, 2, 1, c).nodes_explored for c in (2, 1)]
    assert sum(per_c) - 1 - 13 == 37
    assert compute_sep(TRI_PENDANT, 2, 1, budget=37) == 1
    with pytest.raises(BudgetExceeded) as ei:
        compute_sep(TRI_PENDANT, 2, 1, budget=36)
    assert ei.value.nodes_explored == 37


def test_each_graph_gets_one_elimination_tree(monkeypatch):
    builds = []

    class Counted(solver._EliminationTree):
        def __init__(self, g):
            builds.append(g)
            super().__init__(g)

    monkeypatch.setattr(solver, "_EliminationTree", Counted)
    # a free scan over c = 4, 3, 2, 1 on C3.C4 pins several roots, and every
    # root's instances reach the core
    assert compute_sep(C3C4, 4, 2, free=True) == 1
    assert not decide_choosable(C3C4, 2, 1, 1, free=True).colorable
    L = ListAssignment(graph=K4E, lists=(F({0, 1, 2}),) * 4, a=3)
    assert color_with_lists(L, 1).colorable and not decide_with_lists(L, 2).colorable
    assert builds == [C3C4, C3C4, K4E, K4E]
    builds.clear()
    for g in (build_cycle(5), build_path(4)):
        compute_sep(g, 3, 1, free=True)
        decide_choosable(g, 2, 1, 1)
        color_with_lists(ListAssignment(graph=g, lists=(F({0, 1, 2}),) * g.n, a=3), 1)
    assert builds == []


def test_each_graph_gets_one_trace_universe(monkeypatch):
    # a free scan over c pins several roots of C3.C4, and they share one
    # walk plan: the universe is built and charged once, not once per root
    builds = []
    universe = solver._trace_universe
    monkeypatch.setattr(solver, "_trace_universe", lambda g, *args: builds.append(g) or universe(g, *args))
    assert len(solver._pins(C3C4, True, lambda: None)[1]) > 1
    builds.clear()
    assert compute_sep(C3C4, 4, 2, free=True) == 1
    assert builds == [C3C4]


@st.composite
def small_graphs(draw):
    # connected or not, isolated vertices allowed
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


def _split(g, verts):
    """The components of g[verts], as sets."""
    left, comps = set(verts), []
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            u = todo.pop()
            comp.add(u)
            todo += g.adj[u] & left
            left -= g.adj[u]
        comps.append(comp)
    return comps


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(small_graphs())
def test_elimination_tree_matches_brute_force_split(g):
    tree = solver._EliminationTree(g)
    assert tree.roots == sorted(map(min, _split(g, range(g.n))))
    for v in range(g.n):
        comp = next(c for c in _split(g, range(v, g.n)) if v in c)
        assert sorted(tree.pre[tree.tin[v]:tree.tin[v] + tree.size[v]]) == sorted(comp)
        # the children are the components of comp minus v, by their smallest vertex
        assert tree.kids[v] == sorted(map(min, _split(g, comp - {v})))
        degree = {u: len(g.adj[u] & comp) for u in comp}
        edges = sum(degree.values()) // 2
        kind = None if max(degree.values()) > 2 else edges == len(comp)
        assert tree.kind[v] == kind
        if kind is not None:
            cyclic, order = tree.line(v)
            assert cyclic == kind and sorted(order) == sorted(comp)
            steps = list(zip(order, order[1:] + order[:1] if cyclic else order[1:]))
            assert all(q in g.adj[p] for p, q in steps)
            if cyclic:  # from v towards its smaller neighbour
                assert order[0] == v and order[1] < order[-1]
            else:  # from the smallest end
                assert order[0] == min(u for u in comp if degree[u] < 2)
        lows = {u: sorted(w for w in g.adj[u] if w < v) for u in sorted(comp)}
        assert [(u, sorted(xs)) for u, xs in tree.bound(v)] == [(u, xs) for u, xs in lows.items() if xs]


@pytest.mark.parametrize("g, a, b, c, free, colorable, nodes", [
    (build_cycle(5), 3, 1, 2, False, True, 28),
    (build_cycle(5), 3, 1, 2, True, True, 28),
    (K4E, 3, 2, 1, False, False, 36),
    (K4E, 3, 2, 1, True, False, 16),
    (C3C4, 2, 1, 1, False, True, 111),
    (C3C4, 2, 1, 1, True, False, 49),
])
def test_decide_node_counts_frozen(g, a, b, c, free, colorable, nodes):
    out = decide_choosable(g, a, b, c, free=free)
    assert (out.colorable, out.nodes_explored) == (colorable, nodes)
    assert decide_choosable(g, a, b, c, free=free, budget=nodes).nodes_explored == nodes
    with pytest.raises(BudgetExceeded) as ei:
        decide_choosable(g, a, b, c, free=free, budget=nodes - 1)
    assert ei.value.nodes_explored == nodes


C5_LISTS = ListAssignment(
    graph=build_cycle(5), lists=(F({0, 1, 2}), F({1, 2, 3}), F({0, 2, 3}), F({0, 1, 3}), F({1, 2, 3})), a=3
)
K4E_LISTS = ListAssignment(graph=K4E, lists=(F({0, 1, 2, 3}), F({0, 1, 4, 5}), F({2, 3, 4, 5}), F({0, 1, 2, 3})), a=4)
# a path numbered along its order whose first vertex must look to the far
# end, and one numbered out of order, so the walk colors inner vertices first
PATH_RISING = ListAssignment(graph=build_path(6), lists=(F({0, 1}), F({0, 2}), F({2, 3}), F({3, 4}), F({4, 5}), F({5})),
                             a=2)
_SHUFFLED = (3, 0, 5, 1, 4, 2)
PATH_SHUFFLED = ListAssignment(
    graph=Graph(n=6, edges=F((min(u, v), max(u, v)) for u, v in zip(_SHUFFLED, _SHUFFLED[1:])), path_order=_SHUFFLED),
    lists=(F({0, 1, 2, 3}), F({0, 2, 4, 5}), F({1, 2, 4, 5}), F({0, 1, 2, 3}), F({0, 1, 3, 4}), F({2, 3, 4, 5})), a=4,
)


@pytest.mark.parametrize("L, b, witness, color_nodes, decide_nodes", [
    (C5_LISTS, 1, ({0}, {1}, {0}, {1}, {2}), 6, 1),
    (C5_LISTS, 2, None, 7, 1),
    (K4E_LISTS, 2, ({0, 1}, {4, 5}, {2, 3}, {0, 1}), 5, 2),
    (PATH_RISING, 1, ({1}, {0}, {2}, {3}, {4}, {5}), 7, 1),
    (PATH_SHUFFLED, 2, ({0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 4}), 7, 1),
])
def test_list_coloring_node_counts_frozen(L, b, witness, color_nodes, decide_nodes):
    out = color_with_lists(L, b)
    assert out.witness == (None if witness is None else tuple(map(F, witness)))
    assert out.nodes_explored == color_nodes
    dec = decide_with_lists(L, b)
    assert (dec.colorable, dec.nodes_explored) == (witness is not None, decide_nodes)


@pytest.mark.parametrize("solve, nodes", [(decide_with_lists, 3180), (color_with_lists, 66465)])
def test_flower_node_counts_frozen(solve, nodes):
    # the flower whose petals the core mostly settles from its memo: a memo
    # hit charges nothing, each kernel call and each candidate charges one
    cert = gen_flower(3, 10, 4)
    out = solve(cert.assignment, cert.b)
    assert (out.colorable, out.nodes_explored) == (False, nodes)
    with pytest.raises(BudgetExceeded) as ei:
        solve(cert.assignment, cert.b, budget=nodes - 1)
    assert ei.value.nodes_explored == nodes


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


def test_easy_long_ladder_colors():
    # the same ladder at 5,000 vertices, with random 4-lists from 40 colors;
    # correctness only: CI times a 20,000-vertex one
    n, rng = 5000, random.Random(5000)
    edges = [(v, v + 1) for v in range(0, n, 2)] + [(v, v + 2) for v in range(n - 2)]
    lists = tuple(F(rng.sample(range(40), 4)) for _ in range(n))
    L = ListAssignment(graph=_graph(n, edges), lists=lists, a=4)
    out = color_with_lists(L, 1)
    assert out.colorable and is_valid_coloring(L, out.witness, 1)


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
