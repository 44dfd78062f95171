import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sepchoose import (
    Graph,
    ListAssignment,
    TraceMultiset,
    amplitude_condition,
    amplitude_sigma,
    amplitude_violation,
    assignment_from_json_dict,
    build_cycle,
    build_path,
    canonicalize,
    fig1_fixture,
    is_valid_coloring,
    realize,
    separation,
)

F = frozenset


def test_one_list_per_vertex():
    g = build_cycle(3)
    with pytest.raises(ValueError):
        ListAssignment(graph=g, lists=(F({1}), F({2})), a=1)


def test_interior_lists_must_have_size_a():
    g = build_cycle(3)
    with pytest.raises(ValueError):
        ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2, 3})), a=2)
    # unless the short vertex is the pinned one
    L = ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2, 3})), a=2, precolored=0)
    assert L.precolored == 0


def test_path_end_lists_may_be_short():
    g = build_path(3)
    L = ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2})), a=2)
    assert len(L.lists[0]) == 1 and len(L.lists[2]) == 1
    with pytest.raises(ValueError):
        ListAssignment(graph=g, lists=(F({1, 2}), F({1}), F({1, 2})), a=2)


def test_separation_is_max_edge_overlap():
    g = build_path(3)
    L = ListAssignment(graph=g, lists=(F({1, 2}), F({2, 3}), F({2, 3})), a=2)
    assert separation(L) == 2


def test_is_valid_coloring():
    g = build_cycle(3)
    L = ListAssignment(graph=g, lists=(F({1, 2}), F({3, 4}), F({5, 6})), a=2)
    assert is_valid_coloring(L, (F({1}), F({3}), F({5})), 1)
    assert not is_valid_coloring(L, (F({1}), F({3}), F({7})), 1)  # off-list
    assert not is_valid_coloring(L, (F({1, 2}), F({3}), F({5})), 1)  # wrong size
    Lp = ListAssignment(graph=g, lists=(F({1}), F({3, 4}), F({5, 6})), a=2, precolored=0)
    assert is_valid_coloring(Lp, (F({1}), F({3}), F({5})), 1)
    g2 = build_path(2)
    L2 = ListAssignment(graph=g2, lists=(F({1, 2}), F({1, 2})), a=2)
    assert not is_valid_coloring(L2, (F({1}), F({1})), 1)  # edge clash


# amplitude: per-color capacity over a span, then summed

def test_amplitude_sigma_path_runs():
    g = build_path(4)
    # color 7 sits on three consecutive vertices: ceil(3/2) = 2 slots
    L = ListAssignment(graph=g, lists=(F({7}), F({7, 1}), F({7, 1}), F({2})), a=2)
    assert amplitude_sigma(L, 1, 3) == 2 + 1
    assert amplitude_sigma(L, 1, 4) == 2 + 1 + 1
    assert amplitude_sigma(L, 4, 4) == 1


def test_amplitude_sigma_full_cycle_wraps():
    g = build_cycle(4)
    L = ListAssignment(graph=g, lists=(F({9}), F({9}), F({9}), F({9})), a=1)
    # one color on the whole 4-cycle: floor(4/2) independent slots
    assert amplitude_sigma(L, 1, 4) == 2
    # on C5 the same all-equal color gives floor(5/2)
    g5 = build_cycle(5)
    L5 = ListAssignment(graph=g5, lists=tuple(F({9}) for _ in range(5)), a=1)
    assert amplitude_sigma(L5, 1, 5) == 2


def test_amplitude_sigma_cycle_arc():
    g = build_cycle(5)
    # color on vertices {4, 0, 1}: an arc of three through the wrap point
    lists = (F({3, 9}), F({4, 9}), F({5, 6}), F({7, 8}), F({1, 9}))
    L = ListAssignment(graph=g, lists=lists, a=2)
    got = amplitude_sigma(L, 1, 5)
    # 9 contributes ceil(3/2) = 2; the seven singletons 1 each
    assert got == 2 + 7


def test_amplitude_violation_feasible_instance():
    g = build_path(3)
    L = ListAssignment(graph=g, lists=(F({1}), F({2, 3}), F({2})), a=2)
    assert amplitude_violation(L, 1) is None
    assert amplitude_condition(L, 1)


def test_amplitude_violation_reports_span():
    g = build_path(3)
    L = ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2})), a=2)
    assert amplitude_violation(L, 1) == (1, 3)


@st.composite
def path_assignments(draw):
    """Lists on a path whose vertex numbers are shuffled along path_order,
    with short end lists and an optional precolored vertex.  The first
    `private` vertices along the path take full lists of colors of their
    own, which pads the spans that start there, so that violations also
    start later."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    g = Graph(n=n, edges=F((min(u, v), max(u, v)) for u, v in zip(order, order[1:])),
              path_order=tuple(order))
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, a))
    pinned = draw(st.none() | st.integers(0, n - 1))
    private = draw(st.integers(0, n - 1))
    ends = {order[0], order[-1]} if n >= 2 else set()
    lists = [None] * n
    for pos, v in enumerate(order):
        if v == pinned:
            lo, hi = b, b
        elif pos < private:
            lo, hi = a, a
        else:
            lo, hi = (1 if v in ends else a), a
        base = 10 * (pos + 1) if pos < private else 0
        colors = st.integers(base, base + a + 2)
        lists[v] = F(draw(st.lists(colors, min_size=lo, max_size=hi, unique=True)))
    return ListAssignment(graph=g, lists=tuple(lists), a=a, precolored=pinned), b


def first_violation_by_sigma(L, b):
    """Reference: every span in row-major order, each sigma recomputed."""
    n = L.graph.n
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if amplitude_sigma(L, i, j) < b * (j - i + 1):
                return (i, j)
    return None


@seed(20200902)
@settings(max_examples=400, deadline=None, database=None)
@given(path_assignments())
def test_path_amplitude_violation_matches_span_reference(inst):
    L, b = inst
    assert amplitude_violation(L, b) == first_violation_by_sigma(L, b)


def test_amplitude_on_triangle_counts_colors():
    g = build_cycle(3)
    L = ListAssignment(graph=g, lists=(F({1, 2}), F({1, 2}), F({1, 2})), a=2)
    # complete graph: each color one slot total
    assert amplitude_sigma(L, 1, 3) == 2
    assert not amplitude_condition(L, 1)


def test_trace_multiset_validation():
    with pytest.raises(ValueError):
        TraceMultiset(entries=(((0, 1), 0),))
    with pytest.raises(ValueError):
        TraceMultiset(entries=(((1, 0), 1),))
    t = TraceMultiset(entries=(((0, 1), 2), ((2,), 1)))
    assert sum(cnt for _, cnt in t.entries) == 3


def test_canonicalize_groups_equal_traces():
    g = build_path(2)
    L = ListAssignment(graph=g, lists=(F({1, 2, 3}), F({4, 5, 6})), a=3)
    t = canonicalize(L)
    assert t.entries == (((0,), 3), ((1,), 3))


def test_canonicalize_fig1_golden():
    t = canonicalize(fig1_fixture().assignment)
    assert t.entries == (
        ((0, 1, 3), 1),
        ((0, 4, 6), 1),
        ((1, 2, 4, 5), 1),
        ((2, 3, 5, 6), 1),
    )


def test_realize_round_trip_preserves_separation():
    rng = random.Random(5)
    g = build_cycle(4)
    pool = range(10)
    for _ in range(50):
        lists = tuple(F(rng.sample(pool, 3)) for _ in range(4))
        L = ListAssignment(graph=g, lists=lists, a=3)
        R = realize(canonicalize(L), g, 3)
        assert separation(R) == separation(L)
        assert canonicalize(R) == canonicalize(L)


def test_assignment_json_round_trip():
    g = build_cycle(3)
    L = ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2, 3})), a=2, precolored=0)
    d = L.to_json_dict()
    back = assignment_from_json_dict(d, g, a=2)
    assert back.lists == L.lists and back.precolored == 0
