import itertools
import random
import tracemalloc

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
    color_with_lists,
    compute_sep,
    decide_choosable,
    decide_with_lists,
    enumerate_canonical,
    fig1_fixture,
    gen_c3_family,
    gen_flower,
    gen_path_family,
    identify_vertices,
    is_valid_coloring,
    realize,
    separation,
    sep_cycle,
)
from sepchoose.lists import _lists_to_masks, _path_deficit
from helpers import huge_colors

F = frozenset


# the (a, b, c) rule, stated once in lists._check_ab, at every entry point that takes it
PARAMETER_RULE = [
    ("enumerate_canonical", lambda a, b, c: next(enumerate_canonical(build_cycle(3), a, b, c))),
    ("decide_choosable", lambda a, b, c: decide_choosable(build_cycle(3), a, b, c)),
    ("compute_sep", lambda a, b, c: compute_sep(build_cycle(3), a, b)),
    ("gen_path_family", lambda a, b, c: gen_path_family(5, a, b, "case1")),
    ("gen_c3_family", lambda a, b, c: gen_c3_family(a, b, "case1")),
    ("gen_flower", lambda a, b, c: gen_flower(3, a, b)),
    ("sep_cycle", lambda a, b, c: sep_cycle(5, a, b)),
]


@pytest.mark.parametrize("name, call", PARAMETER_RULE, ids=[name for name, _ in PARAMETER_RULE])
def test_every_entry_point_states_one_parameter_rule(name, call):
    with pytest.raises(ValueError) as e:
        call(1, 2, 0)
    assert str(e.value) == "need 1 <= b <= a, got a=1, b=2"
    if name in ("enumerate_canonical", "decide_choosable"):
        with pytest.raises(ValueError) as e:
            call(2, 1, -1)
        assert str(e.value) == "c must be >= 0, got c=-1"


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
    assert not is_valid_coloring(L, (F({1}), F({3})), 1)  # one set short
    # a pin must use its whole list, even where a b-subset of it would do
    Lq = ListAssignment(graph=g, lists=(F({1, 2}), F({3, 4}), F({5, 6})), a=2, precolored=0)
    assert not is_valid_coloring(Lq, (F({1}), F({3}), F({5})), 1)


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


@seed(20200904)
@settings(max_examples=300, deadline=None, database=None)
@given(path_assignments())
def test_huge_sparse_colors_keep_the_deficit_span(inst):
    L, b = inst
    big, up = huge_colors(L)
    order = L.graph.path_order
    masks, big_masks = _lists_to_masks(L.lists)[1], _lists_to_masks(big.lists)[1]
    span = _path_deficit([masks[v] for v in order], b)
    assert _path_deficit([big_masks[v] for v in order], b) == span
    assert amplitude_violation(big, b) == (None if span is None else span[:2])
    for solve in (color_with_lists, decide_with_lists):
        out, big_out = solve(L, b), solve(big, b)
        assert big_out.colorable == out.colorable
        assert big_out.witness == (None if out.witness is None else tuple(F(map(up, s)) for s in out.witness))


def test_amplitude_on_triangle_counts_colors():
    g = build_cycle(3)
    L = ListAssignment(graph=g, lists=(F({1, 2}), F({1, 2}), F({1, 2})), a=2)
    # complete graph: each color one slot total
    assert amplitude_sigma(L, 1, 3) == 2
    assert not amplitude_condition(L, 1)


_K4 = Graph(n=4, edges=frozenset((u, v) for u in range(4) for v in range(u + 1, 4)))


def test_amplitude_sigma_on_unannotated_complete_graph_counts_colors():
    L = ListAssignment(graph=_K4, lists=(F({1, 2}), F({2, 3}), F({3, 4}), F({4, 5})), a=2)
    # no order annotation: the span runs along the vertex ids, one slot per color
    assert amplitude_sigma(L, 1, 4) == 5
    assert amplitude_sigma(L, 2, 3) == 3
    assert amplitude_sigma(L, 4, 4) == 2


def test_amplitude_violation_passes_colorable_complete_graph():
    L = ListAssignment(graph=_K4, lists=(F({1, 2}), F({2, 3}), F({3, 4}), F({4, 5})), a=2)
    assert amplitude_violation(L, 1) is None
    assert color_with_lists(L, 1).colorable


def test_amplitude_sigma_needs_a_span_order():
    edges = frozenset((v, (v + 1) % 5) if v < 4 else (0, 4) for v in range(5))
    L = ListAssignment(graph=Graph(n=5, edges=edges), lists=tuple(F({v, v + 1}) for v in range(5)), a=2)
    with pytest.raises(ValueError, match="amplitude spans need a path, cycle, or complete graph"):
        amplitude_sigma(L, 1, 5)


def test_trace_multiset_validation():
    with pytest.raises(ValueError):
        TraceMultiset(entries=(((0, 1), 0),))
    with pytest.raises(ValueError):
        TraceMultiset(entries=(((1, 0), 1),))
    t = TraceMultiset(entries=(((0, 1), 2), ((2,), 1)))
    assert sum(cnt for _, cnt in t.entries) == 3


@pytest.mark.parametrize("entries, message", [
    ((((0, 1), 1), ((0, 1), 2)), "duplicate trace (0, 1)"),
    ((((2,), 1), ((0, 1), 2)), "entries must be sorted"),
], ids=["duplicate", "unsorted"])
def test_trace_multiset_rejects_duplicate_and_unsorted_entries(entries, message):
    with pytest.raises(ValueError) as err:
        TraceMultiset(entries=entries)
    assert str(err.value) == message


def test_list_assignment_rejects_negative_colors():
    with pytest.raises(ValueError, match="colors must be non-negative ints"):
        ListAssignment(graph=build_path(2), lists=(F({0, -1}), F({1, 2})), a=2)


@pytest.mark.parametrize("i, j", [(0, 2), (2, 1), (1, 4)])
def test_amplitude_sigma_rejects_an_out_of_range_span(i, j):
    L = ListAssignment(graph=build_path(3), lists=(F({0, 1}), F({1, 2}), F({2, 3})), a=2)
    with pytest.raises(ValueError, match="need 1 <= i <= j <= n"):
        amplitude_sigma(L, i, j)


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


@pytest.mark.parametrize("entries, vertex", [((((-1, 0, 1), 1),), -1), ((((0, 3), 1),), 3)])
def test_realize_rejects_trace_vertices_outside_the_graph(entries, vertex):
    # a negative vertex must not wrap around to the last one
    with pytest.raises(ValueError) as err:
        realize(TraceMultiset(entries=entries), build_path(3), 1)
    assert str(err.value) == f"trace vertex {vertex} is not a vertex of the graph (n = 3)"


MASK_GRAPHS = {
    **{f"P{n}": build_path(n) for n in range(2, 7)},
    **{f"C{n}": build_cycle(n) for n in range(3, 6)},
    "C3.C4": identify_vertices(build_cycle(3), 0, build_cycle(4), 0),
    "K4-e": Graph(n=4, edges=F({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})),
}


def _outcome(call, *args):
    """What call returns, or the text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as e:
        return str(e)


def _samples(name, g, tag):
    """Seeded (a, b, root, trace multiset) samples of g's canonical streams."""
    rng = random.Random(f"{tag}:{name}")
    for _ in range(4):
        a = rng.randint(1, max(1, min(3, 12 // g.n)))
        b, c = rng.randint(1, a), rng.randint(0, a)
        for root in (None, rng.randrange(g.n)):
            stream = list(itertools.islice(enumerate_canonical(g, a, b, c, precolored=root), 2000))
            for t in rng.sample(stream, min(len(stream), 40)):
                yield a, b, root, t


@pytest.mark.parametrize("name", MASK_GRAPHS)
def test_realize_hands_over_the_masks_its_lists_give(name):
    # realize builds only the color bitmasks and the assignment holds them;
    # the solver, and the amplitude sweep on a path, read them without
    # building the lists, and every reader answers as on a plain copy, which
    # builds its masks per call and keeps none
    g = MASK_GRAPHS[name]
    for a, b, root, t in _samples(name, g, "masks"):
        L = realize(t, g, a, precolored=root)
        solved = [solve(L, b) for solve in (color_with_lists, decide_with_lists)]
        assert "lists" not in vars(L)
        amplitude = _outcome(amplitude_violation, L, b)
        if g.path_order is not None:
            assert "lists" not in vars(L)
        universe, masks = L._masks
        assert (list(universe), list(masks)) == _lists_to_masks(L.lists)
        assert L.lists is L.lists
        plain = ListAssignment(graph=g, lists=L.lists, a=a, precolored=root)
        assert amplitude == _outcome(amplitude_violation, plain, b)
        assert solved == [solve(plain, b) for solve in (color_with_lists, decide_with_lists)]
        assert plain._masks is None


@pytest.mark.parametrize("name", [*(f"P{n}" for n in range(2, 7)), "C3", "C4", "C5", "K4-e"])
def test_realized_assignment_is_the_plain_one_with_its_lists(name):
    # as a value, a realized assignment is the plain one with the same lists,
    # whether or not its lists have been read yet
    g = MASK_GRAPHS[name]
    for a, _, root, t in _samples(name, g, "value"):
        R = realize(t, g, a, precolored=root)
        plain = ListAssignment(graph=g, lists=R.lists, a=a, precolored=root)
        assert R == plain and plain == R and hash(R) == hash(plain)
        assert realize(t, g, a, precolored=root) == plain
        assert hash(realize(t, g, a, precolored=root)) == hash(plain)
        assert {plain: t}[realize(t, g, a, precolored=root)] is t
        assert {realize(t, g, a, precolored=root): t}[plain] is t
        assert realize(t, g, a, precolored=root).to_json_dict() == plain.to_json_dict()
        assert canonicalize(realize(t, g, a, precolored=root)) == t


def test_lists_that_share_no_colors_stay_linear_at_the_api_edge():
    # masks over the union of 20,000 disjoint pairs take 40,000 bits a vertex,
    # about 156 MB in all: the constructor, separation and the coloring check
    # read the lists themselves
    n = 20_000
    g = build_path(n)
    lists = tuple(F({2 * v, 2 * v + 1}) for v in range(n))
    phi = tuple(F({2 * v}) for v in range(n))
    tracemalloc.start()
    try:
        L = ListAssignment(graph=g, lists=lists, a=2)
        assert separation(L) == 0 and is_valid_coloring(L, phi, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_realize_checks_list_sizes():
    # realize builds unchecked, so it makes ListAssignment's size checks itself
    t = TraceMultiset(entries=(((0, 1), 1), ((1, 2), 1)))
    assert realize(t, build_path(3), 2).lists == (F({0}), F({0, 1}), F({1}))
    for a, pin, message in [(1, None, "list at vertex 1 larger than a=1"),
                            (2, None, "short list at interior vertex 0"),
                            (2, 3, "precolored vertex out of range"),
                            (0, None, "a must be positive")]:
        with pytest.raises(ValueError) as err:
            realize(t, build_cycle(3), a, precolored=pin)
        assert str(err.value) == message


@pytest.mark.parametrize("payload, message", [
    ({"lists": [[0], [1, -1], [2]]}, "assignment.lists[1][1]: expected an int >= 0, got -1"),
    ({"lists": [[0], [True], [2]]}, "assignment.lists[1][0]: expected an int >= 0, got True"),
    ({"lists": [[0], [1]]}, "assignment.lists: expected graph.n = 3 lists, got 2"),
    ({"lists": [[0], [1], [2]], "precolored": {"vertex": 3}}, "assignment.precolored.vertex: expected a vertex < 3, got 3"),
    ({"lists": [[0], [1], [2]], "precolored": {}}, "assignment.precolored.vertex: missing"),
    ([[0], [1], [2]], "assignment: expected an object, got [[0], [1], [2]]"),
])
def test_assignment_json_reader_names_the_bad_field(payload, message):
    with pytest.raises(ValueError) as err:
        assignment_from_json_dict(payload, build_cycle(3))
    assert str(err.value) == message


def test_assignment_json_round_trip():
    g = build_cycle(3)
    L = ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2, 3})), a=2, precolored=0)
    d = L.to_json_dict()
    back = assignment_from_json_dict(d, g)
    assert back.lists == L.lists and back.precolored == 0
