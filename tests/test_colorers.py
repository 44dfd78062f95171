import json
import random
from pathlib import Path

import pytest

from sepchoose import (
    ColoringInputError,
    ColoringPlan,
    Graph,
    ListAssignment,
    block_decomposition,
    build_cycle,
    build_path,
    cactus_free_color,
    color_with_lists,
    cycle_color_precolored,
    fsep_cactus,
    fsep_outerplanar_bounds,
    gen_path_family,
    glue_path_to_cycle,
    graph_from_json_dict,
    greedy_cycle,
    is_valid_coloring,
    lift_cycle,
    outerplanar_color,
    path_color_precolored,
    separation,
)
from helpers import glued_snakes, random_cactus, random_cycle_lists, random_lists_sep, snake

F = frozenset


# --- greedy -----------------------------------------------------------------

def test_greedy_cycle_on_slack_instances():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(3, 7)
        a, b = 4, 2
        lists = random_cycle_lists(rng, n, a, a - b)
        L = ListAssignment(graph=build_cycle(n), lists=lists, a=a)
        plan = ColoringPlan("greedy")
        phi = greedy_cycle(L, b, plan)
        assert is_valid_coloring(L, phi, b)
        assert [v for v, _ in plan.steps] == list(L.graph.cycle_order)
        assert all(tuple(sorted(phi[v])) == cs for v, cs in plan.steps)


def test_greedy_cycle_starves_on_identical_lists():
    L = ListAssignment(graph=build_cycle(3), lists=(F({1, 2}),) * 3, a=2)
    with pytest.raises(ValueError, match="unseen by its forward neighbor"):
        greedy_cycle(L, 1)


def test_greedy_cycle_rejects_paths():
    L = ListAssignment(graph=build_path(3), lists=(F({1}), F({1, 2}), F({2})), a=2)
    with pytest.raises(ValueError, match="needs a cycle"):
        greedy_cycle(L, 1)


@pytest.mark.parametrize("colorer, args, message", [(lift_cycle, (1, 1), "lift_cycle needs a cycle"),
                                                     (cycle_color_precolored, (1,), "cycle_color_precolored needs a cycle")])
def test_cycle_colorers_reject_paths(colorer, args, message):
    L = ListAssignment(graph=build_path(3), lists=(F({1}), F({1, 2}), F({2})), a=2, precolored=0)
    with pytest.raises(ColoringInputError, match=message):
        colorer(L, *args)


@pytest.mark.parametrize("b", [0, -2])
def test_greedy_cycle_rejects_non_positive_b(b):
    L = ListAssignment(graph=build_cycle(4), lists=(F({0, 1, 2}), F({3, 4, 5})) * 2, a=3)
    with pytest.raises(ValueError, match="b must be positive"):
        greedy_cycle(L, b)


# --- lifting ----------------------------------------------------------------

def test_lift_cycle_random_instances():
    rng = random.Random(11)
    for n, a, c, k, b in [(3, 5, 4, 1, 1), (5, 7, 6, 1, 2), (3, 7, 5, 2, 1), (5, 9, 7, 2, 2)]:
        for _ in range(50):
            lists = random_cycle_lists(rng, n, a, c)
            L = ListAssignment(graph=build_cycle(n), lists=lists, a=a)
            phi = lift_cycle(L, b, k)
            assert is_valid_coloring(L, phi, b + k)


def test_lift_cycle_base_sees_reduced_instance():
    rng = random.Random(13)
    lists = random_cycle_lists(rng, 3, 5, 4)
    L = ListAssignment(graph=build_cycle(3), lists=lists, a=5)
    captured = {}

    def spy(L_res, b):
        captured["L"] = L_res
        out = color_with_lists(L_res, b)
        assert out.colorable
        return out.witness

    phi = lift_cycle(L, 1, 1, base=spy)
    assert is_valid_coloring(L, phi, 2)
    L_res = captured["L"]
    assert L_res.a == 3
    assert all(len(lst) == 3 for lst in L_res.lists)
    for u, v in L.graph.edges:
        before = len(L.lists[u] & L.lists[v])
        after = len(L_res.lists[u] & L_res.lists[v])
        assert after <= max(before - 1, 0)


def test_lift_cycle_zero_shift_delegates():
    rng = random.Random(19)
    lists = random_cycle_lists(rng, 4, 3, 2)
    L = ListAssignment(graph=build_cycle(4), lists=lists, a=3)
    plan = ColoringPlan(strategy="lift")
    phi = lift_cycle(L, 1, 0, plan=plan)
    assert phi == color_with_lists(L, 1).witness
    # the base coloring is recorded in vertex order, as for k > 0
    assert plan.steps == [(v, tuple(sorted(phi[v]))) for v in range(4)]


def test_lift_cycle_rejects_pinned_and_negative():
    lists = (F({1, 2}), F({3, 4}), F({5, 6}))
    L = ListAssignment(graph=build_cycle(3), lists=lists, a=2, precolored=0)
    with pytest.raises(ValueError, match="pinned"):
        lift_cycle(L, 1, 1)
    L = ListAssignment(graph=build_cycle(3), lists=lists, a=2)
    with pytest.raises(ValueError, match="k >= 0"):
        lift_cycle(L, 1, -1)


def test_lift_cycle_starves_like_greedy():
    # the lift's picks are greedy_cycle's at b = k, so it fails with greedy's message
    L = ListAssignment(graph=build_cycle(3), lists=(F({0, 1, 2, 3}),) * 3, a=4)
    with pytest.raises(ValueError, match="vertex 0 has only 0 colors unseen by its forward neighbor, needs 1"):
        lift_cycle(L, 1, 1)


def test_lift_cycle_flags_base_reusing_picks():
    lists = (F({0, 1, 2, 3, 4}), F({1, 2, 3, 4, 5}), F({2, 3, 4, 5, 6}))
    L = ListAssignment(graph=build_cycle(3), lists=lists, a=5)
    # picks are 0, 1, 5; a base answer touching them must be rejected
    bad = lambda L_res, b: (F({0}), F({1}), F({5}))
    with pytest.raises(AssertionError, match="reused a lifted pick"):
        lift_cycle(L, 1, 1, base=bad)


# --- pinned paths and cycles ---------------------------------------------

def test_path_color_pinned_ends():
    g = build_path(4)
    L = ListAssignment(graph=g, lists=(F({5}), F({1, 2}), F({3, 4}), F({6})), a=2)
    plan = ColoringPlan("path")
    phi = path_color_precolored(L, 1, plan)
    assert is_valid_coloring(L, phi, 1)
    assert phi[0] == F({5}) and phi[3] == F({6})
    assert [v for v, _ in plan.steps] == [0, 1, 2, 3]


def test_path_color_rejects_pin_without_b_colors():
    L = ListAssignment(graph=build_path(3), lists=(F({1}), F({1, 2}), F({2, 3})), a=2, precolored=1)
    with pytest.raises(ValueError, match="precolored vertex must carry exactly b colors"):
        path_color_precolored(L, 1)


def test_path_color_failure_names_deficient_span():
    g = build_path(3)
    L = ListAssignment(graph=g, lists=(F({1}), F({1, 2}), F({2})), a=2)
    with pytest.raises(ValueError, match=r"positions 1\.\.3 of the path supply 2 colors, need 3"):
        path_color_precolored(L, 1)


def test_cycle_color_random_pinned_instances():
    rng = random.Random(7)
    for n, a, b, c in [(4, 9, 4, 3), (5, 9, 4, 4), (6, 5, 2, 3)]:
        for _ in range(60):
            g = build_cycle(n)
            pin = rng.randrange(n)
            lists = random_lists_sep(rng, g, a, c, pinned=pin, b=b)
            L = ListAssignment(graph=g, lists=lists, a=a, precolored=pin)
            phi = cycle_color_precolored(L, b)
            assert is_valid_coloring(L, phi, b)
            assert phi[L.precolored] == L.lists[L.precolored]


def test_cycle_color_rejects_pin_without_b_colors():
    lists = (F({1, 2}), F({2, 3}), F({3, 4}), F({4, 1}))
    L = ListAssignment(graph=build_cycle(4), lists=lists, a=2, precolored=0)
    with pytest.raises(ValueError, match="precolored vertex must carry exactly b colors"):
        cycle_color_precolored(L, 1)


def test_cycle_color_pinned_triangle():
    L = ListAssignment(
        graph=build_cycle(3), lists=(F({1}), F({2, 3}), F({3, 4})), a=2, precolored=0
    )
    phi = cycle_color_precolored(L, 1)
    assert is_valid_coloring(L, phi, 1)
    bad = ListAssignment(
        graph=build_cycle(3), lists=(F({1}), F({1, 2}), F({1, 2})), a=2, precolored=0
    )
    with pytest.raises(ValueError, match="pinned triangle"):
        cycle_color_precolored(bad, 1)
    # the cut runs along the cycle order from the pin, so 2 is colored before 1
    g = Graph(n=3, edges=build_cycle(3).edges, cycle_order=(0, 2, 1))
    L = ListAssignment(graph=g, lists=(F({1}), F({2, 3}), F({2, 3})), a=2, precolored=0)
    plan = ColoringPlan("cycle")
    assert cycle_color_precolored(L, 1, plan) == (F({1}), F({3}), F({2}))
    assert [v for v, _ in plan.steps] == [0, 2, 1]


def test_cycle_color_rejects_above_threshold():
    glued = glue_path_to_cycle(gen_path_family(4, 9, 4, "case1"))
    with pytest.raises(ValueError, match="no coloring"):
        cycle_color_precolored(glued.assignment, 4)


# --- cactuses ----------------------------------------------------------------

def test_cactus_free_color_rejects_pin_without_b_colors():
    # the pin's first block is a C4; a bridge hangs off vertex 2
    g = Graph(n=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (2, 4)}))
    lists = (F({1, 2}), F({2, 3}), F({3, 4}), F({4, 1}), F({5, 6}))
    L = ListAssignment(graph=g, lists=lists, a=2, precolored=0)
    with pytest.raises(ValueError, match="precolored vertex must carry exactly b colors"):
        cactus_free_color(L, 1)


def test_cactus_free_color_random():
    rng = random.Random(31)
    a, b = 5, 2
    done = 0
    while done < 40:
        g = random_cactus(rng, rng.randint(4, 10))
        if not any(len(blk) > 1 for blk in block_decomposition(g)):
            continue
        c = fsep_cactus(g, a, b).value
        pin = rng.randrange(g.n)
        lists = random_lists_sep(rng, g, a, c, pinned=pin, b=b)
        L = ListAssignment(graph=g, lists=lists, a=a, precolored=pin)
        plan = ColoringPlan("cactus")
        phi = cactus_free_color(L, b, plan)
        assert is_valid_coloring(L, phi, b)
        assert phi[L.precolored] == L.lists[L.precolored]
        assert sorted(v for v, _ in plan.steps) == list(range(g.n))
        done += 1


def test_cactus_free_color_rejects_non_cycle_block():
    # K4 minus an edge is one 2-connected block with two degree-3 vertices
    g = Graph(n=4, edges=F({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}))
    lists = (F({0}), F({1, 2}), F({3, 4}), F({5, 6}))
    L = ListAssignment(graph=g, lists=lists, a=2, precolored=0)
    with pytest.raises(ValueError, match="block is not a simple cycle"):
        cactus_free_color(L, 1)


def test_cactus_free_color_bridge_starvation():
    g = build_path(2)
    L = ListAssignment(graph=g, lists=(F({1, 2}), F({1, 2})), a=2, precolored=0)
    with pytest.raises(ValueError, match="avoid the colored end"):
        cactus_free_color(L, 2)


# --- outerplanar -------------------------------------------------------------

def test_outerplanar_color_snakes():
    rng = random.Random(37)
    a, b = 9, 4
    for _ in range(25):
        g = snake(rng, rng.randint(2, 4), 5)
        c = fsep_outerplanar_bounds(5, a, b)[0].value
        pin = rng.randrange(g.n)
        lists = random_lists_sep(rng, g, a, c, pinned=pin, b=b)
        L = ListAssignment(graph=g, lists=lists, a=a, precolored=pin)
        plan = ColoringPlan("outerplanar")
        phi = outerplanar_color(L, b, plan)
        assert is_valid_coloring(L, phi, b)
        assert sorted(v for v, _ in plan.steps) == list(range(g.n))


def test_outerplanar_color_multi_block():
    rng = random.Random(41)
    a, b = 9, 4
    c = fsep_outerplanar_bounds(5, a, b)[0].value
    for _ in range(25):
        g = glued_snakes(rng, rng.choice([5, 6]), bridges=rng.randint(1, 2))
        blocks = block_decomposition(g)
        assert sum(len(blk) > 1 for blk in blocks) == 2
        assert any(len(blk) == 1 for blk in blocks)
        pin = rng.randrange(g.n)
        lists = random_lists_sep(rng, g, a, c, pinned=pin, b=b)
        L = ListAssignment(graph=g, lists=lists, a=a, precolored=pin)
        plan = ColoringPlan("outerplanar")
        phi = outerplanar_color(L, b, plan)
        assert is_valid_coloring(L, phi, b)
        assert phi[pin] == L.lists[pin]
        assert sorted(v for v, _ in plan.steps) == list(range(g.n))


def test_outerplanar_color_requires_faces():
    L = ListAssignment(
        graph=build_cycle(4), lists=(F({1}), F({1, 2}), F({2, 3}), F({3, 4})), a=2, precolored=0
    )
    with pytest.raises(ValueError, match="inner faces"):
        outerplanar_color(L, 1)


# a hexagon with chords (0,2) and (3,5): inner faces (0,1,2), (0,2,3,5) and
# (3,4,5); each case below records only some of them
HEX_EDGES = F({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (3, 5)})


@pytest.mark.parametrize(
    "faces, message",
    [
        ((), "a 2-connected block has no recorded face"),
        (((3, 4, 5),), "no face contains the block's entry vertex"),
        (((0, 1, 2), (3, 4, 5)), "the block's faces are not edge-connected"),
        (((0, 1, 2), (0, 2, 3, 5)), "faces do not cover vertex 4"),
    ],
)
def test_outerplanar_color_rejects_incomplete_faces(faces, message):
    g = Graph(n=6, edges=HEX_EDGES, faces=faces)
    lists = (F({0}),) + tuple(F({3 * v, 3 * v + 1, 3 * v + 2}) for v in range(1, 6))
    L = ListAssignment(graph=g, lists=lists, a=3, precolored=0)
    with pytest.raises(ValueError) as err:
        outerplanar_color(L, 1)
    assert str(err.value) == message


def test_outerplanar_color_rejects_face_cycles():
    # three faces around a vertex of K4, each sharing an edge with the other
    # two: the third face finds its inner vertex already colored
    g = Graph(
        n=4,
        edges=F({(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)}),
        faces=((0, 1, 2), (0, 2, 3), (0, 1, 3)),
    )
    lists = (F({0}), F({1, 2, 3}), F({4, 5, 6}), F({7, 8, 9}))
    L = ListAssignment(graph=g, lists=lists, a=3, precolored=0)
    with pytest.raises(ValueError, match="do not form a tree"):
        outerplanar_color(L, 1)


# --- frozen block-walk outputs -----------------------------------------------

# Frozen colorings, plan steps and error messages of seeded cactus and
# outerplanar instances: validity tests alone would not see a changed
# choice.  One outerplanar instance is a single snake pinned on an edge that
# two faces share; the others are two snakes glued at a vertex plus a
# pendant bridge.  The pinned path and cycle cases that follow run on
# shuffled order annotations (cycles pinned away from vertex 0), one
# uncolorable case each.
GOLDEN = json.loads(Path(__file__).with_name("colorer_golden.json").read_text())
PROCS = {
    "cactus_free_color": cactus_free_color,
    "outerplanar_color": outerplanar_color,
    "path_color_precolored": path_color_precolored,
    "cycle_color_precolored": cycle_color_precolored,
}


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i}-{d['proc']}" for i, d in enumerate(GOLDEN)])
def test_block_walk_golden(case):
    g = graph_from_json_dict(case["graph"])
    lists = tuple(frozenset(s) for s in case["lists"])
    L = ListAssignment(graph=g, lists=lists, a=case["a"], precolored=case["pin"])
    plan = ColoringPlan(case["proc"])
    if "error" in case:
        with pytest.raises(ValueError) as err:
            PROCS[case["proc"]](L, case["b"], plan)
        assert str(err.value) == case["error"]
    else:
        phi = PROCS[case["proc"]](L, case["b"], plan)
        assert [sorted(s) for s in phi] == case["coloring"]
    assert plan.to_json_dict()["steps"] == case["steps"]


def test_plan_json_shape():
    plan = ColoringPlan("greedy")
    plan.record(0, F({2, 1}))
    d = plan.to_json_dict()
    assert d == {"strategy": "greedy", "steps": [[0, [1, 2]]]}
