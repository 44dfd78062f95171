import json
import time
from pathlib import Path

import pytest

from sepchoose import (
    Graph,
    block_decomposition,
    build_cycle,
    build_flower,
    build_path,
    graph_from_json_dict,
    identify_vertices,
    is_cactus,
)


def test_edges_are_normalized():
    g = Graph(n=3, edges=frozenset({(2, 0), (0, 1), (1, 2)}))
    assert (0, 2) in g.edges and (2, 0) not in g.edges


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(1, 1)}))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(0, 5)}))


def test_build_cycle_annotations():
    g = build_cycle(5)
    assert g.n == 5
    assert g.cycle_order == tuple(range(5))
    assert len(g.edges) == 5
    with pytest.raises(ValueError):
        build_cycle(2)


def test_build_path_annotations():
    g = build_path(4)
    assert g.path_order == (0, 1, 2, 3)
    assert len(g.edges) == 3
    assert all(len(blk) == 1 for blk in block_decomposition(g))


def test_build_flower_layout():
    g = build_flower(4, 2)
    # hub 0, two copies of C4 sharing only the hub
    assert g.n == 7
    assert len(g.edges) == 8
    assert sorted(g.adj[0]) == [1, 3, 4, 6]
    assert is_cactus(g)


def test_is_cactus():
    assert is_cactus(build_cycle(6))
    assert is_cactus(build_path(5))
    k4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
    assert not is_cactus(k4)


def test_block_decomposition_triangle_with_tail():
    g = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
    assert block_decomposition(g) == (frozenset({(0, 1), (0, 2), (1, 2)}), frozenset({(2, 3)}))


def test_block_decomposition_requires_connected():
    g = Graph(n=4, edges=frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        block_decomposition(g)


def test_identify_vertices_renumbers():
    g = identify_vertices(build_cycle(4), 0, build_cycle(4), 0)
    assert g.n == 7
    assert len(g.edges) == 8
    deg = sorted(len(g.adj[v]) for v in range(7))
    assert deg == [2, 2, 2, 2, 2, 2, 4]


def test_json_round_trip():
    g = build_cycle(5)
    d = json.loads(json.dumps(g.to_json_dict()))
    h = graph_from_json_dict(d)
    assert h.n == g.n and h.edges == g.edges and h.cycle_order == g.cycle_order


def test_json_preserves_faces_and_orders():
    g = build_path(3)
    h = graph_from_json_dict(g.to_json_dict())
    assert h.path_order == (0, 1, 2)
    snake = Graph(
        n=4,
        edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}),
        faces=((0, 1, 2), (0, 2, 3)),
    )
    h2 = graph_from_json_dict(snake.to_json_dict())
    assert h2.faces == snake.faces


def test_json_round_trip_keeps_every_golden_graph():
    golden = json.loads(Path(__file__).with_name("colorer_golden.json").read_text())
    for case in golden:
        g = graph_from_json_dict(case["graph"])
        assert graph_from_json_dict(json.loads(json.dumps(g.to_json_dict()))) == g


@pytest.mark.parametrize("payload, message", [
    ({"n": 3, "edges": [[0, 1], [1, 2.0]]}, "graph.edges[1][1]: expected an int >= 0, got 2.0"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "graph.edges[0]: expected a list of 2, got [0, 1, 2]"),
    ({"n": False, "edges": []}, "graph.n: expected an int >= 1, got False"),
    ({"edges": []}, "graph.n: missing"),
    ({"n": 4, "edges": [[0, 1]]}, "graph.n: expected at most 2 * len(edges) + 1, got 4"),
    ({"n": 2, "edges": [[0, 1]], "path_order": "01"}, "graph.path_order: expected a list, got '01'"),
])
def test_json_reader_names_the_bad_field(payload, message):
    with pytest.raises(ValueError) as err:
        graph_from_json_dict(payload)
    assert str(err.value) == message


def test_json_reader_message_stays_short_on_a_huge_payload():
    # a full repr of the first payload is an 80 MB string and takes over a second
    rows = [list(range(10**6))] * 10
    for payload, message in [({"n": rows, "edges": []}, "graph.n: expected an int >= 1, got [[0, 1, 2, 3, 4, 5, ...], "),
                             ({"n": 2, "edges": [[0, 1]], "faces": "x" * 10**7}, "graph.faces: expected a list, got 'xxx")]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError) as err:
            graph_from_json_dict(payload)
        assert time.perf_counter() - t0 < 0.5
        assert str(err.value).startswith(message) and len(str(err.value)) < 200


def test_json_reader_takes_null_as_an_absent_annotation():
    g = graph_from_json_dict({"n": 3, "edges": [[0, 1], [1, 2]], "path_order": None, "faces": None})
    assert g == Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
