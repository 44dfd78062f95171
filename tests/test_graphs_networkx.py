"""The graph functions against networkx as an independent oracle.

networkx is a test-only dependency; the library itself needs none.
"""

import math
import random

import pytest

from sepchoose import (
    Graph,
    block_decomposition,
    fsep_cactus,
    fsep_cycle,
    is_cactus,
)
from helpers import glued_snakes, random_cactus, snake

nx = pytest.importorskip("networkx")


def to_nx(g: Graph):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def random_connected(rng, n, extra):
    """A random spanning tree plus up to `extra` more edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra if n > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n=n, edges=frozenset(edges))


def sample_graphs(seed):
    rng = random.Random(seed)
    graphs = [random_cactus(rng, rng.randint(1, 16)) for _ in range(60)]
    graphs += [snake(rng, rng.randint(1, 4), rng.choice([3, 4, 5])) for _ in range(30)]
    for _ in range(60):
        n = rng.randint(1, 8)
        graphs.append(random_connected(rng, n, rng.randint(0, n)))
    return graphs


def cycle_lengths(g: Graph) -> set[int]:
    return {len(c) for c in nx.simple_cycles(to_nx(g), length_bound=g.n)}


def test_block_decomposition_matches_networkx():
    for g in sample_graphs(101):
        G = to_nx(g)
        blocks = block_decomposition(g)
        want = {frozenset((min(e), max(e)) for e in comp)
                for comp in nx.biconnected_component_edges(G)}
        assert set(blocks) == want and len(blocks) == len(want)


def test_is_cactus_matches_networkx():
    # a 2-connected block with as many edges as vertices is a cycle
    for g in sample_graphs(102):
        G = to_nx(g)
        want = all(len(comp) == 1 or len(comp) == len({v for e in comp for v in e})
                   for comp in nx.biconnected_component_edges(G))
        assert is_cactus(g) == want


def is_outerplanar(g: Graph) -> bool:
    # outerplanar exactly when adding a vertex joined to all keeps it planar
    G = to_nx(g)
    G.add_edges_from((g.n, v) for v in range(g.n))
    return nx.check_planarity(G)[0]


def test_snakes_are_outerplanar():
    rng = random.Random(106)
    for _ in range(30):
        assert is_outerplanar(snake(rng, rng.randint(1, 5), rng.choice([3, 4, 5, 6])))
        assert is_outerplanar(glued_snakes(rng, rng.choice([4, 5]), bridges=2))
    k4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
    assert not is_outerplanar(k4)


def test_fsep_cactus_reads_girth_and_ell_of_networkx():
    # the value is the least free-separation number over the cactus's cycles
    rng = random.Random(105)
    checked = 0
    while checked < 60:
        g = random_cactus(rng, rng.randint(3, 14))
        G = to_nx(g)
        gg = nx.girth(G)
        if gg == math.inf:
            with pytest.raises(ValueError, match="forest"):
                fsep_cactus(g, 3, 1)
            continue
        lengths = cycle_lengths(g)
        longer = [l for l in lengths if l >= 4]
        for a in range(1, 10):
            for b in range(1, a + 1):
                res = fsep_cactus(g, a, b)
                assert res.value == min(fsep_cycle(l, a, b).value for l in lengths)
                if gg >= 4:
                    assert res.regime == "girth"
                    assert res.value == fsep_cycle(gg, a, b).value
                elif not longer:
                    assert res.regime == "triangles-only"
                else:
                    assert res.regime in ("mixed-cycle", "mixed-triangle")
                    want = min(longer) if res.regime == "mixed-cycle" else 3
                    assert res.value == fsep_cycle(want, a, b).value
        checked += 1
