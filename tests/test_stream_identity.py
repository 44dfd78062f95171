"""Stream identity on a seeded grid.

The canonical digests below were recorded from the dense level stack that
the sparse level plan replaced: `enumerate_canonical` on paths, cycles and
the oracle graphs, with and without a root and for both `connected_only`
values.  The walk digests are those of the saturated, orbit-pruned walk
behind `decide_choosable` and `compute_sep`, free and not, recorded when it
began to skip instances with a mergeable pair (two touching color classes
that could share one color); before that they were the same walk's with
those instances in.  Each stream is cut at CAP instances.  A sample
of each stream is also rebuilt through the checked constructors, so the
enumerator's unchecked `TraceMultiset` and `realize`'s unchecked
`ListAssignment` are shown to be valid objects.
"""

import hashlib
import itertools
import random

import pytest

from sepchoose import (
    BudgetExceeded,
    Graph,
    ListAssignment,
    TraceMultiset,
    amplitude_violation,
    build_cycle,
    build_path,
    color_with_lists,
    decide_with_lists,
    enumerate_canonical,
    identify_vertices,
    realize,
)
from sepchoose.solver import _entries_to_multiset, _enumerate_entries, _pins
from helpers import random_cactus, snake

F = frozenset
CAP = 4000
SAMPLE = 7  # every SAMPLE-th instance is rebuilt through the checked constructors

GRAPHS = {
    "C3": build_cycle(3), "C4": build_cycle(4), "C5": build_cycle(5), "C6": build_cycle(6),
    "P2": build_path(2), "P3": build_path(3), "P4": build_path(4), "P5": build_path(5), "P6": build_path(6),
    "K4-e": Graph(n=4, edges=F({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})),
    "C3.C3": Graph(n=5, edges=F({(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)})),
    "C3.C4": identify_vertices(build_cycle(3), 0, build_cycle(4), 0),
}

# per graph: instances and digest of the canonical streams, then of the saturated walks
GOLDEN = {
    "C3": (378, "3ffc2952f40db842", 22, "ec1fb9e5879161dc"),
    "C4": (6297, "697426d0c2722c5f", 47, "9632b9eb73946616"),
    "C5": (9712, "037a61df90fd26b3", 39, "dc14c63299d62b64"),
    "C6": (32563, "652ec468ef2a4d57", 96, "06f2a1dd1c3678fd"),
    "P2": (66, "2eaa1e478fc61551", 16, "39a882a1eb9e4570"),
    "P3": (244, "6257a4ff4bea5fea", 24, "8195e83ef3757e3c"),
    "P4": (1159, "83a14399ae9c7549", 38, "6ea2252ac969aac3"),
    "P5": (12772, "539723dfe3594855", 121, "acb7f20a0b2f7f94"),
    "P6": (21624, "a75266bd92d40151", 86, "bce119ab1bc0885b"),
    "K4-e": (5108, "3a3dbc41a2b229ee", 101, "249eb0f6f819d8d1"),
    "C3.C3": (14808, "b0403bfec060e2bf", 44, "b5bad154e60b6997"),
    "C3.C4": (25597, "f59db4a848ac2aab", 87, "9fc3d8128b94191b"),
}


def _cells(name, g):
    rng = random.Random(f"stream:{name}")
    out = []
    for _ in range(8):
        a = rng.randint(1, max(1, min(4, 12 // g.n)))
        b = rng.randint(1, a)
        out.append((a, b, rng.randint(0, a), rng.randrange(g.n)))
    return out


def _saturated_walk(g, a, b, c, free):
    for r, plan, _ in _pins(g, free, lambda: None)[1]:
        cap = [b if v == r else a for v in range(g.n)]
        for shared, singles in _enumerate_entries(plan(), cap, c):
            yield r, shared, singles


def _rebuild_checked(t, g, a, root):
    # the unchecked objects equal the ones the checked constructors build
    assert TraceMultiset(entries=t.entries) == t
    L = realize(t, g, a, precolored=root)
    assert ListAssignment(graph=g, lists=L.lists, a=a, precolored=root) == L


@pytest.mark.parametrize("name", GRAPHS)
def test_streams_match_recorded_digests(name):
    g = GRAPHS[name]
    canon, walk, n_canon, n_walk = hashlib.sha256(), hashlib.sha256(), 0, 0
    for a, b, c, r in _cells(name, g):
        for root, connected in itertools.product((None, r), (False, True)):
            stream = enumerate_canonical(g, a, b, c, precolored=root, connected_only=connected)
            for t in itertools.islice(stream, CAP):
                canon.update(repr(t.entries).encode())
                if n_canon % SAMPLE == 0:
                    _rebuild_checked(t, g, a, root)
                n_canon += 1
            canon.update(b"|")
        for free in (False, True):
            for root, shared, singles in itertools.islice(_saturated_walk(g, a, b, c, free), CAP):
                walk.update(repr((shared, singles)).encode())
                if n_walk % SAMPLE == 0:
                    _rebuild_checked(_entries_to_multiset(shared, singles), g, a, root)
                n_walk += 1
            walk.update(b"|")
    assert (n_canon, canon.hexdigest()[:16], n_walk, walk.hexdigest()[:16]) == GOLDEN[name]


# instances and digest of the criterion-5 cells that the `paths` benchmark
# streams: every instance on P_n with n <= 7 and n*a <= 8, c = a, every b
# and every root (recorded while realize still built its lists with its masks)
PATH_CELLS = (10149, "1ce3f1c114fbe60e")


def test_path_cells_keep_their_spans_verdicts_witnesses_and_node_counts():
    digest, count = hashlib.sha256(), 0
    for n in range(2, 8):
        g = build_path(n)
        for a in range(1, 8 // n + 1):
            for b in range(1, a + 1):
                for root in [None, *range(n)]:
                    for t in enumerate_canonical(g, a, b, a, precolored=root):
                        L = realize(t, g, a, precolored=root)
                        col, dec = color_with_lists(L, b), decide_with_lists(L, b)
                        witness = col.witness and [sorted(s) for s in col.witness]
                        digest.update(repr((amplitude_violation(L, b), col.colorable, witness, col.nodes_explored,
                                            dec.colorable, dec.nodes_explored)).encode())
                        count += 1
    assert (count, digest.hexdigest()[:16]) == PATH_CELLS


# instances and digest of the search core on seeded unannotated graphs with
# random lists, both modes at BUDGET nodes, cut-offs included (recorded once
# witness mode charged no node for a cycle candidate whose end pair had failed)
CORE_CELLS, BUDGET = (600, "a888e7e3670690bc"), 2000


def _core_graph(rng, kind):
    if kind == 0:
        g = random_cactus(rng, rng.randint(6, 30))
    elif kind == 1:
        g = build_path(1)
        for _ in range(rng.randint(1, 5)):
            g = identify_vertices(g, rng.randrange(g.n), GRAPHS["K4-e"], rng.randrange(4))
    else:
        g = snake(rng, rng.randint(2, 5), rng.randint(4, 6))
    # renumbered at random and stripped of annotations, so every instance
    # goes through the elimination tree
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(n=g.n, edges=frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def test_search_core_keeps_its_verdicts_witnesses_and_node_counts():
    rng, digest = random.Random("core"), hashlib.sha256()
    for i in range(CORE_CELLS[0]):
        g = _core_graph(rng, i % 3)
        a = rng.randint(2, 4)
        b = rng.randint(1, a - 1)
        pool = range(rng.randint(a + 1, 3 * a))
        L = ListAssignment(graph=g, lists=tuple(frozenset(rng.sample(pool, a)) for _ in range(g.n)), a=a)
        for solve in (color_with_lists, decide_with_lists):
            try:
                out = solve(L, b, budget=BUDGET)
                got = (out.colorable, out.witness and [sorted(s) for s in out.witness], out.nodes_explored)
            except BudgetExceeded as e:
                got = ("cut", e.nodes_explored)
            digest.update(repr(got).encode())
    assert (CORE_CELLS[0], digest.hexdigest()[:16]) == CORE_CELLS
