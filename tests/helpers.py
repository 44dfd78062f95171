"""Random instance builders shared across the test modules.

All builders take an explicit random.Random so failures replay exactly.
"""

from __future__ import annotations

from sepchoose import Graph, ListAssignment, identify_vertices


def random_cycle_lists(rng, n, a, c, pinned_b=None, pool_size=None):
    """c-separating lists on C_n, all sized a (vertex 0 gets pinned_b if set).

    Draws lists around the cycle with a random overlap into the previous
    one, then rejects draws whose wrap-around edge exceeds c."""
    pool = range(pool_size or (4 * a + n))
    for _ in range(500):
        size0 = pinned_b if pinned_b is not None else a
        lists = [frozenset(rng.sample(pool, size0))]
        for _ in range(1, n):
            prev = lists[-1]
            o = rng.randint(0, min(c, len(prev), a))
            shared = rng.sample(sorted(prev), o)
            rest = rng.sample(sorted(set(pool) - prev), a - o)
            lists.append(frozenset(shared + rest))
        if len(lists[-1] & lists[0]) <= c:
            return tuple(lists)
    raise RuntimeError("rejection sampling stalled")


def random_lists_sep(rng, g, a, c, pinned=None, b=None, pool_size=None):
    """c-separating lists on an arbitrary graph, sized a (b at pinned)."""
    pool = sorted(range(pool_size or (6 * a + g.n)))
    for _ in range(800):
        lists = [None] * g.n
        ok = True
        for v in range(g.n):
            size = b if v == pinned else a
            for _ in range(60):
                cand = frozenset(rng.sample(pool, size))
                if all(lists[w] is None or len(cand & lists[w]) <= c for w in g.adj[v]):
                    lists[v] = cand
                    break
            else:
                ok = False
                break
        if ok:
            return tuple(lists)
    raise RuntimeError("rejection sampling stalled")


def random_cactus(rng, n_target):
    """Grow a cactus by attaching bridges and cycles at random vertices."""
    edges = set()
    n = 1
    while n < n_target:
        if rng.random() < 0.4 or n_target - n < 2:
            u = rng.randrange(n)
            edges.add((u, n))
            n += 1
        else:
            k = rng.randint(3, min(5, n_target - n + 1))
            u = rng.randrange(n)
            cyc = [u] + list(range(n, n + k - 1))
            for i in range(k):
                x, y = cyc[i], cyc[(i + 1) % k]
                edges.add((min(x, y), max(x, y)))
            n += k - 1
    return Graph(n=n, edges=frozenset(edges))


def snake(rng, faces_n, flen):
    """Chain of flen-gon faces, each glued to an earlier free edge.  The
    result is 2-connected outerplanar with girth flen."""
    faces = [tuple(range(flen))]
    edges = {tuple(sorted((i, (i + 1) % flen))) for i in range(flen)}
    free = set(edges)
    n = flen
    for _ in range(faces_n - 1):
        e = rng.choice(sorted(free))
        free.discard(e)
        fu, fw = e
        cyc = [fu] + list(range(n, n + flen - 2)) + [fw]
        for i in range(len(cyc) - 1):
            ne = tuple(sorted((cyc[i], cyc[i + 1])))
            edges.add(ne)
            free.add(ne)
        faces.append(tuple(cyc))
        n += flen - 2
    return Graph(n=n, edges=frozenset(edges), faces=tuple(faces))


def glued_snakes(rng, flen, bridges=1):
    """Two snakes of flen-gon faces glued at one vertex, plus pendant
    bridges at random vertices: outerplanar with two 2-connected blocks.
    The face list survives the gluing."""
    s1 = snake(rng, rng.randint(1, 3), flen)
    s2 = snake(rng, rng.randint(1, 2), flen)
    g = identify_vertices(s1, rng.randrange(s1.n), s2, rng.randrange(s2.n))
    edges, n = set(g.edges), g.n
    for _ in range(bridges):
        edges.add((rng.randrange(n), n))
        n += 1
    return Graph(n=n, edges=frozenset(edges), faces=g.faces)


def brute_force_witness(L: ListAssignment, b: int):
    """Reference lex-least coloring: the first hit of plain product
    enumeration (vertex order, then color order), no pruning; None when
    there is none."""
    import itertools

    g = L.graph
    choices = []
    for v in range(g.n):
        pool = sorted(L.lists[v])
        if v == L.precolored:
            if len(pool) != b:
                return None
            choices.append([frozenset(pool)])
        else:
            if len(pool) < b:
                return None
            choices.append([frozenset(s) for s in itertools.combinations(pool, b)])
    for phi in itertools.product(*choices):
        if all(not (phi[u] & phi[v]) for u, v in g.edges):
            return phi
    return None


def brute_force_colorable(L: ListAssignment, b: int) -> bool:
    """Reference decision by the same enumeration."""
    return brute_force_witness(L, b) is not None


def huge_colors(L: ListAssignment):
    """L with every color c renamed c * 10**12 + 3, and that renaming.  The
    map is increasing, so it keeps verdicts, lex-least witnesses and amplitude
    spans, and its colors are too large and sparse to serve as bit indices."""

    def up(c: int) -> int:
        return c * 10**12 + 3

    lists = tuple(frozenset(map(up, lst)) for lst in L.lists)
    return ListAssignment(graph=L.graph, lists=lists, a=L.a, precolored=L.precolored), up
