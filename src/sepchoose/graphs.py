"""Small immutable graphs with the structural annotations used elsewhere.

Vertices are dense ints 0..n-1 and edges are unordered pairs stored as
(min, max) tuples.  A Graph may carry optional annotations recording how it
was built: a cycle order, a path order, and a face list for outerplanar
inputs.  Annotations are trusted descriptions of structure that is expensive
or ambiguous to reconstruct.  Blocks are not annotated: `block_decomposition`
computes them from scratch and is their only source.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass, field

__all__ = [
    "Graph",
    "graph_from_json_dict",
    "build_cycle",
    "build_path",
    "build_flower",
    "identify_vertices",
    "block_decomposition",
    "is_cactus",
]

Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]
    cycle_order: tuple[int, ...] | None = None
    path_order: tuple[int, ...] | None = None
    faces: tuple[tuple[int, ...], ...] | None = None
    adj: tuple[frozenset[int], ...] = field(
        init=False, compare=False, repr=False, hash=False, default=()
    )

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if any(u == v for u, v in self.edges):
            raise ValueError("loops are not allowed")
        object.__setattr__(self, "edges", frozenset(_norm(u, v) for u, v in self.edges))
        nbr = [set() for _ in range(self.n)]
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge {e}")
            nbr[u].add(v)
            nbr[v].add(u)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in nbr))
        if self.cycle_order is not None:
            self._check_order(self.cycle_order, closed=True)
        if self.path_order is not None:
            self._check_order(self.path_order, closed=False)
        if self.faces is not None:
            self._check_faces()

    def _check_order(self, order: tuple[int, ...], closed: bool):
        if sorted(order) != list(range(self.n)):
            raise ValueError("order annotation must be a permutation of the vertices")
        pairs = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
        if closed:
            if self.n < 3:
                raise ValueError("cycle order needs n >= 3")
            pairs.append((order[-1], order[0]))
        walked = {_norm(u, v) for u, v in pairs}
        if walked != self.edges:
            raise ValueError("order annotation inconsistent with edge set")

    def _check_faces(self):
        use = {}
        for f in self.faces:
            if len(f) < 3 or len(set(f)) != len(f):
                raise ValueError(f"bad face {f}")
            for i, u in enumerate(f):
                e = _norm(u, f[(i + 1) % len(f)])
                if e not in self.edges:
                    raise ValueError(f"face {f} uses non-edge {e}")
                use[e] = use.get(e, 0) + 1
        if any(c > 2 for c in use.values()):
            raise ValueError("an edge lies on more than two faces")

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "edges": sorted(map(list, self.edges))}
        if self.faces is not None:
            d["faces"] = [list(f) for f in self.faces]
        if self.cycle_order is not None:
            d["cycle_order"] = list(self.cycle_order)
        if self.path_order is not None:
            d["path_order"] = list(self.path_order)
        return d


def _check(payload, shape, where: str) -> None:
    """Raise ValueError("<where>: <problem>") unless a JSON payload has the
    shape: an int k is an integer >= k (not a bool), [s] a list of s, a tuple
    a list of exactly those shapes, a dict an object whose keys ending in "?"
    may be absent or null, str any string, a frozenset one of its strings."""
    if isinstance(shape, dict):
        ok, want = type(payload) is dict, "an object"
        for key, sub in shape.items() if ok else ():
            name = key.rstrip("?")
            if name == key and name not in payload:
                raise ValueError(f"{where}.{name}: missing")
            if name == key or payload.get(name) is not None:
                _check(payload[name], sub, f"{where}.{name}")
    elif isinstance(shape, (list, tuple)):
        fixed = isinstance(shape, tuple)
        ok = type(payload) is list and not (fixed and len(payload) != len(shape))
        want = f"a list of {len(shape)}" if fixed else "a list"
        for i, item in enumerate(payload if ok else ()):
            _check(item, shape[i] if fixed else shape[0], f"{where}[{i}]")
    elif isinstance(shape, int):
        ok, want = type(payload) is int and payload >= shape, f"an int >= {shape}"
    elif shape is str:
        ok, want = isinstance(payload, str), "a string"
    else:
        ok, want = isinstance(payload, str) and payload in shape, " or ".join(map(repr, sorted(shape)))
    if not ok:
        raise ValueError(f"{where}: expected {want}, got {reprlib.repr(payload)}")


_GRAPH = {"n": 1, "edges": [(0, 0)], "cycle_order?": [0], "path_order?": [0], "faces?": [[0]]}


def graph_from_json_dict(d: dict) -> Graph:
    _check(d, _GRAPH, "graph")
    # bounding the isolated vertices bounds the adjacency Graph allocates by the file's size
    if d["n"] > 2 * len(d["edges"]) + 1:
        raise ValueError(f"graph.n: expected at most 2 * len(edges) + 1, got {d['n']}")
    orders = {k: tuple(d[k]) for k in ("cycle_order", "path_order") if d.get(k) is not None}
    faces = None if d.get("faces") is None else tuple(map(tuple, d["faces"]))
    return Graph(n=d["n"], edges=frozenset(map(tuple, d["edges"])), faces=faces, **orders)


def build_cycle(n: int) -> Graph:
    """Cycle on vertices 0..n-1 in natural order."""
    if n < 3:
        raise ValueError("cycles need n >= 3")
    edges = frozenset(_norm(i, (i + 1) % n) for i in range(n))
    order = tuple(range(n))
    return Graph(n=n, edges=edges, cycle_order=order)


def build_path(n: int) -> Graph:
    """Path on vertices 0..n-1 in natural order."""
    if n < 1:
        raise ValueError("paths need n >= 1")
    edges = frozenset((i, i + 1) for i in range(n - 1))
    return Graph(n=n, edges=edges, path_order=tuple(range(n)))


def build_flower(p: int, k: int) -> Graph:
    """k cycles of length p glued at hub vertex 0; n = k*(p-1) + 1."""
    if p < 3:
        raise ValueError("petal cycles need p >= 3")
    if k < 1:
        raise ValueError("need at least one petal")
    edges = set()
    for i in range(k):
        lo = 1 + i * (p - 1)
        ring = [0] + list(range(lo, lo + p - 1))
        edges |= {_norm(ring[j], ring[(j + 1) % p]) for j in range(p)}
    return Graph(n=k * (p - 1) + 1, edges=frozenset(edges))


def identify_vertices(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Disjoint union of g1 and g2 with v2 glued onto v1.

    g2's vertices are renumbered densely after g1's (v2 maps to v1).  Face
    lists survive when both sides have them; cycle and path orders do not
    describe the merged graph and are dropped.
    """
    if not (0 <= v1 < g1.n and 0 <= v2 < g2.n):
        raise ValueError("identification vertex out of range")

    remap = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == v2:
            remap[v] = v1
        else:
            remap[v] = nxt
            nxt += 1
    edges = set(g1.edges)
    for u, v in g2.edges:
        edges.add(_norm(remap[u], remap[v]))

    faces = None
    if g1.faces is not None and g2.faces is not None:
        faces = g1.faces + tuple(tuple(remap[v] for v in f) for f in g2.faces)
    return Graph(n=nxt, edges=frozenset(edges), faces=faces)


def block_decomposition(g: Graph) -> tuple[frozenset[Edge], ...]:
    """The blocks (biconnected components) of a connected graph, each as its
    edge set, ordered by their sorted edge lists; one iterative lowpoint DFS
    from vertex 0."""
    disc = [0] * g.n
    low = [0] * g.n
    disc[0] = low[0] = 1
    timer = 2
    blocks = []
    estack: list[Edge] = []
    stack = [(0, -1, iter(sorted(g.adj[0])))]
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if not disc[w]:
                estack.append(_norm(v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(sorted(g.adj[w]))))
                advanced = True
                break
            if disc[w] < disc[v]:
                estack.append(_norm(v, w))
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # u separates v's subtree: its edges on the stack are a block
                here = _norm(u, v)
                comp = set()
                while estack:
                    e = estack.pop()
                    comp.add(e)
                    if e == here:
                        break
                blocks.append(frozenset(comp))
    if timer != g.n + 1:
        raise ValueError("block decomposition needs a connected graph")
    blocks.sort(key=lambda b: sorted(b))
    return tuple(blocks)


def _cycle_block_lengths(g: Graph) -> list[int] | None:
    """Sorted lengths of the cycle blocks, from one block decomposition;
    None when some block is neither a bridge nor an induced cycle.  On a
    cactus every cycle is a block, so these are all its cycle lengths."""
    lengths = []
    for b in block_decomposition(g):
        if len(b) == 1:
            continue
        verts = set(itertools.chain.from_iterable(b))
        # a 2-connected block with as many edges as vertices is a cycle
        if len(b) != len(verts):
            return None
        lengths.append(len(b))
    return sorted(lengths)


def is_cactus(g: Graph) -> bool:
    """Every block is a single edge or an induced cycle."""
    return _cycle_block_lengths(g) is not None
