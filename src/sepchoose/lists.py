"""Color lists, separation, amplitude sums, and canonical trace form.

Conventions
-----------
Colors are ints >= 0.  A list assignment gives every vertex exactly `a`
colors, with two sanctioned exceptions that carry forced choices: a
precolored vertex holds exactly the b colors it must use, and on annotated
paths both endpoints may hold b-sized lists (the two-pinned-ends setting).

The canonical form of an assignment up to color renaming is its trace
multiset: for each color, the set of vertices listing it, with
multiplicities.  Colorability and separation depend only on this multiset.

Amplitude: for a span of consecutive vertices x_i..x_j (1-based along the
annotated order), sigma(i, j) sums, over every color, the independence
number of the subgraph induced by the listing vertices inside the span.  A
coloring packs b slots per vertex into those independent sets, so
sigma(i, j) >= b * (j - i + 1) on every span is necessary; on paths and
complete graphs it is also sufficient.  On a path, amplitude_violation
finds the first failing span with one sweep per start vertex: sigma(i, j)
follows from sigma(i, j-1) and the runs of L(x_j)'s colors that end at x_j,
so the check costs O(n^2 a), not a recount of every span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph

ColorSet = frozenset[int]
BColoring = tuple[ColorSet, ...]


@dataclass(frozen=True)
class ListAssignment:
    graph: Graph
    lists: tuple[ColorSet, ...]
    a: int
    precolored: int | None = None

    def __post_init__(self):
        g = self.graph
        if len(self.lists) != g.n:
            raise ValueError("one list per vertex required")
        if self.a < 1:
            raise ValueError("a must be positive")
        if self.precolored is not None and not (0 <= self.precolored < g.n):
            raise ValueError("precolored vertex out of range")
        ends = set()
        if g.path_order is not None and g.n >= 2:
            ends = {g.path_order[0], g.path_order[-1]}
        for v, L in enumerate(self.lists):
            if not L:
                raise ValueError(f"empty list at vertex {v}")
            if any(c < 0 for c in L):
                raise ValueError("colors must be non-negative ints")
            if len(L) > self.a:
                raise ValueError(f"list at vertex {v} larger than a={self.a}")
            if len(L) < self.a and v != self.precolored and v not in ends:
                raise ValueError(f"short list at interior vertex {v}")

    def to_json_dict(self) -> dict:
        d = {"lists": [sorted(L) for L in self.lists]}
        if self.precolored is not None:
            d["precolored"] = {"vertex": self.precolored}
        return d


def assignment_from_json_dict(d: dict, graph: Graph, a: int | None = None) -> ListAssignment:
    lists = tuple(frozenset(int(c) for c in L) for L in d["lists"])
    if a is None:
        a = max(len(L) for L in lists)
    pre = None
    if d.get("precolored") is not None:
        pre = int(d["precolored"]["vertex"])
    return ListAssignment(graph=graph, lists=lists, a=a, precolored=pre)


def assignment_unchecked(graph: Graph, lists, a: int, precolored: int | None) -> ListAssignment:
    """Bypass the size conventions (structural checks only), for loading
    external data whose invariants are re-checked downstream."""
    lists = tuple(frozenset(int(c) for c in L) for L in lists)
    if len(lists) != graph.n:
        raise ValueError("one list per vertex required")
    if precolored is not None and not (0 <= precolored < graph.n):
        raise ValueError("precolored vertex out of range")
    obj = object.__new__(ListAssignment)
    object.__setattr__(obj, "graph", graph)
    object.__setattr__(obj, "lists", lists)
    object.__setattr__(obj, "a", a)
    object.__setattr__(obj, "precolored", precolored)
    return obj


def separation(L: ListAssignment) -> int:
    """Largest |L(u) & L(v)| over the edges; 0 when there are none."""
    best = 0
    for u, v in L.graph.edges:
        k = len(L.lists[u] & L.lists[v])
        if k > best:
            best = k
    return best


def is_valid_coloring(L: ListAssignment, phi: BColoring, b: int) -> bool:
    g = L.graph
    if len(phi) != g.n:
        return False
    for v in range(g.n):
        if len(phi[v]) != b or not phi[v] <= L.lists[v]:
            return False
    if L.precolored is not None and phi[L.precolored] != L.lists[L.precolored]:
        return False
    for u, v in g.edges:
        if phi[u] & phi[v]:
            return False
    return True


def _span_order(g: Graph) -> tuple[tuple[int, ...], bool]:
    """The annotated order amplitude spans run along, plus cyclicity."""
    if g.path_order is not None:
        return g.path_order, False
    if g.cycle_order is not None:
        return g.cycle_order, True
    if _is_complete(g):
        # complete graphs: any order works, every trace has independence 1
        return tuple(range(g.n)), False
    raise ValueError("amplitude spans need a path, cycle, or complete graph")


def _is_complete(g: Graph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


def _alpha_on_positions(positions: list[int], length: int, cyclic: bool) -> int:
    """Independence number of the induced pattern inside a path or cycle span.

    `positions` are sorted indices into a span of `length` consecutive
    vertices; consecutive indices are adjacent, and with cyclic=True
    position length-1 also touches position 0.
    """
    if not positions:
        return 0
    if not cyclic or length == 1:
        total = 0
        run = 1
        for prev, cur in zip(positions, positions[1:]):
            if cur == prev + 1:
                run += 1
            else:
                total += (run + 1) // 2
                run = 1
        total += (run + 1) // 2
        return total
    if len(positions) == length:
        return length // 2
    # rotate so the pattern starts just after a gap, then treat as linear runs
    present = set(positions)
    start = next(i for i in range(length) if i in present and (i - 1) % length not in present)
    total = 0
    run = 0
    for off in range(length):
        i = (start + off) % length
        if i in present:
            run += 1
        elif run:
            total += (run + 1) // 2
            run = 0
    if run:
        total += (run + 1) // 2
    return total


def amplitude_sigma(L: ListAssignment, i: int, j: int) -> int:
    """Sum over colors of the independence number inside span x_i..x_j (1-based)."""
    g = L.graph
    order, cyclic = _span_order(g)
    n = g.n
    if not (1 <= i <= j <= n):
        raise ValueError("need 1 <= i <= j <= n")
    span = order[i - 1 : j]
    length = len(span)
    whole_cycle = cyclic and length == n
    if _is_complete(g) and g.cycle_order is None:
        cols = set()
        for v in span:
            cols |= L.lists[v]
        return len(cols)
    occ: dict[int, list[int]] = {}
    for k, v in enumerate(span):
        for c in L.lists[v]:
            occ.setdefault(c, []).append(k)
    total = 0
    for positions in occ.values():
        total += _alpha_on_positions(positions, length, whole_cycle)
    return total


def amplitude_violation(L: ListAssignment, b: int):
    """First span (i, j) with sigma < b*(j-i+1), or None.

    Paths check every consecutive span; complete graphs check every vertex
    subset (their induced subgraphs are complete again), reported as a
    sorted tuple.
    """
    g = L.graph
    if g.path_order is not None:
        # One sweep per start x_i.  Extending the span to x_j grows the run
        # of each color c of L(x_j) inside the span to min(run_j(c), span),
        # where run_j(c) counts the consecutive vertices listing c that end
        # at x_j; that adds 1 to the run's ceil(run / 2) exactly when the
        # new length is odd.  Spans at least as long as x_j's longest run
        # all add the number of odd runs.
        runs, prev = [], {}
        for v in g.path_order:
            cur = {c: prev.get(c, 0) + 1 for c in L.lists[v]}
            lens = tuple(cur.values())
            runs.append((max(lens), sum(r & 1 for r in lens), lens))
            prev = cur
        n = g.n
        for i in range(n):
            sigma = 0
            for j in range(i, n):
                span = j - i + 1
                longest, odd, lens = runs[j]
                if span >= longest:
                    sigma += odd
                else:
                    sigma += sum((r if r < span else span) & 1 for r in lens)
                if sigma < b * span:
                    return (i + 1, j + 1)
        return None
    if _is_complete(g):
        for r in range(1, g.n + 1):
            for sub in itertools.combinations(range(g.n), r):
                cols = set()
                for v in sub:
                    cols |= L.lists[v]
                if len(cols) < b * r:
                    return sub
        return None
    raise ValueError("amplitude condition supports paths and complete graphs")


def amplitude_condition(L: ListAssignment, b: int) -> bool:
    return amplitude_violation(L, b) is None


@dataclass(frozen=True)
class TraceMultiset:
    """Canonical form of an assignment up to color renaming.

    entries maps each distinct trace (sorted vertex tuple) to the number of
    colors sharing it, stored sorted for stable equality and hashing.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        seen = set()
        for trace, cnt in self.entries:
            if not trace or list(trace) != sorted(set(trace)):
                raise ValueError(f"bad trace {trace}")
            if cnt < 1:
                raise ValueError("multiplicities must be positive")
            if trace in seen:
                raise ValueError(f"duplicate trace {trace}")
            seen.add(trace)
        if list(self.entries) != sorted(self.entries):
            raise ValueError("entries must be sorted")


def canonicalize(L: ListAssignment) -> TraceMultiset:
    traces: dict[tuple[int, ...], int] = {}
    occ: dict[int, list[int]] = {}
    for v, lst in enumerate(L.lists):
        for c in lst:
            occ.setdefault(c, []).append(v)
    for c, verts in occ.items():
        t = tuple(sorted(verts))
        traces[t] = traces.get(t, 0) + 1
    return TraceMultiset(entries=tuple(sorted(traces.items())))


def realize(t: TraceMultiset, graph: Graph, a: int, precolored: int | None = None) -> ListAssignment:
    """Concrete assignment for a trace multiset; colors are 0,1,2,... in entry order."""
    lists = [set() for _ in range(graph.n)]
    nxt = 0
    for trace, cnt in t.entries:
        for _ in range(cnt):
            for v in trace:
                lists[v].add(nxt)
            nxt += 1
    return ListAssignment(
        graph=graph,
        lists=tuple(frozenset(s) for s in lists),
        a=a,
        precolored=precolored,
    )
