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
finds the first failing span without recounting any: sigma(i, j) follows
from sigma(i, j-1) and the runs of L(x_j)'s colors that end at x_j, which
ANDs of consecutive lists' color bitmasks count, so each span costs one
AND and one addition, and the sweep keeps one sum per start vertex.

Mask form: lists as bitmasks, bit i for the i-th smallest color, built only
by _lists_to_masks and read back only by _masks_to_sets.  realize builds the
masks alone and its assignment holds them (_masks, read by _masks_of); its
lists are built from them on first read.  Any other assignment has its
masks built per call, and nothing is kept on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Graph, _check

__all__ = [
    "ListAssignment",
    "assignment_from_json_dict",
    "separation",
    "is_valid_coloring",
    "amplitude_sigma",
    "amplitude_violation",
    "amplitude_condition",
    "TraceMultiset",
    "canonicalize",
    "realize",
]

ColorSet = frozenset[int]
BColoring = tuple[ColorSet, ...]


@dataclass(frozen=True)
class ListAssignment:
    graph: Graph
    lists: tuple[ColorSet, ...]
    a: int
    precolored: int | None = None
    _masks: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lists) != self.graph.n:
            raise ValueError("one list per vertex required")
        _check_sizes(self.graph, [len(L) for L in self.lists], self.a, self.precolored)
        if any(c < 0 for L in self.lists for c in L):
            raise ValueError("colors must be non-negative ints")

    def __eq__(self, other):
        if not isinstance(other, ListAssignment):
            return NotImplemented
        return (self.graph, self.lists, self.a, self.precolored) == (other.graph, other.lists, other.a, other.precolored)

    @classmethod
    def _trusted(cls, **fields):
        """Build unchecked: for a reader that checked the structure (`verify_certificate`
        judges sizes), and for realize, which checks its masks' sizes itself."""
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj

    def to_json_dict(self) -> dict:
        d = {"lists": [sorted(L) for L in self.lists]}
        if self.precolored is not None:
            d["precolored"] = {"vertex": self.precolored}
        return d


def _check_sizes(g: Graph, sizes, a: int, precolored: int | None) -> None:
    """The checks a list assignment makes that depend on its list sizes only."""
    if a < 1:
        raise ValueError("a must be positive")
    if precolored is not None and not (0 <= precolored < g.n):
        raise ValueError("precolored vertex out of range")
    ends = {g.path_order[0], g.path_order[-1]} if g.path_order is not None and g.n >= 2 else ()
    for v, k in enumerate(sizes):
        if not k:
            raise ValueError(f"empty list at vertex {v}")
        if k > a:
            raise ValueError(f"list at vertex {v} larger than a={a}")
        if k < a and v != precolored and v not in ends:
            raise ValueError(f"short list at interior vertex {v}")


def _check_ab(a: int, b: int, c: int = 0) -> None:
    """The (a, b, c) rule every entry point states: 1 <= b <= a and c >= 0."""
    if not 1 <= b <= a:
        raise ValueError(f"need 1 <= b <= a, got a={a}, b={b}")
    if c < 0:
        raise ValueError(f"c must be >= 0, got c={c}")


_ASSIGNMENT = {"lists": [[0]], "precolored?": {"vertex": 0}}


def _lists_for(d: dict, n: int, where: str) -> tuple[tuple[ColorSet, ...], int | None]:
    """The lists and pin of a checked assignment payload on n vertices."""
    if len(d["lists"]) != n:
        raise ValueError(f"{where}.lists: expected graph.n = {n} lists, got {len(d['lists'])}")
    pre = (d.get("precolored") or {}).get("vertex")
    if pre is not None and pre >= n:
        raise ValueError(f"{where}.precolored.vertex: expected a vertex < {n}, got {pre}")
    return tuple(frozenset(L) for L in d["lists"]), pre


def assignment_from_json_dict(d: dict, graph: Graph) -> ListAssignment:
    """An assignment on graph with a taken as its longest list."""
    _check(d, _ASSIGNMENT, "assignment")
    lists, pre = _lists_for(d, graph.n, "assignment")
    return ListAssignment(graph=graph, lists=lists, a=max(map(len, lists)), precolored=pre)


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


def _lists_to_masks(lists) -> tuple[list[int], list[int]]:
    """(universe, masks): the sorted union of the lists, and each list as a
    bitmask whose bit i stands for universe[i]."""
    universe = sorted(set().union(*lists))
    bit = {c: 1 << i for i, c in enumerate(universe)}
    return universe, [sum(map(bit.__getitem__, lst)) for lst in lists]


def _masks_to_sets(universe, masks) -> BColoring:
    """Each mask as a frozenset of colors in color order, read off its set bits top first."""
    sets = []
    for m in masks:
        cols = []
        while m:
            cols.append(universe[top := m.bit_length() - 1])
            m ^= 1 << top
        sets.append(frozenset(reversed(cols)))
    return tuple(sets)


def _masks_of(L: ListAssignment):
    """L's (universe, masks) in vertex order: realize's own, else built now."""
    return L._masks or _lists_to_masks(L.lists)


def _is_complete(g: Graph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


def amplitude_sigma(L: ListAssignment, i: int, j: int) -> int:
    """Sum over colors of the independence number inside span x_i..x_j
    (1-based): each run of k consecutive vertices listing a color adds
    ceil(k / 2).  On the whole cycle the run through the wrap point counts
    once, and a color on every vertex adds n // 2.  In a complete graph
    each color adds 1."""
    g = L.graph
    order = g.path_order if g.path_order is not None else g.cycle_order
    complete = _is_complete(g)
    if order is None and not complete:
        raise ValueError("amplitude spans need a path, cycle, or complete graph")
    if not (1 <= i <= j <= g.n):
        raise ValueError("need 1 <= i <= j <= n")
    lists = [L.lists[v] for v in (order or range(g.n))[i - 1 : j]]
    if complete:
        # any order works: every trace has independence 1
        return len(frozenset().union(*lists))
    runs: dict[int, list[int]] = {}
    for k, lst in enumerate(lists):
        for c in lst:
            if k and c in lists[k - 1]:
                runs[c][-1] += 1
            else:
                runs.setdefault(c, []).append(1)
    if g.path_order is None and len(lists) == g.n:  # the whole cycle
        for c in lists[0] & lists[-1]:
            lens = runs[c]
            if len(lens) > 1:
                lens[0] += lens.pop()
            else:
                lens[0] -= 1  # ceil((n - 1) / 2) == n // 2
    return sum((k + 1) // 2 for lens in runs.values() for k in lens)


def _path_deficit(masks, b: int):
    """First span (i, j) of a path given its lists as masks in path order,
    1-based, with sigma < b*(j-i+1), as (i, j, sigma); None when there is
    none.  First means first in row-major order: smallest i, then smallest j.

    Extending a span x_i..x_{j-1} to x_j grows the run of each color c of
    L(x_j) inside the span to min(run_j(c), span), where run_j(c) counts
    the consecutive vertices listing c that end at x_j; that adds 1 to the
    run's ceil(run / 2) exactly when the new length is odd.  With R_k the
    colors of L(x_j) whose run reaches k, that gain is |R_1| - |R_2| + |R_3|
    - ... up to the span, and R_k is the AND of the masks of the k lists
    ending at x_j.  So one backward AND sweep from each x_j adds x_j's gain
    to sigma(i, j) for every start x_i at once; a start whose span fails
    stops the starts after it, and a failing x_1 ends the search.
    """
    sigma = [0] * len(masks)  # sigma[i]: sigma(i, j), 0-based, for the current j
    # a start from stop on can no longer give the first violation (found
    # holds one at a smaller start), so its sum is no longer kept
    found, stop = None, len(masks)
    for j in range(len(masks)):
        gain, sign, run, need = 0, 1, -1, 0
        for i in range(j, -1, -1):
            if run:
                run &= masks[i]
                gain += sign * run.bit_count()
                sign = -sign
            need += b
            if i < stop:
                have = sigma[i] = sigma[i] + gain
                if have < need:
                    found, stop = (i + 1, j + 1, have), i
        if not stop:
            break
    return found


def amplitude_violation(L: ListAssignment, b: int):
    """First span (i, j) with sigma < b*(j-i+1), or None.

    Paths check every consecutive span (_path_deficit); complete graphs
    check every vertex subset (their induced subgraphs are complete again),
    reported as a sorted tuple.
    """
    g = L.graph
    if g.path_order is not None:
        masks = _masks_of(L)[1]
        span = _path_deficit([masks[v] for v in g.path_order], b)
        return None if span is None else span[:2]
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

    @classmethod
    def _trusted(cls, entries):
        """Build unchecked, for the enumerator, whose entries are valid by construction."""
        obj = object.__new__(cls)
        obj.__dict__["entries"] = entries
        return obj


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


class _Realized(ListAssignment):
    """What realize returns: it holds its masks and builds its lists from them
    on first read; ListAssignment.__eq__ lets it equal a plain copy."""

    @cached_property
    def lists(self):
        return _masks_to_sets(*self._masks)


def realize(t: TraceMultiset, graph: Graph, a: int, precolored: int | None = None) -> ListAssignment:
    """Concrete assignment for a trace multiset; colors are 0,1,2,... in entry
    order, held as masks over range(k), k colors in all.  The size checks of
    ListAssignment run once on the masses (a bit count would read every mask
    again), and a trace vertex outside the graph is rejected in the same pass."""
    masks, sizes = [0] * graph.n, [0] * graph.n
    nxt = 0
    for trace, cnt in t.entries:
        for v in (trace[0], trace[-1]):  # traces are sorted
            if not 0 <= v < graph.n:
                raise ValueError(f"trace vertex {v} is not a vertex of the graph (n = {graph.n})")
        block = ((1 << cnt) - 1) << nxt
        for v in trace:
            masks[v] |= block
            sizes[v] += cnt
        nxt += cnt
    _check_sizes(graph, sizes, a, precolored)
    return _Realized._trusted(graph=graph, a=a, precolored=precolored, _masks=(range(nxt), tuple(masks)))
