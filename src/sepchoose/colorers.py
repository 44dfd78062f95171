"""Constructive coloring procedures that can record the colors they choose.

Forward greedy on slack cycles, the pick-and-discard step of a lift that
trades 2k list colors for k coloring colors, and the bridge step of the
block walk shared by cactuses and outerplanar graphs are local rules.
Pinned-path and pinned-cycle completion, and so the faces of the walk's
2-connected blocks, run the solver's shadow-DP path walk directly on the
lists of one path: a cycle is cut at its pin into a path whose two ends
carry the pin's list.  Only lift_cycle's default base calls the exact
solver.  A ColoringPlan records each vertex with the colors it got, in the
order they were fixed, and nothing about the lists read.

Free choices are always resolved lexicographically, so every procedure is
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graphs import block_decomposition
from .lists import BColoring, ColorSet, ListAssignment, _lists_to_masks, _masks_to_sets, _path_deficit
from .solver import _path_witness, color_with_lists

__all__ = [
    "ColoringPlan",
    "ColoringInputError",
    "greedy_cycle",
    "lift_cycle",
    "path_color_precolored",
    "cycle_color_precolored",
    "cactus_free_color",
    "outerplanar_color",
]


@dataclass
class ColoringPlan:
    strategy: str
    steps: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    def record(self, vertex: int, colors: ColorSet) -> None:
        self.steps.append((vertex, tuple(sorted(colors))))

    def to_json_dict(self) -> dict:
        return {"strategy": self.strategy, "steps": [[v, list(cs)] for v, cs in self.steps]}


class ColoringInputError(ValueError):
    """The input misses a colorer's precondition (b >= 1, graph kind or
    annotation, pin, list width), found before any color is picked."""


def _graph_of(L: ListAssignment, b: int):
    """L's graph, once b is known to be positive: every colorer's first check."""
    if b < 1:
        raise ColoringInputError("b must be positive")
    return L.graph


def _lex_least(pool: ColorSet, size: int) -> frozenset[int]:
    return frozenset(sorted(pool)[:size])


def greedy_cycle(L: ListAssignment, b: int, plan: ColoringPlan | None = None) -> BColoring:
    """Color a cycle by giving each vertex the lex-least b colors its forward
    neighbor cannot see.  Only the two lists at hand are ever inspected, so
    the trace doubles as a locality audit.  Works exactly when every vertex
    has b colors outside its forward neighbor's list."""
    g = _graph_of(L, b)
    if g.cycle_order is None:
        raise ColoringInputError("greedy_cycle needs a cycle")
    order = g.cycle_order
    n = len(order)
    phi: dict[int, frozenset[int]] = {}
    for i, x in enumerate(order):
        nxt = order[(i + 1) % n]
        pool = L.lists[x] - L.lists[nxt]
        if len(pool) < b:
            raise ValueError(
                f"vertex {x} has only {len(pool)} colors unseen by its forward neighbor, needs {b}"
            )
        phi[x] = _lex_least(pool, b)
        if plan is not None:
            plan.record(x, phi[x])
    return tuple(phi[v] for v in range(g.n))


def lift_cycle(
    L: ListAssignment,
    b: int,
    k: int,
    base=None,
    plan: ColoringPlan | None = None,
) -> BColoring:
    """Color a cycle whose lists are 2k wider and k less separated than some
    colorable base setting, by handing out k forward-safe colors per vertex
    (greedy_cycle's picks at b = k), discarding k more, and coloring the
    residue at the base parameters.

    L carries (a+2k)-lists with adjacent overlaps at most c+k; the result is
    a (b+k)-coloring.  b is the base amount.  The per-vertex discard set is
    forced to contain the forward neighbor's picks that appear in this list,
    then fills from the shared overlap, which drives every overlap down to c;
    both residual invariants are asserted at runtime.  base(L', b) colors the
    residue and defaults to the exact solver.
    """
    g = _graph_of(L, b)
    if g.cycle_order is None:
        raise ColoringInputError("lift_cycle needs a cycle")
    if L.precolored is not None:
        raise ColoringInputError("lifting a pinned instance is not supported")
    if k < 0:
        raise ColoringInputError("need k >= 0")
    if base is None:
        base = _exact_base
    if k == 0:
        return _recorded(base(L, b), plan)
    order = g.cycle_order
    n = len(order)
    a_res = L.a - 2 * k
    if a_res < b:
        raise ColoringInputError(f"lists too narrow to shed 2k colors (a={L.a}, k={k})")

    picks = greedy_cycle(L, k)
    residual: list[ColorSet] = list(L.lists)
    for i, x in enumerate(order):
        nxt = order[(i + 1) % n]
        forced = L.lists[x] & picks[nxt]
        shared = (L.lists[x] & L.lists[nxt]) - forced
        discard = set(forced)
        for col in sorted(shared):
            if len(discard) >= k:
                break
            discard.add(col)
        keep = L.lists[x] - picks[x] - discard
        if len(keep) < a_res:
            raise ValueError(f"vertex {x}: residual list fell below {a_res} colors")
        residual[x] = _lex_least(keep, a_res)

    for u, v in g.edges:
        before = len(L.lists[u] & L.lists[v])
        after = len(residual[u] & residual[v])
        if after > max(before - k, 0):
            raise AssertionError(f"edge ({u},{v}): overlap {before} only fell to {after}")

    L_res = ListAssignment(graph=g, lists=tuple(residual), a=a_res)
    psi = base(L_res, b)
    out = []
    for v in range(g.n):
        if psi[v] & picks[v]:
            raise AssertionError(f"vertex {v}: base coloring reused a lifted pick")
        out.append(frozenset(psi[v] | picks[v]))
    return _recorded(tuple(out), plan)


def _recorded(phi: BColoring, plan: ColoringPlan | None, order=None) -> BColoring:
    """phi, after recording each vertex's colors in order (vertex order by default)."""
    if plan is not None:
        for v in order or range(len(phi)):
            plan.record(v, phi[v])
    return phi


def _exact_base(L: ListAssignment, b: int) -> BColoring:
    out = color_with_lists(L, b)
    if not out.colorable:
        raise ValueError("base instance is not colorable")
    return out.witness


def _pin(L: ListAssignment, b: int) -> int:
    """The pinned vertex, whose whole list is its color set."""
    r = L.precolored
    if r is None:
        raise ColoringInputError("no pinned vertex")
    if len(L.lists[r]) != b:
        raise ColoringInputError("precolored vertex must carry exactly b colors")
    return r


def _complete_path(lists, ranks, b: int, failure: str | None = None) -> BColoring:
    """Color a path given its lists in path order, positions in increasing
    rank, by the witness walk.  Unless the caller names the failure, an
    uncolorable path is explained by a vertex span whose color supply cannot
    cover its demand, which for paths always exists; the deficit sweep that
    finds it reads the walk's masks."""
    universe, masks = _lists_to_masks(lists)
    chosen = _path_witness(masks, ranks, b, lambda: None)
    if chosen is not None:
        return _masks_to_sets(universe, chosen)
    if failure is not None:
        raise ValueError(failure)
    span = _path_deficit(masks, b)
    if span is None:
        raise AssertionError("uncolorable path with no deficient span")
    i, j, have = span
    raise ValueError(
        f"no coloring: positions {i}..{j} of the path supply {have} colors, need {b * (j - i + 1)}"
    )


def _complete_cycle(lists, b: int) -> BColoring:
    """Color a cycle given its lists in cycle order from its pinned vertex, by
    cutting it at the pin into a path whose two ends carry the pin's list."""
    failure = "no coloring: the pinned triangle is uncolorable" if len(lists) == 3 else None
    return _complete_path(lists + [lists[0]], range(len(lists) + 1), b, failure)[:-1]


def path_color_precolored(L: ListAssignment, b: int, plan: ColoringPlan | None = None) -> BColoring:
    """Color a path whose end lists may be pinned down to b colors, vertices
    in increasing number.  On failure the error names a vertex span whose
    color supply cannot cover its demand."""
    g = _graph_of(L, b)
    if g.path_order is None:
        raise ColoringInputError("path_color_precolored needs a path")
    if L.precolored is not None:
        _pin(L, b)
    order = g.path_order
    phi = dict(zip(order, _complete_path([L.lists[v] for v in order], order, b)))
    return _recorded(tuple(phi[v] for v in range(g.n)), plan, order)


def cycle_color_precolored(L: ListAssignment, b: int, plan: ColoringPlan | None = None) -> BColoring:
    """Color a cycle with one vertex pinned to its whole b-list, by cutting
    the cycle at the pin and completing the resulting doubly-pinned path,
    along the cycle order from the pin.  On a triangle the cut r-x-y-r' is
    exactly the pinned triangle."""
    g = _graph_of(L, b)
    if g.cycle_order is None:
        raise ColoringInputError("cycle_color_precolored needs a cycle")
    r = _pin(L, b)
    order = g.cycle_order
    idx = order.index(r)
    seq = order[idx:] + order[:idx]
    phi = dict(zip(seq, _complete_cycle([L.lists[v] for v in seq], b)))
    return _recorded(tuple(phi[v] for v in range(g.n)), plan, seq)


def _cycle_order_in_block(edges: frozenset[tuple[int, int]], entry: int) -> list[int]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    walk = [entry]
    prev, cur = entry, min(adj[entry])
    while cur != entry:
        walk.append(cur)
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
    return walk


def _face_path(f, u: int, w: int) -> list[int]:
    """Face f as a path from u around to w that avoids the edge (u, w)."""
    i = f.index(u)
    seq = list(f[i:] + f[:i])
    return seq[:1] + seq[:0:-1] if seq[1] == w else seq


def _walk_blocks(L: ListAssignment, b: int, plan: ColoringPlan | None, block_faces, cycles_only=False) -> BColoring:
    """Color a connected graph with one pinned vertex block by block, in BFS
    order over the blocks from the pin.  A bridge gives its far end the
    lex-least b colors its colored end cannot see.  A 2-connected block is
    completed face by face over block_faces(vertices, edges, entry): the
    first listed face that holds the entry vertex becomes a cycle pinned at
    the entry, and every further face a path pinned at the least edge it
    shares with a face already colored.  A disconnected graph, or a non-cactus
    if cycles_only, is rejected before any color is picked."""
    g = _graph_of(L, b)
    try:
        blocks = block_decomposition(g)
    except ValueError as e:
        raise ColoringInputError(str(e)) from None
    vsets = [sorted({w for e in blk for w in e}) for blk in blocks]
    # a 2-connected block with as many edges as vertices is a cycle
    if cycles_only and any(len(blk) > 1 and len(blk) != len(vs) for blk, vs in zip(blocks, vsets)):
        raise ColoringInputError("block is not a simple cycle")
    r = _pin(L, b)
    if plan is not None:
        plan.record(r, L.lists[r])
    phi: dict[int, frozenset[int]] = {r: frozenset(L.lists[r])}

    def give(v: int, colors: frozenset[int]) -> None:
        phi[v] = colors
        if plan is not None:
            plan.record(v, colors)

    by_vertex: dict[int, list[int]] = {}
    for bi, vs in enumerate(vsets):
        for v in vs:
            by_vertex.setdefault(v, []).append(bi)
    done: set[int] = set()
    queue = deque(by_vertex.get(r, []))
    while queue:
        bi = queue.popleft()
        if bi in done:
            continue
        done.add(bi)
        vset, edges = vsets[bi], blocks[bi]
        colored = [v for v in vset if v in phi]
        if len(colored) != 1:
            raise AssertionError("block walk reached a block with != 1 colored vertex")
        entry = colored[0]
        if len(edges) == 1:
            (u, v), = edges
            other = v if u == entry else u
            pool = L.lists[other] - phi[entry]
            if len(pool) < b:
                raise ValueError(f"vertex {other}: only {len(pool)} colors avoid the colored end")
            give(other, _lex_least(pool, b))
        else:
            _color_faces(L, b, block_faces(vset, edges, entry), vset, entry, phi, give)
        for v in vset:
            queue.extend(bj for bj in by_vertex[v] if bj not in done)
    return tuple(phi[v] for v in range(g.n))


def _color_faces(L: ListAssignment, b: int, faces, vset, entry: int, phi, give) -> None:
    """The 2-connected block step of `_walk_blocks`; checks that the faces
    form an edge-connected tree that covers the block."""
    if not faces:
        raise ValueError("a 2-connected block has no recorded face")
    root = min((fi for fi, f in enumerate(faces) if entry in f), default=None)
    if root is None:
        raise ValueError("no face contains the block's entry vertex")
    f0 = faces[root]
    idx = f0.index(entry)
    walk = f0[idx:] + f0[:idx]
    psi = _complete_cycle([phi[entry]] + [L.lists[w] for w in walk[1:]], b)
    for i, w in enumerate(walk[1:], start=1):
        give(w, psi[i])
    ecache = [{tuple(sorted(e)) for e in zip(f, f[1:] + f[:1])} for f in faces]
    on_edge: dict[tuple[int, int], list[int]] = {}
    for fi, fe in enumerate(ecache):
        for e in fe:
            on_edge.setdefault(e, []).append(fi)
    seen = {root}
    queue = deque([root])
    while queue:
        fi = queue.popleft()
        for fj in sorted({fk for e in ecache[fi] for fk in on_edge[e]} - seen):
            u, w = min(ecache[fi] & ecache[fj])
            seq = _face_path(faces[fj], u, w)
            if any(x in phi for x in seq[1:-1]):
                raise ValueError("inner faces do not form a tree")
            lists = [phi[u]] + [L.lists[x] for x in seq[1:-1]] + [phi[w]]
            psi = _complete_path(lists, range(len(seq)), b)
            for i, x in enumerate(seq[1:-1], start=1):
                give(x, psi[i])
            seen.add(fj)
            queue.append(fj)
    if len(seen) != len(faces):
        raise ValueError("the block's faces are not edge-connected")
    for v in vset:
        if v not in phi:
            raise ValueError(f"faces do not cover vertex {v}")


def cactus_free_color(L: ListAssignment, b: int, plan: ColoringPlan | None = None) -> BColoring:
    """Color a cactus with one vertex pinned to its whole b-list by walking
    the block tree outward: bridges take the lex-least b colors their colored
    end cannot see, cycle blocks are completed as pinned cycles."""
    return _walk_blocks(L, b, plan, lambda vset, edges, entry: [_cycle_order_in_block(edges, entry)], True)


def outerplanar_color(L: ListAssignment, b: int, plan: ColoringPlan | None = None) -> BColoring:
    """Color an outerplanar graph with one pinned vertex, block by block.
    Within a 2-connected block the inner faces form a tree under shared
    edges; the face holding the entry vertex is completed as a pinned cycle
    and every further face as a path pinned at its shared edge."""
    g = _graph_of(L, b)
    if g.faces is None:
        raise ColoringInputError("outerplanar coloring needs the inner faces")
    faces = [tuple(f) for f in g.faces]

    def block_faces(vset, edges, entry):
        vs = set(vset)
        return [f for f in faces if vs.issuperset(f)]

    return _walk_blocks(L, b, plan, block_faces)
