"""Exact decisions: (L,b)-colorability and (a,b,c)-choosability by search.

One private search core, _solve_masks, works on color bitmasks: it
backtracks over vertices, splits the uncolored rest into components, and
sends path and cycle components to a shadow DP (after choosing phi at
position i, later positions only see phi(i) & L(i+1), and only the
inclusion-minimal shadows matter).  Its memo is keyed by (component,
effective masks): a component's subproblem is fixed by its lists minus the
colors of its colored neighbours.  Decision mode returns only the verdict;
it trusts a kernel's "yes" and memoizes successes as well as failures.
Witness mode, behind color_with_lists, builds the lex-least coloring and
memoizes failures only.  It colors a path component without backtracking:
one DP sweep from each end gives, at every position, the minimal shadows
that the rest of the path needs, and each vertex, smallest first, takes
the first b-subset that misses one from each side (_path_witness; one
backward sweep and one forward pass when vertex numbers rise along the
path).  A cycle component fixes its smallest vertex per candidate and
colors the path that is left (_cycle_witness).  Frozenset lists appear
only at the public edges.  The search runs on an explicit stack of
generators, one per open component, so its depth is bounded by memory, not
by the interpreter's recursion limit, which it never touches.

Choosability enumerates list assignments up to color relabeling (trace
multisets).  A color whose trace induces a disconnected subgraph can be
split into one fresh color per component without changing colorability,
list sizes, edge intersections, or amplitude sums, so decide_choosable
scans connected traces only; enumerate_canonical keeps full generality
(connected_only=False) since its contract is "every multiset".

decide_choosable also skips every instance that an earlier one dominates.
A pair trace {u,v} has room when u and v each keep a single (a private
color) and, on an edge, the edge keeps slack below c.  Merging those two
singles into one more color of trace {u,v} gives a valid instance that is
harder (split the shared color back and any coloring of the merge colors
the original) and is yielded earlier (same multiplicities before {u,v}'s
level, a larger one there, and multiplicities are counted downward).  So
the first failing instance is saturated: no pair trace has room, and only
saturated instances are walked.  A pair's room is fixed at the last level
whose trace touches u or v; there, a smaller multiplicity only leaves more
room, so a level whose choice leaves room is dropped whole.  Merging a
shared color with a single or another shared color would prune more, but
breaks that monotonicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph
from .lists import BColoring, ListAssignment, TraceMultiset, realize

__all__ = [
    "BudgetExceeded",
    "SolveOutcome",
    "color_with_lists",
    "enumerate_canonical",
    "decide_choosable",
    "compute_sep",
]


class BudgetExceeded(Exception):
    """Search gave up; the verdict is unknown, not negative."""

    def __init__(self, nodes_explored: int):
        super().__init__(f"search budget exhausted after {nodes_explored} nodes")
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class SolveOutcome:
    colorable: bool
    witness: BColoring | None = None
    counterexample: ListAssignment | None = None
    nodes_explored: int = 0


def _subsets(mask: int, k: int):
    """The k-subsets of mask, lazily, in combinations order of its bits."""
    bits = [1 << i for i in range(mask.bit_length()) if (mask >> i) & 1]
    return map(sum, itertools.combinations(bits, k))


@lru_cache(maxsize=1 << 18)
def _ksubsets(mask: int, k: int) -> tuple[int, ...]:
    return tuple(_subsets(mask, k))


def _advance(states, mask_i: int, next_mask: int, b: int):
    """Minimal achievable shadows on the next position.

    A shadow s blocks: choices at position i are b-subsets of mask_i & ~s,
    and the shadow passed on is the choice intersected with next_mask.  The
    smallest achievable shadow size is b minus what fits outside next_mask;
    every larger achievable shadow contains one of that size, so only those
    are kept.  An empty shadow dominates everything.
    """
    out = set()
    for s in states:
        avail = mask_i & ~s
        na = avail.bit_count()
        if na < b:
            continue
        inside = avail & next_mask
        jmin = b - (na - inside.bit_count())
        if jmin <= 0:
            return (0,)
        out.update(_ksubsets(inside, jmin))
    # distinct shadows of one size never contain each other, so each one is
    # checked only against the strictly smaller shadows kept so far
    kept: list[int] = []
    smaller, size = (), 0
    for m in sorted(out, key=int.bit_count):
        if m.bit_count() != size:
            smaller, size = tuple(kept), m.bit_count()
        if not any(k & m == k for k in smaller):
            kept.append(m)
    return tuple(kept)


def _path_colorable(masks, b: int) -> bool:
    n = len(masks)
    if all((masks[i] & ~masks[i + 1]).bit_count() >= b for i in range(n - 1)):
        if masks[-1].bit_count() >= b:
            return True
    if all((masks[i] & ~masks[i - 1]).bit_count() >= b for i in range(1, n)):
        if masks[0].bit_count() >= b:
            return True
    states = (0,)
    for i in range(n - 1):
        states = _advance(states, masks[i], masks[i + 1], b)
        if not states:
            return False
    return any((masks[-1] & ~s).bit_count() >= b for s in states)


def _cycle_colorable(masks, b: int) -> bool:
    n = len(masks)
    if all((masks[i] & ~masks[(i + 1) % n]).bit_count() >= b for i in range(n)):
        return True
    if all((masks[i] & ~masks[i - 1]).bit_count() >= b for i in range(n)):
        return True
    first = masks[0]
    if first.bit_count() < b:
        return False
    seen_pairs = set()
    for m0 in _ksubsets(first, b):
        pair = (m0 & masks[1], m0 & masks[n - 1])
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        states = (pair[0],)
        for i in range(1, n - 1):
            states = _advance(states, masks[i], masks[i + 1], b)
            if not states:
                break
        closing = pair[1]
        for s in states:
            if (masks[n - 1] & ~s & ~closing).bit_count() >= b:
                return True
    return False


def _path_witness(masks, ranks, b: int, bump):
    """Lex-least coloring of a path, or None when it has none.

    Positions are colored in increasing rank, each with the first b-subset
    in _subsets order that leaves the rest colorable: a candidate at p is
    feasible iff it misses some minimal shadow forward from the left end of
    p's uncolored interval and some minimal shadow backward from its right
    end.  Those antichains are cached per position with the end they were
    swept from.  Interval ends only move inward, so an entry whose end is
    still its interval's end is still exact; coloring p moves only the left
    end of the interval to its right and the right end of the interval to
    its left, so only those sides are swept again.  When ranks rise along
    the path, the whole walk is one backward sweep plus one forward pass; a
    numbering that keeps jumping between the ends of an interval can still
    cost a sweep per vertex.
    """
    m = len(masks)
    phi = [0] * m
    fwd, fend = [()] * m, [-1] * m
    bwd, bend = [()] * m, [-1] * m

    def live(q):
        # the list minus the colors of colored neighbours
        mk = masks[q]
        if q > 0:
            mk &= ~phi[q - 1]
        if q + 1 < m:
            mk &= ~phi[q + 1]
        return mk

    def shadows(states, end, ends, p, step):
        # antichain at p swept from `end`, resuming at the nearest cached one
        q = p
        while q != end and ends[q] != end:
            q -= step
        if ends[q] != end:
            states[q], ends[q] = (0,), end
        while q != p:
            states[q + step] = _advance(states[q], live(q), masks[q + step], b)
            ends[q + step] = end
            q += step
        return states[p]

    # Cartesian tree on ranks: each position's interval is colored after
    # its ends, which are its ancestors
    left, right, stack = [-1] * m, [-1] * m, []
    for i in range(m):
        last = -1
        while stack and ranks[stack[-1]] > ranks[i]:
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    todo = [(stack[0], 0, m - 1)]
    while todo:
        p, lo, hi = todo.pop()
        bump()
        before = shadows(fwd, lo, fend, p, 1)
        after = shadows(bwd, hi, bend, p, -1)
        # uncached: the walk mostly stops at the first candidate, and its
        # masks are too varied to be worth keeping
        for cand in _subsets(live(p), b):
            if any(not s & cand for s in before) and any(not s & cand for s in after):
                phi[p] = cand
                break
        else:
            return None
        if left[p] >= 0:
            todo.append((left[p], lo, p - 1))
        if right[p] >= 0:
            todo.append((right[p], p + 1, hi))
    return phi


def _cycle_witness(masks, ranks, b: int, bump):
    """Lex-least coloring of a cycle whose position 0 has the smallest rank,
    or None: each candidate at position 0, in _subsets order, leaves a path
    whose ends avoid it, and the first colorable one is kept."""
    rest = masks[1:]
    first, last = rest[0], rest[-1]
    failed = set()
    for cand in _subsets(masks[0], b):
        bump()
        # the rest sees the candidate only through its two ends
        pair = (cand & first, cand & last)
        if pair in failed:
            continue
        rest[0], rest[-1] = first & ~cand, last & ~cand
        chosen = _path_witness(rest, ranks[1:], b, bump)
        if chosen is not None:
            return [cand] + chosen
        failed.add(pair)
    return None


def _solve_masks(adj, masks, b: int, budget: int | None, want_witness: bool, shape=None):
    """Can every vertex v take b colors of masks[v], adjacent vertices
    disjoint?  Returns (colorable, nodes, phimask); phimask maps vertices to
    their chosen color masks and is None unless want_witness and colorable.
    shape, when given, is shape_of's answer for the whole graph
    (_annotated_shape), so a path or cycle graph is not walked again.

    Always extends the smallest uncolored vertex and solves the components
    of the rest independently, so lex-least pieces assemble the lex-least
    witness; path and cycle components get theirs from the witness walks,
    which make the same choices.  A kernel's "no" is final, and in decision
    mode so is its "yes": sibling components are never adjacent, so nothing
    reads the colors it leaves unset.
    """
    if b < 1:
        raise ValueError("b must be positive")
    nodes = 0

    def bump():
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(nodes)

    phimask: dict[int, int] = {}
    memo: dict = {}

    def split(verts: tuple) -> list[tuple]:
        # verts is sorted, so components come out ordered by their minimum
        left = set(verts)
        comps = []
        for seed in verts:
            if seed in left:
                left.discard(seed)
                comp = [seed]
                for u in comp:
                    for w in adj[u]:
                        if w in left:
                            left.discard(w)
                            comp.append(w)
                comps.append(tuple(sorted(comp)))
        return comps

    def shape_of(comp_t):
        # components are connected, so degree <= 2 makes a path or a cycle;
        # returns (cyclic, order), and a cycle's order starts at its minimum
        if shape is not None and len(comp_t) == len(masks):
            return shape
        compset = set(comp_t)
        nbrs = {v: [w for w in adj[v] if w in compset] for v in comp_t}
        if any(len(ns) > 2 for ns in nbrs.values()):
            return None
        ends = [v for v in comp_t if len(nbrs[v]) < 2]
        order, prev = [ends[0] if ends else comp_t[0]], None
        while len(order) < len(comp_t):
            prev, nxt = order[-1], min(w for w in nbrs[order[-1]] if w != prev)
            order.append(nxt)
        return not ends, order

    def solve(comp_t: tuple):
        # a generator: it yields each sub-component it needs decided and is
        # sent back that component's verdict; it returns its own verdict
        eff = {}
        for v in comp_t:
            used = 0
            for u in adj[v]:
                if u in phimask:
                    used |= phimask[u]
            eff[v] = masks[v] & ~used
        key = (comp_t, tuple(eff.values()))
        hit = memo.get(key)
        if hit is not None:
            return hit
        shape = shape_of(comp_t)
        if shape is not None:
            bump()
            cyclic, order = shape
            line = [eff[v] for v in order]
            if not want_witness:
                ok = memo[key] = (_cycle_colorable if cyclic else _path_colorable)(line, b)
                return ok
            chosen = (_cycle_witness if cyclic else _path_witness)(line, order, b, bump)
            if chosen is None:
                memo[key] = False
                return False
            phimask.update(zip(order, chosen))
            return True
        v = comp_t[0]
        avail = eff[v]
        bits = [i for i in range(avail.bit_length()) if (avail >> i) & 1]
        rest = comp_t[1:]
        for cand in itertools.combinations(bits, b):
            bump()
            phimask[v] = sum(1 << i for i in cand)
            for sub in split(rest):
                if not (yield sub):
                    break
            else:
                if not want_witness:
                    memo[key] = True
                return True
            for u in rest:
                phimask.pop(u, None)
            del phimask[v]
        memo[key] = False
        return False

    def run(comp_t: tuple) -> bool:
        # runs solve on an explicit stack, so depth costs no Python frames
        stack, verdict = [solve(comp_t)], None
        while stack:
            try:
                sub = stack[-1].send(verdict)
            except StopIteration as done:
                stack.pop()
                verdict = done.value
            else:
                stack.append(solve(sub))
                verdict = None
        return verdict

    ok = all(run(comp) for comp in split(tuple(range(len(masks)))))
    return ok, nodes, (phimask if ok and want_witness else None)


def _annotated_shape(g: Graph):
    """(cyclic, order) of a path or cycle graph from its annotation, oriented
    as shape_of orients it: the smaller end first, or a cycle from its
    minimum toward its smaller neighbour.  None on other graphs."""
    if g.cycle_order is not None:
        k = g.cycle_order.index(0)
        order = g.cycle_order[k:] + g.cycle_order[:k]
        if order[-1] < order[1]:
            order = order[:1] + order[:0:-1]
        return True, order
    if g.path_order is not None:
        order = g.path_order
        return False, order if order[0] <= order[-1] else order[::-1]
    return None


def _lists_to_masks(lists) -> tuple[list, list[int]]:
    """Bit i of a mask stands for the i-th smallest color of the universe."""
    universe = sorted(set().union(*lists))
    cidx = {c: i for i, c in enumerate(universe)}
    return universe, [sum(1 << cidx[c] for c in lst) for lst in lists]


def color_with_lists(L: ListAssignment, b: int, budget: int | None = None) -> SolveOutcome:
    """Decide (L,b)-colorability; the witness is the lexicographically least
    coloring under vertex order then color order.

    An edge around the search core: the lists become bitmasks over the
    sorted color universe, the core runs in witness mode, and the chosen
    masks come back as frozensets of colors.
    """
    if b < 1:
        raise ValueError("b must be positive")
    if any(len(lst) < b for lst in L.lists):
        return SolveOutcome(colorable=False)
    if L.precolored is not None and len(L.lists[L.precolored]) != b:
        # phi(r) = L(r) is unsatisfiable at size b
        return SolveOutcome(colorable=False)
    universe, masks = _lists_to_masks(L.lists)
    ok, nodes, phimask = _solve_masks(L.graph.adj, masks, b, budget, True, _annotated_shape(L.graph))
    if not ok:
        return SolveOutcome(colorable=False, nodes_explored=nodes)
    witness = _masks_to_sets(universe, [phimask[v] for v in range(len(masks))])
    return SolveOutcome(colorable=True, witness=witness, nodes_explored=nodes)


def _masks_to_sets(universe, masks) -> BColoring:
    return tuple(frozenset(universe[i] for i in range(m.bit_length()) if (m >> i) & 1) for m in masks)


def _color_path(lists, ranks, b: int) -> BColoring | None:
    """The path witness walk on lists given in path order, without a graph:
    positions are colored in increasing rank, each with its lex-least
    b-subset that leaves the rest colorable.  None when the path has no
    coloring."""
    if b < 1:
        raise ValueError("b must be positive")
    universe, masks = _lists_to_masks(lists)
    chosen = _path_witness(masks, ranks, b, lambda: None)
    return None if chosen is None else _masks_to_sets(universe, chosen)


def _connected_subset(g: Graph, sub) -> bool:
    seen = {sub[0]}
    q = [sub[0]]
    inset = set(sub)
    while q:
        u = q.pop()
        for w in g.adj[u]:
            if w in inset and w not in seen:
                seen.add(w)
                q.append(w)
    return len(seen) == len(sub)


def _trace_universe(g: Graph, connected_only: bool):
    """Candidate shared traces (size >= 2), densest first; singletons are slack."""
    edges = sorted(g.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    traces = []
    for r in range(2, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if connected_only and not _connected_subset(g, sub):
                continue
            internal = [eidx[p] for p in itertools.combinations(sub, 2) if p in eidx]
            traces.append((sub, tuple(internal)))
    traces.sort(key=lambda t: (-len(t[0]), t[0]))
    return traces, len(edges)


def _enumerate_entries(g: Graph, cap, c: int, connected_only: bool, _saturated: bool = False):
    """Yield (shared, singles): shared = tuple of (trace, mult), singles = leftover
    per-vertex counts.  Multiplicities are chosen densest-trace-first and
    counted downward, so concentrated (adversarial) instances stream early.
    Yielded tuples are fresh objects, safe to hold.

    With _saturated, only instances in which no pair trace has room are
    yielded (see the module docstring): a level whose choice leaves room on
    a pair it settles is dropped whole, and its parent steps down."""
    traces, n_edges = _trace_universe(g, connected_only)
    rem_cap = list(cap)
    rem_edge = [c] * n_edges
    chosen: list[tuple[tuple[int, ...], int]] = []
    # explicit stack of per-level multiplicities: the universe can exceed the
    # interpreter's recursion depth on loose (disconnected-trace) enumerations
    ms: list[int] = []
    if _saturated:
        # settled[i]: the pair traces (u, v, edge or None) that no level after
        # i touches, so their room is fixed once level i is set
        settled: list[list] = [[] for _ in traces]
        last = {v: i for i, (sub, _) in enumerate(traces) for v in sub}
        for sub, internal in traces:
            if len(sub) == 2:
                u, v = sub
                settled[max(last[u], last[v])].append((u, v, internal[0] if internal else None))

    def room(i: int) -> bool:
        # some pair trace that level i settles still has room
        for u, v, e in settled[i]:
            if rem_cap[u] and rem_cap[v] and (e is None or rem_edge[e]):
                return True
        return False

    def set_level(i: int, m: int) -> None:
        if m:
            sub, internal = traces[i]
            for v in sub:
                rem_cap[v] -= m
            for e in internal:
                rem_edge[e] -= m
            chosen.append((sub, m))
        ms.append(m)

    def clear_level() -> int:
        m = ms.pop()
        if m:
            sub, internal = traces[len(ms)]
            for v in sub:
                rem_cap[v] += m
            for e in internal:
                rem_edge[e] += m
            chosen.pop()
        return m

    while True:
        while len(ms) < len(traces):
            sub, internal = traces[len(ms)]
            mmax = min(rem_cap[v] for v in sub)
            for e in internal:
                if rem_edge[e] < mmax:
                    mmax = rem_edge[e]
            set_level(len(ms), mmax)
            if _saturated and room(len(ms) - 1):
                # every smaller multiplicity here leaves at least as much room
                clear_level()
                break
        else:  # every level is set and none was dropped
            yield (tuple(chosen), tuple(rem_cap))
        while ms:
            m = clear_level()
            if m > 0:
                set_level(len(ms), m - 1)
                if not (_saturated and room(len(ms) - 1)):
                    break
                clear_level()
        else:
            return


def _entries_to_multiset(shared, singles) -> TraceMultiset:
    entries = {sub: m for sub, m in shared}
    for v, k in enumerate(singles):
        if k:
            entries[(v,)] = k
    return TraceMultiset(entries=tuple(sorted(entries.items())))


def enumerate_canonical(
    g: Graph,
    a: int,
    b: int,
    c: int,
    precolored: int | None = None,
    connected_only: bool = False,
):
    """Every list assignment up to color relabeling: per-vertex mass a (b at
    the precolored vertex), every edge's shared mass at most c."""
    if not (1 <= b <= a):
        raise ValueError("need 1 <= b <= a")
    if c < 0:
        raise ValueError("c must be >= 0")
    cap = [a] * g.n
    if precolored is not None:
        if not (0 <= precolored < g.n):
            raise ValueError("precolored vertex out of range")
        cap[precolored] = b
    for shared, singles in _enumerate_entries(g, cap, c, connected_only):
        yield _entries_to_multiset(shared, singles)


def _entries_to_masks(n: int, shared, singles):
    masks = [0] * n
    bit = 0
    for sub, m in shared:
        block = ((1 << m) - 1) << bit
        for v in sub:
            masks[v] |= block
        bit += m
    for v, k in enumerate(singles):
        if k:
            masks[v] |= ((1 << k) - 1) << bit
            bit += k
    return masks


def decide_choosable(
    g: Graph,
    a: int,
    b: int,
    c: int,
    free: bool = False,
    budget: int | None = None,
) -> SolveOutcome:
    """Is every c-separating assignment of a-lists (L,b)-colorable?

    free=True additionally quantifies over a precolored vertex (list size b
    there); on annotated cycles and paths one representative per vertex
    orbit suffices.  Instances go to the cycle or path kernel, or else to
    the search core in decision mode; realize runs only for the returned
    counterexample.  Only saturated instances are walked (see the module
    docstring), so nodes_explored counts saturated instances plus core
    nodes.
    """
    if not (1 <= b <= a):
        raise ValueError("need 1 <= b <= a")
    if free:
        if g.cycle_order is not None:
            roots: list[int | None] = [g.cycle_order[0]]
        elif g.path_order is not None:
            half = (g.n + 1) // 2
            roots = list(g.path_order[:half])
        else:
            roots = list(range(g.n))
    else:
        roots = [None]

    nodes = 0
    for r in roots:
        cap = [a] * g.n
        if r is not None:
            cap[r] = b
        if g.cycle_order is not None:
            order = list(g.cycle_order)
            if r is not None:
                k = order.index(r)
                order = order[k:] + order[:k]
            kernel = _cycle_colorable
        elif g.path_order is not None:
            order = list(g.path_order)
            kernel = _path_colorable
        else:
            order = None
            kernel = None
        for shared, singles in _enumerate_entries(g, cap, c, connected_only=True, _saturated=True):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(nodes)
            masks = _entries_to_masks(g.n, shared, singles)
            if kernel is not None:
                ok = kernel([masks[v] for v in order], b)
            else:
                try:
                    ok, inner, _ = _solve_masks(
                        g.adj, masks, b, None if budget is None else budget - nodes, False
                    )
                except BudgetExceeded as e:
                    raise BudgetExceeded(nodes + e.nodes_explored) from None
                nodes += inner
            if not ok:
                cex = realize(_entries_to_multiset(shared, singles), g, a, precolored=r)
                return SolveOutcome(colorable=False, counterexample=cex, nodes_explored=nodes)
    return SolveOutcome(colorable=True, nodes_explored=nodes)


def compute_sep(
    g: Graph,
    a: int,
    b: int,
    free: bool = False,
    budget: int | None = None,
) -> int:
    """Largest c in [0, a] such that g is (a,b,c)-choosable (free variant
    optional).  Scans c downward; choosability is monotone decreasing in c,
    so the first success is the answer."""
    if not (1 <= b <= a):
        raise ValueError("need 1 <= b <= a")
    spent = 0
    for c in range(a, -1, -1):
        try:
            out = decide_choosable(
                g, a, b, c, free=free, budget=None if budget is None else budget - spent
            )
        except BudgetExceeded as e:
            raise BudgetExceeded(spent + e.nodes_explored) from None
        spent += out.nodes_explored
        if out.colorable:
            return c
    raise AssertionError("c = 0 must be choosable when a >= b")
