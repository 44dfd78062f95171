"""Exact decisions: (L,b)-colorability and (a,b,c)-choosability by search.

One search core (_solve_masks) decides (L,b)-colorability on color
bitmasks, shadow-DP kernels decide paths and cycles (_on_line), and
frozenset lists appear only at the public edges (_solve_lists).

Each public call keeps one node count (_budget), and every stage charges
it: the automorphism search, the trace universe, the enumeration (not the
instances it skips), the kernels and the core.  compute_sep sets a graph up
once (_pins: its automorphisms, roots, elimination tree and walk plan) and
each root's orbit hooks on their first use, so one budget covers its whole
scan over c.

Choosability enumerates list assignments up to color relabeling (trace
multisets).  A color whose trace induces a disconnected subgraph can be
split into one fresh color per component without changing colorability,
list sizes, edge intersections, or amplitude sums, so decide_choosable
scans connected traces only; enumerate_canonical keeps full generality
(connected_only=False) since its contract is "every multiset".  The
enumeration walks a level plan: one level per trace, densest first, with
the slots the trace draws on (its vertices' mass, its internal edges' room)
and the level's hooks, the room and orbit checks below.  Only nonzero
levels go on the stack, a mask of used-up (spent) slots makes a level that
touches one cost one AND, and a step-down pops the deepest nonzero level;
a hooked level forced to 0 still runs its check (the pairs it settles may
have room, and its size class may have an earlier image).

decide_choosable also skips every instance that an earlier one dominates:
a color class is a shared trace of multiplicity >= 1, or one vertex's
private colors (its singles; the root's too), and classes S and T merge
when they are disjoint, some edge joins them, and every S-T edge shares
fewer than c colors.  Replacing one color of S and one of T by one color
on S | T keeps every list's size and adds a shared color only on the S-T
edges, which had room for it.  A coloring of the result maps back (split
the merged color into S's and T's), so it fails if the instance does, and
it comes earlier: S | T is denser than S and T, so its level comes first,
and the result is equal before that level and larger there.  So the first
failing instance has no mergeable pair, and verdicts and counterexamples
do not change.  The check runs once per complete instance, at the yield,
since a pair with a shared trace settles only in the last levels.  One
early case stays in the descent: a pair trace {u,v} has room when u and v
keep singles and, on an edge, the edge keeps slack; at the last level
whose trace touches u or v a smaller multiplicity only leaves more room,
so a level whose choice leaves room is dropped whole.

It also walks only the first instance of each orbit under G's automorphisms
(the root's stabiliser when pinned): orderly generation (Read 1978, McKay
1998).  Automorphisms keep verdicts, connectivity, room and mergeability,
so the first failing instance comes first in its orbit (its images fail
too, and none fails before it) and is kept.  The stream is
lexicographically descending in the multiplicity vector, and an
automorphism permutes traces within a size class, so once a class is set
the prefix decides against its image: a larger image dooms every completion
(a smaller multiplicity here may still win, so the level steps down by
one), a smaller one retires the automorphism for this subtree, and a tie
leaves it for later classes."""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from operator import and_, itemgetter

from .graphs import Graph
from .lists import BColoring, ListAssignment, TraceMultiset, _check_ab, _masks_of, _masks_to_sets, realize

__all__ = [
    "BudgetExceeded",
    "SolveOutcome",
    "color_with_lists",
    "decide_with_lists",
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


def _budget(limit: int | None):
    """(bump, count): one node counter for a public call.  bump charges a
    node and raises BudgetExceeded once more than limit are charged; count
    reads the total."""
    nodes = 0

    def bump():
        nonlocal nodes
        nodes += 1
        if limit is not None and nodes > limit:
            raise BudgetExceeded(nodes)

    return bump, lambda: nodes


def _subsets(mask: int, k: int):
    """The k-subsets of mask, lazily, in combinations order of its set bits."""
    bits = []
    while mask:  # top first: the mask shrinks as its bits come off
        bits.append(top := 1 << (mask.bit_length() - 1))
        mask ^= top
    return map(sum, itertools.combinations(bits[::-1], k))


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
    """Whether a path colors, by its minimal shadows from position 0.  The
    last step is counted: a shadow s on the second-last position leaves
    avail = masks[-2] & ~s, whose b colors must put at most |last| - b in
    last."""
    last, states = masks[-1], (0,)
    room = last.bit_count() - b
    if room < 0 or len(masks) == 1:
        return room >= 0
    for i in range(len(masks) - 2):
        states = _advance(states, masks[i], masks[i + 1], b)
        if not states:
            return False
    for s in states:
        avail = masks[-2] & ~s
        if avail.bit_count() >= b and b - (avail & ~last).bit_count() <= room:
            return True
    return False


def _cut(masks, b: int, walk):
    """Cut a cycle at position 0: (m0, walk(path, b)) for the first b-subset
    m0 of position 0, in lazy _subsets order, on whose path (the other
    positions less m0) walk answers truthily, else None.  The path sees m0
    only through (m0 & masks[1], m0 & masks[-1]), so each pair walks once."""
    seen = set()
    for m0 in _subsets(masks[0], b):
        pair = (m0 & masks[1], m0 & masks[-1])
        if pair not in seen:
            seen.add(pair)
            got = walk([masks[1] & ~m0, *masks[2:-1], masks[-1] & ~m0], b)
            if got:
                return m0, got
    return None


def _pick(pool: int, b: int, needs) -> int:
    """The first b-subset of pool missing some shadow of each antichain in
    needs, or 0; pool lacks every color that all of an antichain's shadows hold."""
    if b == 1:
        return pool & -pool
    for cand in _subsets(pool, b):
        if all(0 in map(cand.__and__, shadows) for shadows in needs):
            return cand
    return 0


def _path_witness(masks, ranks, b: int, bump):
    """Lex-least coloring of a path, or None when it has none.

    Positions are colored in increasing rank, each with the first candidate
    (_pick) that misses some minimal shadow forward from the left end of its
    uncolored interval and some backward from the right end; an end that is
    the position itself sets no condition.  Rising (falling) ranks end every
    interval at the path's right (left) end: one sweep from it, one scan.
    Otherwise the walk follows the Cartesian tree on ranks, caching antichains per
    position with the end they were swept from.  Interval ends only move
    inward, so an entry whose end is still its interval's end is exact, and
    coloring p sweeps again only the sides whose end it moves, from the
    nearest cached entry (jumping between an interval's ends can cost a
    sweep per vertex).  Only the root can fail.
    """
    rising = sorted(ranks) == [*ranks]
    if rising or sorted(ranks, reverse=True) == [*ranks]:
        line = masks if rising else masks[::-1]
        bump()  # the root, at the near end
        need = [(0,)]  # swept back from the far end, so pop() reads the near end first
        for q in range(len(line) - 1, 0, -1):
            need.append(_advance(need[-1], line[q], line[q - 1], b))
            if not need[-1]:
                return None
        phi, prev = [], 0
        for mask in line:
            if phi:
                bump()
            shadows = need.pop()
            prev = _pick(mask & ~(prev | reduce(and_, shadows)), b, (shadows,))
            if not prev:
                return None
            phi.append(prev)
        return phi if rising else phi[::-1]
    m = len(masks)
    # phi[m] stays 0 for the missing neighbour at either end (-1 wraps to it)
    phi = [0] * (m + 1)
    # per side: the antichain cached at each position, the end it was swept
    # from, and the sweep's step
    sides = (([()] * m, [-1] * m, 1), ([()] * m, [-1] * m, -1))
    # Cartesian tree on ranks: a position's interval is colored after its
    # ends, its ancestors; the root, the smallest rank, stays at stack[0]
    left, right, stack = [-1] * m, [-1] * m, []
    for i in range(m):
        while stack and ranks[stack[-1]] > ranks[i]:
            left[i] = stack.pop()
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    todo = [(stack[0], 0, m - 1)]
    while todo:
        p, lo, hi = todo.pop()
        bump()
        pool = masks[p] & ~(phi[p - 1] | phi[p + 1])
        need = []
        for (states, ends, step), end in zip(sides, (lo, hi)):
            if end == p:
                continue
            q = p
            while q != end and ends[q] != end:
                q -= step
            if ends[q] != end:
                states[q], ends[q] = (0,), end
            while q != p:
                # q's only colored neighbour lies outside the interval, behind it
                got = states[q + step] = _advance(states[q], masks[q] & ~phi[q - step], masks[q + step], b)
                if not got:
                    return None
                ends[q + step] = end
                q += step
            # a color that every shadow of this side holds cannot be chosen
            pool &= ~reduce(and_, states[p])
            need.append(states[p])
        phi[p] = _pick(pool, b, need)
        if not phi[p]:
            return None
        if left[p] >= 0:
            todo.append((left[p], lo, p - 1))
        if right[p] >= 0:
            todo.append((right[p], p + 1, hi))
    del phi[m]
    return phi


def _line(g: Graph, root: int | None = None):
    """(cyclic, order) of a graph annotated as a cycle or a path, else None.
    A cycle's order starts at root, or at vertex 0 without one, because
    _cut colors position 0 first and a witness needs its smallest rank there."""
    if g.cycle_order is not None:
        k = g.cycle_order.index(0 if root is None else root)
        return True, g.cycle_order[k:] + g.cycle_order[:k]
    if g.path_order is not None:
        return False, g.path_order
    return None


def _on_line(shape, line, b: int, want_witness: bool, bump):
    """One node for a path or cycle, shape being its (cyclic, order) and
    line its masks in that order: the kernel's verdict in decision mode,
    else the witness walk's coloring in line order (vertex numbers are the
    ranks), or None.  A cycle is cut at position 0 (_cut) in both modes,
    and in witness mode each cut path walked costs one node more."""
    bump()
    cyclic, order = shape
    if not cyclic:
        return _path_witness(line, order, b, bump) if want_witness else _path_colorable(line, b)
    if not want_witness:
        return _cut(line, b, _path_colorable) is not None
    got = _cut(line, b, lambda path, b: bump() or _path_witness(path, order[1:], b, bump))
    return got and [got[0], *got[1]]


class _EliminationTree:
    """The components the search core meets on one graph.  The node of v is
    the component of v in G[{u >= v}], and its children are the components
    of that set minus v (Liu 1990).  One union-find pass in decreasing
    vertex order finds each node's children (ascending), size, and kind:
    None, or a path (False) or cycle (True) when its degrees are at most 2,
    a cycle having as many edges as vertices.  A line's order is found on
    its first use, and a node's boundary when its parent is first expanded,
    so a search pays only for the nodes it reaches."""

    def __init__(self, g: Graph):
        n, adj = g.n, g.adj
        self.adj = adj
        up, self.parent, self.kids = list(range(n)), [-1] * n, [[] for _ in range(n)]
        deg, self.size, edges, peak = [0] * n, [1] * n, [0] * n, [0] * n
        for v in range(n - 1, -1, -1):
            higher = [u for u in adj[v] if u > v]
            deg[v] = edges[v] = peak[v] = len(higher)
            for u in higher:
                deg[u] += 1
                peak[v] = max(peak[v], deg[u])
                r = u  # u's union-find root, which is its component's smallest vertex
                while up[r] != r:
                    r = up[r]
                while up[u] != r:
                    up[u], u = r, up[u]
                if r != v:
                    up[r] = self.parent[r] = v
                    self.kids[v].append(r)
                    self.size[v] += self.size[r]
                    edges[v] += edges[r]
                    peak[v] = max(peak[v], peak[r])
            self.kids[v].sort()
        self.kind = [None if peak[v] > 2 else edges[v] == self.size[v] for v in range(n)]
        self.roots = [v for v in range(n) if self.parent[v] < 0]
        # preorder, children ascending: a node's component is pre[tin[v]:tin[v] + size[v]]
        self.pre, self.tin, stack = [], [0] * n, self.roots[::-1]
        while stack:
            v = stack.pop()
            self.tin[v] = len(self.pre)
            self.pre.append(v)
            stack.extend(reversed(self.kids[v]))
        self._lines: dict = {}
        self._bounds: dict = dict.fromkeys(self.roots, ())

    def line(self, v: int):
        """(cyclic, order) of a line node: from its smallest end, or from v
        along its smaller neighbour for a cycle."""
        got = self._lines.get(v)
        if got is None:
            comp = self.pre[self.tin[v]:self.tin[v] + self.size[v]]
            nbrs = {u: [w for w in self.adj[u] if w >= v] for u in comp}
            ends = [u for u, ns in nbrs.items() if len(ns) < 2]
            order, prev = [min(ends) if ends else v], None
            while len(order) < len(nbrs):
                prev, nxt = order[-1], min(w for w in nbrs[order[-1]] if w != prev)
                order.append(nxt)
            got = self._lines[v] = (not ends, order)
        return got

    def bound(self, v: int) -> tuple:
        """v's boundary: (u, u's neighbours below v) for each vertex u of the
        node that has one, u ascending.  Those neighbours are ancestors."""
        if v in self._bounds:  # built when v's parent was first expanded
            return self._bounds[v]
        path, tin = [v], self.tin
        while path[-1] not in self._bounds:
            path.append(self.parent[path[-1]])
        for p in reversed(path[1:]):
            # a child gets the part of p's boundary inside it, and p's
            # neighbours inside it gain p
            kids = self.kids[p]
            starts, parts = [tin[c] for c in kids], {c: {} for c in kids}
            for u, lows in self._bounds[p]:
                if u != p:
                    parts[kids[bisect_right(starts, tin[u]) - 1]][u] = lows
            for u in self.adj[p]:
                if u > p:
                    part = parts[kids[bisect_right(starts, tin[u]) - 1]]
                    part[u] = part.get(u, ()) + (p,)
            for c, part in parts.items():
                self._bounds[c] = tuple(sorted(part.items()))
        return self._bounds[v]


def _solve_masks(tree: _EliminationTree, masks, b: int, bump, want_witness: bool):
    """Can every vertex v take b colors of masks[v], adjacent vertices
    disjoint?  Returns (colorable, phimask): the chosen masks by vertex, or
    None unless want_witness and colorable.  Each candidate and each kernel
    call charges bump; a memo hit charges nothing.

    Walks tree: a node extends its smallest vertex and solves its children
    independently, so lex-least pieces assemble the lex-least witness, and
    line nodes get theirs from the witness walks, which choose alike.  A
    node reads only its boundary's neighbours, all colored ancestors, so a
    failed candidate leaves nothing to clear, and the memo key is the node
    with its boundary's masks less those colors.  A kernel's "no" is final,
    and in decision mode so is its "yes": sibling nodes are never adjacent,
    so nothing reads the colors it leaves unset.  Callers check b >= 1 and
    send a graph annotated as one line to _on_line.
    """
    kids, kind = tree.kids, tree.kind
    phimask = [0] * len(masks)
    memo: dict = {}

    def settle(v: int):
        # v's verdict from the memo or a line kernel, else solve's arguments (a
        # generator made here would tie settle and solve in a reference cycle)
        eff = {}
        for u, lows in tree.bound(v):
            used = 0
            for x in lows:
                used |= phimask[x]
            eff[u] = masks[u] & ~used
        key = (v, *eff.values())
        hit = memo.get(key)
        if hit is not None:
            return hit
        if kind[v] is None:
            return v, key, eff.get(v, masks[v])
        shape = tree.line(v)
        got = _on_line(shape, [eff.get(u, masks[u]) for u in shape[1]], b, want_witness, bump)
        if want_witness and got:
            for u, m in zip(shape[1], got):
                phimask[u] = m
            return True
        ok = memo[key] = bool(got)
        return ok

    def solve(v: int, key: tuple, own: int):
        # a generator: yields settle's answer for a child that needs a search, is sent its verdict, returns v's
        for cand in _subsets(own, b):
            bump()
            phimask[v] = cand
            for c in kids[v]:
                ok = settle(c)
                if not (ok if ok.__class__ is bool else (yield ok)):
                    break
            else:
                if not want_witness:
                    memo[key] = True
                return True
        memo[key] = False
        return False

    def run(v: int) -> bool:
        # runs the generators on an explicit stack, so depth costs no Python frames
        stack, verdict = [], settle(v)
        while True:
            if verdict.__class__ is not bool:  # a node to search
                stack.append(solve(*verdict))
                verdict = None
            elif not stack:
                return verdict
            try:
                verdict = stack[-1].send(verdict)
            except StopIteration as done:
                stack.pop()
                verdict = done.value

    ok = all(run(r) for r in tree.roots)
    return ok, (phimask if ok and want_witness else None)


def _solve_lists(L: ListAssignment, b: int, budget: int | None, want_witness: bool) -> SolveOutcome:
    """The public edge of the core (module docstring): L's masks in, a
    witness's masks out as frozensets, a line straight to its kernel."""
    if b < 1:
        raise ValueError("b must be positive")
    universe, masks = _masks_of(L)
    if min(map(int.bit_count, masks)) < b:
        return SolveOutcome(colorable=False)
    if L.precolored is not None and masks[L.precolored].bit_count() != b:
        # phi(r) = L(r) is unsatisfiable at size b
        return SolveOutcome(colorable=False)
    bump, count = _budget(budget)
    whole = _line(L.graph)
    if whole is None:
        ok, phimask = _solve_masks(_EliminationTree(L.graph), masks, b, bump, want_witness)
    else:
        got = _on_line(whole, [masks[v] for v in whole[1]], b, want_witness, bump)
        ok = bool(got)
        phimask = [m for _, m in sorted(zip(whole[1], got))] if want_witness and got else None
    witness = None if phimask is None else _masks_to_sets(universe, phimask)
    return SolveOutcome(colorable=ok, witness=witness, nodes_explored=count())


def color_with_lists(L: ListAssignment, b: int, budget: int | None = None) -> SolveOutcome:
    """Decide (L,b)-colorability; the witness is the lexicographically least
    coloring under vertex order then color order."""
    return _solve_lists(L, b, budget, True)


def decide_with_lists(L: ListAssignment, b: int, budget: int | None = None) -> SolveOutcome:
    """Decide (L,b)-colorability as color_with_lists does, without building
    a witness."""
    return _solve_lists(L, b, budget, False)


def _trace_universe(g: Graph, eidx: dict, connected_only: bool, bump):
    """Candidate shared traces (size >= 2), densest first, each with its
    slots: its vertices, then eidx[e] per edge e inside it; singletons are
    slack.  Connected traces grow from single vertices one neighbour at a
    time, so no disconnected set is built, and each costs one bump."""
    if connected_only:
        subs, layer = [], [(v,) for v in range(g.n)]
    else:
        subs, layer = [s for r in range(2, g.n + 1) for s in itertools.combinations(range(g.n), r)], []
    while layer:
        grown = {}
        for sub in layer:
            for w in set().union(*(g.adj[v] for v in sub)).difference(sub):
                t = tuple(sorted(sub + (w,)))
                if t not in grown:
                    bump()
                    grown[t] = None
        layer = list(grown)
        subs += layer
    subs.sort(key=lambda t: (-len(t), t))
    return [(t, t + tuple([eidx[p] for p in itertools.combinations(t, 2) if p in eidx])) for t in subs]


def _automorphisms(g: Graph, bump) -> list[tuple[int, ...]]:
    """Up to 720 automorphisms of g as vertex maps (any set of them keeps
    the orbit pruning sound), found by a search that maps vertices 0, 1, ...
    in turn to unused ones of equal degree and matching adjacency to earlier
    ones.  Each dead end costs one bump, but a found automorphism costs none
    and O(n^2) steps, so the budget does not bound the search: C_500 has no
    dead end, and its 720 automorphisms take about 3 s."""
    adj, img, found = g.adj, [], []

    def options(v):
        back, taken = [u for u in adj[v] if u < v], set(img)
        want = {img[u] for u in back}
        pool = adj[img[back[0]]] if back else range(g.n)
        ws = sorted(w for w in pool if w not in taken and len(adj[w]) == len(adj[v]) and adj[w] & taken == want)
        if not ws:
            bump()
        return iter(ws)

    stack = [options(0)]
    while stack and len(found) < 720:
        del img[len(stack) - 1:]  # retract this level's last choice
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
        elif len(img) + 1 < g.n:
            img.append(w)
            stack.append(options(len(img)))
        else:
            found.append((*img, w))
    return found


def _walk_plan(g: Graph, connected_only: bool, bump, saturated: bool) -> tuple:
    """What a _level_plan shares across roots: per level its trace, slots
    (vertex v, then g.n + i for the i-th sorted edge) and slot mask; with
    saturated, settled[i] (the pair traces (u, v, edge slot or None) that no
    later level touches), top_only (the pair levels that settle themselves)
    and merge (per trace, its outside neighbours' mask and an (edge slot
    bit, outside vertex bit) per edge leaving it)."""
    eidx = {e: g.n + i for i, e in enumerate(sorted(g.edges))}
    traces = _trace_universe(g, eidx, connected_only, bump)
    subs, masks = [t for t, _ in traces], [sum(1 << x for x in s) for _, s in traces]
    settled: list[tuple] = [()] * len(traces)
    top_only: set[int] = set()
    merge = None
    if saturated:
        last = {v: i for i, sub in enumerate(subs) for v in sub}
        for i, (sub, slots) in enumerate(traces):
            if len(sub) == 2:
                k = max(last[sub[0]], last[sub[1]])
                settled[k] += ((*sub, slots[2] if len(slots) > 2 else None),)
                if k == i:
                    top_only.add(i)
        inc = [[(1 << eidx[min(u, w), max(u, w)], 1 << w) for w in g.adj[u]] for u in range(g.n)]
        cross = [[x for u in sub for x in inc[u] if not x[1] & m] for sub, m in zip(subs, masks)]
        merge = [sum({w for _, w in out}) for out in cross], cross
    return subs, [s for _, s in traces], masks, len(g.edges), settled, top_only, merge


def _level_plan(g: Graph, connected_only: bool, bump, saturated=False, group=(), walk=None):
    """walk (built here when None) and, per level, its hooks.  With group
    (vertex maps), ends[i] holds, at a level that ends a size class some
    automorphism permutes, the class's first level, the previous such end
    (or -1) and an itemgetter of the class's image per automorphism."""
    walk = walk or _walk_plan(g, connected_only, bump, saturated)
    subs, settled = walk[0], walk[4]
    index = {sub: i for i, sub in enumerate(subs)} if group else {}
    ident = list(range(len(subs)))
    images = ([index[tuple(sorted(s[v] for v in sub))] for sub in subs] for s in group)
    perms = [p for p in images if p != ident]
    ends, start = {}, 0
    for i, sub in enumerate(subs if perms else ()):
        if i + 1 == len(subs) or len(subs[i + 1]) != len(sub):
            if any(p[start:i + 1] != ident[start:i + 1] for p in perms):
                ends[i] = (start, max(ends, default=-1), [itemgetter(*p[start:i + 1]) for p in perms])
            start = i + 1
    hook = [bool(x) or i in ends for i, x in enumerate(settled)]
    return (*walk, ends, hook, range(len(perms)))


def _enumerate_entries(plan, cap, c: int):
    """Yield (shared, singles) for a _level_plan, densest trace first and
    multiplicities counted downward, as fresh tuples: shared = (trace, mult)
    pairs, singles = leftover per-vertex counts.  A saturated plan drops a
    level whose choice leaves room on a pair it settles (its parent steps
    down) and skips an instance with a mergeable pair; at a class end whose
    prefix has an earlier image, a plan with a group steps down by one."""
    subs, slots, masks, n_edges, settled, top_only, merge, ends, hook, tied0 = plan
    near, cross = merge or ((), ())
    n, depth = len(cap), len(subs)
    rem = list(cap) + [c] * n_edges
    spent = sum(1 << x for x, k in enumerate(rem) if not k)
    mult = [0] * depth  # every level's multiplicity, 0 where unset
    at = []  # the nonzero levels, in order
    tied = {-1: tied0}  # tied[i]: the automorphisms whose image ties the prefix up to end i

    def room(i: int) -> bool:
        # some pair trace that level i settles still has room
        for u, v, e in settled[i]:
            if rem[u] and rem[v] and (e is None or rem[e]):
                return True
        return False

    def merges() -> bool:
        # a nonzero level's trace merges with a single (an unspent vertex slot)
        # or a later nonzero level's trace that it touches by no tight edge
        for k, i in enumerate(at):
            tight = 0
            for e, w in cross[i]:
                if e & spent:
                    tight |= w
            loose = near[i] & ~tight
            if loose & ~spent:
                return True
            for j in at[k + 1:]:
                if loose & masks[j] and not masks[j] & (masks[i] | tight):
                    return True
        return False

    def beaten(i: int) -> bool:
        # level i ends a size class: does some image of the prefix come
        # earlier in the stream, that is, is it larger on this class?
        first, before, get = ends[i]
        cur, keep = tuple(mult[first:i + 1]), []
        for k in tied[before]:
            image = get[k](mult)
            if image > cur:
                return True
            if image == cur:
                keep.append(k)
        tied[i] = keep
        return False

    i = 0
    while True:
        for i in range(i, depth):  # each level at its largest multiplicity
            if not masks[i] & spent:
                s = slots[i]
                m = min(map(rem.__getitem__, s))
                for x in s:
                    if rem[x] == m:
                        spent |= 1 << x
                    rem[x] -= m
                mult[i] = m
                at.append(i)
            if hook[i] and (room(i) or i in ends and beaten(i)):
                break  # the step-down below drops this level or tries its next multiplicity
        else:  # every level is set and none was dropped; with every edge tight, nothing merges
            if not (merge and spent >> n != (1 << n_edges) - 1 and merges()):
                yield tuple([(subs[i], mult[i]) for i in at]), tuple(rem[:n])
        while at:  # step down the deepest nonzero level
            i = at[-1]
            spent &= ~masks[i]
            # with room, every smaller multiplicity leaves at least as much,
            # so the level goes whole
            whole = i in top_only or settled[i] and room(i)
            k = mult[i] if whole else 1
            for x in slots[i]:
                rem[x] += k
            mult[i] -= k
            if not mult[i]:
                at.pop()
            if not (whole or hook[i] and (room(i) or i in ends and beaten(i))):
                i += 1
                break
        else:
            return


def _entries_to_multiset(shared, singles) -> TraceMultiset:
    # traces are distinct, so sorting never compares multiplicities
    return TraceMultiset._trusted(tuple(sorted(shared + tuple(((v,), k) for v, k in enumerate(singles) if k))))


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
    _check_ab(a, b, c)
    cap = [a] * g.n
    if precolored is not None:
        if not (0 <= precolored < g.n):
            raise ValueError("precolored vertex out of range")
        cap[precolored] = b
    for shared, singles in _enumerate_entries(_level_plan(g, connected_only, lambda: None), cap, c):
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


def _pins(g: Graph, free: bool, bump) -> tuple:
    """(tree, pins): g's _EliminationTree (None when g is annotated as a
    path or cycle) and (root, plan, line) per pinned root: without free the
    one root None under all of g's automorphisms; with it the first root of
    each orbit in cycle_order, path_order, range(n) under its stabiliser.
    plan() adds the root's orbit hooks to the saturated _walk_plan, built
    and charged once here, on its first call.  line is _line(g, root)."""
    group = _automorphisms(g, bump)
    cands = (g.cycle_order or ()) + (g.path_order or ()) + tuple(range(g.n)) if free else (None,)
    # the first candidate of each orbit: no automorphism maps it to an earlier one
    roots = [r for i, r in enumerate(cands) if not free or all(p[r] not in cands[:i] for p in group)]
    tree = None if _line(g) else _EliminationTree(g)
    walk = _walk_plan(g, True, bump, True)
    return tree, [(r, cache(partial(_level_plan, g, True, bump, True, [p for p in group if r is None or p[r] == r],
                                    walk)), _line(g, r)) for r in roots]


def _counterexample(g: Graph, a: int, b: int, c: int, setup, bump) -> ListAssignment | None:
    """The first c-separating instance with a-lists (b at the root) that is
    not (L,b)-colorable, realized, or None; setup is _pins'.  Each instance
    is one node: the cycle or path kernel's, or one before the search
    core's own."""
    tree, pins = setup
    for r, plan, line in pins:
        cap = [b if v == r else a for v in range(g.n)]
        for shared, singles in _enumerate_entries(plan(), cap, c):
            masks = _entries_to_masks(g.n, shared, singles)
            if line is not None:
                ok = _on_line(line, [masks[v] for v in line[1]], b, False, bump)
            else:
                bump()
                ok = _solve_masks(tree, masks, b, bump, False)[0]
            if not ok:
                return realize(_entries_to_multiset(shared, singles), g, a, precolored=r)
    return None


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
    there), one root per automorphism orbit (_pins).  Only merge-saturated
    instances first in their orbit under the root's stabiliser are walked
    (module docstring), so nodes_explored counts them, core nodes, the trace
    universe and the dead ends of the automorphism search.
    """
    _check_ab(a, b, c)
    bump, count = _budget(budget)
    cex = _counterexample(g, a, b, c, _pins(g, free, bump), bump)
    return SolveOutcome(colorable=cex is None, counterexample=cex, nodes_explored=count())


def compute_sep(
    g: Graph,
    a: int,
    b: int,
    free: bool = False,
    budget: int | None = None,
) -> int:
    """Largest c in [0, a] such that g is (a,b,c)-choosable (free variant
    optional).  Scans c downward; choosability is monotone decreasing in c,
    so the first success is the answer.  One budget covers the whole scan,
    and the graph is set up once (_pins)."""
    _check_ab(a, b)
    bump, _ = _budget(budget)
    pins = _pins(g, free, bump)
    for c in range(a, -1, -1):
        if _counterexample(g, a, b, c, pins, bump) is None:
            return c
    raise AssertionError("c = 0 must be choosable when a >= b")
