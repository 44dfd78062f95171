"""Counterexample list assignments, packaged as re-verifiable certificates.

Each generator materializes one uncolorable family at its exact threshold:
the lists are c-separating, sized to the (a, b, precolored) convention, and
engineered so the total color supply undershoots the demand b*|V|.  Block
layouts are deterministic: color ids are allocated left to right through the
construction (shared blocks first, fresh blocks as encountered), and every
free choice takes the lexicographically smallest option, so certificates
are byte-stable.

Generators raise on out-of-regime parameters instead of clamping: each
layout's uncolorability argument is regime-bound, and a clamped instance
would carry an unverifiable claim.  They also refuse, before allocating
any of it, a certificate whose vertices and list entries would not fit in
1 GiB.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .formulas import c_threshold, fsep_cycle
from .graphs import Graph, _check, build_cycle, build_flower, build_path, graph_from_json_dict, identify_vertices
from .lists import _ASSIGNMENT, ColorSet, ListAssignment, _check_ab, _lists_for, separation
from .solver import decide_with_lists

__all__ = [
    "Certificate",
    "gen_sep_small_ratio",
    "gen_sep_odd_cycle",
    "gen_path_family",
    "gen_c3_family",
    "gen_flower",
    "fig1_fixture",
    "glue_path_to_cycle",
    "claimed_sigma",
    "verify_certificate",
    "cert_to_json_dict",
    "cert_from_json_dict",
]


@dataclass(frozen=True)
class Certificate:
    """A claim about an assignment; its graph, a and pin are the assignment's."""

    b: int
    c: int
    assignment: ListAssignment
    claim: str  # "uncolorable" | "colorable"
    family: str

    @property
    def graph(self) -> Graph:
        return self.assignment.graph

    @property
    def a(self) -> int:
        return self.assignment.a

    @property
    def precolored(self) -> int | None:
        return self.assignment.precolored


class _Alloc:
    """Hands out consecutive color ids in construction order."""

    def __init__(self):
        self.next = 0

    def fresh(self, count: int) -> tuple[int, ...]:
        if count < 0:
            raise ValueError(f"block size went negative ({count}): out of regime")
        block = tuple(range(self.next, self.next + count))
        self.next += count
        return block


def _cert(g: Graph, lists, a: int, b: int, c: int, family: str, precolored: int | None = None) -> Certificate:
    """Package uncolorable lists on g as a certificate."""
    L = ListAssignment(graph=g, lists=tuple(lists), a=a, precolored=precolored)
    return Certificate(b=b, c=c, assignment=L, claim="uncolorable", family=family)


def _affordable(n: int, a: int) -> None:
    """Refuse a certificate of n vertices with a-lists that may not fit in
    1 GiB.  Generating one and printing its JSON peaked at up to 1.1 kB per
    vertex plus 0.16 kB per list entry (vertices times list size) on
    CPython 3.11, so the estimate is capped well below 1 GiB."""
    mb = n * (1100 + 160 * a) // 10**6
    if mb > 640:
        raise ValueError(f"the certificate would take about {mb} MB ({n} vertices with lists of {a} colors), "
                         "more than 640 MB")


def _ring(n: int, shared: int, edge: int, private: int) -> tuple[ColorSet, ...]:
    """Cycle lists from one block all vertices share, a block per edge shared
    by its two ends, and a private block per vertex, allocated in that order."""
    alloc = _Alloc()
    C = alloc.fresh(shared)
    D = [alloc.fresh(edge) for _ in range(n)]
    F = [alloc.fresh(private) for _ in range(n)]
    return tuple(frozenset().union(C, D[i], D[(i + 1) % n], F[i]) for i in range(n))


def gen_sep_small_ratio(n: int, b: int, k: int) -> Certificate:
    """Cycle family for a = b+k with k < b: one globally shared color, k-blocks
    shared along each edge, private filler.  Separation is exactly k+1 and the
    supply count floor(n/2) + n(b-1) falls short of nb."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if not (0 <= k < b):
        raise ValueError(f"need 0 <= k < b, got k={k}, b={b}")
    _affordable(n, b + k)
    return _cert(build_cycle(n), _ring(n, 1, k, b - k - 1), b + k, b, k + 1, "cycle-small-ratio")


def gen_sep_odd_cycle(p: int, b: int, alpha: int) -> Certificate:
    """Odd cycle C_{2p+1} at a = 2b+alpha: a large all-shared block C plus
    edge-shared blocks D_i sized to leave total supply nb-1."""
    if p < 1:
        raise ValueError("need p >= 1")
    if alpha < 0 or p * alpha > b - 1:
        raise ValueError(f"need 0 <= alpha and p*alpha <= b-1, got p={p}, b={b}, alpha={alpha}")
    n = 2 * p + 1
    _affordable(n, 2 * b + alpha)
    lists = _ring(n, n * alpha + 2, b - p * alpha - 1, 0)
    return _cert(build_cycle(n), lists, 2 * b + alpha, b, b + (p + 1) * alpha + 1, "cycle-odd-saturated")


def gen_path_family(n: int, a: int, b: int, variant: str, endpoints: str = "equal") -> Certificate:
    """Uncolorable path P_{n+1} with b-sized pinned end lists, one unit above
    the colorable threshold c-1.

    Every variant is one chain of a-lists, rows 2..n, between the pinned
    blocks B (row 1) and B' (row n+1).  Row 2 is end(B) plus a fresh block
    filling it to a; row i repeats the last keep(i) colors of row i-1's
    fresh block and adds a - keep(i) fresh colors; row n is end(B') plus the
    last keep(n) colors of row n-1's fresh block plus fresh filler.  So rows
    i-1 and i share keep(i) colors.  variant sets the two parameters: case1
    (low regime, a >= 2c) has end(X) = X[:c]; case2a (middle regime,
    a >= 2c) re-enters the whole end block, end(X) = X; case2b (the
    knife-edge a = 2c-1) does too but has keep(i) = c-1 at even i.  Every
    other keep(i) is c.  endpoints: "equal" reuses the left b-block on the
    right, "disjoint" pins b new colors; both give the same total supply.
    """
    if n < 4:
        raise ValueError("need n >= 4; the n = 3 layout is not claimed tight")
    _check_ab(a, b)
    if endpoints not in ("equal", "disjoint"):
        raise ValueError(f"unknown endpoints mode {endpoints!r}")
    t = c_threshold(n, a, b)
    c = t.floor + 1
    if variant not in ("case1", "case2a", "case2b"):
        raise ValueError(f"unknown variant {variant!r}")
    regime = "low" if variant == "case1" else "middle"
    if t.regime != regime:
        raise ValueError(f"{variant} needs the {regime} regime, got {t.regime}")
    if variant == "case1" and a < 2 * c:
        raise ValueError(f"case1 layout needs a >= 2c (a={a}, c={c})")
    if variant == "case2a" and a < 2 * c:
        raise ValueError(f"case2a needs a >= 2c (a={a}, c={c}); try case2b")
    if variant == "case2b" and a != 2 * c - 1:
        raise ValueError(f"case2b needs a = 2c-1 exactly (a={a}, c={c})")
    if variant == "case1" and c > b:
        raise AssertionError("low regime guarantees c <= b")
    if variant == "case2b" and c < b + 1:
        raise AssertionError("middle regime guarantees c >= b+1")
    _affordable(n + 1, a)

    alloc = _Alloc()
    B = Bp = alloc.fresh(b)
    rows: list[ColorSet] = [frozenset(B)]
    prev: tuple[int, ...] = ()
    for i in range(2, n + 1):
        keep = 0 if i == 2 else c - 1 if variant == "case2b" and i % 2 == 0 else c
        if i == n and endpoints == "disjoint":
            Bp = alloc.fresh(b)
        pinned = B if i == 2 else Bp if i == n else ()
        if variant == "case1":
            pinned = pinned[:c]
        tail = prev[-keep:] if keep else ()
        prev = alloc.fresh(a - len(pinned) - keep)
        rows.append(frozenset().union(pinned, tail, prev))
    rows.append(frozenset(Bp))
    return _cert(build_path(n + 1), rows, a, b, c, f"path-{variant}")


def gen_c3_family(a: int, b: int, variant: str) -> Certificate:
    """Uncolorable triangle with x1 pinned to a b-list, one above threshold.

    Every variant lists (B, B[:h] + A, B[b-t:] + A[:s] + fresh(a-t-s)) with
    B the pinned block and A = fresh(a-h): the second list keeps the first h
    pinned colors, the third reuses the last t of them and the first s of A.
    case1 (a < 7b/4) has c = floor(2(a-b)/3)+1 and case2 (7b/4 <= a < 3b)
    has c = 2a-3b+1.  case1 and case2_low (a < 2b) take (h, t, s) =
    (c, min(b-c, c), min(c, a-c)), which keeps every edge at most c even in
    the b > 2c corner where the naive t = b-c overflows; case2_high (a >= 2b)
    re-enters the whole pinned block, (h, t, s) = (b, b, c-b).
    """
    _check_ab(a, b)
    if variant == "case1":
        if not 4 * a < 7 * b:
            raise ValueError(f"case1 needs a < 7b/4, got a={a}, b={b}")
        c = (2 * (a - b)) // 3 + 1
    elif variant == "case2_high":
        if not (7 * b <= 4 * a and a < 3 * b and a >= 2 * b):
            raise ValueError(f"case2_high needs 7b/4 <= a < 3b and a >= 2b, got a={a}, b={b}")
        c = 2 * a - 3 * b + 1
    elif variant == "case2_low":
        if not (7 * b <= 4 * a and a < 2 * b):
            raise ValueError(f"case2_low needs 7b/4 <= a < 2b, got a={a}, b={b}")
        c = 2 * a - 3 * b + 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    _affordable(3, a)
    h, t, s = (b, b, c - b) if variant == "case2_high" else (c, min(b - c, c), min(c, a - c))
    alloc = _Alloc()
    B = alloc.fresh(b)
    A = alloc.fresh(a - h)
    lists = (frozenset(B), frozenset().union(B[:h], A), frozenset().union(B[b - t:], A[:s], alloc.fresh(a - t - s)))
    return _cert(build_cycle(3), lists, a, b, c, f"triangle-{variant.replace('_', '-')}", precolored=0)


def glue_path_to_cycle(cert: Certificate) -> Certificate:
    """Identify the two pinned path ends into one precolored cycle vertex.

    Needs equal end lists; the result is an uncolorable free instance on
    C_n whose pinned vertex carries the shared b-block.
    """
    g = cert.graph
    if g.path_order is None:
        raise ValueError("certificate is not a path instance")
    order = g.path_order
    lists = cert.assignment.lists
    if lists[order[0]] != lists[order[-1]]:
        raise ValueError("gluing needs equal end lists")
    n = g.n - 1
    new_lists = (lists[order[i]] for i in range(n))
    return _cert(build_cycle(n), new_lists, cert.a, cert.b, cert.c, cert.family + "+glued", precolored=0)


def gen_flower(p: int, a: int, b: int) -> Certificate:
    """One cycle copy per b-subset of the hub list {1..a}, all sharing the hub.

    Copy i carries the pinned-cycle counterexample for hub choice B_i (the
    i-th b-subset in lexicographic order), with non-hub fresh colors drawn
    from a pool shared across copies.  Whatever b-set the hub takes, the
    matching copy cannot be completed, so the flower is uncolorable with no
    precoloring at all: its separation number meets its free one.  The copy
    is the first variant, in the family's order, that its generator accepts:
    the triangle family at p = 3, else the glued path family.
    """
    if p < 3:
        raise ValueError("cycle copies need p >= 3")
    _check_ab(a, b)
    _affordable(math.comb(a, b) * (p - 1) + 1, a)
    c = fsep_cycle(p, a, b).value + 1
    if c > a:
        raise ValueError(f"pinned-cycle value equals a at (p={p}, a={a}, b={b}); no counterexample exists")
    refusals = []
    for variant in ("case1", "case2_high", "case2_low") if p == 3 else ("case1", "case2a", "case2b"):
        try:
            inner = gen_c3_family(a, b, variant) if p == 3 else glue_path_to_cycle(gen_path_family(p, a, b, variant))
            break
        except ValueError as e:
            refusals.append(str(e))
    else:
        raise ValueError(f"no copy layout fits (p={p}, a={a}, b={b}): {'; '.join(refusals)}")
    if inner.c != c:
        raise AssertionError("copy threshold disagrees with the pinned-cycle value")

    subsets = list(itertools.combinations(range(1, a + 1), b))
    k = len(subsets)
    g = build_flower(p, k)
    hub_list = frozenset(range(1, a + 1))
    lists = [hub_list] * g.n
    inner_lists = inner.assignment.lists
    for i, Bi in enumerate(subsets):
        def remap(color: int) -> int:
            # family ids: 0..b-1 is the pinned block, the rest is the shared fresh pool
            return Bi[color] if color < b else a + 1 + (color - b)

        for j in range(1, p):
            v = 1 + i * (p - 1) + (j - 1)
            lists[v] = frozenset(remap(x) for x in inner_lists[j])
    return _cert(g, lists, a, b, c, "flower")


def fig1_fixture() -> Certificate:
    """The literal two-square cactus with 1-separating 2-lists and no
    (L,1)-coloring: hub {1,2}, one square listing {1,3},{3,4},{1,4}, the
    other {2,3},{3,4},{2,4}."""
    g = identify_vertices(build_cycle(4), 0, build_cycle(4), 0)
    raw = [{1, 2}, {1, 3}, {3, 4}, {1, 4}, {2, 3}, {3, 4}, {2, 4}]
    return _cert(g, (frozenset(s) for s in raw), 2, 1, 1, "fig1")


def claimed_sigma(cert: Certificate) -> int | None:
    """The supply total each layout is engineered to undershoot, where a
    single whole-graph amplitude span exists (cycles, paths, triangles)."""
    n_g = cert.graph.n
    n = n_g - 1  # the path families build P_{n+1}
    a, b, c = cert.a, cert.b, cert.c
    fam = cert.family
    if fam == "cycle-small-ratio":
        return n_g // 2 + n_g * (b - 1)
    if fam == "cycle-odd-saturated":
        return n_g * b - 1
    if fam == "path-case1":
        return (n - 1) * (a - c) + 2 * b - c
    if fam == "path-case2a":
        return (n - 1) * a - (n - 2) * c
    if fam == "path-case2b":
        return n * c - (n + 1) // 2 if n % 2 == 1 else n * c - n // 2
    if fam == "triangle-case1":
        t = min(b - c, c)
        s = min(c, a - c)
        return b + (a - c) + (a - t - s)
    if fam in ("triangle-case2-high", "triangle-case2-low"):
        return 2 * a - c
    return None


def verify_certificate(cert: Certificate, budget: int | None = None) -> tuple[bool, str]:
    """Re-check a certificate from scratch: list sizes, separation bound,
    and the claim against the exact solver."""
    L = cert.assignment
    g = L.graph
    ends = {g.path_order[0], g.path_order[-1]} if g.path_order is not None and g.n >= 2 else ()
    for v, lst in enumerate(L.lists):
        want = cert.b if (v == L.precolored or v in ends) else L.a
        if len(lst) != want:
            return False, f"list at vertex {v} has size {len(lst)}, expected {want}"
    s = separation(L)
    if s > cert.c:
        return False, f"separation {s} exceeds claimed c={cert.c}"
    verdict = "colorable" if decide_with_lists(L, cert.b, budget).colorable else "uncolorable"
    if verdict != cert.claim:
        return False, f"solver says {verdict}, certificate claims {cert.claim}"
    return True, "ok"


def cert_to_json_dict(cert: Certificate) -> dict:
    """The graph, a, b, c, the assignment's lists, claim, family, then the assignment's pin if any."""
    L = cert.assignment.to_json_dict()
    return {"graph": cert.graph.to_json_dict(), "a": cert.a, "b": cert.b, "c": cert.c, "lists": L.pop("lists"),
            "claim": cert.claim, "family": cert.family, **L}


_CERT = {"graph": {}, **_ASSIGNMENT, "a": 1, "b": 1, "c": 0,
         "claim": frozenset({"uncolorable", "colorable"}), "family?": str}


def cert_from_json_dict(d: dict) -> Certificate:
    _check(d, _CERT, "certificate")
    g = graph_from_json_dict(d["graph"])
    lists, pre = _lists_for(d, g.n, "certificate")
    L = ListAssignment._trusted(graph=g, lists=lists, a=d["a"], precolored=pre)
    return Certificate(b=d["b"], c=d["c"], assignment=L, claim=d["claim"], family=d.get("family") or "unknown")
