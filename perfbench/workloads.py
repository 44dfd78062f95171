"""Inputs, items and output checks of the four benchmark workloads.

Every builder takes the ``sepchoose`` package, a seeded ``random.Random``
and a size (``"full"`` or ``"smoke"``), generates all inputs itself, and
returns a ``Workload``: a list of items plus the enumeration streams the
traced run drains.  An item is one user-visible unit of work (a sweep row,
an oracle cell, a certificate, a criterion-5 cell, a long path or a
coloring).  ``run`` makes the library calls and is timed; ``check`` judges
the result against a reference that does not come from the solver under
test and returns ``None`` or a failure message.

Library functions are always looked up on the package at call time, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("sweep-cycles", "oracle-cactus", "certificates", "paths")

# sweep grid (n, a, b upper bounds); the CLI walks every row with b <= a
SWEEP_GRID = {"full": (5, 5, 1), "smoke": (4, 3, 2)}

# Non-free oracle-cactus values, and free values on K4-e (not a cactus, so
# fsep_cactus does not apply).  Seed regression values: computed by the
# exact oracle at the commit that introduced this benchmark, not derived
# independently.  A change here means the oracle's answer changed.
SEED_REGRESSION_SEP = {
    ("C3C3", 2, 1, False): 1,
    ("C3C3", 3, 1, False): 3,
    ("C3C3", 3, 2, False): 1,
    ("C3C4", 2, 1, False): 1,
    ("C3C4", 3, 2, False): 0,
    ("C4C4", 3, 2, False): 0,
    ("K4e", 2, 1, False): 1,
    ("K4e", 3, 1, False): 3,
    ("K4e", 4, 2, False): 2,
    ("K4e", 3, 1, True): 3,
    ("K4e", 4, 2, True): 1,
    ("K4e", 5, 2, True): 2,
}

# (graph, a, b, free).  Covers all four fsep_cactus regimes: triangles-only
# (C3C3), girth (C4C4), mixed-cycle (C3C4 at (2,1) and (4,2)) and
# mixed-triangle (C3C4 at (3,2)).  A pass is kept near 3 s so that a run
# holds many passes: cells over ~2 s here (C3C3 (4,2) free, C3C4 (3,1),
# C3C4 (4,2) non-free) and the ~1 s non-free cells C3C3 (4,2), C4C4 (2,1)
# and K4e (5,2) are left out; C4C4 and C3C5 at (3,1) exceed 5M nodes.
CACTUS_CELLS = {
    "full": [
        ("C3C3", 2, 1, True), ("C3C3", 2, 1, False),
        ("C3C3", 3, 1, True), ("C3C3", 3, 1, False),
        ("C3C3", 3, 2, True), ("C3C3", 3, 2, False),
        ("C3C4", 2, 1, True), ("C3C4", 2, 1, False),
        ("C3C4", 3, 2, True), ("C3C4", 3, 2, False),
        ("C3C4", 4, 2, True),
        ("C4C4", 2, 1, True),
        ("C4C4", 3, 2, True), ("C4C4", 3, 2, False),
        ("K4e", 3, 1, True), ("K4e", 3, 1, False),
        ("K4e", 4, 2, True), ("K4e", 4, 2, False),
        ("K4e", 5, 2, True),
    ],
    "smoke": [
        ("C3C3", 2, 1, True), ("C3C4", 3, 2, True),
        ("C4C4", 3, 2, True), ("K4e", 2, 1, False),
    ],
}


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    items: list[Item]
    # (graph, a, b, c, precolored, connected_only) streams for the drain,
    # derived from the item results once the pass is over
    streams: Callable[[list], list] = field(default=lambda results: [])


def coloring_error(lists, edges, phi, b, pin=None) -> str | None:
    """Independent validity check of a b-fold coloring."""
    if len(phi) != len(lists):
        return f"coloring has {len(phi)} entries for {len(lists)} vertices"
    for v, (col, lst) in enumerate(zip(phi, lists)):
        if len(col) != b or not col <= lst:
            return f"vertex {v}: {sorted(col)} is not {b} colors of {sorted(lst)}"
    if pin is not None and phi[pin] != lists[pin]:
        return f"pinned vertex {pin} does not keep its list"
    for u, v in edges:
        if phi[u] & phi[v]:
            return f"edge ({u},{v}) shares colors"
    return None


def free_roots(g, free: bool) -> list:
    """Root vertices decide_choosable pins in the free variant."""
    if not free:
        return [None]
    if g.cycle_order is not None:
        return [g.cycle_order[0]]
    if g.path_order is not None:
        return list(g.path_order[: (g.n + 1) // 2])
    return list(range(g.n))


# --- sweep-cycles -------------------------------------------------------------

def sweep_rows(size: str) -> list[tuple[int, int, int]]:
    n_max, a_max, b_max = SWEEP_GRID[size]
    return [(n, a, b) for n in range(3, n_max + 1) for a in range(1, a_max + 1)
            for b in range(1, b_max + 1) if b <= a]


def sweep_cycles(sc, rng, size) -> Workload:
    """The CLI sweep's rows computed in-process (the traced run only)."""

    def row(n, a, b):
        def run():
            g = sc.build_cycle(n)
            return (g, sc.sep_cycle(n, a, b).value, sc.fsep_cycle(n, a, b).value,
                    sc.compute_sep(g, a, b), sc.compute_sep(g, a, b, free=True))

        def check(res):
            _, f_sep, f_fsep, o_sep, o_fsep = res
            if (o_sep, o_fsep) != (f_sep, f_fsep):
                return f"row {n},{a},{b}: oracle {(o_sep, o_fsep)} formula {(f_sep, f_fsep)}"
            return None

        return Item(f"row {n},{a},{b}", run, check)

    def streams(results):
        out = []
        for (n, a, b), res in zip(sweep_rows(size), results):
            if res is None:
                continue
            g, _, _, o_sep, o_fsep = res
            out.append((g, a, b, o_sep, None, True))
            out += [(g, a, b, o_fsep, r, True) for r in free_roots(g, True)]
        return out

    return Workload([row(*r) for r in sweep_rows(size)], streams)


def check_sweep_csv(text: str, size: str) -> list[str]:
    """Failures in the CLI's CSV: a row fails when it is a mismatch or when
    an oracle column reads unknown (an exhausted budget is never a pass)."""
    lines = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
    want = sweep_rows(size)
    errors = []
    if len(lines) != len(want):
        errors.append(f"sweep printed {len(lines)} rows, expected {len(want)}")
    for ln in lines:
        cols = ln.split(",")
        if len(cols) != 8:
            errors.append(f"malformed row {ln!r}")
            continue
        _, _, _, f_sep, o_sep, f_fsep, o_fsep, match = cols
        if "unknown" in (o_sep, o_fsep) or (o_sep, o_fsep) != (f_sep, f_fsep) or match != "true":
            errors.append(f"row {ln}")
    return errors


# --- oracle-cactus -------------------------------------------------------------

def cactus_graphs(sc) -> dict:
    c3, c4 = sc.build_cycle(3), sc.build_cycle(4)
    return {
        "C3C3": sc.identify_vertices(c3, 0, c3, 0),
        "C3C4": sc.identify_vertices(c3, 0, c4, 0),
        "C4C4": sc.identify_vertices(c4, 0, c4, 0),
        "K4e": sc.Graph(n=4, edges=frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})),
    }


def oracle_cactus(sc, rng, size) -> Workload:
    graphs = cactus_graphs(sc)
    cells = list(CACTUS_CELLS[size])
    rng.shuffle(cells)

    def cell(name, a, b, free):
        g = graphs[name]

        def run():
            return sc.compute_sep(g, a, b, free=free)

        def check(got):
            if (name, a, b, free) in SEED_REGRESSION_SEP:
                want = SEED_REGRESSION_SEP[(name, a, b, free)]
            else:
                want = sc.fsep_cactus(g, a, b).value
            return None if got == want else f"{name} {(a, b)} free={free}: got {got}, want {want}"

        return Item(f"{name} a={a} b={b} free={free}", run, check)

    def streams(results):
        out = []
        for (name, a, b, free), got in zip(cells, results):
            if got is not None:
                g = graphs[name]
                out += [(g, a, b, got, r, True) for r in free_roots(g, free)]
        return out

    return Workload([cell(*c) for c in cells], streams)


# --- certificates ------------------------------------------------------------

def certificate_grid(sc, size: str) -> list:
    """The criterion-4 family grid and its flowers, minus the flowers too
    slow for one run (a >= 8, except gen_flower(3, 10, 4), the antichain
    hot spot, which is kept; gen_flower(3, 11, 4) alone takes 80 s)."""
    certs = []
    n_hi = 9 if size == "full" else 5
    for n in range(3, n_hi):
        for b in range(1, 5):
            for k in range(b):
                certs.append(sc.gen_sep_small_ratio(n, b, k))
    for p in range(1, 4):
        for b in range(1, 5):
            for alpha in range(b):
                if p * alpha <= b - 1:
                    certs.append(sc.gen_sep_odd_cycle(p, b, alpha))
    for n in range(4, n_hi):
        for b in range(1, 5):
            for a in range(b, 4 * b + 1):
                for variant in ("case1", "case2a", "case2b"):
                    for endpoints in ("equal", "disjoint"):
                        try:
                            certs.append(sc.gen_path_family(n, a, b, variant, endpoints))
                        except ValueError:
                            break
    for b in range(1, 5):
        for a in range(b, 3 * b + 1):
            for variant in ("case1", "case2_high", "case2_low"):
                try:
                    certs.append(sc.gen_c3_family(a, b, variant))
                except ValueError:
                    continue
    if size == "smoke":
        return certs + [sc.gen_flower(3, 4, 2)]
    for p in range(3, 9):
        for b in range(1, 5):
            for a in range(b, min(4 * b, 7) + 1):
                try:
                    certs.append(sc.gen_flower(p, a, b))
                except ValueError:
                    continue
    certs.append(sc.gen_flower(3, 10, 4))
    return certs


def own_separation(cert) -> int:
    lists = cert.assignment.lists
    return max((len(lists[u] & lists[v]) for u, v in cert.graph.edges), default=0)


def certificates(sc, rng, size) -> Workload:
    certs = certificate_grid(sc, size)
    rng.shuffle(certs)

    def item(cert):
        def run():
            ok, reason = sc.verify_certificate(cert)
            want = sc.claimed_sigma(cert)
            got = None if want is None else sc.amplitude_sigma(cert.assignment, 1, cert.graph.n)
            return ok, reason, want, got

        def check(res):
            ok, reason, want, got = res
            if not ok:
                return f"{cert.family}: {reason}"
            if want != got:
                return f"{cert.family}: amplitude_sigma {got} != claimed_sigma {want}"
            if own_separation(cert) != cert.c:
                return f"{cert.family}: separation is not c={cert.c}"
            return None

        return Item(f"{cert.family} n={cert.graph.n} a={cert.a} b={cert.b}", run, check)

    return Workload([item(c) for c in certs])


# --- paths -------------------------------------------------------------------

def sep_lists(rng, n, adj, order, a, c, pool, pin=None, b=None):
    """Random lists with every edge overlap at most c: each vertex, in
    ``order``, draws from a small shared pool (so overlaps are common) and
    tops up with fresh colors when the pool runs dry."""
    lists = [None] * n
    fresh = pool
    for v in order:
        size = b if v == pin else a
        done = [w for w in adj[v] if lists[w] is not None]
        room = {w: c for w in done}
        pick = set()
        for col in rng.sample(range(pool), pool):
            if len(pick) == size:
                break
            hit = [w for w in done if col in lists[w]]
            if all(room[w] > 0 for w in hit):
                pick.add(col)
                for w in hit:
                    room[w] -= 1
        while len(pick) < size:
            pick.add(fresh)
            fresh += 1
        lists[v] = frozenset(pick)
    return tuple(lists)


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_order(adj, root):
    order, seen = [root], {root}
    for u in order:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def cycle_edges(n):
    return [(i, (i + 1) % n) if i < n - 1 else (0, n - 1) for i in range(n)]


def random_cactus(rng, n_target):
    """Bridges and 3- to 5-cycles hung on random earlier vertices."""
    edges, n = set(), 1
    while n < n_target:
        u = rng.randrange(n)
        if rng.random() < 0.4 or n_target - n < 2:
            edges.add((u, n))
            n += 1
            continue
        k = rng.randint(3, min(5, n_target - n + 1))
        cyc = [u] + list(range(n, n + k - 1))
        edges |= {tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k)}
        n += k - 1
    return n, sorted(edges)


def snake(rng, faces_n, flen):
    """flen-gon faces, each glued to a free edge of an earlier one: a
    2-connected outerplanar graph of girth flen."""
    faces = [tuple(range(flen))]
    edges = {tuple(sorted((i, (i + 1) % flen))) for i in range(flen)}
    free, n = set(edges), flen
    for _ in range(faces_n - 1):
        fu, fw = rng.choice(sorted(free))
        free.discard((fu, fw))
        cyc = [fu] + list(range(n, n + flen - 2)) + [fw]
        for x, y in zip(cyc, cyc[1:]):
            e = tuple(sorted((x, y)))
            edges.add(e)
            free.add(e)
        faces.append(tuple(cyc))
        n += flen - 2
    return n, sorted(edges), tuple(faces)


# per size: criterion-5 cells (n <= N_MAX, n*a <= NA_MAX), easy path
# lengths, and coloring counts per procedure.  The easy paths are all
# slower than the eight n=7 cells, so the tail (the 11th slowest item)
# falls inside that cluster of like items rather than on a lone item.
PATHS = {
    "full": dict(n_max=7, na_max=8, easy=(130, 145, 160), cycle=200, cactus=4,
                 outer5=3, outer6=3, lift=200, greedy=200, cactus_n=300, snake_faces=60),
    "smoke": dict(n_max=3, na_max=4, easy=(20,), cycle=2, cactus=1,
                  outer5=1, outer6=1, lift=2, greedy=2, cactus_n=20, snake_faces=4),
}


def paths(sc, rng, size) -> Workload:
    cfg = PATHS[size]
    items = []

    stream_cells = [
        (n, a, b, root)
        for n in range(2, cfg["n_max"] + 1)
        for a in range(1, cfg["na_max"] // n + 1)
        for b in range(1, a + 1)
        for root in [None] + list(range(n))
    ]
    path_graphs = {n: sc.build_path(n) for n in range(2, cfg["n_max"] + 1)}

    def stream_cell(n, a, b, root):
        g = path_graphs[n]
        edges = [(i, i + 1) for i in range(n - 1)]

        def run():
            count, bad = 0, []
            for t in sc.enumerate_canonical(g, a, b, a, precolored=root):
                L = sc.realize(t, g, a, precolored=root)
                amp = sc.amplitude_condition(L, b)
                out = sc.color_with_lists(L, b)
                count += 1
                if amp != out.colorable:
                    bad.append(f"amplitude {amp}, solver {out.colorable}")
                elif out.colorable:
                    err = coloring_error(L.lists, edges, out.witness, b, root)
                    if err:
                        bad.append(err)
            return count, bad

        def check(res):
            count, bad = res
            if count == 0:
                return "empty stream"
            return f"{len(bad)} of {count} instances: {bad[0]}" if bad else None

        return Item(f"stream n={n} a={a} b={b} root={root}", run, check)

    items += [stream_cell(*cell) for cell in stream_cells]

    def easy_path(n, shift):
        g = sc.build_path(n)
        lists = tuple(frozenset({(i + shift) % 3, (i + shift + 1) % 3}) for i in range(n))
        L = sc.ListAssignment(graph=g, lists=lists, a=2)
        edges = [(i, i + 1) for i in range(n - 1)]

        def run():
            return sc.color_with_lists(L, 1), sc.amplitude_condition(L, 1)

        def check(res):
            out, amp = res
            if not (out.colorable and amp):
                return f"easy P_{n}: solver {out.colorable}, amplitude {amp}"
            return coloring_error(lists, edges, out.witness, 1)

        return Item(f"easy P_{n}", run, check)

    items += [easy_path(n, rng.randrange(3)) for n in cfg["easy"]]

    def coloring(g, lists, a, edges, width, proc, *args, pin=None):
        """A ``width``-fold coloring by ``sc.<proc>(L, *args)``."""
        L = sc.ListAssignment(graph=g, lists=lists, a=a, precolored=pin)

        def run():
            return getattr(sc, proc)(L, *args)

        def check(phi):
            return coloring_error(lists, edges, phi, width, pin)

        return Item(f"{proc} n={g.n}", run, check)

    def pinned(n, edges, a, b, c):
        adj = adjacency(n, edges)
        pin = rng.randrange(n)
        return pin, sep_lists(rng, n, adj, bfs_order(adj, pin), a, c, 3 * a, pin=pin, b=b)

    for i in range(cfg["cycle"]):
        n, a, b, c = [(4, 9, 4, 3), (5, 9, 4, 4), (6, 5, 2, 3)][i % 3]
        edges = cycle_edges(n)
        pin, lists = pinned(n, edges, a, b, c)
        items.append(coloring(sc.build_cycle(n), lists, a, edges, b,
                              "cycle_color_precolored", b, pin=pin))

    a, b = 5, 2
    for _ in range(cfg["cactus"]):
        n, edges = random_cactus(rng, cfg["cactus_n"])
        g = sc.Graph(n=n, edges=frozenset(edges))
        pin, lists = pinned(n, edges, a, b, sc.fsep_cactus(g, a, b).value)
        items.append(coloring(g, lists, a, edges, b, "cactus_free_color", b, pin=pin))

    a, b = 9, 4
    for flen, count in ((5, cfg["outer5"]), (6, cfg["outer6"])):
        c = sc.fsep_outerplanar_bounds(flen, a, b)[0].value
        for _ in range(count):
            n, edges, faces = snake(rng, cfg["snake_faces"], flen)
            g = sc.Graph(n=n, edges=frozenset(edges), faces=faces)
            pin, lists = pinned(n, edges, a, b, c)
            items.append(coloring(g, lists, a, edges, b, "outerplanar_color", b, pin=pin))

    # (n, a, c, k, b): a-lists with overlaps <= c lift to (b+k)-colorings
    lift_params = [(3, 5, 4, 1, 1), (5, 7, 6, 1, 2), (3, 7, 5, 2, 1), (5, 9, 7, 2, 2)]
    for i in range(cfg["lift"]):
        n, a, c, k, b = lift_params[i % len(lift_params)]
        edges = cycle_edges(n)
        lists = sep_lists(rng, n, adjacency(n, edges), list(range(n)), a, c, 3 * a)
        items.append(coloring(sc.build_cycle(n), lists, a, edges, b + k, "lift_cycle", b, k))

    for _ in range(cfg["greedy"]):
        n, a, b = rng.randint(3, 7), 4, 2
        edges = cycle_edges(n)
        lists = sep_lists(rng, n, adjacency(n, edges), list(range(n)), a, a - b, 3 * a)
        items.append(coloring(sc.build_cycle(n), lists, a, edges, b, "greedy_cycle", b))

    def streams(results):
        return [(path_graphs[n], a, b, a, root, False) for n, a, b, root in stream_cells]

    return Workload(items, streams)


BUILDERS = {
    "sweep-cycles": sweep_cycles,
    "oracle-cactus": oracle_cactus,
    "certificates": certificates,
    "paths": paths,
}
