from fractions import Fraction

import pytest

from sepchoose import (
    Graph,
    build_cycle,
    build_path,
    c_threshold,
    compute_sep,
    fsep_cactus,
    fsep_cycle,
    fsep_min_with_triangle,
    fsep_monotone_check,
    fsep_outerplanar_bounds,
    identify_vertices,
    sep_cycle,
)


# --- cycles: separation ------------------------------------------------------

def test_sep_cycle_spot_values():
    assert (sep_cycle(4, 2, 1).value, sep_cycle(4, 2, 1).regime) == (2, "even-high")
    assert (sep_cycle(4, 3, 2).value, sep_cycle(4, 3, 2).regime) == (1, "even-low")
    assert (sep_cycle(5, 9, 4).value, sep_cycle(5, 9, 4).regime) == (7, "odd-middle")
    assert (sep_cycle(3, 5, 2).value, sep_cycle(3, 5, 2).regime) == (4, "odd-middle")
    assert (sep_cycle(7, 9, 4).value, sep_cycle(7, 9, 4).regime) == (8, "odd-middle")
    assert (sep_cycle(5, 11, 4).value, sep_cycle(5, 11, 4).regime) == (11, "odd-high")


def test_sep_cycle_odd_middle_meets_outer_branches():
    # at a = 2b the middle branch equals a-b; at a = 2b + b/p it equals a
    for p, b in [(2, 2), (3, 3), (2, 4)]:
        n = 2 * p + 1
        assert sep_cycle(n, 2 * b, b).value == b
        top = 2 * b + b // p
        assert b % p == 0
        assert sep_cycle(n, top, b).value == top


def test_sep_cycle_matches_search():
    for n in (3, 4, 5):
        for b in (1, 2):
            for a in range(b, 2 * b + 2):
                assert sep_cycle(n, a, b).value == compute_sep(build_cycle(n), a, b), (n, a, b)


def test_sep_lower_bound_is_always_choosable():
    for n in (3, 4, 5, 6):
        for a, b in [(3, 1), (5, 2), (4, 3)]:
            # greedy bound: every cycle is (a, b, a - b)-choosable
            assert sep_cycle(n, a, b).value >= a - b


# --- cycles: free separation --------------------------------------------------

def test_c_threshold_exact_fraction():
    t = c_threshold(4, 9, 4)
    assert t.value == Fraction(15, 4)
    assert t.floor == 3
    assert t.regime == "low"


def test_c_threshold_knife_edge_uses_rationals():
    # a equals (2n-1)b/(n-1) exactly: must land in the middle branch
    t = c_threshold(5, 9, 4)
    assert t.regime == "middle"
    assert t.value == Fraction(4 * 5 - 2 * 4, 3)
    assert t.floor == 4


def test_fsep_cycle_triangle_branches():
    assert (fsep_cycle(3, 5, 3).value, fsep_cycle(3, 5, 3).regime) == (1, "c3-low")
    assert (fsep_cycle(3, 2, 1).value, fsep_cycle(3, 2, 1).regime) == (1, "c3-middle")
    assert (fsep_cycle(3, 7, 2).value, fsep_cycle(3, 7, 2).regime) == (7, "c3-high")


def test_fsep_cycle_matches_search():
    for n in (3, 4, 5):
        for b in (1, 2):
            for a in range(b, 3 * b + 1):
                got = fsep_cycle(n, a, b).value
                want = compute_sep(build_cycle(n), a, b, free=True)
                assert got == want, (n, a, b)


def test_fsep_min_with_triangle_agrees_with_direct_min():
    for n in (4, 5, 7):
        for b in range(1, 5):
            for a in range(b, 4 * b + 1):
                res = fsep_min_with_triangle(n, a, b)
                assert res.value == min(fsep_cycle(3, a, b).value, fsep_cycle(n, a, b).value)


def test_fsep_min_with_triangle_regimes():
    assert fsep_min_with_triangle(5, 12, 7).regime == "c3-low"
    # the triangle's middle branch wins on two disjoint intervals
    assert fsep_min_with_triangle(5, 11, 6).regime == "c3-middle"
    assert fsep_min_with_triangle(5, 15, 6).regime == "c3-middle"
    assert fsep_min_with_triangle(5, 8, 4).regime == "cycle-low"
    assert fsep_min_with_triangle(5, 9, 4).regime == "cycle-middle"
    assert fsep_min_with_triangle(5, 20, 2).regime == "high"


def test_fsep_monotone_on_grid():
    for n in range(4, 10):
        for b in range(1, 4):
            for a in range(b, 4 * b + 1):
                assert fsep_monotone_check(n, a, b), (n, a, b)


# --- cactuses and outerplanar ---------------------------------------------

def test_fsep_cactus_girth_regime():
    g = identify_vertices(build_cycle(5), 0, build_cycle(4), 0)
    res = fsep_cactus(g, 9, 4)
    assert (res.value, res.regime) == (3, "girth")


def test_fsep_cactus_triangles_only():
    g = identify_vertices(build_cycle(3), 0, build_cycle(3), 0)
    res = fsep_cactus(g, 5, 2)
    assert (res.value, res.regime) == (4, "triangles-only")


def test_fsep_cactus_mixed_regimes():
    g = identify_vertices(build_cycle(3), 0, build_cycle(5), 0)
    # 11b/6 < a < 12b/5 is where the 5-cycle is the bottleneck
    res = fsep_cactus(g, 12, 6)
    assert (res.value, res.regime) == (4, "mixed-cycle")
    res = fsep_cactus(g, 15, 6)
    assert (res.value, res.regime) == (12, "mixed-triangle")
    assert fsep_cycle(5, 15, 6).value == 15


def test_fsep_cactus_rejects_bad_input():
    k4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
    with pytest.raises(ValueError, match="not a cactus"):
        fsep_cactus(k4, 3, 1)
    with pytest.raises(ValueError, match="forest"):
        fsep_cactus(build_path(4), 3, 1)


def test_fsep_cactus_decomposes_once(monkeypatch):
    import sepchoose.graphs as graphs

    calls = []
    real = graphs.block_decomposition
    monkeypatch.setattr(graphs, "block_decomposition", lambda g: calls.append(g) or real(g))
    g = identify_vertices(build_cycle(3), 0, build_cycle(5), 0)
    assert fsep_cactus(g, 12, 6).regime == "mixed-cycle"
    assert len(calls) == 1


@pytest.mark.parametrize("cycles, a, b", [((3, 4), 3, 1), ((3, 4), 4, 2), ((3, 3), 2, 1), ((4, 4), 2, 1)])
def test_fsep_cactus_matches_oracle(cycles, a, b):
    g = identify_vertices(build_cycle(cycles[0]), 0, build_cycle(cycles[1]), 0)
    assert compute_sep(g, a, b, free=True) == fsep_cactus(g, a, b).value


def test_outerplanar_bounds_hold_on_two_pentagons():
    # two C5 sharing the edge {0, 1}: outerplanar with girth 5
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6), (6, 7), (1, 7)}
    lo, hi = fsep_outerplanar_bounds(5, 4, 2)
    assert lo.value <= compute_sep(Graph(n=8, edges=frozenset(edges)), 4, 2, free=True) <= hi.value


def test_outerplanar_bounds():
    lo, hi = fsep_outerplanar_bounds(5, 9, 4)
    assert (lo.value, hi.value) == (3, 4)
    assert not lo.exact and not hi.exact
    lo, hi = fsep_outerplanar_bounds(5, 3, 1)
    assert (lo.value, hi.value) == (3, 3)
    assert lo.exact and hi.exact


def test_outerplanar_bounds_are_ordered():
    for g in (5, 6, 9):
        for b in (1, 2, 3):
            for a in range(b, 4 * b + 1):
                lo, hi = fsep_outerplanar_bounds(g, a, b)
                assert lo.value <= hi.value
                assert (lo.value == hi.value) == lo.exact


def test_parameter_validation():
    with pytest.raises(ValueError):
        sep_cycle(2, 2, 1)
    with pytest.raises(ValueError):
        sep_cycle(4, 1, 2)
    with pytest.raises(ValueError):
        fsep_cycle(3, 0, 0)
    with pytest.raises(ValueError):
        c_threshold(5, 3, 0)
    with pytest.raises(ValueError, match="girth"):
        fsep_outerplanar_bounds(4, 3, 1)
    with pytest.raises(ValueError):
        fsep_min_with_triangle(3, 3, 1)
