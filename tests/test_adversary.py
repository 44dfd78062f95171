import dataclasses

import pytest

from sepchoose import (
    BudgetExceeded,
    amplitude_sigma,
    cert_from_json_dict,
    cert_to_json_dict,
    claimed_sigma,
    color_with_lists,
    fig1_fixture,
    gen_c3_family,
    gen_flower,
    gen_path_family,
    gen_sep_odd_cycle,
    gen_sep_small_ratio,
    glue_path_to_cycle,
    separation,
    verify_certificate,
)
from sepchoose.lists import assignment_unchecked

F = frozenset


def check(cert):
    ok, reason = verify_certificate(cert)
    assert ok, (cert.family, reason)
    assert separation(cert.assignment) == cert.c


# --- frozen layouts ----------------------------------------------------------

def test_small_ratio_layout():
    cert = gen_sep_small_ratio(4, 2, 1)
    assert (cert.a, cert.b, cert.c) == (3, 2, 2)
    assert cert.assignment.lists == (F({0, 1, 2}), F({0, 2, 3}), F({0, 3, 4}), F({0, 1, 4}))
    check(cert)


def test_odd_cycle_layout():
    # with p*alpha = b-1 the edge blocks vanish and all lists coincide
    cert = gen_sep_odd_cycle(1, 2, 1)
    assert (cert.a, cert.b, cert.c) == (5, 2, 5)
    assert cert.assignment.lists == (F(range(5)),) * 3
    check(cert)


def test_c3_case1_layout():
    cert = gen_c3_family(3, 2, "case1")
    assert cert.c == 1
    assert cert.assignment.lists == (F({0, 1}), F({0, 2, 3}), F({1, 2, 4}))
    assert cert.precolored == 0
    check(cert)


def test_c3_case1_wide_pinned_block():
    # b > 2c: the third list can only reuse t = c of the pinned colors
    cert = gen_c3_family(5, 4, "case1")
    assert cert.c == 1
    assert cert.assignment.lists == (F({0, 1, 2, 3}), F({0, 4, 5, 6, 7}), F({3, 4, 8, 9, 10}))
    check(cert)


def test_c3_case2_layouts():
    cert = gen_c3_family(5, 2, "case2_high")
    assert cert.c == 5
    assert cert.assignment.lists == (F({0, 1}), F(range(5)), F(range(5)))
    check(cert)
    cert = gen_c3_family(7, 4, "case2_low")
    assert cert.c == 3
    assert cert.assignment.lists == (
        F({0, 1, 2, 3}),
        F({0, 1, 2, 4, 5, 6, 7}),
        F({3, 4, 5, 6, 8, 9, 10}),
    )
    check(cert)


def test_path_case1_layout():
    cert = gen_path_family(4, 9, 4, "case1")
    assert cert.c == 4
    assert cert.assignment.lists == (
        F(range(4)),
        F(range(9)),
        F(range(5, 14)),
        F({0, 1, 2, 3, 10, 11, 12, 13, 14}),
        F(range(4)),
    )
    check(cert)


def test_path_variants_verify():
    for n, a, b, variant in [
        (4, 9, 4, "case1"),
        (6, 8, 4, "case1"),
        (4, 12, 5, "case2a"),
        (5, 9, 4, "case2b"),
        (4, 7, 3, "case2b"),
        (7, 9, 4, "case2b"),
    ]:
        check(gen_path_family(n, a, b, variant))
        check(gen_path_family(n, a, b, variant, endpoints="disjoint"))


def test_endpoint_modes_same_supply():
    eq = gen_path_family(4, 9, 4, "case1")
    dj = gen_path_family(4, 9, 4, "case1", endpoints="disjoint")
    n = eq.graph.n
    assert amplitude_sigma(eq.assignment, 1, n) == amplitude_sigma(dj.assignment, 1, n)


# --- supply bookkeeping -----------------------------------------------------

def test_claimed_sigma_matches_amplitude():
    certs = [
        gen_sep_small_ratio(4, 2, 1),
        gen_sep_small_ratio(5, 3, 2),
        gen_sep_odd_cycle(1, 2, 1),
        gen_sep_odd_cycle(2, 3, 1),
        gen_path_family(4, 9, 4, "case1"),
        gen_path_family(4, 12, 5, "case2a"),
        gen_path_family(5, 9, 4, "case2b"),
        gen_path_family(4, 7, 3, "case2b"),
        gen_c3_family(3, 2, "case1"),
        gen_c3_family(5, 2, "case2_high"),
        gen_c3_family(7, 4, "case2_low"),
    ]
    for cert in certs:
        want = claimed_sigma(cert)
        assert want is not None
        got = amplitude_sigma(cert.assignment, 1, cert.graph.n)
        assert got == want, (cert.family, got, want)
        # the whole point: supply strictly below demand
        assert got < cert.b * cert.graph.n


def test_claimed_sigma_none_for_composites():
    assert claimed_sigma(gen_flower(3, 2, 1)) is None
    assert claimed_sigma(fig1_fixture()) is None


# --- gluing and flowers -----------------------------------------------------

def test_glue_path_to_cycle():
    glued = glue_path_to_cycle(gen_path_family(4, 9, 4, "case1"))
    assert glued.graph.n == 4
    assert glued.precolored == 0
    assert glued.family == "path-case1+glued"
    assert glued.c == 4
    check(glued)
    assert not color_with_lists(glued.assignment, 4).colorable


def test_glue_requires_equal_ends():
    cert = gen_path_family(4, 9, 4, "case1", endpoints="disjoint")
    with pytest.raises(ValueError, match="equal end lists"):
        glue_path_to_cycle(cert)
    with pytest.raises(ValueError, match="not a path"):
        glue_path_to_cycle(gen_sep_small_ratio(4, 2, 1))


def test_flower_small():
    cert = gen_flower(3, 2, 1)
    assert cert.graph.n == 5
    assert cert.c == 2
    assert cert.precolored is None
    assert cert.assignment.lists[0] == F({1, 2})
    check(cert)


def test_flower_reproduces_two_square_cactus():
    fig = fig1_fixture()
    fl = gen_flower(4, 2, 1)
    assert fl.graph.n == fig.graph.n
    assert fl.graph.edges == fig.graph.edges
    assert fl.assignment.lists == fig.assignment.lists
    check(fig)


def test_flower_330_petals_verifies():
    # the largest flower of the criterion-4 grid: one petal per 4-subset of 11
    assert verify_certificate(gen_flower(3, 11, 4)) == (True, "ok")


def test_flower_pentagon():
    cert = gen_flower(5, 3, 2)
    check(cert)
    assert not color_with_lists(cert.assignment, 2).colorable


# --- regime guards -----------------------------------------------------------

def test_out_of_regime_raises():
    with pytest.raises(ValueError, match="n >= 3"):
        gen_sep_small_ratio(2, 2, 1)
    with pytest.raises(ValueError, match="0 <= k < b"):
        gen_sep_small_ratio(4, 2, 2)
    with pytest.raises(ValueError, match="alpha"):
        gen_sep_odd_cycle(2, 2, 1)
    with pytest.raises(ValueError, match="needs a >= 2c"):
        gen_path_family(4, 1, 1, "case1")
    with pytest.raises(ValueError, match="middle regime"):
        gen_path_family(4, 9, 4, "case2a")
    with pytest.raises(ValueError, match="low regime"):
        gen_path_family(4, 12, 5, "case1")
    with pytest.raises(ValueError, match="a = 2c-1"):
        gen_path_family(4, 12, 5, "case2b")
    with pytest.raises(ValueError, match="n >= 4"):
        gen_path_family(3, 9, 4, "case1")
    with pytest.raises(ValueError, match="a < 7b/4"):
        gen_c3_family(5, 2, "case1")
    with pytest.raises(ValueError, match="case2_low"):
        gen_c3_family(5, 2, "case2_low")
    with pytest.raises(ValueError, match="no counterexample"):
        gen_flower(5, 3, 1)
    with pytest.raises(ValueError, match="unknown variant"):
        gen_c3_family(3, 2, "case3")


# --- verification and serialization -------------------------------------------

def test_verify_reports_size_violation():
    cert = gen_sep_small_ratio(4, 2, 1)
    bad_lists = list(cert.assignment.lists)
    bad_lists[1] = bad_lists[1] | {99}
    tampered = dataclasses.replace(
        cert,
        assignment=assignment_unchecked(cert.graph, bad_lists, cert.a, None),
    )
    ok, reason = verify_certificate(tampered)
    assert not ok
    assert "size 4, expected 3" in reason


def test_verify_reports_separation_violation():
    cert = gen_sep_small_ratio(4, 2, 1)
    tampered = dataclasses.replace(cert, c=1)
    ok, reason = verify_certificate(tampered)
    assert not ok
    assert reason.startswith("separation")


def test_verify_reports_claim_mismatch():
    cert = dataclasses.replace(gen_sep_small_ratio(4, 2, 1), claim="colorable")
    ok, reason = verify_certificate(cert)
    assert not ok
    assert "solver says uncolorable" in reason


def test_verify_respects_budget():
    with pytest.raises(BudgetExceeded):
        verify_certificate(gen_sep_small_ratio(4, 2, 1), budget=0)


def test_certificate_json_round_trip():
    for cert in [
        gen_sep_small_ratio(4, 2, 1),
        gen_c3_family(3, 2, "case1"),
        glue_path_to_cycle(gen_path_family(5, 9, 4, "case2b")),
        fig1_fixture(),
    ]:
        back = cert_from_json_dict(cert_to_json_dict(cert))
        assert back.graph == cert.graph
        assert back.assignment.lists == cert.assignment.lists
        assert back.precolored == cert.precolored
        assert (back.a, back.b, back.c, back.claim, back.family) == (
            cert.a, cert.b, cert.c, cert.claim, cert.family,
        )
        assert verify_certificate(back)[0]


def test_generators_are_deterministic():
    one = gen_path_family(5, 9, 4, "case2b")
    two = gen_path_family(5, 9, 4, "case2b")
    assert one.assignment.lists == two.assignment.lists
