import dataclasses
import hashlib
import json

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
from test_acceptance import _certificate_grid

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
    # k = 0: the edge blocks are empty, each list is the shared color plus its filler
    cert = gen_sep_small_ratio(4, 2, 0)
    assert (cert.a, cert.b, cert.c) == (2, 2, 1)
    assert cert.assignment.lists == (F({0, 1}), F({0, 2}), F({0, 3}), F({0, 4}))
    check(cert)


def test_odd_cycle_layout():
    # with p*alpha = b-1 the edge blocks vanish and all lists coincide
    cert = gen_sep_odd_cycle(1, 2, 1)
    assert (cert.a, cert.b, cert.c) == (5, 2, 5)
    assert cert.assignment.lists == (F(range(5)),) * 3
    check(cert)
    # alpha = 0: no private blocks, so the edge blocks follow the shared one directly
    cert = gen_sep_odd_cycle(2, 4, 0)
    assert (cert.a, cert.b, cert.c) == (8, 4, 5)
    assert cert.assignment.lists == (
        F({0, 1, 2, 3, 4, 5, 6, 7}),
        F({0, 1, 5, 6, 7, 8, 9, 10}),
        F({0, 1, 8, 9, 10, 11, 12, 13}),
        F({0, 1, 11, 12, 13, 14, 15, 16}),
        F({0, 1, 2, 3, 4, 14, 15, 16}),
    )
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
    # c = 3 < b: only the first c pinned colors enter the second and next-to-last lists
    cert = gen_path_family(5, 7, 4, "case1")
    assert cert.c == 3
    assert cert.assignment.lists == (
        F(range(4)),
        F({0, 1, 2, 4, 5, 6, 7}),
        F(range(5, 12)),
        F(range(9, 16)),
        F({0, 1, 2, 13, 14, 15, 16}),
        F(range(4)),
    )
    check(cert)


def test_path_case2_layouts():
    # case2a with a disjoint right end: the whole end block enters its neighbor's list
    cert = gen_path_family(4, 12, 5, "case2a", endpoints="disjoint")
    assert cert.c == 6
    assert cert.assignment.lists == (
        F(range(5)),
        F(range(12)),
        F(range(6, 18)),
        F(range(12, 24)),
        F(range(18, 23)),
    )
    check(cert)
    # case2b, n odd: rows alternate c / c-1 overlaps and the last overlap is c
    cert = gen_path_family(5, 9, 4, "case2b")
    assert cert.c == 5
    assert cert.assignment.lists == (
        F(range(4)),
        F(range(9)),
        F(range(4, 13)),
        F(range(9, 18)),
        F({0, 1, 2, 3, 13, 14, 15, 16, 17}),
        F(range(4)),
    )
    check(cert)
    # case2b, n even: the last overlap is c-1
    cert = gen_path_family(4, 7, 3, "case2b")
    assert cert.c == 4
    assert cert.assignment.lists == (
        F(range(3)),
        F(range(7)),
        F(range(3, 10)),
        F({0, 1, 2, 7, 8, 9, 10}),
        F(range(3)),
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
    with pytest.raises(ValueError, match="need p >= 1"):
        gen_sep_odd_cycle(0, 2, 0)
    with pytest.raises(ValueError, match="unknown endpoints mode 'both'"):
        gen_path_family(4, 9, 4, "case1", endpoints="both")
    with pytest.raises(ValueError, match="unknown variant 'case3'"):
        gen_path_family(4, 9, 4, "case3")
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
    with pytest.raises(ValueError, match="cycle copies need p >= 3"):
        gen_flower(2, 3, 1)
    with pytest.raises(ValueError, match="unknown variant"):
        gen_c3_family(3, 2, "case3")


# --- verification and serialization -------------------------------------------

def test_verify_reports_size_violation():
    d = cert_to_json_dict(gen_sep_small_ratio(4, 2, 1))
    d["lists"][1] = d["lists"][1] + [99]
    tampered = cert_from_json_dict(d)
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


def test_json_round_trip_keeps_every_criterion_4_certificate():
    # the acceptance suite's certificates and flowers, plus the fig1 cactus
    flowers = []
    for p in range(3, 9):
        for b in range(1, 5):
            for a in range(b, 4 * b + 1):
                try:
                    flowers.append(gen_flower(p, a, b))
                except ValueError:
                    continue
    for cert in _certificate_grid() + flowers + [fig1_fixture()]:
        back = cert_from_json_dict(json.loads(json.dumps(cert_to_json_dict(cert))))
        assert back == cert
        assert verify_certificate(back) == (True, "ok"), cert.family


# byte goldens, recorded before certificates took their graph, a and list JSON from the assignment
_C3_CASE2_LOW_JSON = (
    '{"graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "cycle_order": [0, 1, 2]}, "a": 7, "b": 4, "c": 3, '
    '"lists": [[0, 1, 2, 3], [0, 1, 2, 4, 5, 6, 7], [3, 4, 5, 6, 8, 9, 10]], "claim": "uncolorable", '
    '"family": "triangle-case2-low", "precolored": {"vertex": 0}}'
)
_FLOWER_DIGEST = "5acdd003ca6a687f9fe38482d0d427e651276db01ee4427771a7c26d773d5dad"


def test_pinned_certificate_json_golden():
    # the pin is the last key, after claim and family
    assert json.dumps(cert_to_json_dict(gen_c3_family(7, 4, "case2_low"))) == _C3_CASE2_LOW_JSON


def test_flower_digest():
    h, built = hashlib.sha256(), 0
    for p in range(3, 7):
        for b in range(1, 4):
            for a in range(b, 3 * b + 1):
                try:
                    text = json.dumps(cert_to_json_dict(gen_flower(p, a, b)))
                    built += 1
                except ValueError:
                    text = "refused"
                h.update(text.encode() + b"\n")
    assert (built, h.hexdigest()) == (38, _FLOWER_DIGEST)


def test_flower_refusal_names_every_variant():
    # the flower copies the first variant its family's generator accepts
    with pytest.raises(ValueError) as info:
        gen_flower(4, 1, 1)
    assert str(info.value) == (
        "no copy layout fits (p=4, a=1, b=1): case1 layout needs a >= 2c (a=1, c=1); "
        "case2a needs the middle regime, got low; case2b needs the middle regime, got low"
    )


def test_certificate_graph_and_a_come_from_the_assignment():
    cert = gen_path_family(5, 9, 4, "case2b")
    assert [f.name for f in dataclasses.fields(cert)] == ["b", "c", "assignment", "claim", "family"]
    assert (cert.graph, cert.a, cert.precolored) == (
        cert.assignment.graph, cert.assignment.a, cert.assignment.precolored,
    )
    with pytest.raises(TypeError):
        dataclasses.replace(cert, graph=cert.graph)


def test_generators_are_deterministic():
    one = gen_path_family(5, 9, 4, "case2b")
    two = gen_path_family(5, 9, 4, "case2b")
    assert one.assignment.lists == two.assignment.lists
