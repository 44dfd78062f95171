import copy
import functools
import io
import json
import operator
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import sepchoose
from sepchoose import (
    FormulaResult,
    Graph,
    ListAssignment,
    build_cycle,
    build_path,
    cert_to_json_dict,
    fig1_fixture,
    gen_sep_small_ratio,
    is_valid_coloring,
)
from sepchoose.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# --- formula ----------------------------------------------------------------

def test_formula_sep_cycle(capsys):
    rc, out, _ = run(capsys, "formula", "sep-cycle", "--n", "5", "--a", "9", "--b", "4")
    assert rc == 0
    assert out == "7 (regime: odd-middle)\n"


def test_formula_fsep_cycle(capsys):
    rc, out, _ = run(capsys, "formula", "fsep-cycle", "--n", "3", "--a", "2", "--b", "1")
    assert rc == 0
    assert out == "1 (regime: c3-middle)\n"


def test_formula_outer_bounds(capsys):
    rc, out, _ = run(capsys, "formula", "outer-bounds", "--n", "5", "--a", "9", "--b", "4")
    assert rc == 0
    assert out == "3..4 (regime: low..middle)\n"
    rc, out, _ = run(capsys, "formula", "outer-bounds", "--n", "5", "--a", "3", "--b", "1")
    assert rc == 0
    assert out == "3 (regime: high, exact)\n"


def test_formula_fsep_cactus(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", fig1_fixture().graph.to_json_dict())
    rc, out, _ = run(capsys, "formula", "fsep-cactus", "--graph", gpath, "--a", "5", "--b", "2")
    assert rc == 0
    assert out == "5 (regime: girth)\n"


def test_formula_fsep_cactus_malformed_graph(capsys, tmp_path):
    gpath = write_json(tmp_path / "bad.json", {"n": 3})
    rc, _, err = run(capsys, "formula", "fsep-cactus", "--graph", gpath, "--a", "2", "--b", "1")
    assert rc == 2
    assert err.startswith("error: malformed JSON")


def test_formula_missing_flag(capsys):
    rc, _, err = run(capsys, "formula", "sep-cycle", "--n", "5", "--a", "9")
    assert rc == 2
    assert "missing required flag --b" in err


def test_formula_rejects_bad_parameters(capsys):
    rc, _, err = run(capsys, "formula", "sep-cycle", "--n", "5", "--a", "1", "--b", "4")
    assert rc == 2
    assert err.startswith("error:")


# --- solve --------------------------------------------------------------------

def test_solve_check_positive(capsys, tmp_path):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    rc, out, _ = run(capsys, "solve", "check", "--graph", gpath, "--a", "2", "--b", "1", "--c", "1")
    assert rc == 0
    assert out.startswith("choosable (explored ")


def test_solve_check_negative_free(capsys, tmp_path):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    rc, out, _ = run(
        capsys, "solve", "check", "--graph", gpath, "--a", "2", "--b", "1", "--c", "2", "--free"
    )
    assert rc == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not choosable"
    assert len(payload["counterexample"]) == 4
    assert "precolored" in payload


def test_solve_check_stdout_golden(capsys, tmp_path):
    # recorded before the payload took its lists and pin from ListAssignment.to_json_dict
    k4e = write_json(tmp_path / "k4e.json", {"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]})
    rc, out, _ = run(capsys, "solve", "check", "--graph", k4e, "--a", "4", "--b", "2", "--c", "2", "--free")
    assert rc == 1
    assert out == ('{"verdict": "not choosable", "counterexample": [[0, 1], [0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]], '
                   '"precolored": {"vertex": 0}}\n')


def test_solve_sep(capsys, tmp_path):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    rc, out, _ = run(capsys, "solve", "sep", "--graph", gpath, "--a", "2", "--b", "1")
    assert rc == 0
    assert out == "2\n"


def test_solve_malformed_graph(capsys, tmp_path):
    # exit 1 is a determined negative; a graph without "edges" is a usage error
    gpath = write_json(tmp_path / "bad.json", {"n": 3})
    rc, _, err = run(capsys, "solve", "sep", "--graph", gpath, "--a", "2", "--b", "1")
    assert rc == 2
    assert err.startswith("error: malformed JSON")
    assert "Traceback" not in err


def test_solve_budget_exhaustion(capsys, tmp_path):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    rc, _, err = run(
        capsys, "solve", "sep", "--graph", gpath, "--a", "3", "--b", "1", "--budget", "1"
    )
    assert rc == 2
    assert err.startswith("unknown: budget exhausted")


def test_solve_budget_zero_is_unlimited(capsys, tmp_path):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    rc, out, _ = run(
        capsys, "solve", "sep", "--graph", gpath, "--a", "3", "--b", "1", "--budget", "0"
    )
    assert rc == 0
    assert out == "3\n"


def test_budget_flag_before_subcommand(capsys, tmp_path):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    rc, _, err = run(capsys, "--budget", "1", "solve", "sep", "--graph", gpath, "--a", "3", "--b", "1")
    assert rc == 2
    assert "budget exhausted" in err


def test_budget_env_variable(capsys, tmp_path, monkeypatch):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    monkeypatch.setenv("SEPCHOOSE_BUDGET", "1")
    rc, _, err = run(capsys, "solve", "sep", "--graph", gpath, "--a", "3", "--b", "1")
    assert rc == 2
    assert "budget exhausted" in err
    # an explicit flag beats the environment
    rc, out, _ = run(capsys, "solve", "sep", "--graph", gpath, "--a", "3", "--b", "1", "--budget", "0")
    assert rc == 0
    assert out == "3\n"


@pytest.mark.parametrize("raw", ["abc", "1e3", " "])
def test_budget_env_variable_malformed(capsys, tmp_path, monkeypatch, raw):
    gpath = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    monkeypatch.setenv("SEPCHOOSE_BUDGET", raw)
    rc, out, err = run(capsys, "solve", "sep", "--graph", gpath, "--a", "3", "--b", "1")
    assert (rc, out) == (2, "")
    assert err == f"error: SEPCHOOSE_BUDGET: expected an integer, got {raw!r}\n"


# --- adversary and verify -----------------------------------------------------

def test_adversary_verify_round_trip(capsys, tmp_path):
    cpath = str(tmp_path / "cert.json")
    rc, _, _ = run(capsys, "adversary", "small-ratio", "--n", "4", "--b", "2", "--k", "1", "--out", cpath)
    assert rc == 0
    rc, out, _ = run(capsys, "verify", cpath)
    assert rc == 0
    assert out == "ok: cycle-small-ratio claim 'uncolorable' confirmed\n"


def test_adversary_stdout_pipe_to_verify(capsys, monkeypatch):
    rc, out, _ = run(capsys, "adversary", "fig1")
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    assert "ok: fig1" in out


def test_adversary_out_of_regime(capsys):
    rc, _, err = run(capsys, "adversary", "flower", "--p", "5", "--a", "3", "--b", "1")
    assert rc == 2
    assert "no counterexample exists" in err


def test_adversary_missing_variant(capsys):
    rc, _, err = run(capsys, "adversary", "c3", "--a", "3", "--b", "2")
    assert rc == 2
    assert "missing required flag --variant" in err


def test_verify_rejects_enlarged_list(capsys, tmp_path):
    d = cert_to_json_dict(gen_sep_small_ratio(4, 2, 1))
    d["lists"][1] = d["lists"][1] + [99]
    cpath = write_json(tmp_path / "cert.json", d)
    rc, _, err = run(capsys, "verify", cpath)
    assert rc == 1
    assert "size 4, expected 3" in err


def test_verify_rejects_flipped_claim(capsys, tmp_path):
    d = cert_to_json_dict(gen_sep_small_ratio(4, 2, 1))
    d["claim"] = "colorable"
    cpath = write_json(tmp_path / "cert.json", d)
    rc, _, err = run(capsys, "verify", cpath)
    assert rc == 1
    assert "solver says uncolorable" in err


def test_verify_budget_exhaustion(capsys, tmp_path):
    # an exhausted budget leaves the verdict unknown: exit 2, not a traceback
    cpath = str(tmp_path / "flower.json")
    assert run(capsys, "adversary", "flower", "--p", "3", "--a", "5", "--b", "2", "--out", cpath)[0] == 0
    rc, out, err = run(capsys, "verify", "--budget", "1", cpath)
    assert (rc, out) == (2, "")
    assert err.startswith("unknown: budget exhausted after ")


def test_verify_malformed_input(capsys, tmp_path):
    cpath = tmp_path / "cert.json"
    cpath.write_text("{not json")
    rc, _, err = run(capsys, "verify", str(cpath))
    assert rc == 2
    assert err.startswith("error: malformed JSON in")


# --- sweep --------------------------------------------------------------------

def test_sweep_csv_golden(capsys):
    rc, out, _ = run(capsys, "sweep", "--n", "3", "--a", "2", "--b", "1")
    assert rc == 0
    assert out.splitlines() == [
        "n,a,b,formula_sep,oracle_sep,formula_fsep,oracle_fsep,match",
        "3,1,1,0,0,0,0,true",
        "3,2,1,1,1,1,1,true",
        "mismatches: 0 (verified 2 of 2 rows)",
    ]


def test_sweep_flags_a_wrong_formula(capsys, monkeypatch):
    monkeypatch.setattr(sepchoose.cli, "sep_cycle", lambda n, a, b: FormulaResult(a + 1, "wrong"))
    rc, out, _ = run(capsys, "sweep", "--n", "3", "--a", "2", "--b", "1")
    assert rc == 1
    assert out.splitlines()[1:] == [
        "3,1,1,2,0,0,0,false",
        "3,2,1,3,1,1,1,false",
        "mismatches: 2 (verified 2 of 2 rows)",
    ]


def test_sweep_budget_marks_unknown(capsys):
    rc, out, _ = run(capsys, "sweep", "--n", "3", "--a", "2", "--b", "1", "--budget", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "3,1,1,0,unknown,0,unknown,true"
    assert lines[-1] == "mismatches: 0 (verified 0 of 2 rows)"


def test_sweep_to_file(capsys, tmp_path):
    opath = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "sweep", "--n", "3", "--a", "2", "--b", "1", "--out", str(opath))
    assert rc == 0
    assert out == "mismatches: 0 (verified 2 of 2 rows)\n"
    assert opath.read_text().splitlines()[0] == "n,a,b,formula_sep,oracle_sep,formula_fsep,oracle_fsep,match"


def test_sweep_rejects_bad_bounds(capsys):
    rc, _, err = run(capsys, "sweep", "--n", "2", "--a", "1", "--b", "1")
    assert rc == 2
    assert "sweep needs" in err


# --- color ---------------------------------------------------------------------

def test_color_greedy(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", build_cycle(4).to_json_dict())
    lpath = write_json(
        tmp_path / "l.json", {"lists": [[0, 1, 2], [3, 4, 5], [0, 1, 2], [3, 4, 5]]}
    )
    rc, out, _ = run(capsys, "color", "greedy", "--graph", gpath, "--lists", lpath, "--b", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["coloring"] == [[0], [3], [0], [3]]
    assert payload["plan"]["strategy"] == "greedy"
    assert len(payload["plan"]["steps"]) == 4


def test_color_malformed_inputs(capsys, tmp_path):
    good = write_json(tmp_path / "c4.json", build_cycle(4).to_json_dict())
    bad_graph = write_json(tmp_path / "bad.json", {"n": 4, "edges": 5})
    lists = write_json(tmp_path / "lists.json", {"lists": [[0, 1], [1, 2], [0, 1], [1, 2]]})
    bad_lists = write_json(tmp_path / "badlists.json", {"colors": []})
    for gpath, lpath in [(bad_graph, lists), (good, bad_lists)]:
        rc, _, err = run(capsys, "color", "greedy", "--graph", gpath, "--lists", lpath, "--b", "1")
        assert rc == 2
        assert err.startswith("error: malformed JSON")


def test_color_failure_is_exit_one(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", build_cycle(3).to_json_dict())
    lpath = write_json(tmp_path / "l.json", {"lists": [[1, 2], [1, 2], [1, 2]]})
    rc, _, err = run(capsys, "color", "greedy", "--graph", gpath, "--lists", lpath, "--b", "1")
    assert rc == 1
    assert err.startswith("coloring failed:")


def test_color_cycle_rejects_pin_without_b_colors(capsys, tmp_path):
    # a pin that is not a b-list is an input error, found before any color is picked
    gpath = write_json(tmp_path / "g.json", build_cycle(4).to_json_dict())
    lists = {"lists": [[1, 2], [2, 3], [3, 4], [4, 1]], "precolored": {"vertex": 0}}
    lpath = write_json(tmp_path / "l.json", lists)
    rc, out, err = run(capsys, "color", "cycle", "--graph", gpath, "--lists", lpath, "--b", "1")
    assert (rc, out) == (2, "")
    assert err == "error: precolored vertex must carry exactly b colors\n"


# a colorer's checks before it picks any color (graph kind or annotation, pin,
# k against the list width) are usage errors, not determined negatives
_C4_LISTS = {"lists": [[0, 1, 2], [3, 4, 5], [0, 1, 2], [3, 4, 5]]}
PRECONDITIONS = [
    ("greedy", build_path(3), {"lists": [[0], [0, 1], [1]]}, [], "greedy_cycle needs a cycle"),
    ("cycle", build_cycle(4), _C4_LISTS, [], "no pinned vertex"),
    ("path", build_cycle(4), _C4_LISTS, [], "path_color_precolored needs a path"),
    ("outerplanar", build_cycle(4), {**_C4_LISTS, "precolored": {"vertex": 0}}, [],
     "outerplanar coloring needs the inner faces"),
    ("lift", build_cycle(4), _C4_LISTS, ["--k", "2"], "lists too narrow to shed 2k colors (a=3, k=2)"),
]


@pytest.mark.parametrize("strategy, g, lists, extra, message", PRECONDITIONS,
                         ids=[c[0] for c in PRECONDITIONS])
def test_color_preconditions_are_usage_errors(capsys, tmp_path, strategy, g, lists, extra, message):
    gpath = write_json(tmp_path / "g.json", g.to_json_dict())
    lpath = write_json(tmp_path / "l.json", lists)
    rc, out, err = run(capsys, "color", strategy, "--graph", gpath, "--lists", lpath, "--b", "1", *extra)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"


# one colorable and one uncolorable instance each for `color path` (P3,
# unpinned), `color cactus` (the fig1 two-square cactus pinned at its hub)
# and `color outerplanar` (a snake of two square faces pinned at 0), with
# the deficient span that the failure names
_FIG1 = fig1_fixture().graph
_SNAKE = Graph(n=6, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (3, 5)}),
               faces=((0, 1, 2, 3), (2, 4, 5, 3)))
COLOR_CASES = [
    ("path", build_path(3), [[0, 1], [0, 1, 2], [2, 3]], [[0], [0, 1], [1]], "1..3 of the path supply 2 colors, need 3"),
    ("cactus", _FIG1, [[1], [2, 3], [3, 4], [4, 5], [2, 3], [3, 4], [4, 5]],
     [[1], [1, 3], [3, 4], [1, 4], [2, 3], [3, 4], [2, 4]], "1..5 of the path supply 4 colors, need 5"),
    ("outerplanar", _SNAKE, [[0], [0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
     [[0], [0, 1], [1, 2], [0, 2], [3, 4], [4, 5]], "1..5 of the path supply 4 colors, need 5"),
]


@pytest.mark.parametrize("strategy, g, good, bad, deficit", COLOR_CASES, ids=[c[0] for c in COLOR_CASES])
def test_color_path_cactus_outerplanar(capsys, tmp_path, strategy, g, good, bad, deficit):
    gpath = write_json(tmp_path / "g.json", g.to_json_dict())
    pin = None if strategy == "path" else {"vertex": 0}
    for name, lists in (("good", good), ("bad", bad)):
        payload = {"lists": lists} if pin is None else {"lists": lists, "precolored": pin}
        lpath = write_json(tmp_path / f"{name}.json", payload)
        rc, out, err = run(capsys, "color", strategy, "--graph", gpath, "--lists", lpath, "--b", "1")
        if name == "bad":
            assert (rc, out) == (1, "")
            assert err == f"coloring failed: no coloring: positions {deficit}\n"
            continue
        assert rc == 0
        L = ListAssignment(graph=g, lists=tuple(frozenset(s) for s in lists),
                           a=max(map(len, lists)), precolored=None if pin is None else 0)
        phi = tuple(frozenset(s) for s in json.loads(out)["coloring"])
        assert is_valid_coloring(L, phi, 1)


@pytest.mark.parametrize("strategy, b, k", [("greedy", "0", None), ("greedy", "-2", None),
                                           ("path", "0", None), ("lift", "1", "-1")])
def test_color_range_errors_are_usage_errors(capsys, tmp_path, strategy, b, k):
    gpath = write_json(tmp_path / "g.json", build_cycle(4).to_json_dict())
    lpath = write_json(tmp_path / "l.json", {"lists": [[0, 1, 2], [3, 4, 5], [0, 1, 2], [3, 4, 5]]})
    argv = ["color", strategy, "--graph", gpath, "--lists", lpath, "--b", b] + (["--k", k] if k else [])
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == ("error: b must be positive\n" if k is None else "error: need k >= 0\n")


def test_color_lift(capsys, tmp_path):
    gpath = write_json(tmp_path / "g.json", build_cycle(3).to_json_dict())
    lists = [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]
    lpath = write_json(tmp_path / "l.json", {"lists": lists})
    rc, out, _ = run(
        capsys, "color", "lift", "--graph", gpath, "--lists", lpath, "--b", "1", "--k", "1"
    )
    assert rc == 0
    payload = json.loads(out)
    assert all(len(cs) == 2 for cs in payload["coloring"])


# --- malformed input files ------------------------------------------------------

_CERT = cert_to_json_dict(gen_sep_small_ratio(4, 2, 1))
_C4 = build_cycle(4).to_json_dict()
_DEEP = "[" * 100_000


def _cert_with(**fields):
    return {**_CERT, **fields}


def _lists_with(*path_value, **fields):
    lists = [list(L) for L in _C4_LISTS["lists"]]
    for (v, i), value in path_value:
        lists[v][i] = value
    return {"lists": lists, **fields}


def _verify(cert):
    return ["verify", "c.json"], {"c.json": cert}


def _color(lists, graph=_C4, kind="greedy"):
    return ["color", kind, "--graph", "g.json", "--lists", "l.json", "--b", "1"], {"g.json": graph, "l.json": lists}


def _graph(cmd, graph):
    kind = ["solve", "sep"] if cmd == "solve" else ["formula", "fsep-cactus"]
    return [*kind, "--graph", "g.json", "--a", "2", "--b", "1"], {"g.json": graph}


# every case exits 2 and names the bad field (or the file, for input that does not parse)
MALFORMED = {
    "verify negative color": (*_verify(_cert_with(lists=[[-1, 1, 2]] + _CERT["lists"][1:])),
                              "certificate.lists[0][0]: expected an int >= 0, got -1"),
    "verify string b": (*_verify(_cert_with(b="2")), "certificate.b: expected an int >= 1, got '2'"),
    "verify float n": (*_verify(_cert_with(graph={**_CERT["graph"], "n": 4.7})),
                       "graph.n: expected an int >= 1, got 4.7"),
    "verify float color": (*_verify(_cert_with(lists=[[1.5, 1, 2]] + _CERT["lists"][1:])),
                           "certificate.lists[0][0]: expected an int >= 0, got 1.5"),
    "verify a 0": (*_verify(_cert_with(a=0)), "certificate.a: expected an int >= 1, got 0"),
    "verify bool a": (*_verify(_cert_with(a=True)), "certificate.a: expected an int >= 1, got True"),
    "verify int claim": (*_verify(_cert_with(claim=5)),
                         "certificate.claim: expected 'colorable' or 'uncolorable', got 5"),
    "verify string pin": (*_verify(_cert_with(precolored="x")),
                          "certificate.precolored: expected an object, got 'x'"),
    "verify top-level list": (*_verify([_CERT]), "certificate: expected an object, got [{'a': 3, 'b': 2, "),
    "verify deep": (*_verify(_DEEP), "malformed JSON in c.json: "),
    "color float color": (*_color(_lists_with(((0, 0), 0.5))), "assignment.lists[0][0]: expected an int >= 0, got 0.5"),
    "color string color": (*_color(_lists_with(((0, 0), "0"))),
                           "assignment.lists[0][0]: expected an int >= 0, got '0'"),
    "color string pin": (*_color(_lists_with(precolored={"vertex": "0"})),
                         "assignment.precolored.vertex: expected an int >= 0, got '0'"),
    "color float pin": (*_color(_lists_with(precolored={"vertex": 0.2})),
                        "assignment.precolored.vertex: expected an int >= 0, got 0.2"),
    "color no lists": (*_color({"lists": []}), "assignment.lists: expected graph.n = 4 lists, got 0"),
    "color deep": (*_color(_DEEP), "malformed JSON in l.json: "),
    "color cactus on K4-e": (*_color({"lists": [[0], [1, 2], [1, 2], [1, 2]], "precolored": {"vertex": 0}},
                                     {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]}, "cactus"),
                             "error: block is not a simple cycle"),
    "color cactus on two edges": (*_color({"lists": [[0], [1, 2], [1, 2], [1, 2]], "precolored": {"vertex": 0}},
                                          {"n": 4, "edges": [[0, 1], [2, 3]]}, "cactus"),
                                  "error: block decomposition needs a connected graph"),
    "color outerplanar on two triangles": (
        *_color({"lists": [[0], *[[1, 2]] * 5], "precolored": {"vertex": 0}},
                {"n": 6, "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], "faces": [[0, 1, 2], [3, 4, 5]]},
                "outerplanar"),
        "error: block decomposition needs a connected graph"),
    **{f"{cmd} {name}": (*_graph(cmd, graph), message) for cmd in ("solve", "formula") for name, graph, message in [
        ("string n", {**_C4, "n": "4"}, "graph.n: expected an int >= 1, got '4'"),
        ("bool n", {**_C4, "n": True}, "graph.n: expected an int >= 1, got True"),
        ("float endpoint", {"n": 4, "edges": [[0, 1.9], [1, 2], [2, 3], [0, 3]]},
         "graph.edges[0][1]: expected an int >= 0, got 1.9"),
        ("string edges", {"n": 4, "edges": "ab"}, "graph.edges: expected a list, got 'ab'"),
        ("deep", _DEEP, "malformed JSON in g.json: "),
    ]},
}


@pytest.mark.parametrize("argv, files, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, files, message):
    monkeypatch.chdir(tmp_path)
    for name, payload in files.items():
        (tmp_path / name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert message in err and "Traceback" not in err


def _limit_memory():
    # a regression that allocates per declared vertex fails the test, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_child(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(sepchoose.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "sepchoose.cli", *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_limit_memory)


# a graph of 10^9 vertices once exhausted memory, so these run only in a limited child
_HUGE_GRAPH = "graph.n: expected at most 2 * len(edges) + 1, got 1000000000"
HUGE_N = [
    (["solve", "sep", "--graph", "g.json", "--a", "2", "--b", "1"], _HUGE_GRAPH),
    (["formula", "fsep-cactus", "--graph", "g.json", "--a", "2", "--b", "1"], _HUGE_GRAPH),
    (["color", "greedy", "--graph", "g.json", "--lists", "l.json", "--b", "1"], _HUGE_GRAPH),
    (["verify", "c.json"], _HUGE_GRAPH),
]


@pytest.mark.parametrize("argv, message", HUGE_N, ids=[argv[0] for argv, _ in HUGE_N])
def test_huge_n_is_rejected_before_allocation(tmp_path, argv, message):
    write_json(tmp_path / "g.json", {"n": 10**9, "edges": [[0, 1]]})
    write_json(tmp_path / "l.json", {"lists": [[0], [1]]})
    write_json(tmp_path / "c.json", _cert_with(graph={**_CERT["graph"], "n": 10**9}))
    t0 = time.perf_counter()
    proc = _cli_child(*argv, cwd=tmp_path)
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_out_of_memory_is_unknown(tmp_path):
    # the b-subsets of one 200,000-color list outgrow the child's 1 GiB within seconds;
    # running out of memory decides nothing, so it exits 2 like an exhausted budget, not 1
    write_json(tmp_path / "g.json", _C4)
    proc = _cli_child("solve", "check", "--graph", "g.json", "--a", "200000", "--b", "1", "--c", "0", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "unknown: out of memory\n")


# without the refusal each of these certificates exhausts memory; the
# estimate is n * (1100 + 160 a) bytes for n vertices with a-lists
OVERSIZED = [
    ("small-ratio --n 100000000 --b 2 --k 1", "158000 MB (100000000 vertices with lists of 3 colors)"),
    ("odd-cycle --p 100000000 --b 2 --alpha 0", "348000 MB (200000001 vertices with lists of 4 colors)"),
    ("path --n 100000000 --a 7 --b 4 --variant case1", "222000 MB (100000001 vertices with lists of 7 colors)"),
    ("flower --p 3 --a 22 --b 11", "6518 MB (1410865 vertices with lists of 22 colors)"),
    # 554,269 vertices: few enough for a vertex count alone, yet it peaked at 1.76 GB
    ("flower --p 4 --a 20 --b 10", "2383 MB (554269 vertices with lists of 20 colors)"),
    ("c3 --a 100000000 --b 50000000 --variant case2_high", "48000 MB (3 vertices with lists of 100000000 colors)"),
]


@pytest.mark.parametrize("args, size", OVERSIZED, ids=["small-ratio", "odd-cycle", "path", "flower", "flower-p4", "c3"])
def test_oversized_certificate_is_refused_before_allocation(tmp_path, args, size):
    t0 = time.perf_counter()
    proc = _cli_child("adversary", *args.split(), cwd=tmp_path)
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: the certificate would take about {size}, more than 640 MB\n"
    assert proc.stdout == ""


def test_admitted_certificate_fits_in_a_limited_child(tmp_path):
    # 38,611 vertices with 16-lists, estimated at 141 MB
    proc = _cli_child("adversary", "flower", "--p", "4", "--a", "16", "--b", "8", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["graph"]["n"] == 38_611


# one valid input set per file-reading command; the fuzz test mutates one field of one file
FUZZ_BASES = {
    "solve": (["solve", "check", "--graph", "g.json", "--a", "2", "--b", "1", "--c", "1"], {"g.json": _C4}),
    "color": (["color", "cactus", "--graph", "g.json", "--lists", "l.json", "--b", "1"],
              {"g.json": _FIG1.to_json_dict(), "l.json": {"lists": COLOR_CASES[1][2], "precolored": {"vertex": 0}}}),
    "formula": (["formula", "fsep-cactus", "--graph", "g.json", "--a", "5", "--b", "2"], {"g.json": _FIG1.to_json_dict()}),
    "verify": (["verify", "c.json"], {"c.json": cert_to_json_dict(fig1_fixture())}),
}
MUTATIONS = {
    "wrong type": lambda v: 0 if isinstance(v, str) else "x",
    "float": lambda v: v + 0.5 if type(v) is int else 1.5,
    "bool": lambda v: True,
    "negative": lambda v: -1,
    "null": lambda v: None,
    "extra nesting": lambda v: [v],
    "missing": None,
}


def _json_paths(value, path=()):
    """Every path into a JSON value, through object keys and list indices."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


def _mutated(doc, path, kind):
    if not path:
        return {} if kind == "missing" else MUTATIONS[kind](doc)
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if kind == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTATIONS[kind](parent[path[-1]])
    return doc


@seed(20201019)
@settings(max_examples=24, deadline=None, database=None)
@given(st.data())
def test_one_field_mutations_exit_cleanly(data):
    argv, files = FUZZ_BASES[data.draw(st.sampled_from(sorted(FUZZ_BASES)), label="command")]
    target = data.draw(st.sampled_from(sorted(files)), label="file")
    path = data.draw(st.sampled_from(list(_json_paths(files[target]))), label="path")
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            Path(tmp, name).write_text(json.dumps(_mutated(doc, path, kind) if name == target else doc))
        proc = _cli_child(*argv, cwd=tmp)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 1:
        # exit 1 is a determined negative only
        assert proc.stderr.startswith(("failed:", "coloring failed:")) or (
            json.loads(proc.stdout)["verdict"] == "not choosable"), proc.stderr


# --- plumbing -------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_seed_flag_is_rejected(capsys):
    # no subcommand draws randomness, so the parser offers no --seed
    rc, _, err = run(capsys, "formula", "min-c3", "--seed", "3")
    assert rc == 2
    assert "unrecognized arguments: --seed 3" in err
    assert run(capsys, "--seed", "3", "formula", "min-c3")[0] == 2


def test_missing_graph_file(capsys):
    rc, _, err = run(capsys, "solve", "sep", "--graph", "/nonexistent.json", "--a", "2", "--b", "1")
    assert rc == 2
    assert err.startswith("error:")


# each kind's parser accepts exactly the flags its handler reads
REJECTED = [
    ["solve", "sep", "--graph", "g.json", "--a", "2", "--b", "1", "--n", "99"],
    ["adversary", "small-ratio", "--n", "5", "--b", "2", "--k", "1", "--c", "77"],
    ["formula", "sep-cycle", "--n", "5", "--a", "9", "--b", "4", "--graph", "g.json"],
    ["formula", "fsep-cactus", "--graph", "g.json", "--a", "5", "--b", "2", "--n", "5"],
    ["adversary", "fig1", "--n", "3"],
    ["color", "greedy", "--graph", "g.json", "--lists", "l.json", "--b", "1", "--k", "1"],
    ["formula", "sep-cycle", "--n", "5", "--a", "9", "--b", "4", "--budget", "5"],
    ["verify", "--out", "x", "cert.json"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=[" ".join(a[:2]) + " " + a[-2] for a in REJECTED])
def test_unread_flag_is_rejected(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "unrecognized arguments" in err


# --budget and --out also parse before the subcommand, which must read them
TOP_LEVEL_UNREAD = [
    (["--budget", "5", "formula", "sep-cycle", "--n", "5", "--a", "9", "--b", "4"], "formula", "--budget"),
    (["--out", "x.json", "verify", "cert.json"], "verify", "--out"),
    (["--budget", "5", "adversary", "fig1"], "adversary", "--budget"),
    (["--budget", "5", "color", "greedy", "--graph", "g.json", "--lists", "l.json", "--b", "1"], "color", "--budget"),
]


@pytest.mark.parametrize("argv, cmd, flag", TOP_LEVEL_UNREAD, ids=[f"{f} {c}" for _, c, f in TOP_LEVEL_UNREAD])
def test_top_level_flag_unread_by_subcommand_is_rejected(capsys, tmp_path, monkeypatch, argv, cmd, flag):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: {cmd} does not read {flag}\n")
    assert not (tmp_path / "x.json").exists()


def test_top_level_out_before_a_reader_writes(capsys, tmp_path):
    opath = tmp_path / "fig1.json"
    rc, out, _ = run(capsys, "--out", str(opath), "adversary", "fig1")
    assert (rc, out) == (0, "")
    assert json.loads(opath.read_text()) == cert_to_json_dict(fig1_fixture())


def test_closed_stdout_exits_141_quietly():
    # the flower payload (about 150 KB) outgrows a pipe buffer, so the write
    # after the reader has gone always fails
    env = dict(os.environ, PYTHONPATH=str(Path(sepchoose.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepchoose.cli", "adversary", "flower", "--p", "4", "--a", "12", "--b", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")
