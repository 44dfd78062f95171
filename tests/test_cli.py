import io
import json

from sepchoose import build_cycle, cert_to_json_dict, fig1_fixture, gen_sep_small_ratio
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


def test_verify_malformed_input(capsys, tmp_path):
    cpath = tmp_path / "cert.json"
    cpath.write_text("{not json")
    rc, _, err = run(capsys, "verify", str(cpath))
    assert rc == 2
    assert err.startswith("malformed certificate")


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
    gpath = write_json(tmp_path / "g.json", build_cycle(4).to_json_dict())
    lists = {"lists": [[1, 2], [2, 3], [3, 4], [4, 1]], "precolored": {"vertex": 0}}
    lpath = write_json(tmp_path / "l.json", lists)
    rc, out, err = run(capsys, "color", "cycle", "--graph", gpath, "--lists", lpath, "--b", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("coloring failed: precolored vertex must carry exactly b colors")


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
