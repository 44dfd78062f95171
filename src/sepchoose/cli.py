"""Command-line front end.

Subcommands: formula (closed forms), solve (exact decisions), adversary
(certificate generation), color (constructive procedures), sweep
(formula-vs-oracle CSV tables), verify (certificate re-checking).  The
first four take a kind (formula sep-cycle, adversary path, ...), and each
kind accepts exactly the flags it reads; `sepchoose <cmd> <kind> --help`
lists them.

Exit codes: 0 for an affirmative outcome, 1 for a determined negative one
(not choosable, verification failed, coloring failed, sweep mismatch), 2
for usage errors, a malformed input file, out-of-regime parameters, input
a colorer cannot take, or budget exhaustion, and 141 (as if killed by
SIGPIPE) when the reader closes stdout early.  solve, sweep and verify
take a node budget: 10^7 by default, SEPCHOOSE_BUDGET overrides it, and
--budget wins over both; zero or negative means unlimited.  --out FILE
writes the payload of every subcommand but verify to FILE.  Either flag,
given before a subcommand that does not read it, is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .adversary import (
    cert_from_json_dict,
    cert_to_json_dict,
    fig1_fixture,
    gen_c3_family,
    gen_flower,
    gen_path_family,
    gen_sep_odd_cycle,
    gen_sep_small_ratio,
    verify_certificate,
)
from .colorers import (
    ColoringInputError,
    ColoringPlan,
    cactus_free_color,
    cycle_color_precolored,
    greedy_cycle,
    lift_cycle,
    outerplanar_color,
    path_color_precolored,
)
from .formulas import (
    fsep_cactus,
    fsep_cycle,
    fsep_min_with_triangle,
    fsep_outerplanar_bounds,
    sep_cycle,
)
from .graphs import build_cycle, graph_from_json_dict
from .lists import assignment_from_json_dict
from .solver import BudgetExceeded, compute_sep, decide_choosable

DEFAULT_BUDGET = 10_000_000


def _budget_from(args) -> int | None:
    raw = args.budget
    if raw is None:
        env = os.environ.get("SEPCHOOSE_BUDGET")
        try:
            raw = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise SystemExit2(f"SEPCHOOSE_BUDGET: expected an integer, got {env!r}") from None
    return None if raw <= 0 else raw


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_json(path: str, build, *args):
    """build(the JSON payload of path, or of stdin for '-', *args); a payload that fails either is a usage error."""
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        try:
            return build(json.load(fh), *args)
        except (ValueError, RecursionError) as e:
            raise SystemExit2(f"malformed JSON in {path}: {e}") from None


def _need(args, names: list[str]) -> list:
    vals = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise SystemExit2(f"missing required flag --{name.replace('_', '-')}")
        vals.append(v)
    return vals


class SystemExit2(Exception):
    """Usage or regime error; main maps it to exit code 2."""


def _outer_bounds(n: int, a: int, b: int) -> str:
    """The girth sandwich as text; the other formula kinds return a FormulaResult."""
    lo, hi = fsep_outerplanar_bounds(n, a, b)
    if lo.exact:
        return f"{lo.value} (regime: {lo.regime}, exact)"
    return f"{lo.value}..{hi.value} (regime: {lo.regime}..{hi.regime})"


def cmd_formula(args, fn, *vals) -> int:
    r = fn(*vals)
    _emit(r if isinstance(r, str) else f"{r.value} (regime: {r.regime})", args.out)
    return 0


def _check(args, g, a, b, c) -> int:
    out = decide_choosable(g, a, b, c, free=args.free, budget=_budget_from(args))
    if out.colorable:
        _emit(f"choosable (explored {out.nodes_explored} nodes)", args.out)
        return 0
    L = out.counterexample.to_json_dict()
    _emit(json.dumps({"verdict": "not choosable", "counterexample": L.pop("lists"), **L}), args.out)
    return 1


def _sep(args, g, a, b) -> int:
    _emit(str(compute_sep(g, a, b, free=args.free, budget=_budget_from(args))), args.out)
    return 0


def cmd_solve(args, solve, path, *vals) -> int:
    return solve(args, _load_json(path, graph_from_json_dict), *vals)


def cmd_adversary(args, gen, *vals) -> int:
    _emit(json.dumps(cert_to_json_dict(gen(*vals))), args.out)
    return 0


def cmd_color(args, colorer, gpath, lpath, b, *k) -> int:
    if b < 1 or min(k, default=0) < 0:
        raise SystemExit2("b must be positive" if b < 1 else "need k >= 0")
    g = _load_json(gpath, graph_from_json_dict)
    L = _load_json(lpath, assignment_from_json_dict, g)
    plan = ColoringPlan(strategy=args.kind)
    try:
        phi = colorer(L, b, *k, plan=plan)
    except ColoringInputError:
        raise
    except ValueError as e:
        print(f"coloring failed: {e}", file=sys.stderr)
        return 1
    payload = {"coloring": [sorted(s) for s in phi], "plan": plan.to_json_dict()}
    _emit(json.dumps(payload), args.out)
    return 0


def cmd_sweep(args, _, n_max, a_max, b_max) -> int:
    if n_max < 3 or a_max < 1 or b_max < 1:
        raise SystemExit2("sweep needs n >= 3 and positive a, b bounds")
    budget = _budget_from(args)
    rows = [(n, a, b) for n in range(3, n_max + 1) for a in range(1, a_max + 1) for b in range(1, min(a, b_max) + 1)]
    lines = ["n,a,b,formula_sep,oracle_sep,formula_fsep,oracle_fsep,match"]
    verified = mismatches = 0
    for n, a, b in rows:
        g, cells = build_cycle(n), [n, a, b]  # cells: then each variant's formula and oracle value
        for free, formula in ((False, sep_cycle), (True, fsep_cycle)):
            cells.append(formula(n, a, b).value)
            try:
                cells.append(compute_sep(g, a, b, free=free, budget=budget))
            except BudgetExceeded:
                cells.append("unknown")
        match = all(o in ("unknown", f) for f, o in (cells[3:5], cells[5:7]))
        verified += "unknown" not in cells
        mismatches += not match
        lines.append(",".join(map(str, cells)) + f",{str(match).lower()}")
    _emit("\n".join(lines), args.out)
    print(f"mismatches: {mismatches} (verified {verified} of {len(rows)} rows)")
    return 0 if mismatches == 0 else 1


def cmd_verify(args, _) -> int:
    cert = _load_json(args.certificate or "-", cert_from_json_dict)
    ok, reason = verify_certificate(cert, budget=_budget_from(args))
    if ok:
        print(f"ok: {cert.family} claim {cert.claim!r} confirmed")
        return 0
    print(f"failed: {reason}", file=sys.stderr)
    return 1


# Every flag a kind can read.  Only the top-level parser holds defaults, so none
# clobbers a flag given before the subcommand; a flag with one is never missing.
_FLAGS: dict[str, dict] = {
    **{name: {"type": int} for name in ("n", "a", "b", "c", "k", "alpha", "p")},
    "graph": {"help": "graph JSON file"},
    "lists": {"help": "list assignment JSON file"},
    "variant": {},
    "endpoints": {"default": "equal", "choices": ["equal", "disjoint"]},
    "free": {"action": "store_true", "default": False, "help": "pin one vertex to a b-list"},
    "budget": {"type": int, "help": "node budget; <= 0 for unlimited"},
    "out": {"help": "write the payload to this file"},
}

# subcommand -> (help, runner, optional flags, {kind: (flags, fn)}); main calls
# runner(args, fn, *the flags' values).  sweep and verify have the one kind None.
_COLOR = ["graph", "lists", "b"]
_COMMANDS = {
    "formula": ("closed-form values with regimes; for outer-bounds --n is the girth", cmd_formula, ["out"], {
        "sep-cycle": (["n", "a", "b"], sep_cycle),
        "fsep-cycle": (["n", "a", "b"], fsep_cycle),
        "fsep-cactus": (["graph", "a", "b"], lambda path, a, b: fsep_cactus(_load_json(path, graph_from_json_dict), a, b)),
        "outer-bounds": (["n", "a", "b"], _outer_bounds),
        "min-c3": (["n", "a", "b"], fsep_min_with_triangle),
    }),
    "solve": ("exact decisions by exhaustive search", cmd_solve, ["free", "budget", "out"], {
        "check": (["graph", "a", "b", "c"], _check),
        "sep": (["graph", "a", "b"], _sep),
    }),
    "adversary": ("generate an uncolorable certificate", cmd_adversary, ["out"], {
        "c3": (["a", "b", "variant"], gen_c3_family),
        "fig1": ([], fig1_fixture),
        "flower": (["p", "a", "b"], gen_flower),
        "odd-cycle": (["p", "b", "alpha"], gen_sep_odd_cycle),
        "path": (["n", "a", "b", "variant", "endpoints"], gen_path_family),
        "small-ratio": (["n", "b", "k"], gen_sep_small_ratio),
    }),
    "color": ("run a constructive coloring procedure", cmd_color, ["out"], {
        "greedy": (_COLOR, greedy_cycle),
        "lift": ([*_COLOR, "k"], lift_cycle),
        "path": (_COLOR, path_color_precolored),
        "cycle": (_COLOR, cycle_color_precolored),
        "cactus": (_COLOR, cactus_free_color),
        "outerplanar": (_COLOR, outerplanar_color),
    }),
    "sweep": ("formula-vs-oracle CSV over a cycle grid", cmd_sweep, ["budget", "out"], {None: (["n", "a", "b"], None)}),
    "verify": ("re-check a certificate file", cmd_verify, ["budget"], {None: ([], None)}),
}


def _build_parser() -> argparse.ArgumentParser:
    def add(parser, names):
        for name in names:
            parser.add_argument(f"--{name}", **{**_FLAGS[name], "default": argparse.SUPPRESS})
        return parser

    p = add(argparse.ArgumentParser(prog="sepchoose", description=__doc__.splitlines()[0]), ["budget", "out"])
    p.set_defaults(kind=None, **{name: spec.get("default") for name, spec in _FLAGS.items()})
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, (help_, _, optional, kinds) in _COMMANDS.items():
        sp = add(sub.add_parser(cmd, help=help_), optional)
        if None in kinds:
            add(sp, kinds[None][0])
            continue
        by_kind = sp.add_subparsers(dest="kind", required=True)
        for kind, (flags, _) in kinds.items():
            add(by_kind.add_parser(kind), flags + optional)
    sub.choices["verify"].add_argument("certificate", nargs="?", help="certificate JSON; stdin when omitted or '-'")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _, run, optional, kinds = _COMMANDS[args.command]
        # the top-level parser takes --budget and --out before any subcommand
        for name in ("budget", "out"):
            if getattr(args, name) is not None and name not in optional:
                parser.error(f"{args.command} does not read --{name}")
    except SystemExit as e:
        return int(e.code or 0)
    flags, fn = kinds[args.kind]
    try:
        return run(args, fn, *_need(args, flags))
    except BudgetExceeded as e:
        print(f"unknown: budget exhausted after {e.nodes_explored} nodes", file=sys.stderr)
        return 2
    except MemoryError:
        # like an exhausted budget, running out of memory decides nothing
        print("unknown: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader gone: exit quietly as SIGPIPE would; devnull lets the last flush pass
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (SystemExit2, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
