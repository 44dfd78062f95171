"""Command-line front end.

Subcommands: formula (closed forms), solve (exact decisions), adversary
(certificate generation), color (constructive procedures), sweep
(formula-vs-oracle CSV tables), verify (certificate re-checking).

Exit codes: 0 for an affirmative outcome, 1 for a determined negative one
(not choosable, verification failed, sweep mismatch), 2 for usage errors,
out-of-regime parameters, or budget exhaustion.  The node budget defaults
to 10^7, can be set via SEPCHOOSE_BUDGET, and --budget wins over both;
zero or negative means unlimited.
"""

from __future__ import annotations

import argparse
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
from .graphs import graph_from_json_dict
from .lists import assignment_from_json_dict
from .solver import BudgetExceeded, compute_sep, decide_choosable

DEFAULT_BUDGET = 10_000_000


def _budget_from(args) -> int | None:
    raw = getattr(args, "budget", None)
    if raw is None:
        env = os.environ.get("SEPCHOOSE_BUDGET")
        raw = int(env) if env else DEFAULT_BUDGET
    return None if raw <= 0 else raw


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_json(path: str, build, *args):
    """build(json payload, *args); a payload of the wrong shape is a usage error."""
    with open(path) as fh:
        try:
            return build(json.load(fh), *args)
        except (KeyError, TypeError, json.JSONDecodeError) as e:
            raise SystemExit2(f"malformed JSON in {path}: {e!r}") from None


def _load_graph(path: str):
    return _load_json(path, graph_from_json_dict)


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


def cmd_formula(args) -> int:
    kind = args.kind
    if kind == "sep-cycle":
        n, a, b = _need(args, ["n", "a", "b"])
        r = sep_cycle(n, a, b)
        _emit(f"{r.value} (regime: {r.regime})", args.out)
    elif kind == "fsep-cycle":
        n, a, b = _need(args, ["n", "a", "b"])
        r = fsep_cycle(n, a, b)
        _emit(f"{r.value} (regime: {r.regime})", args.out)
    elif kind == "min-c3":
        n, a, b = _need(args, ["n", "a", "b"])
        r = fsep_min_with_triangle(n, a, b)
        _emit(f"{r.value} (regime: {r.regime})", args.out)
    elif kind == "outer-bounds":
        n, a, b = _need(args, ["n", "a", "b"])
        lo, hi = fsep_outerplanar_bounds(n, a, b)
        if lo.value == hi.value:
            _emit(f"{lo.value} (regime: {lo.regime}, exact)", args.out)
        else:
            _emit(f"{lo.value}..{hi.value} (regime: {lo.regime}..{hi.regime})", args.out)
    elif kind == "fsep-cactus":
        (path,) = _need(args, ["graph"])
        a, b = _need(args, ["a", "b"])
        r = fsep_cactus(_load_graph(path), a, b)
        _emit(f"{r.value} (regime: {r.regime})", args.out)
    else:
        raise SystemExit2(f"unknown formula kind {kind!r}")
    return 0


def cmd_solve(args) -> int:
    budget = _budget_from(args)
    (path,) = _need(args, ["graph"])
    g = _load_graph(path)
    a, b = _need(args, ["a", "b"])
    try:
        if args.kind == "check":
            (c,) = _need(args, ["c"])
            out = decide_choosable(g, a, b, c, free=args.free, budget=budget)
            if out.colorable:
                _emit(f"choosable (explored {out.nodes_explored} nodes)", args.out)
                return 0
            lists = [sorted(s) for s in out.counterexample.lists]
            payload = {"verdict": "not choosable", "counterexample": lists}
            if out.counterexample.precolored is not None:
                payload["precolored"] = {"vertex": out.counterexample.precolored}
            _emit(json.dumps(payload), args.out)
            return 1
        if args.kind == "sep":
            val = compute_sep(g, a, b, free=args.free, budget=budget)
            _emit(str(val), args.out)
            return 0
    except BudgetExceeded as e:
        print(f"unknown: budget exhausted after {e.nodes_explored} nodes", file=sys.stderr)
        return 2
    raise SystemExit2(f"unknown solve kind {args.kind!r}")


_FAMILIES = {
    "small-ratio": (["n", "b", "k"], gen_sep_small_ratio),
    "odd-cycle": (["p", "b", "alpha"], gen_sep_odd_cycle),
    "path": (["n", "a", "b", "variant"], None),
    "c3": (["a", "b", "variant"], gen_c3_family),
    "flower": (["p", "a", "b"], gen_flower),
    "fig1": ([], fig1_fixture),
}


def cmd_adversary(args) -> int:
    fam = args.family
    if fam not in _FAMILIES:
        raise SystemExit2(f"unknown family {fam!r}; choose from {sorted(_FAMILIES)}")
    names, fn = _FAMILIES[fam]
    vals = _need(args, names)
    if fam == "path":
        cert = gen_path_family(*vals, endpoints=args.endpoints)
    else:
        cert = fn(*vals)
    _emit(json.dumps(cert_to_json_dict(cert)), args.out)
    return 0


def cmd_color(args) -> int:
    (gpath,) = _need(args, ["graph"])
    (lpath,) = _need(args, ["lists"])
    (b,) = _need(args, ["b"])
    g = _load_graph(gpath)
    L = _load_json(lpath, assignment_from_json_dict, g)
    plan = ColoringPlan(strategy=args.strategy)
    try:
        if args.strategy == "greedy":
            phi = greedy_cycle(L, b, plan=plan)
        elif args.strategy == "lift":
            (k,) = _need(args, ["k"])
            phi = lift_cycle(L, b, k, plan=plan)
        elif args.strategy == "path":
            phi = path_color_precolored(L, b, plan=plan)
        elif args.strategy == "cycle":
            phi = cycle_color_precolored(L, b, plan=plan)
        elif args.strategy == "cactus":
            phi = cactus_free_color(L, b, plan=plan)
        elif args.strategy == "outerplanar":
            phi = outerplanar_color(L, b, plan=plan)
        else:
            raise SystemExit2(f"unknown strategy {args.strategy!r}")
    except ValueError as e:
        print(f"coloring failed: {e}", file=sys.stderr)
        return 1
    payload = {"coloring": [sorted(s) for s in phi], "plan": plan.to_json_dict()}
    _emit(json.dumps(payload), args.out)
    return 0


def cmd_sweep(args) -> int:
    n_max, a_max, b_max = _need(args, ["n", "a", "b"])
    if n_max < 3 or a_max < 1 or b_max < 1:
        raise SystemExit2("sweep needs n >= 3 and positive a, b bounds")
    budget = _budget_from(args)
    rows = []
    for n in range(3, n_max + 1):
        for a in range(1, a_max + 1):
            for b in range(1, b_max + 1):
                if b > a:
                    continue
                rows.append((n, a, b))
    rows.sort()
    lines = ["n,a,b,formula_sep,oracle_sep,formula_fsep,oracle_fsep,match"]
    verified = mismatches = 0
    from .graphs import build_cycle

    for n, a, b in rows:
        g = build_cycle(n)
        f_sep = sep_cycle(n, a, b).value
        f_fsep = fsep_cycle(n, a, b).value
        try:
            o_sep: int | str = compute_sep(g, a, b, free=False, budget=budget)
        except BudgetExceeded:
            o_sep = "unknown"
        try:
            o_fsep: int | str = compute_sep(g, a, b, free=True, budget=budget)
        except BudgetExceeded:
            o_fsep = "unknown"
        match = (o_sep == "unknown" or o_sep == f_sep) and (o_fsep == "unknown" or o_fsep == f_fsep)
        if o_sep != "unknown" and o_fsep != "unknown":
            verified += 1
        if not match:
            mismatches += 1
        lines.append(f"{n},{a},{b},{f_sep},{o_sep},{f_fsep},{o_fsep},{str(match).lower()}")
    _emit("\n".join(lines), args.out)
    print(f"mismatches: {mismatches} (verified {verified} of {len(rows)} rows)")
    return 0 if mismatches == 0 else 1


def cmd_verify(args) -> int:
    try:
        if args.certificate and args.certificate != "-":
            with open(args.certificate) as fh:
                cert = cert_from_json_dict(json.load(fh))
        else:
            cert = cert_from_json_dict(json.load(sys.stdin))
    except (OSError, KeyError, TypeError, ValueError) as e:
        print(f"malformed certificate: {e}", file=sys.stderr)
        return 2
    ok, reason = verify_certificate(cert, budget=_budget_from(args))
    if ok:
        print(f"ok: {cert.family} claim {cert.claim!r} confirmed")
        return 0
    print(f"failed: {reason}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a flag given before the subcommand from being clobbered
    # by the subparser's default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="node budget; <= 0 for unlimited")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="write the payload to this file")
    p = argparse.ArgumentParser(prog="sepchoose", description=__doc__.splitlines()[0],
                                parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    def ints(sp, *names):
        for nm in names:
            sp.add_argument(f"--{nm}", type=int, default=None)

    f = sub.add_parser("formula", help="closed-form values with regimes", parents=[common])
    f.add_argument("kind", choices=["sep-cycle", "fsep-cycle", "fsep-cactus", "outer-bounds", "min-c3"])
    ints(f, "n", "a", "b")
    f.add_argument("--graph", type=str, default=None, help="graph JSON (fsep-cactus); for outer-bounds --n is the girth")

    s = sub.add_parser("solve", help="exact decisions by exhaustive search", parents=[common])
    s.add_argument("kind", choices=["check", "sep"])
    ints(s, "n", "a", "b", "c")
    s.add_argument("--graph", type=str, default=None)
    s.add_argument("--free", action="store_true", help="pin one vertex to a b-list")

    adv = sub.add_parser("adversary", help="generate an uncolorable certificate", parents=[common])
    adv.add_argument("family", choices=sorted(_FAMILIES))
    ints(adv, "n", "a", "b", "c", "k", "alpha", "p")
    adv.add_argument("--variant", type=str, default=None)
    adv.add_argument("--endpoints", type=str, default="equal", choices=["equal", "disjoint"])

    col = sub.add_parser("color", help="run a constructive coloring procedure", parents=[common])
    col.add_argument("strategy", choices=["greedy", "lift", "path", "cycle", "cactus", "outerplanar"])
    ints(col, "b", "k")
    col.add_argument("--graph", type=str, default=None)
    col.add_argument("--lists", type=str, default=None)

    sw = sub.add_parser("sweep", help="formula-vs-oracle CSV over a cycle grid", parents=[common])
    ints(sw, "n", "a", "b")

    v = sub.add_parser("verify", help="re-check a certificate file", parents=[common])
    v.add_argument("certificate", nargs="?", default=None, help="certificate JSON file; stdin when omitted or '-'")
    return p


_DISPATCH = {
    "formula": cmd_formula,
    "solve": cmd_solve,
    "adversary": cmd_adversary,
    "color": cmd_color,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    for name in ("budget", "out"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        return _DISPATCH[args.command](args)
    except (SystemExit2, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
