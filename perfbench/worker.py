"""One benchmark pass, or one scaling probe, in a fresh interpreter.

    python3 perfbench/worker.py pass WORKLOAD SEED SIZE TRACE
    python3 perfbench/worker.py probe N
    python3 perfbench/worker.py cli RESULT_FILE CLI_ARG...

A pass imports sepchoose from ``src/``, generates the workload's inputs
(set-up), then runs every item back to back, timing each library call and
checking its output.  It prints one JSON object.  Each pass starts cold
because ``solver._ksubsets`` is a process-global cache that a CLI user
always starts empty.

The machine-speed sampler (``sampler.py``) runs from the worker's first
line, before sepchoose is imported, and every set-up, item and pass time
is also given normalized to the reference speed.  With TRACE=1 the spans
include the sampler's time, about 2%.

``cli`` runs ``sepchoose.cli.main(CLI_ARG...)`` under the sampler, with the
CLI's own standard streams and exit code, and writes the sampler's totals
to RESULT_FILE.

With TRACE=1 the public functions are wrapped before the inputs are
generated, so set-up calls are traced too.  After the pass the enumeration
streams of the workload are drained untimed by the pass, and the spans are
written to ``perfbench/out/spans-WORKLOAD.csv``.

A probe colors the easy path P_N (lists {i%3, (i+1)%3}, a=2, b=1) and
checks the amplitude condition on P_{N/4}, reporting both times
(normalized), and the peak traced allocation while coloring P_{N/2}.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import tracemalloc
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sampler import Sampler  # noqa: E402
from workloads import BUILDERS  # noqa: E402

DRAIN_CAP = 100_000


def drain(sc, streams) -> tuple[int, float]:
    """Instances enumerated from the streams, in a fixed order, up to
    DRAIN_CAP in all (TraceMultiset construction included), and the time."""
    streams = sorted(streams, key=lambda s: (s[0].n, sorted(s[0].edges), s[1:4],
                                             -1 if s[4] is None else s[4], s[5]))
    gens = (sc.enumerate_canonical(g, a, b, c, precolored=root, connected_only=connected)
            for g, a, b, c, root, connected in streams)
    t = perf_counter()
    count = sum(1 for _ in itertools.islice(itertools.chain.from_iterable(gens), DRAIN_CAP))
    return count, perf_counter() - t


def run_pass(sc, smp: Sampler, workload: str, seed: int, size: str, trace: bool) -> dict:
    """One pass; ``smp`` is the running sampler."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(sc)
    wl = BUILDERS[workload](sc, random.Random(f"{workload}:{seed}"), size)
    setup_end = perf_counter()
    spans, results, failures = [], [], []
    for item in wl.items:
        t = perf_counter()
        try:
            res = item.run()
        except Exception as e:  # an item that raises is a failed item, not a crash
            spans.append((t, perf_counter()))
            results.append(None)
            tb = traceback.format_exception_only(type(e), e)[-1].strip()
            failures.append(f"{item.label}: raised {tb}")
            continue
        spans.append((t, perf_counter()))
        results.append(res)
        err = item.check(res)
        if err:
            failures.append(f"{item.label}: {err}")
    pass_end = perf_counter()
    out = {
        "setup_end": setup_end,
        "pass_s": pass_end - setup_end,
        "item_s": [b - a for a, b in spans],
        "attempted": len(wl.items),
        "failed": len(failures),
        "failures": failures[:5],
    }
    smp.stop()
    out["norm_item_s"] = [smp.normalize(a, b) for a, b in spans]
    # item by item, so that each part is scaled by the speed around it
    cuts = [setup_end] + [b for _, b in spans] + [pass_end]
    out["norm_pass_s"] = sum(smp.normalize(a, b) for a, b in zip(cuts, cuts[1:]))
    # applied by the parent to the whole set-up, interpreter start included
    out["setup_scale"] = smp.normalize(smp.started, setup_end) / (setup_end - smp.started)
    out["samples"] = len(smp.start_t)
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["color_nodes"] = tracer.color_nodes
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"spans-{workload}.csv"))
        out["enum_instances"], out["enum_s"] = drain(sc, wl.streams(results))
    return out


def run_probe(sc, smp: Sampler, n: int) -> dict:
    def easy(k):
        lists = tuple(frozenset({i % 3, (i + 1) % 3}) for i in range(k))
        return sc.ListAssignment(graph=sc.build_path(k), lists=lists, a=2)

    L, L_mem, L_amp = easy(n), easy(n // 2), easy(n // 4)
    t0 = perf_counter()
    out = sc.color_with_lists(L, 1)
    t1 = perf_counter()
    amp = sc.amplitude_condition(L_amp, 1)
    t2 = perf_counter()
    smp.stop()
    color_s, amp_s = smp.normalize(t0, t1), smp.normalize(t1, t2)
    # tracemalloc slows allocation, so memory is taken on a separate call,
    # with the sampler stopped so that its allocations are not counted
    tracemalloc.start()
    sc.color_with_lists(L_mem, 1)
    mem_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    if not (out.colorable and amp):
        raise SystemExit(f"easy path P_{n} judged uncolorable")
    return {"n": n, "color_s": color_s, "mem_n": n // 2, "color_peak_mb": mem_mb,
            "amp_n": n // 4, "amp_s": amp_s}


def run_cli(smp: Sampler, result: str, args: list[str]) -> int:
    from sepchoose import cli

    try:
        code = cli.main(args)
    except SystemExit as e:  # argparse exits on --help and on bad arguments
        code = e.code if isinstance(e.code, int) else 1
    sys.stdout.flush()
    smp.stop()
    with open(result, "w") as fh:
        json.dump({"handler_s": sum(smp.handler_dur), "mean_kernel_s": smp.mean_kernel_s(),
                   "samples": len(smp.start_t)}, fh)
    return code


def main(argv: list[str]) -> int:
    smp = Sampler()
    smp.start()  # before the import, so set-up is sampled whole
    import sepchoose as sc

    if argv[:1] == ["pass"] and len(argv) == 5:
        workload, seed, size, trace = argv[1], int(argv[2]), argv[3], argv[4] == "1"
        print(json.dumps(run_pass(sc, smp, workload, seed, size, trace)))
        return 0
    if argv[:1] == ["probe"] and len(argv) == 2:
        print(json.dumps(run_probe(sc, smp, int(argv[1]))))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return run_cli(smp, argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
