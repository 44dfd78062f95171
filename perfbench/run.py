"""sepchoose benchmark: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Every pass runs in a fresh interpreter
(``perfbench/worker.py``), one at a time, single-threaded, with ``src/`` on
the path; passes repeat back to back until ``--seconds`` is used up (at
least three).  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``, normalized to a reference machine speed by the sampler
in ``perfbench/sampler.py`` and taken as medians over the passes;
``--trace 1`` reports the per-layer ones.  The last line of standard
output is the result object; the line before it is a report with the run
context, the failure fraction, the raw times and the tail percentile used.

``--smoke`` runs every workload at minimal size, traced and untraced, and
fails unless every metric of ``BENCHMARK.json`` is present with its unit
and no item failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import sampler  # noqa: E402
from workloads import SWEEP_GRID, WORKLOADS, check_sweep_csv  # noqa: E402

RUN_LIMIT_S = 170  # every child is killed past this, so a run ends within 180 s
MIN_PASSES = 3
SETUP_PROBES = 7
PROBE_SIZES = {"full": (200, 400, 800), "smoke": (20, 40, 80)}
SAME_MACHINE_NOTE = (
    "numbers compare only on the same machine: test_output.txt and the "
    "ROADMAP baseline differ by a factor of 2.35 across machines"
)


class BenchError(Exception):
    pass


class Runner:
    """Starts children one at a time through ``launch.py`` and reaps each."""

    def __init__(self):
        self.deadline = perf_counter() + RUN_LIMIT_S
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        OUT.mkdir(exist_ok=True)

    def run(self, args: list[str]) -> dict:
        """Run ``python3 ARGS``; wall time and peak RSS come from the launcher."""
        result = OUT / "child.json"
        result.unlink(missing_ok=True)
        with open(OUT / "child.out", "w+") as out, open(OUT / "child.err", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launch.py"), str(result), sys.executable, *args],
                stdout=out, stderr=err, cwd=ROOT, env=self.env)
            try:
                proc.wait(timeout=max(self.deadline - perf_counter(), 1))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{args[:3]} ran past the {RUN_LIMIT_S} s limit") from None
            finally:
                # also on SIGTERM (see main): the launcher kills and reaps
                # its child when terminated
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            if proc.returncode != 0 or not result.exists():
                err.seek(0)
                raise BenchError(f"launcher exited {proc.returncode}: {err.read()[-2000:]}")
            out.seek(0)
            err.seek(0)
            child = json.loads(result.read_text())
            child.update(stdout=out.read(), stderr=err.read())
            return child

    def worker(self, *args) -> dict:
        child = self.run([str(HERE / "worker.py"), *map(str, args)])
        if child["code"] != 0:
            raise BenchError(f"worker {args} exited {child['code']}: {child['stderr'][-2000:]}")
        res = json.loads(child["stdout"].strip().splitlines()[-1])
        res["spawn"] = child["t0"]
        res["rss_mb"] = child["rss_mb"]
        return res

    def cli(self, *args, sampled: bool = False) -> dict:
        """``sepchoose ARGS``: ``python -m sepchoose.cli`` as is, or with
        ``sampled`` under the sampler (``worker.py cli``), which adds
        ``norm_s``, the wall time normalized to the reference speed."""
        if not sampled:
            return self.run(["-m", "sepchoose.cli", *args])
        samples = OUT / "cli-samples.json"
        samples.unlink(missing_ok=True)
        child = self.run([str(HERE / "worker.py"), "cli", str(samples), *args])
        if not samples.exists():
            raise BenchError(f"sepchoose {args[:1]} exited {child['code']}: {child['stderr'][-2000:]}")
        s = json.loads(samples.read_text())
        child["norm_s"] = sampler.at_reference(child["wall"] - s["handler_s"], s["mean_kernel_s"])
        return child

    def startup_s(self, count: int, sampled: bool) -> float:
        """Median time of ``sepchoose --help``: interpreter start plus import;
        normalized when ``sampled``."""
        walls = []
        for _ in range(count):
            child = self.cli("--help", sampled=sampled)
            if child["code"] != 0:
                raise BenchError(f"sepchoose --help exited {child['code']}: {child['stderr'][-2000:]}")
            walls.append(child["norm_s"] if sampled else child["wall"])
        return statistics.median(walls)


def sweep_pass(runner: Runner, size: str, sampled: bool) -> dict:
    n, a, b = SWEEP_GRID[size]
    child = runner.cli("sweep", "--n", str(n), "--a", str(a), "--b", str(b), "--budget", "0",
                       sampled=sampled)
    errors = check_sweep_csv(child["stdout"], size)
    if child["code"] not in (0, 1) or (child["code"] == 1) != bool(errors):
        errors.append(f"sweep exited {child['code']}: {child['stderr'][-500:]}")
    rows = sum(1 for ln in child["stdout"].splitlines() if ln[:1].isdigit())
    out = {"pass_s": child["wall"], "rss_mb": child["rss_mb"],
           "attempted": max(rows, 1), "failed": len(errors), "failures": errors[:5]}
    if sampled:
        out["norm_pass_s"] = child["norm_s"]
        out["norm_item_s"] = [child["norm_s"]]
    return out


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten items beyond it; the maximum
    when there are fewer than twenty items, where that percentile would sit
    at or below the median."""
    v = sorted(values)
    n = len(v)
    if n < 20:
        return v[-1], f"max of {n}"
    return v[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def measure(workload: str, seed: int, seconds: float, size: str, min_passes: int) -> tuple[dict, dict]:
    """Untraced passes back to back; returns (metrics, report).  Every time
    is normalized to the reference speed, per pass (per item for items),
    and the metric is its median over the passes."""
    runner = Runner()
    calibration = statistics.median(calibrate())
    deadline = perf_counter() + seconds
    if workload == "sweep-cycles":
        setup_s = runner.startup_s(SETUP_PROBES, sampled=True)

        def one_pass():
            return sweep_pass(runner, size, sampled=True)
    else:
        def one_pass():
            return runner.worker("pass", workload, seed, size, 0)
    passes, durations = [], []
    while len(passes) < min_passes or perf_counter() + statistics.median(durations) <= deadline:
        t = perf_counter()
        passes.append(one_pass())
        durations.append(perf_counter() - t)
    if workload != "sweep-cycles":
        setup_s = statistics.median((p["setup_end"] - p["spawn"]) * p["setup_scale"] for p in passes)
    pass_s = [p["pass_s"] for p in passes]
    norm_pass_s = [p["norm_pass_s"] for p in passes]
    per_item = [statistics.median(ts) for ts in zip(*(p["norm_item_s"] for p in passes))]
    tail_s, tail_label = tail(per_item)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(norm_pass_s), "s"),
        "item_p50_ms": (statistics.median(per_item) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    report = {
        "calibration_s": calibration,
        "passes": len(passes),
        "pass_s": pass_s,
        "norm_pass_s": norm_pass_s,
        "raw_wall_median_s": statistics.median(pass_s),
        "items_per_pass": len(per_item),
        "item_tail": tail_label,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:5],
    }
    return metrics, report


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure_traced(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    """One untraced and one traced pass, scaling probes, CLI start-up."""
    runner = Runner()
    calibration = statistics.median(calibrate())
    startup = runner.startup_s(3, sampled=False)
    plain = runner.worker("pass", workload, seed, size, 0)
    traced = runner.worker("pass", workload, seed, size, 1)
    cli_overhead = 0.0
    passes = [plain, traced]
    if workload == "sweep-cycles":
        # two untraced runs of the same rows, so both are normalized
        cli = sweep_pass(runner, size, sampled=True)
        cli_overhead = cli["norm_pass_s"] - plain["norm_pass_s"]
        passes.append(cli)
    probes = [runner.worker("probe", n) for n in PROBE_SIZES[size]]
    layers = traced["layers"]
    empty = {"calls": 0, "self_s": 0.0}

    def layer(name):
        return layers.get(name, empty)

    color = layer("solver.color")
    nodes = traced["color_nodes"]
    metrics = {
        "cli.startup_s": (startup, "s"),
        "cli.overhead_s": (cli_overhead, "s"),
        "solver.decide.calls": (layer("solver.decide")["calls"], "count"),
        "solver.decide.self_s": (layer("solver.decide")["self_s"], "s"),
        "solver.enum.instances": (traced["enum_instances"], "count"),
        "solver.enum.rate": (traced["enum_instances"] / traced["enum_s"] if traced["enum_s"] else 0.0, "1/s"),
        "solver.color.calls": (color["calls"], "count"),
        "solver.color.self_s": (color["self_s"], "s"),
        "solver.color.nodes": (nodes, "count"),
        "solver.color.nodes_per_s": (nodes / color["self_s"] if color["self_s"] else 0.0, "1/s"),
        "solver.color.time_exp": (fit_exponent([p["n"] for p in probes], [p["color_s"] for p in probes]), "1"),
        "solver.color.mem_exp": (fit_exponent([p["mem_n"] for p in probes], [p["color_peak_mb"] for p in probes]), "1"),
        "lists.realize.calls": (layer("lists.realize")["calls"], "count"),
        "lists.realize.self_s": (layer("lists.realize")["self_s"], "s"),
        "lists.amplitude.calls": (layer("lists.amplitude")["calls"], "count"),
        "lists.amplitude.self_s": (layer("lists.amplitude")["self_s"], "s"),
        "lists.amplitude.time_exp": (fit_exponent([p["amp_n"] for p in probes], [p["amp_s"] for p in probes]), "1"),
        "lists.separation.self_s": (layer("lists.separation")["self_s"], "s"),
        "adversary.gen.self_s": (layer("adversary.gen")["self_s"], "s"),
        "adversary.verify.self_s": (layer("adversary.verify")["self_s"], "s"),
        "colorers.calls": (layer("colorers")["calls"], "count"),
        "colorers.self_s": (layer("colorers")["self_s"], "s"),
        "colorers.exact_calls": (layer("colorers").get("exact_calls", 0), "count"),
        "graphs.blocks.calls": (layer("graphs.blocks")["calls"], "count"),
        "graphs.blocks.self_s": (layer("graphs.blocks")["self_s"], "s"),
        "graphs.build.self_s": (layer("graphs.build")["self_s"], "s"),
        "formulas.self_s": (layer("formulas")["self_s"], "s"),
        "trace.overhead_s": (traced["norm_pass_s"] - plain["norm_pass_s"], "s"),
    }
    report = {
        "calibration_s": calibration,
        "untraced_pass_s": plain["pass_s"],
        "traced_pass_s": traced["pass_s"],
        "norm_untraced_pass_s": plain["norm_pass_s"],
        "norm_traced_pass_s": traced["norm_pass_s"],
        "enum_drain_s": traced["enum_s"],
        "probes": probes,
        "layers": layers,
        "spans_file": f"perfbench/out/spans-{workload}.csv",
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:5],
    }
    return metrics, report


def calibrate() -> list[float]:
    """Five timings of a fixed pure-Python loop, after a short warm-up."""
    times = []
    for _ in range(6):
        t = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(perf_counter() - t)
    return times[1:]


def context(seed: int, calibration: float) -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    ) if (ROOT / ".git").exists() else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibration,
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
        "commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
        "seed": seed,
        "note": SAME_MACHINE_NOTE,
    }


def result(metrics: dict, report: dict) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if trace:
                metrics, report = measure_traced(workload, 0, "smoke")
            else:
                metrics, report = measure(workload, 0, 0, "smoke", 1)
            res = result(metrics, report)
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: metric {m['name']} missing or not in {m['unit']}")
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{workload} trace={trace}: failed_frac "
                                f"{res['failed']}/{res['attempted']}: {report['failures']}")
            print(f"smoke {workload} trace={trace}: {res['attempted']} items, {res['failed']} failed")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "sepchoose" / "__init__.py").is_file():
        print(f"error: no sepchoose sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            metrics, report = measure_traced(args.workload, args.seed, "full")
        else:
            metrics, report = measure(args.workload, args.seed, args.seconds, "full", MIN_PASSES)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report["failed_frac"] = report["failed"] / report["attempted"]
    report["context"] = context(args.seed, report.pop("calibration_s"))
    report["workload"] = args.workload
    print("report " + json.dumps(report))
    print(json.dumps(result(metrics, report)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
