"""cascadekit benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Untraced (--trace 0) runs report the end-to-end metrics; traced runs
(--trace 1) alternate untraced and traced repetitions and report the
per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. cascadekit is imported from src/ of the checkout; the
benchmark exits non-zero without a result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import tracer as tracing
import workloads
from calibration import MIN_SAMPLES, Sampler, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
MIN_REPS = 3
HELD_OUT_SEED = 7919  # not used while the benchmark was tuned; check later claims on it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cascades_per_s": "1/s",
    "sharers_per_s": "1/s",
    "tree_nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Child interpreter for setup_s: import cascadekit from src/ and report ready.
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cascadekit, cascadekit.cli\n"
    "if not cascadekit.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(3)\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchmarkError(Exception):
    """The benchmark cannot run here, so it reports no result."""


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter to cascadekit imported and ready.

    These times are not scaled to the host speed: an import spends much of
    its time in file reads and page faults, and follows the calibration
    loop's speed only weakly, so scaling by it adds noise.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"cascadekit does not import from {SRC}: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def import_cascadekit() -> dict:
    sys.path.insert(0, SRC)
    import cascadekit
    from cascadekit import branching, cli, diffusion, graph, harness, stats, trees

    if not os.path.abspath(cascadekit.__file__).startswith(SRC):
        raise BenchmarkError(f"imported cascadekit from {cascadekit.__file__}, not {SRC}")
    return {"graph": graph, "diffusion": diffusion, "trees": trees, "stats": stats,
            "branching": branching, "harness": harness, "cli": cli}


def git_revision() -> str:
    """The checkout's commit; 'unknown' outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "git_revision": git_revision(),
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextlib.contextmanager
def _no_span(name):
    yield


def measure(workload, seconds: float, tracer, sampler: Sampler) -> list[dict]:
    """Closed loop of repetitions until the next one would pass the time budget.

    With a tracer, odd repetitions are traced and even ones are not, so the
    run measures the tracing overhead against its own untraced repetitions.
    The calibration loop samples the host speed during each repetition; a
    repetition too short for MIN_SAMPLES samples times it afterwards instead.
    """
    reps = []
    start = time.perf_counter()
    while True:
        index = len(reps)
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        cpu0 = cpu_seconds()
        output, error, wall, samples = None, None, 0.0, []
        try:
            with tracer.active(index) if traced else contextlib.nullcontext():
                sampler.start()
                t0 = time.perf_counter()  # after the wrappers are installed
                try:
                    output = workload.run(tracer.span if traced else _no_span)
                finally:
                    wall = time.perf_counter() - t0
                    samples = sampler.stop()
        except Exception:
            error = traceback.format_exc()
        cpu = cpu_seconds() - cpu0
        if error is None:
            try:
                outcome = workload.check(output, index)
            except Exception:
                error = traceback.format_exc()
        del output
        if error is not None:
            outcome = workloads.Outcome(ops=workload.ops)
            outcome.fail(error, workload.ops)
        busy = sum(samples)
        if len(samples) < MIN_SAMPLES:
            samples = sampler.measure()
        loop_s = sum(samples) / len(samples)
        reps.append({"index": index, "traced": traced, "raw_s": wall, "loop_busy_s": busy, "loop_s": loop_s,
                     "wall_s": scaled(wall - busy, loop_s), "cpu_s": cpu, "outcome": outcome})
        for message in outcome.failures:
            print(f"FAILED rep {index}: {message}", file=sys.stderr)
        if error is not None:
            break  # a repetition that raised says the program is broken; stop here
        elapsed = time.perf_counter() - start
        estimate = statistics.median(r["raw_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + estimate > seconds:
            break
    return reps


def end_to_end_metrics(reps, setup_times) -> dict:
    good = [r for r in reps if not r["traced"] and not r["outcome"].failures]
    if not good:
        return {}

    def rate(attr):
        return statistics.median(getattr(r["outcome"], attr) / r["wall_s"] for r in good)

    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "cascades_per_s": rate("cascades"),
        "sharers_per_s": rate("sharers"),
        "tree_nodes_per_s": rate("tree_nodes"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["remainder.self_s"] = "s"
    for name in tracing.TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for command in tracing.CLI_COMMANDS:
        units[f"cli.{command}.s"] = "s"
    for name in tracing.COUNT_NAMES:
        units[name] = "count"
    units.update({
        "graph.generate.ns_per_edge": "ns",
        "diffusion.us_per_cascade": "us",
        "diffusion.ns_per_sharer": "ns",
        "trees.metrics_row.nodes_per_s": "1/s",
        "trees.load.nodes_per_s": "1/s",
        "process.gc_s": "s",
        "process.gc_gen2": "count",
        "process.cpu_s": "s",
        "traced_wall_s": "s",
        "tracing.overhead_ratio": "ratio",
    })
    return units


def per_layer_metrics(reps, tracer) -> dict:
    """Self times, calls, counts and rates, as means per traced repetition.

    Each repetition's span times are scaled by its own calibration factor,
    like wall_s, so the layer self times plus remainder.self_s add up to
    traced_wall_s, the mean scaled wall time of a traced repetition.
    """
    traced = [r for r in reps if r["traced"] and not r["outcome"].failures]
    plain = [r for r in reps if not r["traced"] and not r["outcome"].failures]
    if not traced or not plain:
        return {}
    k = len(traced)
    self_s, inclusive_s, calls, entries, counts = Counter(), Counter(), Counter(), Counter(), Counter()
    remainder = gc_s = 0.0
    for r in traced:
        factor = r["wall_s"] / r["raw_s"]
        t = tracer.totals([r["index"]])
        self_s.update({name: v * factor for name, v in t.self_s.items()})
        inclusive_s.update({name: v * factor for name, v in t.inclusive_s.items()})
        calls.update(t.calls)
        entries.update(t.entries)
        counts.update(tracer.counts[r["index"]])
        remainder += (r["raw_s"] - t.covered_s) * factor
        gc_s += tracer.gc_s[r["index"]] * factor

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    values = {"remainder.self_s": remainder / k}
    for layer in tracing.LAYERS:
        values[f"{layer}.calls"] = entries[layer] / k
        values[f"{layer}.self_s"] = sum(v for name, v in self_s.items() if name.startswith(layer + ".")) / k
    for name in tracing.TRACED_NAMES:
        values[f"{name}.calls"] = calls[name] / k
        values[f"{name}.self_s"] = self_s[name] / k
    for command in tracing.CLI_COMMANDS:
        values[f"cli.{command}.s"] = inclusive_s[f"cli.{command}"] / k
    for name in tracing.COUNT_NAMES:
        values[name] = counts[name] / k
    values.update({
        "graph.generate.ns_per_edge": per(self_s["graph.generate"], counts["graph.generated_edges"], 1e9),
        "diffusion.us_per_cascade": per(self_s["diffusion.run_batch"], counts["diffusion.cascades"], 1e6),
        "diffusion.ns_per_sharer": per(self_s["diffusion.run_batch"], counts["diffusion.sharers"], 1e9),
        "trees.metrics_row.nodes_per_s": per(counts["trees.metrics_row.nodes"], self_s["trees.metrics_row"]),
        "trees.load.nodes_per_s": per(counts["trees.load.nodes"], self_s["trees.load"]),
        "process.gc_s": gc_s / k,
        "process.gc_gen2": sum(tracer.gc_gen2[r["index"]] for r in traced) / k,
        "process.cpu_s": statistics.median(r["cpu_s"] for r in traced),
        "traced_wall_s": sum(r["wall_s"] for r in traced) / k,
    })
    values["tracing.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                        / statistics.median(r["wall_s"] for r in plain))
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "cascadekit", "__init__.py")):
        raise BenchmarkError(f"no cascadekit sources under {SRC}")
    setup_times = measure_setup()
    ck = import_cascadekit()
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        cls = workloads.WORKLOADS[args.workload]
        toy = args.scale == "toy"
        warm_dir = os.path.join(workdir, "warm")
        os.makedirs(warm_dir)
        warm = cls(ck, args.seed, True, warm_dir)
        warm.check(warm.run(_no_span), 0)  # first calls and lazy imports, untimed
        del warm
        workload = cls(ck, args.seed, toy, workdir)
        tracer = tracing.Tracer(ck) if args.trace else None
        reps = measure(workload, args.seconds, tracer, Sampler())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["outcome"].ops for r in reps)
    failed = sum(r["outcome"].failed_ops for r in reps)
    metrics = per_layer_metrics(reps, tracer) if args.trace else end_to_end_metrics(reps, setup_times)
    correct = failed == 0 and bool(metrics)
    digests = sorted({r["outcome"].digest for r in reps if r["outcome"].digest})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "setup_s": setup_times, "digests": digests,
                   "reps": [{k: v for k, v in r.items() if k != "outcome"} | {"failures": r["outcome"].failures}
                            for r in reps],
                   "metrics": metrics}, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)

    if digests:
        print(f"sweep digest (information only): {' '.join(digests)}")
    print(f"{args.workload}: {len(reps)} repetitions, failed_ratio {failed / max(attempted, 1):g} "
          f"fraction ({failed} failed / {attempted} attempted)")
    print(f"  unscaled median repetition {statistics.median(r['raw_s'] for r in reps):.6g} s, "
          f"median calibration loop {statistics.median(r['loop_s'] for r in reps):.6g} s "
          f"(times below are scaled to the reference host speed)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOAD_NAMES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


WORKLOAD_NAMES = ("sweep_grid", "big_cascades", "cli_files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
