"""Alternating pairs of benchmark runs on two checkouts, with each end-to-end metric's median and range.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cli_files --seeds 11-20

Each seed is one pair: perfbench/run.py --trace 0 runs, unchanged and as a
subprocess, in PARENT_DIR and in CHANGE_DIR, parent first for the first
seed, change first for the second, and so on. Both sides use the same
--seconds (by default run_seconds from BENCHMARK.json beside this script).
The script prints one line per run, then for each end-to-end metric the
median and range of each side, the parent's quartiles, and in how many
pairs the change read better (by the metric's direction in
BENCHMARK.json; ties count for neither side). Last comes one verdict per
metric, against the metric's bound in BENCHMARK.json, a share of the
parent's median:
  gain          over at least 10 pairs, the change read better in at least
                9 of 10 pairs, and its median is better than the parent's
                by more than the distance between the parent's quartiles
  too few pairs for a gain (k of 10)
                the same, over k < 10 pairs
  worse         the change's median is worse than the parent's by more
                than the bound
  unresolved    neither, and the parent's quartiles lie further apart than
                the bound, unless every change run read better than every
                parent run
  within bound  otherwise
It exits 1 when a run fails or reports a result that is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from spread import parse_seeds  # noqa: E402  "11-20" or "3,5,8" as a list of seeds

MIN_GAIN_PAIRS = 10  # a gain read from fewer pairs is too easily the host's noise


def run(checkout: str, workload: str, seed: int, seconds: float, scale: str) -> dict | None:
    """The result line of one untraced benchmark run in checkout, or None when the run gives none."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--scale", scale]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if proc.returncode == 0 and result["correct"] else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="11-20", help="one pair per seed, e.g. 11-20 or 3,5,8")
    parser.add_argument("--seconds", type=float, help="time budget of each run's measured loop")
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    values = {side: {} for side in sides}
    ok = True
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run(sides[side], args.workload, seed, seconds, args.scale)
            if result is None:
                print(f"seed {seed} {side}: no correct result", flush=True)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, {})[seed] = metric["value"]
            wall = result["metrics"]["wall_s"]["value"]
            print(f"seed {seed} {side}: wall_s {wall:.6g}, failed {result['failed']}/{result['attempted']}",
                  flush=True)

    print(f"{'metric':18} {'parent median [range]':>38} {'parent quartiles':>24} "
          f"{'change median [range]':>38} {'change better':>14}")
    verdicts = {}
    for name, metric in metrics.items():
        parent, change = values["parent"].get(name, {}), values["change"].get(name, {})
        if not parent or not change:
            continue
        sign = 1 if metric["better"] == "lower" else -1  # sign * (change - parent) > 0: the change reads worse
        pairs = [(parent[s], change[s]) for s in parent if s in change]
        better = sum(sign * (c - p) < 0 for p, c in pairs)
        q1, q3 = quartiles(parent.values())
        print(f"{name:18} {summary(parent.values()):>38} {f'{q1:.6g}-{q3:.6g}':>24} "
              f"{summary(change.values()):>38} {f'{better} of {len(pairs)}':>14}")
        verdicts[name] = verdict(list(parent.values()), list(change.values()), better, len(pairs), sign,
                                 metric["bound"])
    for name, text in verdicts.items():
        print(f"verdict {name}: {text}")
    return 0 if ok else 1


def quartiles(vals) -> tuple[float, float]:
    """The first and third quartile (statistics.quantiles, n=4); one value is both."""
    vals = list(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return q1, q3


def verdict(parent: list, change: list, better: int, pairs: int, sign: int, bound: float) -> str:
    """gain, worse, unresolved or within bound, as the module docstring says; sign is 1 when lower is better."""
    p, c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if pairs and 10 * better >= 9 * pairs and sign * (p - c) > q3 - q1:
        return "gain" if pairs >= MIN_GAIN_PAIRS else f"too few pairs for a gain ({pairs} of {MIN_GAIN_PAIRS})"
    if sign * (c - p) > bound * abs(p):
        return "worse"
    if q3 - q1 > bound * abs(p) and max(sign * v for v in change) >= min(sign * v for v in parent):
        return "unresolved"
    return "within bound"


def summary(vals) -> str:
    vals = sorted(vals)
    return f"{statistics.median(vals):.6g} [{vals[0]:.6g}-{vals[-1]:.6g}]"


if __name__ == "__main__":
    sys.exit(main())
