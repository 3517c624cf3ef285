"""Collect result sets of benchmark runs and compare two of them.

A result set is a JSONL file of run records, as ``run.py --save`` appends
them.  From the repository root::

    # ten runs per workload, seeds 1..10, into one result set
    python3 perfbench/compare.py collect --runs 10 --out base.jsonl
    # median, quartiles and spread of every end-to-end metric
    python3 perfbench/compare.py spread base.jsonl
    # base vs change, one row per workload, verdict per metric
    python3 perfbench/compare.py compare base.jsonl change.jsonl

Verdicts use each metric's bound from ``BENCHMARK.json``: *better* when the
change's median beats the base median by more than the base's own spread,
*same* when it is no worse than the bound allows, *worse* when it is worse by
more than the bound, and *unresolved* when either side's spread (quartile
distance over median) exceeds the bound -- unless every run of one side beats
every run of the other.  Failures override the bounds: when the change's runs
failed a larger share of operations than the base's, every metric of that
workload is *worse*.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: str) -> tuple:
    """Over the untraced runs of a set: workload -> metric -> [values], and
    workload -> [(failed, attempted)] per run."""
    values = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["stamp"]["traced"]:
                continue
            workload = record["stamp"]["workload"]
            failures[workload].append((record["failed"], record["attempted"]))
            for name, metric in record["metrics"].items():
                values[workload][name].append(metric["value"])
    return values, failures


def failed_more(base: list, change: list) -> bool:
    """Whether the change's runs failed a larger share of operations."""
    def share(runs):
        return sum(failed for failed, _ in runs) / max(sum(tried for _, tried in runs), 1)

    return share(change) > share(base)


def summary(values: list) -> tuple:
    """(q1, median, q3, spread); spread is the quartile distance over median."""
    if len(values) < 2:
        value = values[0]
        return value, value, value, 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def verdict(base: list, change: list, better: str, bound: float) -> str:
    _, base_median, _, base_spread = summary(base)
    _, change_median, _, change_spread = summary(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change_median - base_median) / base_median if base_median else 0.0
    # Signed so that larger is better for either direction.
    base_signed = [sign * value for value in base]
    change_signed = [sign * value for value in change]
    if min(change_signed) > max(base_signed):
        return "better"
    if max(change_signed) < min(base_signed) and -gain > bound:
        return "worse"
    if max(base_spread, change_spread) > bound:
        return "unresolved"
    if -gain > bound:
        return "worse"
    if gain > base_spread:
        return "better"
    return "same"


def collect(args) -> int:
    workloads = args.workload or [w["name"] for w in benchmark()["workloads"]]
    seconds = args.seconds or benchmark()["run_seconds"]
    for workload in workloads:
        for seed in range(args.seed0, args.seed0 + args.runs):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--save", args.out]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed={seed} exit={done.returncode} {last[0][:160]}",
                  flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
    return 0


def spread(args) -> int:
    spec = {m["name"]: m for m in benchmark()["end_to_end"]}
    for workload, metrics in load(args.set)[0].items():
        print(workload)
        for name, values in metrics.items():
            q1, median, q3, width = summary(values)
            bound = spec.get(name, {}).get("bound", 0.0)
            status = "ok" if width <= bound / 3 else ("within" if width <= bound else "WIDE")
            print(f"  {name:<14} n={len(values):<3} median={median:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={width:.4f} "
                  f"bound={bound} {status}")
    return 0


def compare(args) -> int:
    spec = benchmark()["end_to_end"]
    (base, base_failures), (change, change_failures) = load(args.base), load(args.change)
    names = [m["name"] for m in spec]
    print("workload        " + "  ".join(f"{name:>14}" for name in names))
    details = []
    for workload in sorted(set(base) & set(change)):
        failing = failed_more(base_failures[workload], change_failures[workload])
        for side, runs in (("base", base_failures), ("change", change_failures)):
            failed = sum(f for f, _ in runs[workload])
            details.append(f"  {workload:<14} {side} correct={failed == 0} failed {failed} of "
                           f"{sum(a for _, a in runs[workload])} operations")
        cells = []
        for metric in spec:
            name = metric["name"]
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                cells.append(f"{'-':>14}")
                continue
            outcome = "worse" if failing else verdict(a, b, metric["better"], metric["bound"])
            cells.append(f"{outcome:>14}")
            qa, qb = summary(a), summary(b)
            details.append(
                f"  {workload:<14} {name:<14} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f" -> change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {outcome}"
            )
        print(f"{workload:<16}" + "  ".join(cells))
    print("medians [q1, q3]:")
    print("\n".join(details))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect", help="run the benchmark over seeds")
    run.add_argument("--workload", action="append",
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    run.add_argument("--out", required=True)
    run.set_defaults(func=collect)
    show = commands.add_parser("spread", help="quartiles and spread of a result set")
    show.add_argument("set")
    show.set_defaults(func=spread)
    diff = commands.add_parser("compare", help="verdict per workload and metric")
    diff.add_argument("base")
    diff.add_argument("change")
    diff.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
