"""The repository benchmark: one seeded workload, timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` it runs half the time untraced and half traced and prints
every per-layer metric plus a span table with busy and self time per layer.
Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--save PATH``
appends the whole run record (metrics, digest, environment stamp) to a JSONL
result set that ``perfbench/compare.py`` reads.

The program under test is the ``repro`` package in ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run-time scratch (journals, exported traces); listed in .gitignore.
SCRATCH = ROOT / ".perfbench-tmp"
WORKLOADS = ("paper-grid", "dse-sweep", "served-sweep", "program-check")
#: Fresh processes whose set-up is timed; setup_s is their median.
SETUP_RUNS = 5

#: The end-to-end metrics of a ``--trace 0`` run, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("speedup_err", "ratio"),
    ("energy_err", "ratio"),
)

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="PATH",
                        help="append the run record to this JSONL result set")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_suite():
    """Import the workloads (and with them ``repro``) from ``src/``."""
    sys.path.insert(0, str(SRC))
    import suite  # noqa: E402  (needs src/ on the path)

    return suite


def setup_probe(args) -> int:
    """Child process: time import + set-up of one workload, print seconds.

    Prints the raw seconds and the host speed the calibration loop saw just
    before, so the parent can scale the sample to the reference host.
    """
    import calibration

    speed = calibration.REFERENCE_S / statistics.median(
        calibration.calibrate() for _ in range(20)
    )
    began = time.perf_counter()
    suite = import_suite()
    workload = suite.make(args.workload, args.seed, scratch_dir())
    try:
        workload.setup()
        elapsed = time.perf_counter() - began
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed, "speed": speed}))
    return 0


def measure_setup(args) -> list:
    """Time set-up in :data:`SETUP_RUNS` fresh processes; (seconds, speed) each."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["speed"]))
    return samples


def scratch_dir() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return SCRATCH


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def tail(batch_s: list) -> tuple:
    """(value, percentile, beyond) of the batch-time tail: the 90th percentile.

    Further out, sporadic stalls of the shared host and of thread scheduling
    decide the figure and it stops repeating: on served-sweep the slowest
    batch with ten beyond it spread 0.4 between runs.  The percentile is
    fixed rather than chosen to leave ten batches beyond it, because a
    dse-sweep run counts 48 or 96 searches and would otherwise report the
    79th percentile in one run and the 89th in the next.
    """
    ordered = sorted(batch_s)
    index = int(0.9 * len(ordered))
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def run(args) -> int:
    try:
        if not (SRC / "repro").is_dir():
            raise ImportError("no repro package there")
        suite = import_suite()
        import spans
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    setup_samples = [] if args.trace else measure_setup(args)
    workload = suite.make(args.workload, args.seed, scratch_dir())
    traced = None
    try:
        workload.setup()
        attempted = workload.warmup()
        if args.trace:
            plain = workload.run(args.seconds / 2)
            before = workload.counters()
            recorder = spans.SpanRecorder()
            spans.install(recorder, suite, workload)
            try:
                phase = workload.run(args.seconds / 2)
            finally:
                recorder.restore()
            metrics = spans.per_layer_metrics(
                recorder, plain, phase, before, workload.counters(),
                workload.traced_extras(plain),
            )
            attempted += plain.jobs
            traced = recorder
        else:
            phase = workload.run(args.seconds)
        workload.check()
        digest = workload.digest()
        speedup_err, energy_err = workload.accuracy()
    finally:
        workload.close()
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch is still in use

    attempted += phase.jobs + workload.checked
    failed = workload.failures
    batch_s = phase.batch_s(grids=True)
    raw_batch_s = phase.batch_s(normalized=False, grids=True)
    value, percentile, beyond = tail(batch_s)
    details = {
        "batches": len(batch_s),
        "batch_tail_percentile": percentile,
        "batch_tail_beyond": beyond,
        "failed_frac": failed / attempted,
        "failure_notes": workload.notes,
        "digest": digest,
        "host_speed": phase.host_speed(),
        "programs_per_s": phase.totals.get("programs", 0.0) / phase.wall_s,
        "machine_cycles_per_s": phase.totals.get("machine_cycles", 0.0) / phase.wall_s,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(raw * speed for raw, speed in setup_samples),
            "jobs_per_s": phase.rate(),
            "batch_p50_ms": statistics.median(batch_s) * 1e3,
            "batch_tail_ms": value * 1e3,
            "peak_rss_mb": phase.rss_mb or suite.peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
            "speedup_err": speedup_err,
            "energy_err": energy_err,
        }
        details["raw"] = {
            "setup_s": statistics.median(raw for raw, _speed in setup_samples),
            "jobs_per_s": phase.rate(normalized=False),
            "batch_p50_ms": statistics.median(raw_batch_s) * 1e3,
            "batch_tail_ms": tail(raw_batch_s)[0] * 1e3,
        }
        details["setup_samples"] = setup_samples
        units = dict(END_TO_END)
    else:
        units = {name: unit for name, (unit, _better) in spans.PER_LAYER.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    record = {"stamp": stamp(args), "details": details, **result}
    print_report(args, workload, record, traced, len(batch_s))
    if args.save:
        with open(args.save, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def print_report(args, workload, record, recorder, batches) -> None:
    """The human-readable lines printed before the JSON result line."""
    stamp_ = record["stamp"]
    details = record["details"]
    print(f"perfbench {args.workload}: {workload.why}")
    print("  stamp: " + " ".join(f"{key}={value}" for key, value in stamp_.items()))
    for name, metric in record["metrics"].items():
        print(f"  {name:<58} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"  batch_tail_ms is p{details['batch_tail_percentile']:.1f} of "
              f"{details['batches']} batches ({details['batch_tail_beyond']} beyond it)")
        print(f"  host times above are scaled to the reference host; this host ran at "
              f"{details['host_speed']:.3f} of it; as measured: " + "  ".join(
                  f"{name}={value:.6g}" for name, value in details["raw"].items()))
    print(f"  failed_frac {details['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    if args.workload == "program-check":
        print(f"  programs_per_s {details['programs_per_s']:.6g}  "
              f"machine_cycles_per_s {details['machine_cycles_per_s']:.6g}")
    for note in details["failure_notes"]:
        print(f"  failure: {note}")
    print(f"  simulated-statistics digest: {details['digest']}")
    if args.workload in ("dse-sweep", "served-sweep"):
        print("  note: the design points and family variants of this sweep have no paper "
              "reference; their results are checked for consistency only and are unvalidated")
    if recorder is not None:
        print("\n".join(recorder.report(batches)))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
