"""Benchmark of the telemetry layer's overhead budgets.

Runs the six-GAN (eyeriss, ganax) comparison grid on fresh serial runners in
two telemetry states and enforces the observability contract.  Both caching
tiers are disabled for the timed grids: a cache-served replay finishes in a
couple of milliseconds, which is a degenerate denominator — the budgets are
fractions of *real simulation work*, the regime where overhead matters.

* **disabled hooks are near-free** — with metrics and tracing both off,
  every instrumented call site degrades to one ``is None`` check.  A
  micro-benchmark times a generous over-estimate of the grid's hook
  crossings through the real disabled path and requires the total to stay
  under **2%** of the dark grid's wall time;
* **full telemetry is cheap** — with metrics *and* tracing on (the most
  expensive configuration: every job allocates spans, every layer-memo
  lookup updates counters), the grid must stay within **10%** of the dark
  grid's wall time;
* **telemetry never perturbs the physics** — the full-telemetry grid's
  results equal the dark grid's results value-for-value.

Measurement: ``PAIRS`` dark rounds and ``PAIRS`` full rounds alternate
(dark, full, dark, full, ...), so a slow spell of the host lands on both
states alike.  Each full round gets a fresh registry and a fresh tracer,
so no round pays for spans an earlier round kept.  Each pair gives one
full/dark ratio, and the gate is on the median of those per-pair ratios
(the method of ``bench_layercache.py`` and ``bench_service.py``).  The
dark time the disabled-hook budget divides by is the median dark round.
The gate used to compare the best of 3 full rounds, timed after the best
of 3 dark rounds; on a 2-vCPU VM at 3e608c8 that failed 8 of 18
standalone runs (ratios up to 1.53x) while alternating pairs read
1.03-1.08x.

Recorded runs: ``scripts/ci.sh`` step 2 (this file among the other runner
benchmarks, one pytest process) was run 12 times with this method on a
2-vCPU VM.  Sorted, the medians read 1.030, 1.037, 1.038, 1.045, 1.045,
1.046, 1.048, 1.050, 1.053, 1.054, 1.070 and 1.074x, all under the bar, so
the bar stays at 1.10x.

Re-measured when the per-layer records got hand-written ``__init__``s: the
dark grid got faster and telemetry's per-job cost did not, so the ratio
rose.  12 runs of ``scripts/ci.sh`` step 2 read sorted medians of 1.042,
1.060, 1.070, 1.074, 1.078, 1.082, 1.084, 1.086, 1.086, 1.088, 1.096 and
1.11x (one run above the bar); the parent commit read 1.018-1.081x in 12
runs interleaved with those.  The bar stays at 1.10x.
"""

from __future__ import annotations

import statistics
import time

from conftest import emit

from repro.analysis.report import format_table
from repro.runner import (
    SimulationJob,
    SimulationRunner,
    configure_layer_memo,
)
from repro.telemetry import (
    configure_metrics,
    configure_tracing,
    get_metrics,
    get_tracer,
)
from repro.workloads.registry import all_workloads

#: Maximum tolerated full-telemetry wall time, as a fraction of dark time.
MAX_FULL_TELEMETRY_OVERHEAD = 1.10

#: Maximum tolerated disabled-hook cost, as a fraction of dark time.
MAX_DISABLED_OVERHEAD = 0.02

#: Hook crossings budgeted per grid run in the disabled micro-benchmark.
#: With both caching tiers off the grid crosses instrumented sites ~100
#: times (per-job events, span guards and dispatch hooks for twelve jobs);
#: 300 is a 3x over-estimate.
DISABLED_HOOK_CALLS = 300

#: Timed rounds per telemetry state; dark and full rounds alternate.
PAIRS = 21

#: Repetitions of the disabled-hook micro-benchmark; the best one counts.
ROUNDS = 3


def grid_jobs():
    return [
        job
        for model in all_workloads()
        for job in SimulationJob.comparison_pair(model)
    ]


def timed_best(fn, rounds=ROUNDS):
    best_result, best_seconds = None, float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        if seconds < best_seconds:
            best_result, best_seconds = result, seconds
    return best_result, best_seconds


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_grid():
    # use_cache=False: every round simulates for real instead of replaying
    # the first round's results out of the content-addressed cache.
    runner = SimulationRunner(use_cache=False)
    try:
        return runner.run_jobs(grid_jobs())
    finally:
        runner.close()


def disabled_hook_storm(calls=DISABLED_HOOK_CALLS):
    """The guard an instrumented call site runs when telemetry is off.

    Each site checks one registry (metrics *or* tracing, not both), so one
    iteration here is one real crossing; the tracer guard is asserted once
    outside the loop.
    """
    if get_tracer() is not None:  # pragma: no cover - telemetry is off
        raise AssertionError("tracing unexpectedly enabled")
    for _ in range(calls):
        if get_metrics() is not None:  # pragma: no cover - telemetry is off
            raise AssertionError("metrics unexpectedly enabled")


def _alternating_rounds(pairs=PAIRS):
    """Alternate dark and full grids; per-pair times and the last of each.

    Returns ``(times, dark_results, full_results, tracer, registry)`` with
    one ``(dark_seconds, full_seconds)`` tuple per pair, and the tracer and
    registry of the last full round.
    """
    times = []
    dark_results = full_results = tracer = registry = None
    for _ in range(pairs):
        configure_metrics(enabled=False)
        configure_tracing(enabled=False)
        dark_results, dark_seconds = _timed(run_grid)

        registry = configure_metrics()
        tracer = configure_tracing()
        full_results, full_seconds = _timed(run_grid)
        times.append((dark_seconds, full_seconds))
    return times, dark_results, full_results, tracer, registry


def test_telemetry_overhead_within_budget(benchmark):
    """Disabled hooks <= 2% of dark time; full telemetry <= 10%."""
    try:
        configure_metrics(enabled=False)
        configure_tracing(enabled=False)
        configure_layer_memo(enabled=False)
        run_grid()  # warm the shape-grain lru caches before any timing
        times, dark_results, full_results, tracer, registry = benchmark.pedantic(
            _alternating_rounds, iterations=1, rounds=1
        )
        dark_seconds = statistics.median(dark for dark, _ in times)
        full_seconds = statistics.median(full for _, full in times)

        configure_metrics(enabled=False)
        configure_tracing(enabled=False)
        _, disabled_seconds = timed_best(disabled_hook_storm)
        disabled_fraction = (
            disabled_seconds / dark_seconds if dark_seconds > 0 else 0.0
        )
        assert disabled_fraction <= MAX_DISABLED_OVERHEAD, (
            f"{DISABLED_HOOK_CALLS} disabled hook crossings cost "
            f"{100 * disabled_fraction:.2f}% of the dark grid; budget is "
            f"{100 * MAX_DISABLED_OVERHEAD:.0f}%"
        )

        # Telemetry observes the simulation; it must not change it.
        assert full_results == dark_results
        # ...and it really was on: spans and counters were recorded.
        assert tracer.finished_spans()
        assert registry.counter_value("runner.jobs.scheduled") > 0

        ratios = [full / dark if dark > 0 else 1.0 for dark, full in times]
        overhead = statistics.median(ratios)
        assert overhead <= MAX_FULL_TELEMETRY_OVERHEAD, (
            f"full telemetry took {overhead:.2f}x the dark grid (median of "
            f"{len(ratios)} alternating pairs: "
            f"{', '.join(f'{r:.2f}' for r in sorted(ratios))}); "
            f"budget is {MAX_FULL_TELEMETRY_OVERHEAD:.2f}x"
        )

        jobs = len(grid_jobs())
        emit(
            format_table(
                ["Configuration", "Wall time (ms)", "vs telemetry off"],
                [
                    ["telemetry off", 1e3 * dark_seconds, 1.0],
                    [
                        f"disabled hooks x{DISABLED_HOOK_CALLS}",
                        1e3 * disabled_seconds,
                        disabled_fraction,
                    ],
                    ["metrics + tracing", 1e3 * full_seconds, overhead],
                ],
                title=(
                    f"Telemetry overhead: {jobs}-job six-GAN grid (serial; "
                    f"medians of {len(times)} alternating pairs, ratio is the "
                    f"median per-pair ratio, bar {MAX_FULL_TELEMETRY_OVERHEAD:.2f}x)"
                ),
                float_format="{:.3f}",
            )
        )
    finally:
        # leave the process in the default state for whatever runs next
        configure_metrics()
        configure_tracing(enabled=False)
        configure_layer_memo()
