"""Benchmark of the streaming scheduler's overhead vs the batch path.

Runs the six-GAN (eyeriss, ganax) comparison grid two ways on fresh serial
runners and compares wall time:

* **batch** — ``run_jobs()``, the blocking wrapper (the pre-streaming API);
* **streaming** — ``submit()`` + draining ``as_completed()``, with an event
  listener attached (the worst practical case: every job also narrates its
  life cycle).

Streaming buys incremental results, typed events and cancellation; it must
not tax the common case for it.  The contract enforced here: the streaming
path stays within **10%** of the batch path's wall time on the six-GAN grid,
produces byte-identical results, and a warm streaming submission resolves
entirely at submit time, with no job left to run.

Measurement: one untimed grid first warms the process-wide layer memo, so
every timed round sees the same memo state.  Then ``PAIRS`` batch rounds and
``PAIRS`` streaming rounds alternate (batch, streaming, batch, ...), so a
slow spell of the host lands on both paths alike.  Each pair gives one
streaming/batch ratio, and the gate is on the median of those per-pair
ratios (the method of ``bench_service.py`` and ``bench_telemetry.py``).
The gate used to compare the best of 3 streaming rounds, timed after the
best of 3 batch rounds, so a slow spell during one path's rounds moved the
ratio by itself.

Recorded runs: ``scripts/ci.sh`` step 2 (this file among the other runner
benchmarks, one pytest process) was run 12 times with this method on a
2-vCPU VM.  Sorted, the medians read 1.00, 1.01, 1.01, 1.02, 1.02, 1.02,
1.02, 1.03, 1.03, 1.03, 1.04 and 1.04x, all under the bar, so the bar stays
at 1.10x.  Interleaved with those runs, the best-of-3 method read
0.88-1.08x in 11 runs and failed at 1.13x in the twelfth.
"""

from __future__ import annotations

import statistics
import time

from conftest import emit

from repro.analysis.report import format_table
from repro.runner import SimulationJob, SimulationRunner
from repro.workloads.registry import all_workloads

#: Maximum tolerated streaming wall time, as a fraction of the batch path.
MAX_STREAMING_OVERHEAD = 1.10

#: Timed rounds per path; batch and streaming rounds alternate.
PAIRS = 21


def grid_jobs():
    return [
        job
        for model in all_workloads()
        for job in SimulationJob.comparison_pair(model)
    ]


def run_batch():
    runner = SimulationRunner()
    return runner.run_jobs(grid_jobs())


def run_streaming():
    events = []
    runner = SimulationRunner()
    handle = runner.submit(grid_jobs(), on_event=events.append)
    results = [None] * len(handle)
    for completion in handle.as_completed():
        results[completion.index] = completion.result
    assert len(events) >= 2 * len(handle)  # scheduled + terminal per job
    return results


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _alternating_rounds(pairs=PAIRS):
    """Alternate batch and streaming grids; per-pair times and the last results.

    Returns ``(times, batch_results, streaming_results)`` with one
    ``(batch_seconds, streaming_seconds)`` tuple per pair.
    """
    run_batch()  # warm the layer memo outside the timed rounds
    times = []
    batch_results = streaming_results = None
    for _ in range(pairs):
        batch_results, batch_seconds = _timed(run_batch)
        streaming_results, streaming_seconds = _timed(run_streaming)
        times.append((batch_seconds, streaming_seconds))
    return times, batch_results, streaming_results


def test_streaming_overhead_within_budget(benchmark):
    """Streaming submit/as_completed must stay within 10% of run_jobs."""
    times, batch_results, streaming_results = benchmark.pedantic(
        _alternating_rounds, iterations=1, rounds=1
    )

    # Identical values: streaming is a consumption strategy, not a new path.
    assert streaming_results == batch_results

    ratios = [
        streaming / batch if batch > 0 else 1.0 for batch, streaming in times
    ]
    overhead = statistics.median(ratios)
    assert overhead <= MAX_STREAMING_OVERHEAD, (
        f"streaming took {overhead:.2f}x the batch path (median of "
        f"{len(ratios)} alternating pairs: "
        f"{', '.join(f'{r:.2f}' for r in sorted(ratios))}); "
        f"budget is {MAX_STREAMING_OVERHEAD:.2f}x"
    )

    # A warm streaming submission answers everything at submit time.
    warm_runner = SimulationRunner()
    warm_runner.run_jobs(grid_jobs())
    warm_handle = warm_runner.submit(grid_jobs())
    assert warm_handle.done()
    assert warm_handle.counts()["cache-hit"] == len(set(
        job.cache_key for job in grid_jobs()
    ))

    jobs = len(grid_jobs())
    batch_ms = 1e3 * statistics.median(batch for batch, _ in times)
    streaming_ms = 1e3 * statistics.median(streaming for _, streaming in times)
    emit(
        format_table(
            ["Path", "Median wall time (ms)", "Median pair ratio"],
            [
                ["batch run_jobs", batch_ms, 1.0],
                ["streaming as_completed", streaming_ms, overhead],
            ],
            title=(
                f"Streaming overhead: {jobs}-job six-GAN grid "
                f"({len(times)} alternating pairs, bar {MAX_STREAMING_OVERHEAD:.2f}x)"
            ),
            float_format="{:.2f}",
        )
    )
