"""Benchmark of the streaming scheduler's overhead vs the batch path.

Runs the six-GAN (eyeriss, ganax) comparison grid two ways on fresh serial
runners and compares wall time:

* **batch** — ``run_jobs()``, the blocking wrapper (the pre-streaming API);
* **streaming** — ``submit()`` + draining ``as_completed()``, with an event
  listener attached (the worst practical case: every job also narrates its
  life cycle).

Streaming buys incremental results, typed events and cancellation; it must
not tax the common case for it.  The contract enforced here: the streaming
path stays within **10%** of the batch path's wall time on the six-GAN grid
(both measured best-of-N to shave scheduler noise), produces byte-identical
results, and a warm streaming submission resolves entirely from cache
without touching the backend.
"""

from __future__ import annotations

import time

from conftest import emit

from repro.analysis.report import format_table
from repro.runner import SimulationJob, SimulationRunner
from repro.workloads.registry import all_workloads

#: Maximum tolerated streaming wall time, as a fraction of the batch path.
MAX_STREAMING_OVERHEAD = 1.10

#: Timing repetitions; the best run is compared to shave scheduler noise.
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


def test_streaming_overhead_within_budget(benchmark):
    """Streaming submit/as_completed must stay within 10% of run_jobs."""
    batch_results, batch_seconds = benchmark.pedantic(
        lambda: timed_best(run_batch), iterations=1, rounds=1
    )
    streaming_results, streaming_seconds = timed_best(run_streaming)

    # Identical values: streaming is a consumption strategy, not a new path.
    assert streaming_results == batch_results

    overhead = streaming_seconds / batch_seconds if batch_seconds > 0 else 1.0
    assert overhead <= MAX_STREAMING_OVERHEAD, (
        f"streaming took {overhead:.2f}x the batch path; "
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
    emit(
        format_table(
            ["Path", "Wall time (ms)", "vs batch"],
            [
                ["batch run_jobs", 1e3 * batch_seconds, 1.0],
                ["streaming as_completed", 1e3 * streaming_seconds, overhead],
            ],
            title=f"Streaming overhead: {jobs}-job six-GAN grid (serial)",
            float_format="{:.2f}",
        )
    )
