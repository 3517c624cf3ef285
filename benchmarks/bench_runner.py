"""Benchmark of the simulation runner's execution modes.

Runs the same ablation-sized parameter sweep (all six GANs x a DRAM-bandwidth
sweep, both accelerators) three ways and compares wall time:

* **cold serial** — fresh runner, serial backend, empty cache;
* **pooled** — fresh runner, process-pool backend, empty cache (worker
  start-up is included, so on small grids or few cores this can be slower
  than serial — the mode exists for large grids, the benchmark just reports);
* **warm cache** — the serial runner again, cache already populated.

The warm-cache path must be at least 5x faster than the cold serial path —
that is the runner subsystem's reason to exist — and all three must produce
identical sweep points (the same parity the unit tests assert, checked here
on the benchmark workload itself).
"""

from __future__ import annotations

import os
import time

from conftest import emit

from repro.analysis.report import format_table
from repro.analysis.sweep import ParameterSweep
from repro.runner import (
    ProcessPoolBackend,
    SerialBackend,
    SimulationJob,
    SimulationRunner,
    execute_job,
)
from repro.runner import cache as cache_module
from repro.runner.cache import configure_layer_memo
from repro.workloads.registry import all_workloads

#: DRAM bandwidth values swept by the benchmark workload.
BANDWIDTH_VALUES = (8.0, 16.0, 32.0, 64.0, 128.0)

#: Required advantage of the warm-cache sweep over the cold serial sweep.
MIN_WARM_SPEEDUP = 5.0

#: Wall-clock budget for one cold pass over the full six-GAN comparison grid.
#: The analytic core is one scalar pass per layer; the whole grid is a
#: fraction of a second even on slow CI machines, and this bound keeps it
#: that way.
GAN_GRID_BUDGET_SECONDS = 2.0


def run_sweep(runner: SimulationRunner, models):
    sweep = ParameterSweep(models, runner=runner)
    return sweep.run("dram_bandwidth_bytes_per_cycle", list(BANDWIDTH_VALUES))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_six_gan_grid_wall_clock(benchmark):
    """One cold pass over the six-GAN x (eyeriss, ganax) comparison grid.

    This is the paper's whole evaluation matrix executed job-by-job with no
    job cache and no layer memo — the analytic core alone must fit the
    budget.  A regression that slows an estimator or adds per-layer pricing
    overhead shows up here long before it hurts a real sweep.
    """
    jobs = []
    for model in all_workloads():
        jobs.extend(SimulationJob.comparison_pair(model))

    def grid():
        return [execute_job(job) for job in jobs]

    saved_memo = cache_module._layer_memo
    saved_configured = cache_module._layer_memo_configured
    saved_env = {
        name: os.environ.get(name)
        for name in (cache_module.LAYER_MEMO_ENV, cache_module.LAYER_MEMO_DIR_ENV)
    }
    try:
        configure_layer_memo(enabled=False)
        grid()  # warm the shape-grain lru caches; the budget is on steady state
        results, seconds = benchmark.pedantic(
            lambda: timed(grid), iterations=1, rounds=1
        )
    finally:
        with cache_module._layer_memo_lock:
            cache_module._layer_memo = saved_memo
            cache_module._layer_memo_configured = saved_configured
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    assert len(results) == len(jobs)
    assert seconds <= GAN_GRID_BUDGET_SECONDS, (
        f"six-GAN comparison grid took {seconds:.3f}s; "
        f"budget is {GAN_GRID_BUDGET_SECONDS:.1f}s"
    )

    emit(
        format_table(
            ["Grid", "Jobs", "Wall time (ms)", "Budget (ms)"],
            [
                [
                    "6 GANs x (eyeriss, ganax)",
                    len(jobs),
                    1e3 * seconds,
                    1e3 * GAN_GRID_BUDGET_SECONDS,
                ],
            ],
            title="Six-GAN comparison grid wall clock",
            float_format="{:.2f}",
        )
    )


def test_runner_execution_modes(benchmark):
    """Compare cold-serial / pooled / warm-cache sweep wall time."""
    models = all_workloads()

    serial_runner = SimulationRunner(backend=SerialBackend())
    cold_points, cold_seconds = benchmark.pedantic(
        lambda: timed(lambda: run_sweep(serial_runner, models)),
        iterations=1,
        rounds=1,
    )

    with SimulationRunner(backend=ProcessPoolBackend()) as pooled_runner:
        pooled_points, pooled_seconds = timed(
            lambda: run_sweep(pooled_runner, models)
        )

    warm_points, warm_seconds = timed(lambda: run_sweep(serial_runner, models))

    # All three modes must agree exactly.
    for cold, pooled, warm in zip(cold_points, pooled_points, warm_points):
        assert cold.speedups == pooled.speedups == warm.speedups
        assert (
            cold.energy_reductions == pooled.energy_reductions
            == warm.energy_reductions
        )

    # The warm cache answered everything without simulating.
    jobs = 2 * len(models) * len(BANDWIDTH_VALUES)
    assert serial_runner.stats.misses == jobs
    assert serial_runner.stats.hits == jobs

    warm_speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache sweep only {warm_speedup:.1f}x faster than cold serial; "
        f"expected >= {MIN_WARM_SPEEDUP:.0f}x"
    )

    emit(
        format_table(
            ["Execution mode", "Wall time (ms)", "vs cold serial"],
            [
                ["cold serial", 1e3 * cold_seconds, 1.0],
                ["process pool (cold)", 1e3 * pooled_seconds,
                 cold_seconds / pooled_seconds],
                ["warm cache", 1e3 * warm_seconds, warm_speedup],
            ],
            title=f"Runner modes: {jobs}-job DRAM-bandwidth sweep (6 GANs)",
            float_format="{:.2f}",
        )
    )
