"""Benchmark of the design-space exploration engine's cache behaviour.

Runs the same exhaustive search (a PE-geometry grid, all six GANs, GANAX vs
EYERISS at every point) twice on one runner and compares wall time:

* **cold** — fresh runner, empty cache: every candidate evaluation simulates;
* **warm** — the same runner again: the search replays the identical job set
  and must answer entirely from the content-addressed cache.

The warm re-search must be at least 5x faster than the cold search — the
same contract `bench_runner.py` enforces for sweeps, extended to the DSE
layer — and must report **zero misses**: a deterministic strategy plus
content-hash keys means a repeated search never re-simulates anything.
"""

from __future__ import annotations

import time

from conftest import emit

from repro.analysis.report import format_table
from repro.dse.engine import DesignSpaceExplorer
from repro.dse.strategies import ExhaustiveSearch
from repro.runner import SimulationRunner

#: PE-array geometry grid explored by the benchmark search.
GRID = {"num_pvs": (8, 16, 32), "pes_per_pv": (8, 16)}

#: Required advantage of the warm re-search over the cold search.
MIN_WARM_SPEEDUP = 5.0


def run_search(explorer: DesignSpaceExplorer):
    space = explorer.space(fields=tuple(GRID), overrides=GRID)
    return explorer.explore(space=space, strategy=ExhaustiveSearch())


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_dse_warm_cache_speedup(benchmark):
    """Re-searching a warm cache must be >= 5x faster with 100% hits."""
    runner = SimulationRunner()
    explorer = DesignSpaceExplorer(runner=runner)

    cold_result, cold_seconds = benchmark.pedantic(
        lambda: timed(lambda: run_search(explorer)),
        iterations=1,
        rounds=1,
    )
    warm_result, warm_seconds = timed(lambda: run_search(explorer))

    # The two searches saw the same space and produced identical frontiers.
    assert [p.label for p in cold_result.evaluated] == [
        p.label for p in warm_result.evaluated
    ]
    assert cold_result.frontier.summary() == warm_result.frontier.summary()

    # The warm search answered everything from cache.
    assert cold_result.cache_stats.misses == cold_result.cache_stats.lookups
    assert warm_result.cache_stats.misses == 0
    assert warm_result.cache_stats.hit_rate == 1.0

    warm_speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm re-search only {warm_speedup:.1f}x faster than cold; "
        f"expected >= {MIN_WARM_SPEEDUP:.0f}x"
    )

    points = len(cold_result.evaluated)
    emit(
        format_table(
            ["Search", "Wall time (ms)", "vs cold", "Cache hit rate"],
            [
                ["cold exhaustive", 1e3 * cold_seconds, 1.0,
                 cold_result.cache_stats.hit_rate],
                ["warm exhaustive", 1e3 * warm_seconds, warm_speedup,
                 warm_result.cache_stats.hit_rate],
            ],
            title=(
                f"DSE modes: {points}-point geometry grid "
                "(6 GANs, ganax vs eyeriss)"
            ),
            float_format="{:.2f}",
        )
    )
