"""Benchmark of the layer-grain memo store under a synthetic family sweep.

Twelve synthetic GANs that differ only in their latent head share their whole
transposed-convolution / convolution stack, so the layer memo turns a sweep
over the family into a handful of real simulations plus cheap per-layer
lookups.  The benchmark runs the same ``execute_job`` loop with the memo
disabled (cold) and with the memo populated (warm), and enforces the layer
memo's reason to exist: the warm sweep must be faster than the cold sweep by
at least ``MIN_MEMO_SPEEDUP``, with byte-identical results.

Measurement: ``ROUNDS`` cold rounds and ``ROUNDS`` warm rounds alternate
(cold, warm, cold, warm, ...), so a slow spell of the host lands on both
modes alike.  Each pair gives one cold/warm ratio, and the gate is on the
median of those per-pair ratios.  Every warm round starts from a fresh memo
populated by one untimed sweep, so each warm round answers every layer from
the memo.

How the bar was set: ``scripts/ci.sh`` step 2 (this file among the other
runner benchmarks, one pytest process) was run 12 times against commit
e35e5d0, the last one gated on a best-of-3 5x bar (2-vCPU VM).  Sorted, the
medians read 3.83, 3.97, 4.00, 4.12, 4.15, 4.17, 4.18, 4.23, 4.23, 4.24,
4.27 and 4.37x.  The rule: bar = lowest median minus the run-to-run spread
(highest minus lowest median), rounded down to one decimal, i.e.
3.83 - (4.37 - 3.83) = 3.29, so 3.2x.  Run alone in a fresh process the
same measurement read 4.10-4.36x over 12 runs.  Re-derive the bar with the
same rule when the estimator or the memo's warm path changes.

Re-derived when the memo's key became a tuple of two memoized digests,
looked up and stored once per network (hits relabelled without re-running
``__init__``): 12 runs of ``scripts/ci.sh`` step 2 (2-vCPU VM) read sorted
medians of 8.67, 8.70, 8.80, 8.81, 8.92, 9.06, 9.12, 9.15, 9.25, 9.29, 9.31
and 10.06x, so the bar is 8.67 - (10.06 - 8.67) = 7.28, i.e. 7.2x.  The
parent commit's memo path read 3.89-4.29x in 12 interleaved runs of the
same step.

Re-derived when the estimator and pricing path stopped copying estimates and
counters per layer, which made the cold (memo-off) side faster and left the
warm path alone: 12 runs of ``scripts/ci.sh`` step 2 (2-vCPU VM) read sorted
medians of 5.55, 5.98, 6.11, 6.12, 6.20, 6.21, 6.22, 6.31, 6.35, 6.48, 6.49
and 6.52x, so the bar is 5.55 - (6.52 - 5.55) = 4.58, i.e. 4.5x.  The parent
commit read 8.09, 8.51, 8.67, 8.84, 8.85, 8.85, 8.88, 8.93, 9.11, 9.38, 9.81
and 9.82x (sorted) in 12 runs interleaved with those.

Re-measured when the per-layer records (estimate, mapping, energy, result)
got hand-written ``__init__``s, which made the cold side faster again and
left the warm path alone: 12 runs of ``scripts/ci.sh`` step 2 (2-vCPU VM)
read sorted medians of 4.29, 4.45, 4.61, 4.77, 4.81, 4.82, 4.85, 4.87, 4.90,
4.91, 4.92 and 4.99x; the parent commit read 5.93, 6.01, 6.18, 6.20, 6.20,
6.21, 6.45, 6.50, 6.51, 6.53, 6.68 and 6.73x in 12 runs interleaved with
those.  The rule would now give 4.29 - (4.99 - 4.29) = 3.59, i.e. 3.5x; the
bar stays at 4.5x, so two of those twelve runs failed it.  About half of a
warm job is the memo key: ``_layer_structure_fingerprint``'s lru_cache
hashes and compares the frozen layer and shape dataclasses by value on
every lookup, and that is where a faster warm path would come from.

Re-derived when each binding started caching its layer-structure digest
(``LayerBinding.structure_fingerprint``), so a warm lookup no longer
hashes the layer and shape dataclasses: 12 runs of ``scripts/ci.sh`` step
2 (2-vCPU VM) read sorted medians of 7.99, 8.02, 8.06, 8.16, 8.21, 8.23,
8.28, 8.29, 8.32, 8.48, 8.48 and 8.70x, so the bar is
7.99 - (8.70 - 7.99) = 7.28, i.e. 7.2x.  The parent commit read 4.45
(below its 4.5x bar), 4.79, 4.87, 4.91, 4.93, 4.95, 4.96, 4.97, 4.98,
4.98, 4.99 and 5.16x (sorted) in 12 runs interleaved with those.
"""

from __future__ import annotations

import statistics
import time

from conftest import emit

from repro.analysis.report import format_table
from repro.config import ArchitectureConfig, SimulationOptions
from repro.runner import SimulationJob, configure_layer_memo, execute_job
from repro.runner import cache as cache_module
from repro.workloads.synthetic import build_synthetic

#: Synthetic family: identical conv/tconv stacks, distinct latent heads.
FAMILY_SIZE = 12

#: Required median per-pair advantage of the memo-warm sweep over the
#: memo-disabled sweep (set from recorded runs; see the module docstring).
MIN_MEMO_SPEEDUP = 7.2

#: Timed rounds per mode; cold and warm rounds alternate.
ROUNDS = 7


def _family_jobs():
    config = ArchitectureConfig.paper_default()
    options = SimulationOptions()
    jobs = []
    for index in range(FAMILY_SIZE):
        model = build_synthetic(depth=12, base_channels=256, latent_dim=100 + index)
        jobs.extend(SimulationJob.comparison_pair(model, config, options))
    return jobs


def _sweep(jobs):
    return [execute_job(job) for job in jobs]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _alternating_rounds(jobs, rounds=ROUNDS):
    """Alternate cold and warm rounds; per-pair (cold, warm) times and results.

    Returns ``(pairs, cold_results, warm_results, hits)`` where ``hits``
    counts the memo hits of the timed warm rounds.  Every timed warm round
    must answer every layer from the memo.
    """
    pairs = []
    cold_results = warm_results = None
    hits = 0
    for _ in range(rounds):
        configure_layer_memo(enabled=False)
        cold_results, cold_seconds = _timed(lambda: _sweep(jobs))

        memo = configure_layer_memo()
        _sweep(jobs)  # populate the fresh memo, untimed
        memo.stats.reset()
        warm_results, warm_seconds = _timed(lambda: _sweep(jobs))
        assert memo.stats.misses == 0
        assert len(memo) < memo.stats.hits
        hits += memo.stats.hits
        pairs.append((cold_seconds, warm_seconds))
    return pairs, cold_results, warm_results, hits


def test_layer_memo_family_sweep(benchmark):
    """Memo-warm family sweep must beat the memo-disabled sweep (median ratio)."""
    # Snapshot the process-global memo configuration so the benchmark leaves
    # other tests in the state it found them.
    saved_memo = cache_module._layer_memo
    saved_configured = cache_module._layer_memo_configured
    try:
        jobs = _family_jobs()

        # Warm the shape-grain lru caches (fingerprints, schedule summaries)
        # once so both timed modes measure the memo, not first-touch hashing.
        configure_layer_memo(enabled=False)
        _sweep(jobs)

        pairs, cold_results, warm_results, hits = benchmark.pedantic(
            lambda: _alternating_rounds(jobs), iterations=1, rounds=1
        )
    finally:
        with cache_module._layer_memo_lock:
            cache_module._layer_memo = saved_memo
            cache_module._layer_memo_configured = saved_configured

    # The memo must not change a single result.
    assert warm_results == cold_results
    assert hits > 0

    ratios = [cold / warm if warm > 0 else float("inf") for cold, warm in pairs]
    memo_speedup = statistics.median(ratios)
    assert memo_speedup >= MIN_MEMO_SPEEDUP, (
        f"memo-warm family sweep only {memo_speedup:.2f}x faster than the "
        f"memo-disabled sweep (median of {len(ratios)} alternating pairs: "
        f"{', '.join(f'{r:.2f}' for r in sorted(ratios))}); "
        f"expected >= {MIN_MEMO_SPEEDUP:.1f}x"
    )

    cold_ms = 1e3 * statistics.median(cold for cold, _ in pairs)
    warm_ms = 1e3 * statistics.median(warm for _, warm in pairs)
    emit(
        format_table(
            ["Sweep mode", "Median wall time (ms)", "Median pair ratio"],
            [
                ["memo disabled", cold_ms, 1.0],
                ["memo warm", warm_ms, memo_speedup],
            ],
            title=(
                f"Layer memo: {len(jobs)}-job synthetic family sweep "
                f"({FAMILY_SIZE} models, {len(pairs)} alternating pairs, "
                f"bar {MIN_MEMO_SPEEDUP:.1f}x)"
            ),
            float_format="{:.2f}",
        )
    )
