#!/usr/bin/env python
"""Streaming execution: consume comparison results as they land.

This example demonstrates the streaming API introduced by the runner
redesign, at its three levels:

1. ``Session.stream_compare`` — the high-level consumer: each model's
   N-way :class:`~repro.analysis.results.MultiComparison` is yielded the
   moment *its* simulations finish, instead of with the slowest model;
2. the typed :class:`~repro.runner.RunnerEvent` stream — a subscribed
   listener narrates every job's life cycle (scheduled, started,
   cache-hit, completed, ...), which is exactly how the CLI's
   ``--progress`` and ``--jsonl`` flags are built;
3. raw ``submit()`` + ``BatchHandle.as_completed()`` — per-job
   completions in completion order, with provenance showing whether each
   result was executed, served from cache, or deduplicated.

Run with::

    python examples/streaming.py
"""

from __future__ import annotations

from repro import Session, SimulationJob, SimulationRunner
from repro.accelerators import accelerator_names

MODELS = ("DCGAN", "ArtGAN", "MAGAN")


def main() -> int:
    runner = SimulationRunner()

    # 2. Subscribe a narrator before submitting anything: every job any
    #    consumer routes through this runner reports its life cycle.
    terminal_count = [0]

    def narrate(event):
        if event.is_terminal:
            terminal_count[0] += 1
            print(
                f"    event: {event.job.model_name:>7s} on "
                f"{event.job.accelerator:<12s} -> {event.kind}"
                f" ({event.provenance})"
            )

    unsubscribe = runner.subscribe(narrate)

    # 1. Stream an N-way comparison: rows print as each model completes.
    print("streaming compare over", ", ".join(accelerator_names()))
    session = Session(accelerators=accelerator_names(), runner=runner)
    for name, multi in session.stream_compare(MODELS):
        speedups = ", ".join(
            f"{acc}={multi.generator_speedup(acc):.2f}x"
            for acc in multi.accelerators
        )
        print(f"  {name}: {speedups}")
    unsubscribe()

    # 3. Raw submit/as_completed: the same jobs are warm now, so every
    #    completion resolves instantly with provenance "cache"/"deduplicated".
    jobs = [
        job
        for name in MODELS
        for job in SimulationJob.for_accelerators(name, accelerator_names())
    ]
    handle = runner.submit(jobs)
    provenances = [provenance for _job, _result, provenance in handle.as_completed()]
    print(
        f"warm re-submission: {len(provenances)} jobs, "
        f"provenances: {sorted(set(provenances))}, "
        f"nothing executed: {handle.counts()['completed'] == 0}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
