"""Tests for the streaming execution API: submit / BatchHandle / events.

The load-bearing guarantees of the redesign:

* **streaming-vs-batch parity** — the same jobs produce identical result
  sets and identical cache accounting whether consumed through
  ``run_jobs()`` (the blocking wrapper) or ``submit()`` +
  ``as_completed()``/``iter_results()``, from the submitting thread or
  another one;
* **event-sequence invariants** — every submitted job emits ``scheduled``
  first and then exactly one terminal event (``cache-hit`` / ``completed``
  / ``failed`` / ``cancelled``), with ``started`` strictly between for
  executed jobs;
* **cancellation** — ``BatchHandle.cancel()`` stops unstarted work, keeps
  finished results consumable, never discards the result of a job another
  thread is executing, and never corrupts accounting;
* **streaming consumers** — ``Session.stream_compare``,
  ``ParameterSweep.iter_points`` and the DSE streaming evaluator agree
  value-for-value with the batch entry points that collect them;
* (satellite) **concurrent disk-cache writers** never publish a partial
  entry — the atomic temp-file + rename protocol is exercised by two real
  writer processes hammering one key.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest
from concurrent.futures import CancelledError

from repro.accelerators import register_accelerator, unregister_accelerator
from repro.accelerators.variants import IdealRooflineSimulator
from repro.analysis.sweep import ParameterSweep
from repro.config import ArchitectureConfig, SimulationOptions
from repro.dse import DesignSpaceExplorer, HillClimbSearch
from repro.runner import (
    EVENT_KINDS,
    TERMINAL_EVENT_KINDS,
    DiskResultCache,
    SimulationJob,
    SimulationRunner,
    execute_job,
)
from repro.session import Session
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def small_models():
    return [get_workload("DCGAN"), get_workload("MAGAN"), get_workload("ArtGAN")]


def pair_jobs(models, config=None, options=None):
    return [
        job
        for model in models
        for job in SimulationJob.comparison_pair(model, config, options)
    ]


@pytest.fixture(scope="module")
def reference_results(small_models):
    """Ground truth: the batch path on a fresh serial runner."""
    return SimulationRunner().run_jobs(pair_jobs(small_models))


class _GatedRoofline(IdealRooflineSimulator):
    accelerator_name = "test-gated"


@pytest.fixture()
def gate():
    """A registered accelerator whose jobs block until the test releases them.

    Yields ``(entered, release)``: ``entered`` is set once a job is
    executing inside the gate, which holds it until ``release`` is set.
    """
    entered, release = threading.Event(), threading.Event()

    def build(config=None, options=None):
        entered.set()
        if not release.wait(timeout=60):
            raise TimeoutError("the test never released the gate")
        return _GatedRoofline(config=config, options=options)

    register_accelerator("test-gated", version="1")(build)
    try:
        yield entered, release
    finally:
        release.set()
        unregister_accelerator("test-gated")


def cancel_while_executing(gate, models):
    """Cancel a batch from this thread while another thread executes its job 0.

    A consumer thread drains ``as_completed()`` and blocks inside the gated
    first job; the cancel lands during that block, then the gate opens.
    Returns ``(jobs, handle, cancelled, drained, events)``.
    """
    entered, release = gate
    jobs = [
        SimulationJob(
            models[0],
            "test-gated",
            ArchitectureConfig.paper_default(),
            SimulationOptions(),
        ),
        *pair_jobs(models),
    ]
    events = []
    handle = SimulationRunner().submit(jobs, on_event=events.append)
    drained = []
    consumer = threading.Thread(target=lambda: drained.extend(handle.as_completed()))
    consumer.start()
    assert entered.wait(timeout=60)
    cancelled = handle.cancel()
    release.set()
    consumer.join(timeout=60)
    assert not consumer.is_alive()
    return jobs, handle, cancelled, drained, events


CONSUMERS = pytest.mark.parametrize(
    "consumer", ["submitting-thread", "other-thread"]
)


def drain(consume, consumer):
    """Return ``consume()``, called here or, as the service does, on another thread."""
    if consumer == "submitting-thread":
        return consume()
    out = []
    thread = threading.Thread(target=lambda: out.append(consume()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert out, "the consumer thread raised"
    return out[0]


# ----------------------------------------------------------------------
# Streaming vs batch parity
# ----------------------------------------------------------------------
class TestStreamingParity:
    @CONSUMERS
    def test_as_completed_matches_batch_results(
        self, consumer, small_models, reference_results
    ):
        jobs = pair_jobs(small_models)
        runner = SimulationRunner()
        handle = runner.submit(jobs)
        by_index = {}
        for completion in drain(lambda: list(handle.as_completed()), consumer):
            assert completion.index not in by_index  # delivered exactly once
            by_index[completion.index] = completion.result
        assert sorted(by_index) == list(range(len(jobs)))
        for index, result in by_index.items():
            assert result == reference_results[index]
        assert handle.done()
        assert handle.counts()["completed"] == len(jobs)

    @CONSUMERS
    def test_iter_results_preserves_submission_order(
        self, consumer, small_models, reference_results
    ):
        runner = SimulationRunner()
        handle = runner.submit(pair_jobs(small_models))
        streamed = drain(lambda: list(handle.iter_results()), consumer)
        assert streamed == reference_results

    @CONSUMERS
    def test_cache_stats_identical_regardless_of_completion_order(
        self, consumer, small_models
    ):
        batch_runner = SimulationRunner()
        batch_runner.run_jobs(pair_jobs(small_models) * 2)
        batch_runner.run_jobs(pair_jobs(small_models))

        stream_runner = SimulationRunner()
        for jobs in (pair_jobs(small_models) * 2, pair_jobs(small_models)):
            handle = stream_runner.submit(jobs)
            drain(lambda: list(handle.as_completed()), consumer)

        assert stream_runner.stats.as_dict() == batch_runner.stats.as_dict()

    def test_wide_grid_executes_in_submission_order(self, small_models):
        """Serial streaming runs a wide, duplicated grid in submission order."""
        unique = [
            job
            for model in small_models
            for value in (8, 16)
            for job in SimulationJob.comparison_pair(
                model,
                ArchitectureConfig.paper_default().with_updates(num_pvs=value),
            )
        ]
        jobs = unique * 2
        completions = list(SimulationRunner().submit(jobs).as_completed())
        executed = [c.index for c in completions if c.provenance == "executed"]
        assert executed == list(range(len(unique)))
        by_index = {c.index: c.result for c in completions}
        reference = SimulationRunner(use_cache=False).run_jobs(unique)
        assert [by_index[i] for i in range(len(jobs))] == reference * 2

    def test_warm_submissions_resolve_without_the_backend(
        self, small_models, monkeypatch
    ):
        def exploding(job):
            raise AssertionError("a warm batch must not execute a job")

        jobs = pair_jobs(small_models)
        runner = SimulationRunner()
        runner.run_jobs(jobs)
        monkeypatch.setattr("repro.runner.handle.execute_job", exploding)
        handle = runner.submit(jobs)
        assert handle.done()  # resolved entirely at submission
        completions = list(handle.as_completed())
        assert {c.provenance for c in completions} == {"cache"}

    def test_duplicates_share_the_primary_result_object(self, dcgan_model):
        runner = SimulationRunner()
        jobs = list(SimulationJob.comparison_pair(dcgan_model)) * 2
        results = runner.submit(jobs).results()
        assert results[0] is results[2]
        assert results[1] is results[3]


# ----------------------------------------------------------------------
# Event-sequence invariants
# ----------------------------------------------------------------------
class TestEventInvariants:
    def collect(self, runner, jobs):
        events = []
        handle = runner.submit(jobs, on_event=events.append)
        handle.results()
        return events

    def events_for(self, events, index):
        return [e for e in events if e.index == index]

    def test_every_job_terminates_exactly_once(self, small_models):
        runner = SimulationRunner()
        jobs = pair_jobs(small_models) * 2  # duplicates in-batch
        cold = self.collect(runner, jobs)
        warm = self.collect(runner, jobs)
        for events in (cold, warm):
            for index in range(len(jobs)):
                sequence = self.events_for(events, index)
                assert sequence[0].kind == "scheduled"
                kinds = [e.kind for e in sequence]
                assert all(kind in EVENT_KINDS for kind in kinds)
                terminals = [e for e in sequence if e.is_terminal]
                assert len(terminals) == 1, (index, kinds)
                assert terminals[0] is sequence[-1]
                assert terminals[0].kind in ("cache-hit", "completed")

    def test_cold_executed_jobs_emit_started_before_completed(self, dcgan_model):
        events = self.collect(
            SimulationRunner(), list(SimulationJob.comparison_pair(dcgan_model))
        )
        for index in range(2):
            kinds = [e.kind for e in self.events_for(events, index)]
            assert kinds == ["scheduled", "started", "completed"]

    def test_duplicates_mark_deduped_and_mirror_the_primary(self, dcgan_model):
        runner = SimulationRunner()
        jobs = list(SimulationJob.comparison_pair(dcgan_model)) * 2
        events = self.collect(runner, jobs)
        for index in (2, 3):
            sequence = self.events_for(events, index)
            assert [e.kind for e in sequence] == ["scheduled", "deduped", "completed"]
            assert sequence[-1].provenance == "deduplicated"
            assert sequence[-1].result is not None

    def test_all_scheduled_events_precede_any_terminal(self, dcgan_model):
        """Listeners learn the batch size before anything resolves."""
        runner = SimulationRunner()
        jobs = list(SimulationJob.comparison_pair(dcgan_model))
        runner.run_jobs(jobs)  # warm: every job would terminate at submit
        events = self.collect(runner, jobs)
        last_scheduled = max(
            i for i, e in enumerate(events) if e.kind == "scheduled"
        )
        first_terminal = min(i for i, e in enumerate(events) if e.is_terminal)
        assert last_scheduled < first_terminal

    def test_no_job_claims_started_and_then_cancels(self, gate, small_models):
        """'started' means executing, so started jobs never cancel."""
        jobs, _, _, _, events = cancel_while_executing(gate, small_models)
        started = {e.index for e in events if e.kind == "started"}
        cancelled = {e.index for e in events if e.kind == "cancelled"}
        assert started == {0}
        assert cancelled == set(range(1, len(jobs)))
        assert not (started & cancelled)

    def test_warm_jobs_terminate_as_cache_hits(self, dcgan_model):
        runner = SimulationRunner()
        jobs = list(SimulationJob.comparison_pair(dcgan_model))
        runner.run_jobs(jobs)
        events = self.collect(runner, jobs)
        for index in range(2):
            sequence = self.events_for(events, index)
            assert [e.kind for e in sequence] == ["scheduled", "cache-hit"]
            assert sequence[-1].provenance == "cache"

    def test_subscribe_observes_batches_until_unsubscribed(self, dcgan_model):
        runner = SimulationRunner()
        events = []
        unsubscribe = runner.subscribe(events.append)
        runner.run_jobs([SimulationJob.comparison_pair(dcgan_model)[0]])
        assert {e.kind for e in events} == {"scheduled", "started", "completed"}
        seen = len(events)
        unsubscribe()
        runner.run_jobs([SimulationJob.comparison_pair(dcgan_model)[1]])
        assert len(events) == seen

    def test_raising_listener_does_not_corrupt_the_batch(self, dcgan_model):
        def broken_listener(event):
            raise RuntimeError("observer bug")

        runner = SimulationRunner()
        jobs = list(SimulationJob.comparison_pair(dcgan_model))
        handle = runner.submit(jobs, on_event=broken_listener)
        assert len(handle.results()) == 2


# ----------------------------------------------------------------------
# Failure propagation
# ----------------------------------------------------------------------
def _failing_factory(config=None, options=None):
    raise RuntimeError("injected accelerator failure")


class TestFailedJobs:
    @pytest.fixture()
    def failing_job(self, dcgan_model, paper_config, options):
        register_accelerator("test-streaming-boom", version="1")(_failing_factory)
        try:
            yield SimulationJob(
                dcgan_model, "test-streaming-boom", paper_config, options
            )
        finally:
            unregister_accelerator("test-streaming-boom")

    def test_failed_event_carries_the_error(self, dcgan_model, failing_job):
        runner = SimulationRunner()
        good = SimulationJob.comparison_pair(dcgan_model)[0]
        events = []
        handle = runner.submit([good, failing_job], on_event=events.append)
        completions = list(handle.as_completed(raise_on_error=False))
        assert len(completions) == 2
        failed = next(c for c in completions if c.error is not None)
        assert failed.result is None
        assert "injected accelerator failure" in str(failed.error)
        terminal_kinds = {e.index: e.kind for e in events if e.is_terminal}
        assert terminal_kinds == {0: "completed", 1: "failed"}
        assert handle.counts()["failed"] == 1

    def test_as_completed_raises_by_default(self, failing_job):
        runner = SimulationRunner()
        with pytest.raises(RuntimeError, match="injected accelerator failure"):
            list(runner.submit([failing_job]).as_completed())

    def test_run_jobs_wrapper_raises_like_the_old_batch_api(self, failing_job):
        runner = SimulationRunner()
        with pytest.raises(RuntimeError, match="injected accelerator failure"):
            runner.run_jobs([failing_job])

    def test_failures_are_not_cached(self, failing_job):
        runner = SimulationRunner()
        with pytest.raises(RuntimeError):
            runner.run_jobs([failing_job])
        assert len(runner.cache) == 0
        assert runner.stats.stores == 0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_keeps_finished_results_and_stops_the_rest(self, small_models):
        runner = SimulationRunner()
        jobs = pair_jobs(small_models)  # 6 distinct jobs
        handle = runner.submit(jobs)
        stream = handle.as_completed()
        first = next(stream)
        second = next(stream)
        cancelled = handle.cancel()
        assert cancelled == len(jobs) - 2
        assert list(stream) == []  # cancelled jobs are skipped, not yielded
        counts = handle.counts()
        assert counts["completed"] == 2
        assert counts["cancelled"] == len(jobs) - 2
        assert counts["pending"] == 0
        assert handle.done()
        # the finished results stayed consumable and correct
        reference = SimulationRunner().run_jobs(jobs)
        assert first.result == reference[first.index]
        assert second.result == reference[second.index]
        # only the executed jobs were stored
        assert runner.stats.stores == 2

    def test_results_after_cancel_raise_cancelled_error(self, small_models):
        runner = SimulationRunner()
        handle = runner.submit(pair_jobs(small_models))
        assert handle.cancel() == 6
        with pytest.raises(CancelledError):
            handle.results()

    def test_cancel_is_idempotent_and_noop_when_done(self, dcgan_model):
        runner = SimulationRunner()
        handle = runner.submit(list(SimulationJob.comparison_pair(dcgan_model)))
        handle.results()
        assert handle.cancel() == 0
        assert handle.counts()["completed"] == 2

    def test_cancel_never_discards_an_executing_jobs_result(self, gate, small_models):
        """cancel() from another thread only wins for unstarted jobs.

        The job a consumer thread is executing when the cancel lands still
        delivers its real result; every job that had not started is
        cancelled, skipped by ``as_completed()`` and counted.
        """
        jobs, handle, cancelled, drained, _ = cancel_while_executing(
            gate, small_models
        )
        assert cancelled == len(jobs) - 1
        assert [completion.index for completion in drained] == [0]
        assert drained[0].result == execute_job(jobs[0])
        assert handle.done()
        assert handle.counts() == {
            "cache-hit": 0,
            "completed": 1,
            "failed": 0,
            "cancelled": len(jobs) - 1,
            "pending": 0,
        }

    def test_a_second_driver_waits_instead_of_re_executing(self, gate, small_models):
        """A thread reaching for a job another thread executes never runs it again."""
        entered, release = gate
        job = SimulationJob(
            small_models[0],
            "test-gated",
            ArchitectureConfig.paper_default(),
            SimulationOptions(),
        )
        events = []
        handle = SimulationRunner().submit([job], on_event=events.append)
        first, second = [], []
        driver = threading.Thread(target=lambda: first.extend(handle.results()))
        driver.start()
        assert entered.wait(timeout=60)
        waiter = threading.Thread(target=lambda: second.extend(handle.results()))
        waiter.start()
        waiter.join(timeout=0.05)
        assert waiter.is_alive()  # waits on the driver, does not execute
        assert handle.cancel() == 0  # the job is running: cancel() loses
        release.set()
        for thread in (driver, waiter):
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert second[0] is first[0]
        assert [e.kind for e in events] == ["scheduled", "started", "completed"]


# ----------------------------------------------------------------------
# Streaming consumers
# ----------------------------------------------------------------------
class TestSessionStreaming:
    def test_stream_compare_matches_compare(self, small_models):
        batch = Session(runner=SimulationRunner()).compare(small_models)
        session = Session(runner=SimulationRunner())
        streamed = dict(session.stream_compare(small_models))
        assert set(streamed) == set(batch)
        for name in batch:
            assert streamed[name].generator_speedups() == batch[
                name
            ].generator_speedups()
            assert streamed[name].results == batch[name].results

    def test_stream_compare_serial_order_is_submission_order(self, small_models):
        session = Session(runner=SimulationRunner())
        names = [name for name, _ in session.stream_compare(small_models)]
        assert names == [model.name for model in small_models]

    def test_submit_returns_the_raw_handle(self, small_models):
        session = Session(runner=SimulationRunner())
        handle = session.submit(small_models)
        assert len(handle) == 2 * len(small_models)
        assert len(handle.results()) == len(handle)

    def test_abandoning_the_stream_cancels_unstarted_jobs(self, small_models):
        runner = SimulationRunner()
        session = Session(runner=runner)
        stream = session.stream_compare(small_models)
        next(stream)  # first model only
        stream.close()
        # only the first model's pair executed; the rest never ran
        assert runner.stats.stores == 2

    def test_equivalent_spellings_stream_one_entry_like_batch(self):
        """A name and its spec-string spelling collapse to one streamed row."""
        spellings = ["DCGAN", "dcgan@64x64"]  # same model, same cache keys
        batch = Session(runner=SimulationRunner()).compare(spellings)
        streamed = list(
            Session(runner=SimulationRunner()).stream_compare(spellings)
        )
        assert len(streamed) == len(batch) == 1
        assert streamed[0][0] == "DCGAN"

    def test_name_collision_between_distinct_models_matches_batch(self):
        """Two different models sharing a name never mix in one group.

        The batch path's per-name dict slot keeps the *last* listed model;
        the stream must yield the same (single, unmixed) comparison.
        """
        import dataclasses

        impostor = dataclasses.replace(get_workload("MAGAN"), name="DCGAN")
        models = [get_workload("DCGAN"), impostor]
        batch = SimulationRunner().compare_accelerators(models)
        streamed = dict(
            SimulationRunner().stream_accelerators(models)
        )
        assert set(streamed) == set(batch) == {"DCGAN"}
        assert (
            streamed["DCGAN"].generator_speedups()
            == batch["DCGAN"].generator_speedups()
        )


class TestSweepStreaming:
    def test_iter_points_matches_run(self, small_models):
        values = (16.0, 64.0)
        batch = ParameterSweep(
            small_models[:2], runner=SimulationRunner()
        ).run("dram_bandwidth_bytes_per_cycle", values)
        streamed = list(
            ParameterSweep(small_models[:2], runner=SimulationRunner()).iter_points(
                "dram_bandwidth_bytes_per_cycle", values
            )
        )
        assert [p.label for p in streamed] == [p.label for p in batch]
        for s, b in zip(streamed, batch):
            assert s.config == b.config
            assert s.speedups == b.speedups
            assert s.energy_reductions == b.energy_reductions

    def test_iter_points_streams_one_point_per_config(self, dcgan_model):
        sweep = ParameterSweep([dcgan_model], runner=SimulationRunner())
        seen = []
        for point in sweep.iter_points("num_pvs", [8, 16]):
            seen.append(point.label)
        assert seen == ["num_pvs=8", "num_pvs=16"]

    def test_iter_points_handles_equivalent_model_spellings(self):
        """A name and its spec-string spelling collapse like the batch path."""
        models = [get_workload("DCGAN"), get_workload("dcgan@64x64")]
        batch = ParameterSweep(models, runner=SimulationRunner()).run(
            "num_pvs", [8, 16]
        )
        streamed = list(
            ParameterSweep(models, runner=SimulationRunner()).iter_points(
                "num_pvs", [8, 16]
            )
        )
        assert [p.label for p in streamed] == [p.label for p in batch]
        for s, b in zip(streamed, batch):
            assert s.speedups == b.speedups


class TestDseStreaming:
    def test_evaluate_stream_matches_evaluate(self, small_models):
        explorer = DesignSpaceExplorer(
            models=small_models[:2], runner=SimulationRunner()
        )
        space = explorer.space(fields=("num_pvs",), overrides={"num_pvs": (8, 16)})
        points = list(space.points())
        batch = explorer.evaluate(points)
        streamed = list(explorer.evaluate_stream(points))
        assert [p.point for p in streamed] == [p.point for p in batch]
        for s, b in zip(streamed, batch):
            assert s.objectives == b.objectives
            assert s.metrics == b.metrics

    def test_hillclimb_streaming_is_deterministic_on_serial(self, small_models):
        def run_search():
            explorer = DesignSpaceExplorer(
                models=small_models[:2],
                runner=SimulationRunner(),
            )
            space = explorer.space(
                fields=("num_pvs", "pes_per_pv"),
                overrides={"num_pvs": (4, 8, 16, 32), "pes_per_pv": (4, 8, 16)},
            )
            return explorer.explore(
                space=space, strategy=HillClimbSearch(seed=5), budget=6
            )

        first, second = run_search(), run_search()
        assert [p.label for p in first.evaluated] == [
            p.label for p in second.evaluated
        ]
        assert 1 <= len(first.evaluated) <= 6
        assert first.frontier.summary() == second.frontier.summary()

    def test_hillclimb_advances_before_exhausting_the_ring(self, small_models):
        """A strictly-improving first neighbour ends the ring early.

        The engine's trace only holds consumed evaluations, so the number
        of evaluations can stay *below* a whole ring per step; at minimum
        the climb must never overshoot its budget.
        """
        explorer = DesignSpaceExplorer(
            models=small_models[:1], runner=SimulationRunner()
        )
        space = explorer.space(
            fields=("num_pvs", "pes_per_pv"),
            overrides={"num_pvs": (4, 8, 16, 32), "pes_per_pv": (4, 8, 16, 32)},
        )
        for seed in range(4):
            result = explorer.explore(
                space=space, strategy=HillClimbSearch(seed=seed), budget=8
            )
            assert 1 <= len(result.evaluated) <= 8


class TestExperimentProgress:
    def test_context_progress_hook_sees_every_event(self):
        from repro.experiments.base import ExperimentContext

        events = []
        context = ExperimentContext(
            runner=SimulationRunner(), models=["DCGAN"], progress=events.append
        )
        context.comparisons  # triggers the legacy two-way comparison
        kinds = {e.kind for e in events}
        assert "scheduled" in kinds
        assert kinds & TERMINAL_EVENT_KINDS


# ----------------------------------------------------------------------
# Satellite: concurrent disk-cache writers never publish a partial entry
# ----------------------------------------------------------------------
PAYLOAD_A = b"a" * 200_000
PAYLOAD_B = b"b" * 200_000
_HAMMER_KEY = "ab" + "0" * 62


def _hammer_cache(root: str, payload: bytes, iterations: int) -> None:
    cache = DiskResultCache(root)
    for _ in range(iterations):
        cache.put(_HAMMER_KEY, payload)


class TestDiskCacheConcurrentWriters:
    def test_two_writers_never_interleave_a_partial_entry(self, tmp_path):
        """Two processes hammer one key; every read sees a complete value."""
        context = multiprocessing.get_context()
        writers = [
            context.Process(
                target=_hammer_cache, args=(str(tmp_path), payload, 150)
            )
            for payload in (PAYLOAD_A, PAYLOAD_B)
        ]
        for process in writers:
            process.start()
        observed = 0
        try:
            while any(process.is_alive() for process in writers):
                # every get reads the entry from disk
                value = DiskResultCache(tmp_path).get(_HAMMER_KEY)
                if value is None:
                    # os.replace publishes atomically, so once an entry
                    # exists a miss could only mean a torn write was
                    # detected (get drops corrupt entries) — a failure here
                    assert observed == 0, "published entry vanished"
                    continue
                observed += 1
                assert value in (PAYLOAD_A, PAYLOAD_B)
        finally:
            for process in writers:
                process.join()
        assert all(process.exitcode == 0 for process in writers)
        final = DiskResultCache(tmp_path).get(_HAMMER_KEY)
        assert final in (PAYLOAD_A, PAYLOAD_B)
        assert observed > 0


# ----------------------------------------------------------------------
# Satellite: N server workers sharing one sharded DiskResultCache
# ----------------------------------------------------------------------
_FLEET_SIZE = 4
_FLEET_PAYLOAD_BYTES = 20_000


def _fleet_payload(worker_id: int) -> bytes:
    return bytes([worker_id % 256]) * _FLEET_PAYLOAD_BYTES


def _fleet_key(worker_id: int, slot: int) -> str:
    # distinct 2-char shard prefixes: the traffic spreads across shard dirs
    return f"{worker_id:x}{slot:x}" + "2" * 62


def _fleet_worker(root: str, worker_id: int, iterations: int) -> None:
    """One simulated service worker: interleaved put/get/prune on the cache.

    Any inconsistency (partial read, wrong payload, crash in prune) exits
    nonzero and fails the parent's exitcode assertion.
    """
    cache = DiskResultCache(root)
    payload = _fleet_payload(worker_id)
    neighbour = (worker_id + 1) % _FLEET_SIZE
    for i in range(iterations):
        cache.put(_fleet_key(worker_id, i % 8), payload)
        # a neighbour's entry is either absent (not written yet / pruned) or
        # complete — atomic publication means never a torn value
        value = DiskResultCache(root).get(_fleet_key(neighbour, i % 8))
        assert value is None or value == _fleet_payload(neighbour)
        if i % 10 == 7:
            # concurrent prunes race over the same files: entries vanishing
            # mid-pass must be tolerated, not raised
            cache.prune(max_bytes=12 * _FLEET_PAYLOAD_BYTES)


class TestDiskCacheWorkerFleet:
    def test_n_workers_share_one_sharded_cache(self, tmp_path):
        """A fleet of processes get/put/prune one cache without corruption."""
        context = multiprocessing.get_context()
        workers = [
            context.Process(
                target=_fleet_worker, args=(str(tmp_path), worker_id, 60)
            )
            for worker_id in range(_FLEET_SIZE)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join()
        assert all(process.exitcode == 0 for process in workers)
        # the surviving cache is fully consistent: every entry readable,
        # accounting agrees with the filesystem
        cache = DiskResultCache(tmp_path)
        entries = list(cache._entry_paths())
        assert len(cache) == len(entries)
        assert cache.size_bytes() == sum(p.stat().st_size for p in entries)
        for worker_id in range(_FLEET_SIZE):
            for slot in range(8):
                value = cache.get(_fleet_key(worker_id, slot))
                assert value is None or value == _fleet_payload(worker_id)
