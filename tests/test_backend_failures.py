"""Failure-path hardening of the batch handle's job slots and the disk cache.

* A job slot whose terminal-event listener raises — even a
  ``BaseException`` such as ``KeyboardInterrupt`` — is still terminal, so
  no ``results()`` waiter or ``as_completed()`` consumer is stranded.
* A :class:`~repro.runner.BatchHandle` executes nothing at submission,
  attributes a failing job to its own slot only, runs each job at most once
  however often it is driven, keeps the in-flight gauge honest, and leaves
  nothing in flight when ``results()`` raises.
* ``DiskResultCache.get()`` must treat entries that vanish under a
  concurrent ``prune()``/delete as clean misses — including when the
  recency-refreshing ``os.utime`` is what hits the vanished file.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import CancelledError

import pytest

from repro.accelerators import register_accelerator, unregister_accelerator
from repro.runner import (
    DiskResultCache,
    SimulationJob,
    SimulationRunner,
    execute_job,
)
from repro.telemetry import configure_metrics, configure_tracing


@pytest.fixture
def jobs(dcgan_model, paper_config, options):
    return [
        SimulationJob(dcgan_model, accelerator, paper_config, options)
        for accelerator in ("eyeriss", "ganax")
    ]


def _failing_factory(config=None, options=None):
    raise RuntimeError("injected accelerator failure")


@pytest.fixture()
def failing_job(dcgan_model, paper_config, options):
    register_accelerator("test-backend-boom", version="1")(_failing_factory)
    try:
        yield SimulationJob(dcgan_model, "test-backend-boom", paper_config, options)
    finally:
        unregister_accelerator("test-backend-boom")


@pytest.fixture()
def metrics():
    registry = configure_metrics()
    yield registry
    configure_metrics()


@pytest.fixture()
def executions(monkeypatch):
    """Count the jobs the handle actually executes (job labels, in order)."""
    ran = []

    def counting(job):
        ran.append((job.model_name, job.accelerator, job.config.num_pvs))
        return execute_job(job)

    monkeypatch.setattr("repro.runner.handle.execute_job", counting)
    return ran


def _start(fn):
    """Run ``fn`` on a daemon thread; the returned list gets its value or error.

    Daemon threads keep a regression that strands a waiter a test failure
    (the join below times out) instead of a hung test process.
    """
    outcome = []

    def target():
        try:
            outcome.append(fn())
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def _outcome(thread, outcome):
    thread.join(timeout=60)
    assert not thread.is_alive(), "a waiter was stranded"
    return outcome[0]


def _interrupt_first_completion():
    """A listener that raises ``KeyboardInterrupt`` on the first ``completed``."""
    fired = []

    def listener(event):
        if event.kind == "completed" and not fired:
            fired.append(event.index)
            raise KeyboardInterrupt()

    return listener


class TestSlotSettling:
    def test_interrupting_terminal_listener_leaves_the_slot_terminal(self, jobs):
        """An interrupt escaping a listener still settles the slot and its dups."""
        handle = SimulationRunner().submit(
            [jobs[0], jobs[0], jobs[1]], on_event=_interrupt_first_completion()
        )
        assert isinstance(_outcome(*_start(handle.results)), KeyboardInterrupt)
        assert handle.done()  # terminal despite the escaping listener
        assert handle.counts() == {
            "cache-hit": 0,
            "completed": 2,  # slot 0 and its duplicate
            "failed": 0,
            "cancelled": 1,  # results() cancelled the unstarted slot 2
            "pending": 0,
        }
        completions = list(handle.as_completed())
        assert [c.index for c in completions] == [0, 1]
        assert completions[1].result is completions[0].result

    def test_interrupting_listener_cannot_strand_waiters(self, jobs):
        """A thread waiting on the slot (and its duplicate) still gets results."""
        entered, release = threading.Event(), threading.Event()
        interrupt = _interrupt_first_completion()

        def listener(event):
            if event.kind == "started":  # hold the driver inside its slot
                entered.set()
                release.wait(timeout=60)
            interrupt(event)

        handle = SimulationRunner().submit([jobs[0], jobs[0]], on_event=listener)
        driver = _start(handle.results)
        assert entered.wait(timeout=60)
        waiter = _start(handle.results)
        release.set()
        assert isinstance(_outcome(*driver), KeyboardInterrupt)
        waited = _outcome(*waiter)
        assert len(waited) == 2 and waited[0] is waited[1]

    def test_cancelling_an_undriven_slot_settles_it_cancelled(self, jobs, executions):
        events = []
        handle = SimulationRunner().submit(jobs[:1], on_event=events.append)
        assert handle.cancel() == 1
        assert handle.done() and handle.counts()["cancelled"] == 1
        assert handle.cancel() == 1  # idempotent: nothing new is cancelled
        assert list(handle.as_completed()) == []
        with pytest.raises(CancelledError):
            handle.results()
        assert executions == []
        assert [e.kind for e in events] == ["scheduled", "cancelled"]


class TestHandleExecution:
    def test_failing_job_fails_only_its_own_slot(self, jobs, failing_job):
        handle = SimulationRunner().submit([jobs[0], failing_job, jobs[1]])
        completions = {
            c.index: c for c in handle.as_completed(raise_on_error=False)
        }
        assert isinstance(completions[1].error, RuntimeError)
        assert "injected accelerator failure" in str(completions[1].error)
        assert completions[1].result is None
        assert completions[0].result == execute_job(jobs[0])
        assert completions[2].result == execute_job(jobs[1])
        assert completions[0].error is None and completions[2].error is None
        assert handle.counts()["failed"] == 1
        assert handle.counts()["completed"] == 2
        with pytest.raises(RuntimeError, match="injected accelerator failure"):
            handle.results()

    def test_submission_executes_nothing_until_driven(
        self, jobs, failing_job, executions
    ):
        events = []
        handle = SimulationRunner().submit(
            [failing_job, *jobs], on_event=events.append
        )
        assert executions == []
        assert handle.counts()["pending"] == 3
        assert "started" not in {e.kind for e in events}
        # driving the stream runs one slot; the undriven rest still cancel
        with pytest.raises(RuntimeError, match="injected accelerator failure"):
            next(handle.as_completed())
        assert executions == [("DCGAN", "test-backend-boom", 16)]
        assert handle.cancel() == 2
        assert handle.done()
        assert len(executions) == 1

    def test_a_slot_executes_once_however_often_it_is_driven(self, jobs, executions):
        handle = SimulationRunner().submit(jobs[:1])
        first = handle.results()[0]
        assert handle.results()[0] is first  # a no-op, not a second execution
        assert next(handle.iter_results()) is first
        assert list(handle.as_completed())[0].result is first
        assert not handle.cancel()
        assert executions == [("DCGAN", "eyeriss", 16)]

    def test_empty_batch_dispatches_nothing(self, metrics):
        handle = SimulationRunner().submit([])
        assert handle.done() and handle.results() == []
        assert metrics.counter_value("backend.jobs.dispatched", backend="serial") == 0
        assert metrics.gauge("backend.jobs.inflight", backend="serial").value == 0

    def test_inflight_gauge_counts_undriven_slots(self, jobs, metrics):
        handle = SimulationRunner().submit(jobs)
        inflight = metrics.gauge("backend.jobs.inflight", backend="serial")
        assert metrics.counter_value("backend.jobs.dispatched", backend="serial") == 2
        assert inflight.value == 2
        next(handle.as_completed())
        assert inflight.value == 1
        assert handle.cancel() == 1
        assert inflight.value == 0

    def test_racing_drivers_and_cancel_settle_each_slot_once(
        self, jobs, executions
    ):
        """Drivers and a canceller race on one handle with a tiny switch interval.

        Every slot ends with exactly one terminal event, a job never runs
        twice, and no slot both starts and cancels.
        """
        configs = [jobs[0].config.with_updates(num_pvs=n) for n in (4, 8, 16, 32)]
        unique = [
            SimulationJob(job.model, job.accelerator, config, job.options)
            for config in configs
            for job in jobs
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                del executions[:]
                events = []
                handle = SimulationRunner(use_cache=False).submit(
                    unique * 2, on_event=events.append
                )
                threads = [_start(handle.results) for _ in range(3)]
                threads += [
                    _start(lambda: list(handle.as_completed(raise_on_error=False)))
                    for _ in range(2)
                ]
                threads.append(_start(handle.cancel))
                for thread in threads:
                    _outcome(*thread)
                assert handle.done()
                terminals = [e.index for e in events if e.is_terminal]
                assert sorted(terminals) == list(range(2 * len(unique)))
                started = {e.index for e in events if e.kind == "started"}
                cancelled = {e.index for e in events if e.kind == "cancelled"}
                assert not started & cancelled
                assert len(executions) == len(started)
                assert len(set(executions)) == len(executions)
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_results_call_leaves_nothing_in_flight(
        self, jobs, failing_job, metrics
    ):
        """results() raising at slot 0 must not orphan the rest of the batch."""
        tracer = configure_tracing()
        try:
            events = []
            handle = SimulationRunner().submit(
                [failing_job, *reversed(jobs)], on_event=events.append
            )
            with pytest.raises(RuntimeError, match="injected accelerator failure"):
                handle.results()
        finally:
            configure_tracing(enabled=False)
        terminals = {e.index: e.kind for e in events if e.is_terminal}
        assert terminals == {0: "failed", 1: "cancelled", 2: "cancelled"}
        assert handle.done()
        assert metrics.gauge("backend.jobs.inflight", backend="serial").value == 0
        assert not tracer.open_spans()
        (batch,) = [span for span in tracer.finished_spans() if span.name == "batch"]
        assert batch.attrs["counts"]["cancelled"] == 2
        assert tracer.parent_for(failing_job.cache_key) is None


class TestDiskCacheRaces:
    def _entry(self, tmp_path, jobs):
        cache = DiskResultCache(tmp_path / "cache")
        job = jobs[0]
        result = execute_job(job)
        cache.put(job.cache_key, result)
        return job.cache_key, result

    def test_vanished_entry_is_a_clean_miss(self, tmp_path, jobs):
        key, _ = self._entry(tmp_path, jobs)
        cold = DiskResultCache(tmp_path / "cache")
        path = cold._path_for(key)
        path.unlink()  # concurrent prune()/delete between lookup and open
        assert cold.get(key) is None

    def test_utime_racing_prune_still_serves_the_result(
        self, tmp_path, jobs, monkeypatch
    ):
        """Entry read OK but deleted before the recency touch: still a hit."""
        key, result = self._entry(tmp_path, jobs)
        cold = DiskResultCache(tmp_path / "cache")

        def vanished(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "utime", vanished)
        assert cold.get(key) == result

    def test_prune_to_zero_then_get_misses_without_error(self, tmp_path, jobs):
        key, _ = self._entry(tmp_path, jobs)
        cold = DiskResultCache(tmp_path / "cache")
        stats = cold.prune(max_bytes=0)
        assert stats.remaining_entries == 0
        assert cold.get(key) is None
