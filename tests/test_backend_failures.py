"""Failure-path hardening of the job futures and the disk cache.

* A :class:`JobFuture` whose done-callback raises — even a
  ``BaseException`` such as ``KeyboardInterrupt`` — must still settle, so
  no ``result()`` waiter or ``as_completed()`` consumer is stranded.
* The :class:`SerialBackend` executes nothing at submission, attributes a
  failing job to its own future only, runs each job at most once however
  often its future is driven, and keeps its in-flight gauge honest.
* ``DiskResultCache.get()`` must treat entries that vanish under a
  concurrent ``prune()``/delete as clean misses — including when the
  recency-refreshing ``os.utime`` is what hits the vanished file.
"""

from __future__ import annotations

import os
from concurrent.futures import CancelledError

import pytest

from repro.accelerators import register_accelerator, unregister_accelerator
from repro.runner import (
    DiskResultCache,
    JobFuture,
    SerialBackend,
    SimulationJob,
    execute_job,
)
from repro.telemetry import configure_metrics


@pytest.fixture
def jobs(dcgan_model, paper_config, options):
    return [
        SimulationJob(dcgan_model, accelerator, paper_config, options)
        for accelerator in ("eyeriss", "ganax")
    ]


class TestJobFutureSettling:
    def test_raising_done_callback_still_settles(self, jobs):
        future = JobFuture(jobs[0])
        future.add_done_callback(lambda f: (_ for _ in ()).throw(RuntimeError()))
        result = execute_job(jobs[0])
        assert future.set_result(result)
        assert future.done()
        assert future.result(timeout=1) == result

    def test_baseexception_callback_cannot_strand_waiters(self, jobs):
        """An interrupt escaping a callback must not leave the future unsettled."""
        future = JobFuture(jobs[0])

        def interrupting(_):
            raise KeyboardInterrupt()

        future.add_done_callback(interrupting)
        with pytest.raises(KeyboardInterrupt):
            future.set_result(execute_job(jobs[0]))
        assert future.done()  # terminal despite the escaping callback
        assert future.result(timeout=1) is not None

    def test_cancelling_a_pending_future_settles_it_cancelled(self, jobs):
        future = JobFuture(jobs[0])
        assert future.cancel()
        assert future.done() and future.cancelled()
        assert future.cancel()  # idempotent
        assert not future.set_result(execute_job(jobs[0]))  # terminal already
        with pytest.raises(CancelledError):
            future.result(timeout=1)

    def test_a_running_future_cannot_be_cancelled(self, jobs):
        future = JobFuture(jobs[0])
        assert future.set_running()
        assert not future.cancel()
        result = execute_job(jobs[0])
        assert future.set_result(result)
        assert not future.cancelled()
        assert future.result(timeout=1) == result


def _failing_factory(config=None, options=None):
    raise RuntimeError("injected accelerator failure")


class TestSerialBackend:
    @pytest.fixture()
    def failing_job(self, dcgan_model, paper_config, options):
        register_accelerator("test-backend-boom", version="1")(_failing_factory)
        try:
            yield SimulationJob(dcgan_model, "test-backend-boom", paper_config, options)
        finally:
            unregister_accelerator("test-backend-boom")

    @pytest.fixture()
    def metrics(self):
        registry = configure_metrics()
        yield registry
        configure_metrics()

    def test_failing_job_fails_only_its_own_future(self, jobs, failing_job):
        futures = SerialBackend().submit_jobs([jobs[0], failing_job, jobs[1]])
        with pytest.raises(RuntimeError, match="injected accelerator failure"):
            futures[1].result(timeout=30)
        assert futures[0].result(timeout=30) == execute_job(jobs[0])
        assert futures[2].result(timeout=30) == execute_job(jobs[1])
        assert isinstance(futures[1].exception(), RuntimeError)
        assert not futures[1].cancelled()
        assert futures[0].exception() is None

    def test_submission_executes_nothing_until_driven(self, jobs, failing_job):
        futures = SerialBackend().submit_jobs([failing_job, *jobs])
        assert not any(future.done() for future in futures)
        assert all(future.peek_result() is None for future in futures)
        # an undriven job can still be cancelled: it never started
        assert futures[0].cancel()
        assert [future.result(timeout=30) for future in futures[1:]] == [
            execute_job(job) for job in jobs
        ]

    def test_a_driven_future_executes_its_job_once(self, jobs):
        (future,) = SerialBackend().submit_jobs(jobs[:1])
        first = future.result(timeout=30)
        future.drive()  # already finished: a no-op, not a second execution
        assert future.result(timeout=0) is first
        assert not future.cancel()

    def test_empty_submission_dispatches_nothing(self, metrics):
        assert SerialBackend().submit_jobs([]) == []
        assert metrics.counter_value("backend.jobs.dispatched", backend="serial") == 0

    def test_inflight_gauge_counts_undriven_futures(self, jobs, metrics):
        futures = SerialBackend().submit_jobs(jobs)
        inflight = metrics.gauge("backend.jobs.inflight", backend="serial")
        assert metrics.counter_value("backend.jobs.dispatched", backend="serial") == 2
        assert inflight.value == 2
        futures[0].result(timeout=30)
        assert inflight.value == 1
        assert futures[1].cancel()
        assert inflight.value == 0


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
