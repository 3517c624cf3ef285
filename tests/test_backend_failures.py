"""Failure-path hardening of the job futures and the disk cache.

* A :class:`JobFuture` whose done-callback raises — even a
  ``BaseException`` such as ``KeyboardInterrupt`` — must still settle, so
  no ``result()`` waiter or ``as_completed()`` consumer is stranded.
* The :class:`AsyncioBackend` must attribute a failing job to its own future
  only, and ``close()`` must settle every in-flight future before the loop
  stops; a closed backend starts a fresh loop on its next submission.
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
    AsyncioBackend,
    DiskResultCache,
    JobFuture,
    SimulationJob,
    execute_job,
)


@pytest.fixture
def jobs(dcgan_model, paper_config, options):
    return [
        SimulationJob(dcgan_model, accelerator, paper_config, options)
        for accelerator in ("eyeriss", "ganax")
    ]


class TestJobFutureSettling:
    def test_raising_done_callback_still_settles(self, jobs):
        future = JobFuture()
        future.add_done_callback(lambda f: (_ for _ in ()).throw(RuntimeError()))
        result = execute_job(jobs[0])
        assert future.set_result(result)
        assert future.done()
        assert future.result(timeout=1) == result

    def test_baseexception_callback_cannot_strand_waiters(self, jobs):
        """An interrupt escaping a callback must not leave the future unsettled."""
        future = JobFuture()

        def interrupting(_):
            raise KeyboardInterrupt()

        future.add_done_callback(interrupting)
        with pytest.raises(KeyboardInterrupt):
            future.set_result(execute_job(jobs[0]))
        assert future.done()  # terminal despite the escaping callback
        assert future.result(timeout=1) is not None

    def test_cancelling_a_pending_future_settles_it_cancelled(self, jobs):
        future = JobFuture()
        assert future.cancel()
        assert future.done() and future.cancelled()
        assert future.cancel()  # idempotent
        assert not future.set_result(execute_job(jobs[0]))  # terminal already
        with pytest.raises(CancelledError):
            future.result(timeout=1)

    def test_a_running_future_cannot_be_cancelled(self, jobs):
        future = JobFuture()
        assert future.set_running()
        assert not future.cancel()
        result = execute_job(jobs[0])
        assert future.set_result(result)
        assert not future.cancelled()
        assert future.result(timeout=1) == result


def _failing_factory(config=None, options=None):
    raise RuntimeError("injected accelerator failure")


class TestAsyncioBackendFailures:
    @pytest.fixture()
    def failing_job(self, dcgan_model, paper_config, options):
        register_accelerator("test-backend-boom", version="1")(_failing_factory)
        try:
            yield SimulationJob(dcgan_model, "test-backend-boom", paper_config, options)
        finally:
            unregister_accelerator("test-backend-boom")

    def test_failing_job_fails_only_its_own_future(self, jobs, failing_job):
        with AsyncioBackend(max_workers=2) as backend:
            futures = backend.submit_jobs([jobs[0], failing_job, jobs[1]])
            with pytest.raises(RuntimeError, match="injected accelerator failure"):
                futures[1].result(timeout=30)
            assert futures[0].result(timeout=30) == execute_job(jobs[0])
            assert futures[2].result(timeout=30) == execute_job(jobs[1])
        assert isinstance(futures[1].exception(), RuntimeError)
        assert not futures[1].cancelled()
        assert futures[0].exception() is None

    def test_close_settles_every_inflight_future(self, jobs):
        backend = AsyncioBackend(max_workers=1)
        futures = backend.submit_jobs(jobs * 3)
        backend.close()  # before any consumer touched a future
        assert all(future.done() for future in futures)
        expected = [execute_job(job) for job in jobs] * 3
        assert [future.result(timeout=0) for future in futures] == expected

    def test_submit_after_close_runs_on_a_fresh_loop(self, jobs):
        backend = AsyncioBackend(max_workers=1)
        first = backend.run_jobs(jobs)
        backend.close()
        try:
            assert backend.run_jobs(jobs) == first
        finally:
            backend.close()

    def test_empty_submission_starts_no_loop(self):
        backend = AsyncioBackend(max_workers=1)
        assert backend.submit_jobs([]) == []
        assert backend._loop is None
        backend.close()  # nothing to stop


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
