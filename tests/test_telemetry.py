"""Tests for the unified telemetry layer: tracing, metrics, profiling hooks.

The load-bearing guarantees:

* **span-tree invariants** — whichever thread drives the jobs, a traced
  batch produces exactly one ``batch`` span, one ``job`` span per submitted
  job parented under it, every span closed exactly once, and no span left
  open after the batch completes;
* **metrics-snapshot consistency** — the registry's snapshot is an atomic
  cut: concurrent completions never tear a counter below zero or above its
  true total, and sibling instruments fed by the same completion path agree
  once the work quiesces;
* **export formats** — the JSONL export is one parseable span per line, and
  the Chrome trace-event export is a valid ``traceEvents`` object with
  complete (``"ph": "X"``) microsecond events;
* **result parity** — simulation results are byte-identical with telemetry
  fully on and fully off (the tentpole's "observability never perturbs the
  physics" contract).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.runner import SimulationJob, SimulationRunner
from repro.runner.events import RECORD_SCHEMA_VERSION, RunnerEvent
from repro.telemetry import (
    MetricsRegistry,
    MetricsSubscriber,
    Tracer,
    configure_metrics,
    configure_tracing,
    get_metrics,
    get_tracer,
    timed,
)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Every test starts with a clean registry and no tracer installed."""
    configure_metrics()
    configure_tracing(enabled=False)
    yield
    configure_metrics()
    configure_tracing(enabled=False)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(5)
        registry.gauge("g").dec(2)
        registry.histogram("h").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 3
        assert snapshot["gauges"]["g"] == 3
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["sum"] == 0.25

    def test_labels_address_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits", client="a").inc()
        registry.counter("hits", client="b").inc(4)
        # label keys are sorted, so argument order never forks an instrument
        registry.counter("multi", b=2, a=1).inc()
        registry.counter("multi", a=1, b=2).inc()
        counters = registry.snapshot()["counters"]
        assert counters["hits{client=a}"] == 1
        assert counters["hits{client=b}"] == 4
        assert counters["multi{a=1,b=2}"] == 2

    def test_same_name_different_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_value_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.counter_value("absent") == 0
        assert "absent" not in registry.snapshot()["counters"]

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == 50.0
        assert summary["p90"] == 90.0
        assert summary["p99"] == 99.0

    def test_reset_drops_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_snapshot_consistency_under_concurrent_completions(self):
        """Snapshots taken mid-flight never tear; siblings agree at the end.

        Each worker mimics the completion path: one counter increment plus
        one histogram observation per "job".  A concurrent reader asserts
        every snapshot is self-consistent (counter never exceeds the true
        total, sibling instruments never drift further apart than the number
        of in-between windows, i.e. one per worker).
        """
        registry = MetricsRegistry()
        workers, per_worker = 4, 500
        total = workers * per_worker
        stop = threading.Event()
        torn = []

        def complete_jobs():
            counter = registry.counter("jobs.done")
            histogram = registry.histogram("jobs.latency")
            for i in range(per_worker):
                counter.inc()
                histogram.observe(0.001 * i)

        def watch():
            while not stop.is_set():
                snapshot = registry.snapshot()
                done = snapshot["counters"].get("jobs.done", 0)
                observed = snapshot["histograms"].get("jobs.latency", {}).get(
                    "count", 0
                )
                if not 0 <= done <= total or abs(done - observed) > workers:
                    torn.append((done, observed))

        threads = [threading.Thread(target=complete_jobs) for _ in range(workers)]
        watcher = threading.Thread(target=watch)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watcher.join()
        assert not torn
        final = registry.snapshot()
        assert final["counters"]["jobs.done"] == total
        assert final["histograms"]["jobs.latency"]["count"] == total

    def test_configure_metrics_disabled_returns_none(self):
        assert configure_metrics(enabled=False) is None
        assert get_metrics() is None
        registry = configure_metrics()
        assert registry is get_metrics()
        assert registry.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# Tracer unit behavior
# ----------------------------------------------------------------------
class TestTracer:
    def test_begin_end_and_exactly_once_close(self):
        tracer = Tracer()
        span = tracer.begin("work", jobs=3)
        assert tracer.open_spans() == [span]
        assert tracer.end(span, outcome="completed") is True
        assert tracer.end(span) is False  # repeated end is a no-op
        (finished,) = tracer.finished_spans()
        assert finished.closed and finished.duration >= 0
        assert finished.attrs == {"jobs": 3, "outcome": "completed"}

    def test_context_manager_nests_implicitly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                leaf = tracer.begin("leaf")
                tracer.end(leaf)
        spans = {span.name: span for span in tracer.finished_spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == outer.span_id
        assert spans["leaf"].parent_id == inner.span_id
        assert not tracer.open_spans()

    def test_explicit_parent_wins_over_stack(self):
        tracer = Tracer()
        root = tracer.begin("root")
        with tracer.span("ambient"):
            child = tracer.begin("child", parent_id=root.span_id)
        assert child.parent_id == root.span_id
        tracer.end(child)
        tracer.end(root)

    def test_job_registration_bridges_threads(self):
        tracer = Tracer()
        job_span = tracer.begin("job")
        tracer.register_job("cache-key-1", job_span.span_id)
        found = {}

        def worker():
            found["parent"] = tracer.parent_for("cache-key-1")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert found["parent"] == job_span.span_id
        tracer.unregister_job("cache-key-1")
        assert tracer.parent_for("cache-key-1") is None
        tracer.end(job_span)

    def test_chrome_trace_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("batch", jobs=1):
            with tracer.span("job"):
                pass
        path = tmp_path / "trace.json"
        tracer.export(path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert [event["name"] for event in events] == ["job", "batch"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["args"]["span_id"].startswith("s")
        job, batch = events
        assert job["args"]["parent_id"] == batch["args"]["span_id"]

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export(path)  # extension selects the JSONL grammar
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["name"] for record in records] == ["inner", "outer"]
        assert records[0]["parent_id"] == records[1]["span_id"]
        assert all(record["end"] >= record["start"] for record in records)

    def test_keeps_only_the_newest_finished_spans(self, monkeypatch, tmp_path):
        from repro.telemetry import tracing

        monkeypatch.setattr(tracing, "MAX_FINISHED_SPANS", 3)
        tracer = Tracer()
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in tracer.finished_spans()] == ["s2", "s3", "s4"]
        path = tmp_path / "trace.jsonl"
        tracer.export(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["name"] for record in records] == ["s2", "s3", "s4"]

    def test_open_span_outlives_the_eviction_of_its_children(self, monkeypatch):
        from repro.telemetry import tracing

        monkeypatch.setattr(tracing, "MAX_FINISHED_SPANS", 2)
        tracer = Tracer()
        with tracer.span("batch") as batch:
            for index in range(4):
                with tracer.span(f"job{index}"):
                    pass
        spans = tracer.finished_spans()
        assert [span.name for span in spans] == ["job3", "batch"]
        assert spans[0].parent_id == batch.span_id

    def test_configure_tracing_toggles_the_global(self):
        assert get_tracer() is None  # off by default
        tracer = configure_tracing()
        assert get_tracer() is tracer
        assert configure_tracing(enabled=False) is None
        assert get_tracer() is None


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------
class TestProfilingHooks:
    def test_timed_feeds_a_histogram(self):
        with timed("unit.test.block", phase="setup"):
            pass
        registry = get_metrics()
        summary = registry.histogram("unit.test.block", phase="setup").summary()
        assert summary["count"] == 1
        assert summary["min"] >= 0

    def test_timed_is_a_noop_when_metrics_disabled(self):
        configure_metrics(enabled=False)
        with timed("unit.test.block"):
            pass  # must not raise, must not create anything
        assert get_metrics() is None


# ----------------------------------------------------------------------
# Event grammar: timestamps and correlation ids
# ----------------------------------------------------------------------
class TestEventGrammar:
    def test_schema_version_is_two(self):
        assert RECORD_SCHEMA_VERSION == 2

    def test_describe_carries_timestamp_and_job_uid(self, dcgan_model):
        job = SimulationJob.comparison_pair(dcgan_model)[0]
        event = RunnerEvent(kind="scheduled", job=job, index=0, job_uid="job-1-7")
        record = event.describe()
        assert record["schema_version"] == RECORD_SCHEMA_VERSION
        assert isinstance(record["timestamp"], float)
        assert record["job_uid"] == "job-1-7"

    def test_job_uid_is_optional_for_compatibility(self, dcgan_model):
        job = SimulationJob.comparison_pair(dcgan_model)[0]
        record = RunnerEvent(kind="scheduled", job=job, index=0).describe()
        assert "job_uid" not in record  # pre-v2 producers simply omit it

    def test_runner_events_share_one_uid_per_job(self, dcgan_model):
        runner = SimulationRunner()
        events = []
        jobs = SimulationJob.comparison_pair(dcgan_model)
        handle = runner.submit(jobs, on_event=events.append)
        list(handle.as_completed())
        by_uid = {}
        for event in events:
            assert event.job_uid is not None
            by_uid.setdefault(event.job_uid, []).append(event.kind)
        assert len(by_uid) == len(jobs)
        for kinds in by_uid.values():
            assert kinds[0] == "scheduled"
        # timestamps are monotonic within each job's lifecycle
        for uid in by_uid:
            stamps = [e.timestamp for e in events if e.job_uid == uid]
            assert stamps == sorted(stamps)


# ----------------------------------------------------------------------
# MetricsSubscriber (duck-typed bridge)
# ----------------------------------------------------------------------
class _FakeEvent:
    def __init__(self, kind, job_uid, timestamp, is_terminal):
        self.kind = kind
        self.job_uid = job_uid
        self.timestamp = timestamp
        self.is_terminal = is_terminal


class TestMetricsSubscriber:
    def test_counts_and_latency_from_event_timestamps(self):
        subscriber = MetricsSubscriber()
        subscriber(_FakeEvent("scheduled", "u1", 10.0, False))
        subscriber(_FakeEvent("started", "u1", 10.5, False))
        subscriber(_FakeEvent("completed", "u1", 12.0, True))
        subscriber(_FakeEvent("scheduled", "u2", 11.0, False))
        subscriber(_FakeEvent("failed", "u2", 11.25, True))
        registry = get_metrics()
        counters = registry.snapshot()["counters"]
        assert counters["runner.jobs.scheduled"] == 2
        assert counters["runner.jobs.completed"] == 1
        assert counters["runner.jobs.failed"] == 1
        latency = registry.histogram("runner.job.latency_seconds").summary()
        assert latency["count"] == 2
        assert latency["min"] == 0.25
        assert latency["max"] == 2.0

    def test_noop_when_metrics_disabled(self):
        configure_metrics(enabled=False)
        subscriber = MetricsSubscriber()
        subscriber(_FakeEvent("scheduled", "u1", 0.0, False))
        subscriber(_FakeEvent("completed", "u1", 1.0, True))
        assert get_metrics() is None


# ----------------------------------------------------------------------
# Span-tree invariants, whichever thread drives the jobs
# ----------------------------------------------------------------------
class TestSpanTreeInvariants:
    @pytest.mark.parametrize("consumer", ["submitting-thread", "other-thread"])
    def test_batch_job_tree_is_consumer_invariant(self, consumer, dcgan_model):
        tracer = configure_tracing()
        runner = SimulationRunner()
        jobs = SimulationJob.comparison_pair(dcgan_model)
        handle = runner.submit(jobs)
        completions = []
        if consumer == "other-thread":
            # the service's shape: the thread that drives the jobs never
            # saw the submit-time span stack
            drainer = threading.Thread(
                target=lambda: completions.extend(handle.as_completed())
            )
            drainer.start()
            drainer.join(timeout=60)
            assert not drainer.is_alive()
        else:
            completions.extend(handle.as_completed())
        assert len(completions) == len(jobs)

        spans = tracer.finished_spans()
        assert not tracer.open_spans()  # every span closed
        span_ids = [span.span_id for span in spans]
        assert len(span_ids) == len(set(span_ids))  # ...exactly once

        batches = [span for span in spans if span.name == "batch"]
        job_spans = [span for span in spans if span.name == "job"]
        assert len(batches) == 1
        assert len(job_spans) == len(jobs)
        batch = batches[0]
        assert batch.parent_id is None
        assert batch.attrs["jobs"] == len(jobs)
        assert batch.attrs["counts"].get("completed") == len(jobs)
        for span in job_spans:
            assert span.parent_id == batch.span_id
            assert span.attrs["outcome"] == "completed"
            assert span.start >= batch.start
            assert span.end <= batch.end
        job_ids = {span.span_id for span in job_spans}
        simulate = [span for span in spans if span.name == "simulate_layers"]
        assert len(simulate) == len(jobs)
        for span in simulate:
            assert span.parent_id in job_ids

    def test_cache_hits_and_dedup_close_their_job_spans(self, dcgan_model):
        tracer = configure_tracing()
        runner = SimulationRunner()
        jobs = SimulationJob.comparison_pair(dcgan_model)
        # duplicates in one batch exercise the dedup path; the second
        # batch is answered from cache
        list(runner.submit(list(jobs) + list(jobs)).as_completed())
        list(runner.submit(jobs).as_completed())
        spans = tracer.finished_spans()
        assert not tracer.open_spans()
        outcomes = sorted(
            span.attrs["outcome"] for span in spans if span.name == "job"
        )
        assert outcomes == sorted(
            ["completed"] * 2 + ["completed"] * 2 + ["cache-hit"] * 2
        )
        assert len([span for span in spans if span.name == "batch"]) == 2

    def test_execution_spans_nest_under_their_job(self, dcgan_model):
        """The simulate_layers span, and the memo spans under it, join the tree."""
        tracer = configure_tracing()
        runner = SimulationRunner()
        jobs = SimulationJob.comparison_pair(dcgan_model)
        list(runner.submit(jobs).as_completed())
        spans = tracer.finished_spans()
        job_ids = {span.span_id for span in spans if span.name == "job"}
        simulate = [span for span in spans if span.name == "simulate_layers"]
        assert simulate
        for span in simulate:
            assert span.parent_id in job_ids
        simulate_ids = {span.span_id for span in simulate}
        for span in spans:
            if span.name == "layer-memo":
                assert span.parent_id in simulate_ids


# ----------------------------------------------------------------------
# Telemetry never perturbs the physics
# ----------------------------------------------------------------------
class TestResultParity:
    def _result_bytes(self, model):
        runner = SimulationRunner()
        results = runner.run_jobs(SimulationJob.comparison_pair(model))
        return repr(results).encode("utf-8")

    def test_results_identical_with_telemetry_on_and_off(self, dcgan_model):
        configure_metrics(enabled=False)
        configure_tracing(enabled=False)
        dark = self._result_bytes(dcgan_model)
        configure_metrics()
        configure_tracing()
        lit = self._result_bytes(dcgan_model)
        assert dark == lit
