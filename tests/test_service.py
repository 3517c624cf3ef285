"""Tests for the simulation service: protocol, journal, admission, server.

The load-bearing guarantees of the service subsystem:

* **wire protocol** — versioned JSONL records round-trip exactly; records
  from a different ``schema_version`` are rejected with a message naming
  both versions, never silently misparsed;
* **cross-client dedup** — clients submitting overlapping work share one
  runner and one content-addressed cache, so the second client's duplicate
  jobs resolve as cache/dedup events (zero re-simulations), including when
  the submissions are *concurrent* (in-flight key gating);
* **admission control** — per-client quota and the server-wide bound refuse
  batches with explicit ``rejected`` records (all-or-nothing), and the
  round-robin dispatcher keeps a saturating client from starving others;
* **durability** — terminal events journal to fsync'd JSONL; a server
  restarted with ``resume`` replays the journal into its cache so a crashed
  sweep re-runs only the jobs the crash lost, tolerating a torn final line;
* **lifecycle** — graceful shutdown drains in-flight batches and notifies
  connected clients.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import socket
import sys
import threading
import time
import tracemalloc

import pytest

from repro.errors import AdmissionError, ProtocolError, ReproError, ServiceError
from repro.runner import (
    RECORD_SCHEMA_VERSION,
    DiskResultCache,
    InMemoryResultCache,
    SimulationRunner,
)
from repro.service import (
    AdmissionController,
    Client,
    EventJournal,
    JobSpec,
    RoundRobinQueue,
    SCHEMA_VERSION,
    SimulationServer,
    grid_specs,
)
from repro.service import journal as journal_module
from repro.service import protocol
from repro.service import server as server_module
from repro.service.journal import decode_result, journal_record

SIX_GANS = ("3D-GAN", "ArtGAN", "DCGAN", "DiscoGAN", "GP-GAN", "MAGAN")


def small_grid():
    return grid_specs(["DCGAN"], ["eyeriss", "ganax"])


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_schema_version_matches_runner_records(self):
        assert SCHEMA_VERSION == RECORD_SCHEMA_VERSION

    def test_encode_decode_roundtrip(self):
        record = protocol.hello_record("worker-1")
        assert protocol.decode(protocol.encode(record)) == record
        assert record["schema_version"] == SCHEMA_VERSION

    def test_decode_rejects_malformed_lines(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"{not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2, 3]\n")

    def test_check_schema_names_both_versions(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.check_schema({"schema_version": 999}, source="peer record")
        message = str(excinfo.value)
        assert "999" in message
        assert str(SCHEMA_VERSION) in message
        assert "peer record" in message
        with pytest.raises(ProtocolError):
            protocol.check_schema({})  # absent version is a mismatch too

    def test_every_builder_stamps_the_schema_version(self):
        records = [
            protocol.hello_record("c"),
            protocol.submit_record(small_grid()),
            protocol.bye_record(),
            protocol.welcome_record(4, 8),
            protocol.accepted_record("r", 2),
            protocol.rejected_record("quota", "because"),
            protocol.done_record("r", {"completed": 2}),
            protocol.goodbye_record(),
            protocol.shutdown_record(),
            protocol.error_record("oops"),
        ]
        assert all(r["schema_version"] == SCHEMA_VERSION for r in records)

    def test_job_spec_roundtrip_and_build(self):
        spec = JobSpec(
            workload="dcgan@32x32",
            accelerator="ganax",
            config={"num_pvs": 8},
            options={"include_discriminator": False},
        )
        parsed = protocol.job_spec_from_wire(spec.describe())
        assert parsed == spec
        job = parsed.build()
        assert job.accelerator == "ganax"
        assert job.config.num_pvs == 8
        assert job.options.include_discriminator is False

    def test_job_spec_build_surfaces_bad_overrides(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            JobSpec(workload="DCGAN", accelerator="ganax",
                    config={"definitely_not_a_field": 1}).build()
        with pytest.raises(ReproError):
            JobSpec(workload="no-such-gan", accelerator="ganax").build()

    def test_build_jobs_shares_one_config_per_override_set(self):
        specs = grid_specs(SIX_GANS[:2], ["eyeriss", "ganax"], config={"num_pvs": 8})
        jobs = protocol.build_jobs(specs)
        assert all(job.config is jobs[0].config for job in jobs)
        assert all(job.options is jobs[0].options for job in jobs)
        # key order does not make a second set
        reordered = [
            JobSpec("DCGAN", "ganax", config={"num_pvs": 8, "pes_per_pv": 8}),
            JobSpec("MAGAN", "ganax", config={"pes_per_pv": 8, "num_pvs": 8}),
        ]
        first, second = protocol.build_jobs(reordered)
        assert first.config is second.config

    def test_build_jobs_builds_one_config_per_distinct_set(self):
        specs = grid_specs(["DCGAN"], ["eyeriss", "ganax"], config={"num_pvs": 8})
        specs += grid_specs(["DCGAN"], ["eyeriss", "ganax"], config={"num_pvs": 4})
        jobs = protocol.build_jobs(specs)
        assert len({id(job.config) for job in jobs}) == 2
        assert len({id(job.options) for job in jobs}) == 2
        assert [job.config.num_pvs for job in jobs] == [8, 8, 4, 4]

    def test_build_jobs_equals_building_each_spec(self):
        specs = grid_specs(SIX_GANS, ["eyeriss", "ganax"], config={"num_pvs": 8})
        specs += grid_specs(
            ["DCGAN"], ["ganax"], options={"schedule": "colmajor"}
        )
        specs.append(JobSpec("DCGAN", "ganax", config={"frequency_hz": 2.5e8}))
        jobs = protocol.build_jobs(specs)
        one_by_one = [spec.build() for spec in specs]
        assert jobs == one_by_one
        assert [job.cache_key for job in jobs] == [
            job.cache_key for job in one_by_one
        ]

    def test_build_jobs_raises_what_the_failing_spec_raises(self):
        from repro.errors import ReproError

        bad = JobSpec("DCGAN", "ganax", config={"definitely_not_a_field": 1})
        specs = small_grid() + [bad] + small_grid()
        with pytest.raises(ReproError) as one:
            bad.build()
        with pytest.raises(ReproError) as batch:
            protocol.build_jobs(specs)
        assert str(batch.value) == str(one.value)

    def test_job_spec_from_wire_validation(self):
        with pytest.raises(ProtocolError):
            protocol.job_spec_from_wire({"workload": "DCGAN"})  # no accelerator
        with pytest.raises(ProtocolError):
            protocol.job_spec_from_wire(
                {"workload": "DCGAN", "accelerator": "ganax", "extra": 1}
            )
        with pytest.raises(ProtocolError):
            protocol.job_spec_from_wire(
                {"workload": "DCGAN", "accelerator": "ganax", "config": [1]}
            )

    def test_parse_submit_validation(self):
        with pytest.raises(ProtocolError):
            protocol.parse_submit({"type": "submit", "jobs": []})
        with pytest.raises(ProtocolError):
            protocol.parse_submit({"type": "submit", "request_id": "r"})
        request_id, specs = protocol.parse_submit(
            protocol.submit_record(small_grid(), request_id="req-7")
        )
        assert request_id == "req-7"
        assert specs == small_grid()

    def test_grid_specs_is_the_full_cross_product(self):
        specs = grid_specs(SIX_GANS, ["eyeriss", "ganax"])
        assert len(specs) == 12
        assert len({(s.workload, s.accelerator) for s in specs}) == 12


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_quota_is_all_or_nothing(self):
        controller = AdmissionController(quota=4, queue_limit=100)
        assert controller.try_admit("a", 3) is None
        code, reason = controller.try_admit("a", 2)  # 3 + 2 > 4
        assert code == "quota"
        assert "quota" in reason
        assert controller.inflight("a") == 3  # refusal committed nothing
        assert controller.try_admit("a", 1) is None  # exactly at the bound
        controller.release("a", 4)
        assert controller.inflight("a") == 0

    def test_queue_limit_spans_clients(self):
        controller = AdmissionController(quota=10, queue_limit=12)
        assert controller.try_admit("a", 8) is None
        code, _reason = controller.try_admit("b", 8)
        assert code == "queue-full"
        assert controller.try_admit("b", 4) is None
        assert controller.inflight() == 12

    def test_rejection_codes_are_the_protocol_constants(self):
        controller = AdmissionController(quota=2, queue_limit=3)
        assert controller.try_admit("a", 2) is None
        quota_code, _reason = controller.try_admit("a", 1)
        queue_code, _reason = controller.try_admit("b", 2)
        assert (quota_code, queue_code) == (protocol.REJECT_QUOTA, protocol.REJECT_QUEUE_FULL)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServiceError):
            AdmissionController(quota=0)
        with pytest.raises(ServiceError):
            AdmissionController(queue_limit=-1)
        with pytest.raises(ServiceError):
            AdmissionController().try_admit("a", 0)

    def test_round_robin_interleaves_clients(self):
        queue = RoundRobinQueue()
        for i in range(3):
            queue.push("hog", f"hog-{i}")
        queue.push("light", "light-0")
        order = [queue.pop() for _ in range(len(queue))]
        # the light client's single item dispatches after at most one item
        # from each other client, not after the hog's whole backlog
        assert order == [
            ("hog", "hog-0"),
            ("light", "light-0"),
            ("hog", "hog-1"),
            ("hog", "hog-2"),
        ]
        with pytest.raises(IndexError):
            queue.pop()

    def test_round_robin_rotation_survives_refills(self):
        queue = RoundRobinQueue()
        queue.push("a", 1)
        queue.push("b", 2)
        assert queue.pop() == ("a", 1)
        queue.push("a", 3)  # refilling does not jump the line
        assert queue.pop() == ("b", 2)
        assert queue.pop() == ("a", 3)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def _wire_entries(runner_jobs, request_id="req"):
    """Run jobs on a throwaway runner, capturing (wire record, result) pairs."""
    entries = []
    with SimulationRunner() as runner:
        handle = runner.submit(
            runner_jobs,
            on_event=lambda e: entries.append(
                (protocol.event_record(e, request_id), e.result)
            )
            if e.is_terminal
            else None,
        )
        for _ in handle.as_completed(raise_on_error=False):
            pass
    return entries


def _terminal_event_records(runner_jobs, request_id="req"):
    """Run jobs on a throwaway runner, capturing journal-form records."""
    return [
        journal_record(record, result)
        for record, result in _wire_entries(runner_jobs, request_id)
    ]


class TestJournal:
    @pytest.fixture(scope="class")
    def sample_records(self):
        jobs = [spec.build() for spec in small_grid()]
        return _terminal_event_records(jobs)

    def test_append_and_read_roundtrip(self, tmp_path, sample_records):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            for record in sample_records:
                journal.append([(record, None)])
        assert EventJournal.read_records(path) == sample_records

    def test_journal_records_decode_their_results(self, sample_records):
        for record in sample_records:
            result = decode_result(record)
            assert result is not None
            assert result.total_cycles > 0

    def test_torn_final_line_is_skipped(self, tmp_path, sample_records):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            journal.append([(sample_records[0], None)])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "torn": tru')  # crash mid-append
        assert EventJournal.read_records(path) == [sample_records[0]]

    def test_torn_middle_line_raises(self, tmp_path, sample_records):
        path = tmp_path / "journal.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"oops": tru\n')
            handle.write(json.dumps(sample_records[0]) + "\n")
        with pytest.raises(ProtocolError):
            EventJournal.read_records(path)

    def test_mismatched_schema_version_rejected_with_message(
        self, tmp_path, sample_records
    ):
        path = tmp_path / "journal.jsonl"
        stale = dict(sample_records[0], schema_version=SCHEMA_VERSION + 1)
        path.write_text(json.dumps(stale) + "\n", encoding="utf-8")
        with pytest.raises(ProtocolError) as excinfo:
            EventJournal.read_records(path)
        assert str(SCHEMA_VERSION + 1) in str(excinfo.value)

    def test_compaction_keeps_newest_record_per_key(
        self, tmp_path, sample_records
    ):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            for _ in range(3):  # the same sweep journaled three times over
                for record in sample_records:
                    journal.append([(record, None)])
            # terminal non-result records never shortcut a resume
            journal.append(
                [(dict(sample_records[0], event="failed", result_pickle=None), None)]
            )
            survivors = journal.compact()
        assert survivors == len(sample_records)
        kept = EventJournal.read_records(path)
        assert {r["cache_key"] for r in kept} == {
            r["cache_key"] for r in sample_records
        }
        assert all("result_pickle" in r for r in kept)

    def test_rotation_compacts_past_the_byte_budget(
        self, tmp_path, sample_records
    ):
        path = tmp_path / "journal.jsonl"
        line_bytes = len(json.dumps(sample_records[0])) + 1
        with EventJournal(path, rotate_bytes=6 * line_bytes) as journal:
            for _ in range(20):
                for record in sample_records:
                    journal.append([(record, None)])
            # auto-compaction kept the journal bounded: never more than the
            # rotation budget plus the append that tripped it
            assert path.stat().st_size <= 7 * line_bytes
            assert journal.compact() == len(sample_records)
        kept = EventJournal.read_records(path)
        assert {r["cache_key"] for r in kept} == {
            r["cache_key"] for r in sample_records
        }

    def test_replay_into_restores_the_cache(self, tmp_path, sample_records):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            for record in sample_records:
                journal.append([(record, None)])
        cache = InMemoryResultCache()
        restored = EventJournal.replay_into(path, cache)
        assert restored == len(sample_records)
        for record in sample_records:
            assert cache.get(record["cache_key"]) == decode_result(record)

    def test_corrupt_result_payload_is_skipped_not_fatal(
        self, tmp_path, sample_records
    ):
        path = tmp_path / "journal.jsonl"
        corrupt = dict(sample_records[0], result_pickle="!!!not-base64-pickle")
        path.write_text(json.dumps(corrupt) + "\n", encoding="utf-8")
        cache = InMemoryResultCache()
        assert EventJournal.replay_into(path, cache) == 0
        assert len(cache) == 0


def _padded_record(key, pad=700):
    """A journal-form record for ``key`` whose payload is ~1 KB."""
    record = protocol.stamp(
        {"type": "event", "event": "completed", "cache_key": key}
    )
    record["result_pickle"] = base64.b64encode(
        pickle.dumps({"key": key, "pad": "x" * pad})
    ).decode("ascii")
    return record


def _count_compactions(monkeypatch):
    calls = []
    compact = EventJournal._compact_locked

    def counting(self):
        calls.append(1)
        return compact(self)

    monkeypatch.setattr(EventJournal, "_compact_locked", counting)
    return calls


class TestJournalGroups:
    """Group commit, payload once per key, the rotation rule, streaming."""

    @pytest.fixture(scope="class")
    def sample_entries(self):
        return _wire_entries([spec.build() for spec in small_grid()])

    def test_a_group_is_one_write_and_one_fsync(
        self, tmp_path, monkeypatch, sample_entries
    ):
        fsyncs = []
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: fsyncs.append(fd)
        )
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            journal.append(sample_entries * 3)
        assert len(fsyncs) == 1
        assert len(EventJournal.read_records(path)) == 3 * len(sample_entries)

    def test_payload_is_written_once_per_key(self, tmp_path, sample_entries):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            journal.append(sample_entries + sample_entries)  # one group
            journal.append(sample_entries)  # a later group
        records = EventJournal.read_records(path)
        assert len(records) == 3 * len(sample_entries)
        carrying = [r for r in records if "result_pickle" in r]
        assert carrying == [
            journal_record(record, result) for record, result in sample_entries
        ]
        cache = InMemoryResultCache()
        assert EventJournal.replay_into(path, cache) == len(sample_entries)
        for record, result in sample_entries:
            assert cache.get(record["cache_key"]) == result

    def test_a_reopened_journal_writes_each_payload_again(
        self, tmp_path, sample_entries
    ):
        path = tmp_path / "journal.jsonl"
        for _ in range(2):
            with EventJournal(path) as journal:
                journal.append(sample_entries)
                journal.append(sample_entries)
        carrying = [
            r for r in EventJournal.read_records(path) if "result_pickle" in r
        ]
        assert len(carrying) == 2 * len(sample_entries)

    def test_compaction_keeps_one_payload_line_per_key(
        self, tmp_path, sample_entries
    ):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            for _ in range(3):  # one line with a payload per key, then repeats
                journal.append(sample_entries)
        with EventJournal(path) as journal:  # a new generation knows no keys
            assert journal.compact() == len(sample_entries)
            # ... until compaction names the survivors: no payload again
            journal.append(sample_entries)
        kept = EventJournal.read_records(path)
        assert len(kept) == 2 * len(sample_entries)
        carrying = [r for r in kept if "result_pickle" in r]
        assert sorted(r["cache_key"] for r in carrying) == sorted(
            record["cache_key"] for record, _ in sample_entries
        )
        assert all(decode_result(r) is not None for r in carrying)

    def test_a_key_is_remembered_only_after_its_fsync(
        self, tmp_path, monkeypatch, sample_entries
    ):
        path = tmp_path / "journal.jsonl"
        fsync = journal_module.os.fsync
        with EventJournal(path) as journal:
            def failing(fd):
                raise OSError("disk gone")

            monkeypatch.setattr(journal_module.os, "fsync", failing)
            with pytest.raises(OSError):
                journal.append(sample_entries)
            monkeypatch.setattr(journal_module.os, "fsync", fsync)
            journal.append(sample_entries)
        records = EventJournal.read_records(path)
        # the unacknowledged group's lines may linger, but the retry must
        # carry the payloads again
        assert all("result_pickle" in r for r in records[-len(sample_entries):])

    def test_concurrent_groups_lose_no_line_and_no_payload(
        self, tmp_path, sample_entries
    ):
        path = tmp_path / "journal.jsonl"
        threads_count, groups = 8, 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EventJournal(path, rotate_bytes=200_000) as journal:
                def writer():
                    for _ in range(groups):
                        journal.append(sample_entries)

                threads = [
                    threading.Thread(target=writer) for _ in range(threads_count)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                journal.compact()
        finally:
            sys.setswitchinterval(interval)
        cache = InMemoryResultCache()
        assert EventJournal.replay_into(path, cache) == len(sample_entries)
        for record, result in sample_entries:
            assert cache.get(record["cache_key"]) == result

    def test_live_set_above_rotate_bytes_does_not_compact_every_append(
        self, tmp_path, monkeypatch
    ):
        compactions = _count_compactions(monkeypatch)
        keys = [f"{index:064x}" for index in range(40)]
        path = tmp_path / "journal.jsonl"
        with EventJournal(path, rotate_bytes=20_000) as journal:
            for index in range(200):
                journal.append([(_padded_record(keys[index % 40]), None)])
        assert 1 <= len(compactions) <= 8
        cache = InMemoryResultCache()
        EventJournal.replay_into(path, cache)
        assert len(cache) == 40
        assert all(cache.get(key)["key"] == key for key in keys)

    def test_compaction_streams_the_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = [
            json.dumps(_padded_record(f"{index % 40:064x}", pad=7000)) + "\n"
            for index in range(800)
        ]
        path.write_text("".join(lines), encoding="utf-8")
        size = path.stat().st_size
        assert size > 7_000_000
        with EventJournal(path) as journal:
            tracemalloc.start()
            try:
                assert journal.compact() == 40
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < size / 8

    def test_crash_mid_group_leaves_a_torn_final_line(
        self, tmp_path, sample_entries
    ):
        whole = tmp_path / "whole.jsonl"
        with EventJournal(whole) as journal:
            journal.append(sample_entries + sample_entries)
        data = whole.read_bytes()
        lines = data.split(b"\n")[:-1]
        complete = EventJournal.read_records(whole)[:2]
        # the crash cut the third line of the group halfway through
        cut = len(lines[0]) + len(lines[1]) + 2 + len(lines[2]) // 2
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[:cut])
        assert EventJournal.read_records(torn) == complete

    def test_appending_after_a_torn_tail_keeps_the_journal_readable(
        self, tmp_path, sample_entries
    ):
        path = tmp_path / "journal.jsonl"
        with EventJournal(path) as journal:
            journal.append(sample_entries[:1])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 2, "event": "comp')  # crash
        with EventJournal(path) as journal:  # a restarted server
            journal.append(sample_entries[1:])
        records = EventJournal.read_records(path)
        assert [r["cache_key"] for r in records] == [
            record["cache_key"] for record, _ in sample_entries
        ]
        cache = InMemoryResultCache()
        assert EventJournal.replay_into(path, cache) == len(sample_entries)


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
def _raw_connection(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    return sock, sock.makefile("rwb")


class TestServer:
    def test_second_client_resolves_entirely_from_cache(self):
        """The acceptance criterion: six-GAN grid, two sequential clients."""
        specs = grid_specs(SIX_GANS, ["eyeriss", "ganax"])
        with SimulationServer(port=0) as server:
            with Client(port=server.port, client_id="first") as first:
                first_events = [r["event"] for r in first.submit(specs)]
            with Client(port=server.port, client_id="second") as second:
                second_events = [r["event"] for r in second.submit(specs)]
            stats = server.runner.stats
        assert len(first_events) == len(specs)
        assert len(second_events) == len(specs)
        # the second client re-simulated nothing: all cache/dedup events
        assert all(event == "cache-hit" for event in second_events)
        assert stats.misses == len(specs)  # each distinct job ran exactly once
        assert stats.hits == len(specs)

    def test_concurrent_identical_submissions_dedup_across_clients(self):
        """In-flight key gating: simultaneous duplicates never both execute."""
        specs = grid_specs(["DCGAN", "MAGAN"], ["eyeriss", "ganax"])
        counts = {}
        with SimulationServer(port=0) as server:
            def worker(name):
                with Client(port=server.port, client_id=name) as client:
                    list(client.submit(specs))
                    counts[name] = client.last_counts

            threads = [
                threading.Thread(target=worker, args=(f"w{i}",))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.runner.stats
        assert stats.misses == len(specs)  # 4 distinct jobs, 4 executions
        assert stats.hits == len(specs)  # the duplicates were all hits
        total_completed = sum(c["completed"] for c in counts.values())
        total_hits = sum(c["cache-hit"] for c in counts.values())
        assert total_completed == len(specs)
        assert total_hits == len(specs)

    def test_event_records_reuse_the_jsonl_grammar(self):
        with SimulationServer(port=0) as server:
            with Client(port=server.port) as client:
                records = client.run(small_grid())
        for record in records:
            assert record["schema_version"] == SCHEMA_VERSION
            assert record["type"] == "event"
            assert record["event"] in ("completed", "cache-hit")
            # the --jsonl result fields ride along unchanged
            assert record["generator_cycles"] > 0
            assert record["total_energy_pj"] > 0
            assert len(record["cache_key"]) == 64

    def test_quota_exceeded_is_rejected_with_the_wire_code(self):
        with SimulationServer(port=0, quota=1) as server:
            with Client(port=server.port) as client:
                with pytest.raises(AdmissionError) as excinfo:
                    client.run(small_grid())  # 2 jobs > quota of 1
                assert excinfo.value.code == "quota"
                # the refusal committed nothing: a conforming batch still runs
                records = client.run(small_grid()[:1])
                assert len(records) == 1

    def test_queue_limit_rejection(self):
        with SimulationServer(port=0, quota=8, queue_limit=3) as server:
            with Client(port=server.port) as client:
                with pytest.raises(AdmissionError) as excinfo:
                    client.run(grid_specs(SIX_GANS[:2], ["eyeriss", "ganax"]))
                assert excinfo.value.code == "queue-full"

    def test_bad_requests_rejected_not_fatal(self):
        with SimulationServer(port=0) as server:
            with Client(port=server.port) as client:
                with pytest.raises(AdmissionError) as excinfo:
                    client.run([JobSpec(workload="no-such-gan",
                                        accelerator="ganax")])
                assert excinfo.value.code == "bad-request"
                with pytest.raises(AdmissionError):
                    client.run([JobSpec(workload="DCGAN",
                                        accelerator="no-such-accel")])
                # the connection survives rejected submits
                assert len(client.run(small_grid()[:1])) == 1

    def test_a_bad_override_in_any_spec_rejects_the_request(self):
        bad = JobSpec("DCGAN", "ganax", options={"batch_size": 0})
        with pytest.raises(ReproError) as one:
            bad.build()
        with SimulationServer(port=0) as server:
            with Client(port=server.port) as client:
                for position in range(3):
                    specs = small_grid()
                    specs.insert(position, bad)
                    with pytest.raises(AdmissionError) as excinfo:
                        client.run(specs)
                    assert excinfo.value.code == "bad-request"
                    assert excinfo.value.reason == str(one.value)
            assert server.runner.stats.lookups == 0  # nothing was admitted

    def test_stale_schema_handshake_rejected_with_message(self):
        with SimulationServer(port=0) as server:
            sock, handle = _raw_connection(server.port)
            try:
                stale = protocol.hello_record("old-client")
                stale["schema_version"] = 999
                handle.write(protocol.encode(stale))
                handle.flush()
                record = protocol.decode(handle.readline())
                assert record["type"] == "rejected"
                assert record["code"] == "schema-mismatch"
                assert "999" in record["reason"]
                assert handle.readline() == b""  # server closed the connection
            finally:
                sock.close()

    def test_non_hello_first_record_rejected(self):
        with SimulationServer(port=0) as server:
            sock, handle = _raw_connection(server.port)
            try:
                handle.write(protocol.encode(protocol.bye_record()))
                handle.flush()
                record = protocol.decode(handle.readline())
                assert record["type"] == "rejected"
                assert record["code"] == "bad-request"
            finally:
                sock.close()

    def test_unknown_request_type_answers_error_record(self):
        with SimulationServer(port=0) as server:
            sock, handle = _raw_connection(server.port)
            try:
                handle.write(protocol.encode(protocol.hello_record("raw")))
                handle.flush()
                assert protocol.decode(handle.readline())["type"] == "welcome"
                handle.write(protocol.encode(protocol.stamp({"type": "frobnicate"})))
                handle.flush()
                record = protocol.decode(handle.readline())
                assert record["type"] == "error"
                assert "frobnicate" in record["reason"]
            finally:
                sock.close()

    def test_round_robin_fairness_under_a_saturating_client(self):
        """A hog pipelining many batches cannot starve a light client.

        The hog's first job holds its ``started`` event until the light
        client's request is admitted, so that request is queued while the
        rest of the hog's backlog still is, however fast the jobs run.
        """
        started = []
        light_queued_in_time = []

        def on_event(event):
            if event.kind != "started":
                return
            if not started:
                deadline = time.monotonic() + 30.0
                while (
                    server.admission.inflight("light") == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                light_queued_in_time.append(time.monotonic() < deadline)
            started.append(event.job.model_name)

        runner = SimulationRunner()
        runner.subscribe(on_event)
        hog_specs = [
            JobSpec(workload=name, accelerator=accel)
            for name in ("DCGAN", "MAGAN", "ArtGAN")
            for accel in ("eyeriss", "ganax")
        ]
        try:
            server = SimulationServer(port=0, runner=runner, max_active_requests=1)
            with server:
                # the hog pipelines one-job batches over a raw connection
                # (the sync Client is deliberately one-request-at-a-time)
                sock, handle = _raw_connection(server.port)
                try:
                    handle.write(protocol.encode(protocol.hello_record("hog")))
                    handle.flush()
                    assert protocol.decode(handle.readline())["type"] == "welcome"
                    for index, spec in enumerate(hog_specs):
                        handle.write(
                            protocol.encode(
                                protocol.submit_record([spec], f"hog-{index}")
                            )
                        )
                    handle.flush()
                    with Client(port=server.port, client_id="light") as light:
                        light_records = light.run(
                            [JobSpec(workload="DiscoGAN", accelerator="eyeriss")]
                        )
                    assert len(light_records) == 1
                    # drain the hog's stream until every batch is done
                    done = 0
                    while done < len(hog_specs):
                        record = protocol.decode(handle.readline())
                        if record["type"] == "done":
                            done += 1
                finally:
                    sock.close()
        finally:
            runner.close()
        assert light_queued_in_time == [True]
        # round-robin dispatch: the light client's single job started before
        # the hog's backlog finished, not after it
        assert "DiscoGAN" in started
        light_position = started.index("DiscoGAN")
        assert light_position < len(started) - 1, (
            f"light client starved behind the hog's backlog: {started}"
        )

    def test_default_runner_runs_on_the_serial_backend(self):
        server = SimulationServer(port=0)
        assert isinstance(server.runner, SimulationRunner)
        with pytest.raises(TypeError):
            SimulationRunner(backend="serial")  # one way to run jobs: no knob
        with pytest.raises(TypeError):
            SimulationServer(port=0, backend="asyncio")

    def test_served_results_match_a_local_serial_run(self):
        """serial == served: the wire carries the locally computed numbers."""
        specs = grid_specs(SIX_GANS, ["eyeriss", "ganax"])
        jobs = [spec.build() for spec in specs]
        local = SimulationRunner(use_cache=False).run_jobs(jobs)
        expected = {
            (job.model_name, job.accelerator): result
            for job, result in zip(jobs, local)
        }
        with SimulationServer(port=0) as server:
            with Client(port=server.port) as client:
                records = client.run(specs)
        assert len(records) == len(specs)
        for record in records:
            result = expected[(record["model"], record["accelerator"])]
            assert record["generator_cycles"] == result.generator.cycles
            assert record["generator_energy_pj"] == result.generator.energy_pj
            assert record["total_cycles"] == result.total_cycles
            assert record["total_energy_pj"] == result.total_energy_pj

    def test_crashed_sweep_resumes_only_missing_jobs(self, tmp_path):
        """Kill mid-sweep, restart with resume: finished jobs never re-run."""
        journal = tmp_path / "journal.jsonl"
        full_grid = grid_specs(SIX_GANS[:3], ["eyeriss", "ganax"])
        partial = full_grid[:4]  # the crash happened after 4 of 6 jobs

        with SimulationServer(port=0, journal_path=journal) as server:
            with Client(port=server.port) as client:
                client.run(partial)
        # simulate the crash: torn half-record at the journal's tail
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "event": "comp')

        # a fresh server (cold cache) resumes from the journal
        runner = SimulationRunner(cache=DiskResultCache(tmp_path / "cache"))
        try:
            with SimulationServer(
                port=0, runner=runner, journal_path=journal, resume=True
            ) as server:
                assert server.restored_entries == len(partial)
                with Client(port=server.port) as client:
                    records = client.run(full_grid)
            by_event = {}
            for record in records:
                by_event.setdefault(record["event"], []).append(record)
            # only the 2 jobs the crash lost re-ran; the rest hit the cache
            assert len(by_event.get("completed", [])) == len(full_grid) - len(partial)
            assert len(by_event.get("cache-hit", [])) == len(partial)
            assert runner.stats.misses == len(full_grid) - len(partial)
        finally:
            runner.close()

    def test_resume_requires_a_cache(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text("", encoding="utf-8")
        runner = SimulationRunner(use_cache=False)
        try:
            with pytest.raises(ServiceError):
                SimulationServer(
                    port=0, runner=runner, journal_path=journal, resume=True
                )
        finally:
            runner.close()

    def test_graceful_shutdown_drains_inflight_batches(self):
        """stop() during execution: the batch completes, then shutdown."""
        server = SimulationServer(port=0)
        server.start_in_thread()
        admitted = threading.Event()
        server.runner.subscribe(
            lambda e: admitted.set() if e.kind == "scheduled" else None
        )
        records = []
        failures = []

        def submit():
            try:
                with Client(port=server.port) as client:
                    records.extend(client.submit(small_grid()))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=submit)
        thread.start()
        # shut down the moment the batch reaches the runner — it is still
        # executing, and the drain guarantee must let it finish
        assert admitted.wait(timeout=30)
        server.shutdown()
        thread.join()
        assert not failures
        assert len(records) == len(small_grid())

    def test_submits_during_drain_are_rejected_shutting_down(self):
        with SimulationServer(port=0, quota=4) as server:
            client = Client(port=server.port)
            client.connect()
            server._stopping = True  # the drain window, frozen open
            try:
                with pytest.raises(AdmissionError) as excinfo:
                    client.run(small_grid()[:1])
                assert excinfo.value.code == "shutting-down"
            finally:
                server._stopping = False
                client.close()

    def test_connect_retries_with_backoff_until_the_server_binds(self):
        # grab a port that nothing listens on yet
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = SimulationServer(port=port)
        binder = threading.Timer(0.3, server.start_in_thread)
        binder.start()
        try:
            client = Client(port=port, connect_retries=8, backoff_seconds=0.1)
            with client:
                records = client.run(small_grid()[:1])
            assert len(records) == 1
        finally:
            binder.join()
            server.shutdown()

    def test_connect_gives_up_with_a_clear_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = Client(port=port, connect_retries=1, backoff_seconds=0.01)
        with pytest.raises(ServiceError) as excinfo:
            client.connect()
        assert "2 attempts" in str(excinfo.value)


# ----------------------------------------------------------------------
# Schema compatibility shim (v1 -> v2)
# ----------------------------------------------------------------------
def _journal_lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


class TestServedJournal:
    """The server's journal: group commit, payload once, durability order."""

    def test_repeated_grid_journals_each_payload_once(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        specs = grid_specs(["DCGAN", "MAGAN"], ["eyeriss", "ganax"])
        with SimulationServer(port=0, journal_path=journal) as server:
            with Client(port=server.port) as client:
                first = client.run(specs)
                second = client.run(specs)
        assert all(r["event"] == "completed" for r in first)
        assert all(r["event"] == "cache-hit" for r in second)
        lines = _journal_lines(journal)
        assert len(lines) == 2 * len(specs)
        second_ids = {r["job_uid"] for r in second}
        repeats = [r for r in lines if r["job_uid"] in second_ids]
        assert len(repeats) == len(specs)
        assert not any("result_pickle" in r for r in repeats)
        # replay restores every key, and the results equal a direct submit
        cache = InMemoryResultCache()
        assert EventJournal.replay_into(journal, cache) == len(specs)
        jobs = [spec.build() for spec in specs]
        with SimulationRunner() as runner:
            direct = runner.submit(jobs).results()
        for job, result in zip(jobs, direct):
            assert cache.get(job.cache_key) == result
        for record in first + second:
            result = direct[record["index"]]
            assert record["cache_key"] == jobs[record["index"]].cache_key
            assert record["generator_cycles"] == result.generator.cycles
            assert record["total_cycles"] == result.total_cycles
            assert record["total_energy_pj"] == result.total_energy_pj

    def test_prewarmed_cache_journals_the_first_hit_with_its_payload(
        self, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        specs = grid_specs(["DCGAN", "MAGAN"], ["eyeriss", "ganax"])
        runner = SimulationRunner()
        runner.run_jobs([spec.build() for spec in specs])  # no journal yet
        with SimulationServer(port=0, runner=runner, journal_path=journal) as server:
            with Client(port=server.port) as client:
                for _ in range(2):
                    assert all(
                        r["event"] == "cache-hit" for r in client.run(specs)
                    )
        lines = _journal_lines(journal)
        first_lines = {}
        for record in lines:
            first_lines.setdefault(record["cache_key"], record)
        assert len(first_lines) == len(specs)
        assert all("result_pickle" in r for r in first_lines.values())
        assert sum("result_pickle" in r for r in lines) == len(specs)

    def test_one_fsync_per_group(self, tmp_path, monkeypatch):
        fsyncs = []
        fsync = journal_module.os.fsync

        def counting(fd):
            fsyncs.append(fd)
            fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting)
        specs = grid_specs(SIX_GANS, ["eyeriss", "ganax"])
        runner = SimulationRunner()
        runner.run_jobs([spec.build() for spec in specs[4:]])
        journal = tmp_path / "journal.jsonl"
        with SimulationServer(port=0, runner=runner, journal_path=journal) as server:
            with Client(port=server.port) as client:
                fsyncs.clear()
                misses = client.run(specs[:4])
                assert [r["event"] for r in misses] == ["completed"] * 4
                assert len(fsyncs) == 4  # one per executed job
                fsyncs.clear()
                hits = client.run(specs)
                assert len(hits) == 12
                assert all(r["event"] == "cache-hit" for r in hits)
                assert len(fsyncs) == 1  # the whole all-hit batch

    def test_an_event_reaches_the_client_after_its_line_is_durable(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "journal.jsonl"
        durable = set()
        fsync = journal_module.os.fsync

        def slow_fsync(fd):
            time.sleep(0.02)  # a forward that did not wait would land now
            fsync(fd)
            durable.update(r["job_uid"] for r in _journal_lines(journal))

        monkeypatch.setattr(journal_module.os, "fsync", slow_fsync)
        specs = grid_specs(["DCGAN", "MAGAN"], ["eyeriss", "ganax"])
        seen = 0
        with SimulationServer(port=0, journal_path=journal) as server:
            with Client(port=server.port) as client:
                for _ in range(2):  # misses, then hits
                    for record in client.submit(specs):
                        assert record["job_uid"] in durable
                        seen += 1
        assert seen == 2 * len(specs)

    def test_a_line_without_payload_is_its_wire_line(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        specs = grid_specs(["DCGAN", "MAGAN"], ["eyeriss", "ganax"])
        wire = {}
        with SimulationServer(port=0, journal_path=journal) as server:
            sock, handle = _raw_connection(server.port)
            try:
                handle.write(protocol.encode(protocol.hello_record("raw")))
                for request_id in ("misses", "hits"):
                    handle.write(
                        protocol.encode(protocol.submit_record(specs, request_id))
                    )
                handle.flush()
                done = 0
                while done < 2:
                    line = handle.readline()
                    record = protocol.decode(line)
                    if record["type"] == "event":
                        wire[record["job_uid"]] = line
                    done += record["type"] == "done"
            finally:
                sock.close()
        lines = journal.read_bytes().splitlines(keepends=True)
        bare = [line for line in lines if b"result_pickle" not in line]
        assert len(lines) == 2 * len(specs) and len(bare) == len(specs)
        for line in bare:
            assert line == wire[json.loads(line)["job_uid"]]

    def test_done_is_the_last_record_of_a_mixed_batch(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        specs = grid_specs(["DCGAN", "MAGAN"], ["eyeriss", "ganax"])
        with SimulationServer(port=0, journal_path=journal) as server:
            with Client(port=server.port) as client:
                client.run(specs[:2])  # warm half the grid
            sock, handle = _raw_connection(server.port)
            try:
                handle.write(protocol.encode(protocol.hello_record("raw")))
                # the first two specs again: in-batch duplicates of hits
                handle.write(protocol.encode(
                    protocol.submit_record(specs + specs[:2], "mixed")
                ))
                handle.flush()
                types = []
                while not types or types[-1] != "done":
                    types.append(protocol.decode(handle.readline())["type"])
            finally:
                sock.close()
        assert types[:2] == ["welcome", "accepted"]
        assert types[2:] == ["event"] * (len(specs) + 2) + ["done"]


class TestConnectionWrites:
    def test_a_queued_group_goes_out_in_one_write(self):
        jobs = [spec.build() for spec in small_grid()]
        lines = [protocol.encode(record) for record, _ in _wire_entries(jobs)]
        done = protocol.done_record("req", {"completed": len(lines)})
        writes = []

        class FakeWriter:
            def write(self, data):
                writes.append(data)

            async def drain(self):
                pass

        async def drive():
            conn = server_module._Connection(None, FakeWriter())
            conn.send(b"".join(lines))
            conn.push(done)
            conn.outbox.put_nowait(server_module._CLOSE)
            conn.push(protocol.shutdown_record())  # behind the sentinel
            await asyncio.wait_for(conn.write_loop(), timeout=10)

        asyncio.run(drive())
        assert writes == [b"".join(lines) + protocol.encode(done)]


class TestSchemaCompatShim:
    def test_current_and_previous_versions_are_accepted(self):
        for version in range(protocol.MIN_COMPATIBLE_SCHEMA_VERSION, SCHEMA_VERSION + 1):
            protocol.check_schema({"schema_version": version})  # no raise

    def test_v1_records_still_interoperate(self):
        """The v2 grammar is additive, so a v1 peer's records pass the gate."""
        record = protocol.hello_record("old-worker")
        record["schema_version"] = 1
        protocol.check_schema(record, source="client hello")  # no raise

    def test_out_of_range_versions_are_rejected(self):
        for version in (0, SCHEMA_VERSION + 1, -3):
            with pytest.raises(ProtocolError) as excinfo:
                protocol.check_schema({"schema_version": version})
            message = str(excinfo.value)
            assert str(protocol.MIN_COMPATIBLE_SCHEMA_VERSION) in message
            assert str(SCHEMA_VERSION) in message

    def test_non_integer_versions_are_rejected(self):
        for version in ("2", 2.0, True, None):
            with pytest.raises(ProtocolError):
                protocol.check_schema({"schema_version": version})

    def test_stats_records_are_stamped(self):
        assert protocol.stats_request_record()["schema_version"] == SCHEMA_VERSION
        record = protocol.stats_record({"jobs_done": 3})
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["type"] == "stats"
        assert record["jobs_done"] == 3


# ----------------------------------------------------------------------
# The stats exchange and operational chatter
# ----------------------------------------------------------------------
class TestServerTelemetry:
    @pytest.fixture(autouse=True)
    def fresh_metrics(self):
        # the registry is process-global; start each test's accounting at zero
        from repro.telemetry import configure_metrics

        configure_metrics()
        yield
        configure_metrics()

    def test_stats_request_answers_live_counters(self):
        with SimulationServer(port=0) as server:
            with Client(port=server.port, client_id="stats-worker") as client:
                list(client.submit(small_grid()))
                payload = client.stats()
        assert payload["server"]
        assert payload["uptime_seconds"] >= 0
        assert payload["jobs_done"] == len(small_grid())
        assert payload["requests_done"] == 1
        assert payload["queue_depth"] == 0
        assert payload["cache"]["misses"] >= 0
        metrics = payload["metrics"]
        accepted = metrics["counters"].get(
            "service.admission.accepted{client=stats-worker}"
        )
        assert accepted == 1
        assert metrics["histograms"]["service.request_latency_seconds"]["count"] == 1

    def test_stats_before_any_work_is_all_zero(self):
        with SimulationServer(port=0) as server:
            with Client(port=server.port) as client:
                payload = client.stats()
        assert payload["jobs_done"] == 0
        assert payload["requests_done"] == 0
        assert payload["active_requests"] == 0

    def test_startup_banner_goes_to_stderr(self, capfd):
        with SimulationServer(port=0) as server:
            port = server.port
        err = capfd.readouterr().err
        assert "repro-service: listening on" in err
        assert str(port) in err
        assert f"(schema v{SCHEMA_VERSION}, backend=serial, quota=" in err

    def test_heartbeat_line_reports_progress(self, capfd):
        import time as _time

        with SimulationServer(port=0, heartbeat_seconds=0.05) as server:
            with Client(port=server.port) as client:
                list(client.submit(small_grid()[:1]))
            _time.sleep(0.2)
        err = capfd.readouterr().err
        assert "repro-service: heartbeat" in err
        assert "jobs_done=1" in err

    def test_heartbeat_can_be_disabled(self, capfd):
        import time as _time

        with SimulationServer(port=0, heartbeat_seconds=0.0):
            _time.sleep(0.15)
        err = capfd.readouterr().err
        assert "repro-service: listening on" in err  # banner stays
        assert "heartbeat" not in err
