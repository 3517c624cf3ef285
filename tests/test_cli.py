"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.accelerators import accelerator_names
from repro.cli import build_parser, main, parse_accelerator_list
from repro.errors import UnknownAcceleratorError
from repro.experiments import experiment_ids
from repro.telemetry import get_tracer


class TestParser:
    def test_defaults_to_all(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert args.json is None

    def test_parses_experiment_and_json(self):
        args = build_parser().parse_args(["figure8", "--json", "out.json", "--quiet"])
        assert args.experiment == "figure8"
        assert args.json == "out.json"
        assert args.quiet


class TestMain:
    def test_list_prints_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(experiment_ids()) <= set(out)

    def test_single_experiment_report(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "DDR4" in out

    def test_unknown_experiment_returns_error(self, capsys):
        assert main(["figure42"]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["table3", "--json", str(path), "--quiet"]) == 0
        payload = json.loads(path.read_text())
        assert "table3" in payload
        assert "area_overhead_fraction" in payload["table3"]["data"]

    def test_experiment_json_dash_is_pure_json(self, capsys):
        assert main(["table3", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "table3" in payload

    def test_quiet_suppresses_report(self, capsys):
        assert main(["table2", "--quiet"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestAcceleratorOptions:
    def test_parse_accelerator_list_resolves_names(self):
        assert parse_accelerator_list(None) is None
        assert parse_accelerator_list(" EYERISS , ganax ") == ("eyeriss", "ganax")

    def test_parse_accelerator_list_unknown_name_message(self):
        with pytest.raises(UnknownAcceleratorError) as excinfo:
            parse_accelerator_list("eyeriss,tpu")
        message = str(excinfo.value)
        assert "unknown accelerator 'tpu'" in message
        for name in accelerator_names():
            assert name in message

    def test_list_accelerators_prints_registry(self, capsys):
        assert main(["list-accelerators"]) == 0
        out = capsys.readouterr().out
        for name in accelerator_names():
            assert name in out.split()

    def test_compare_reports_all_accelerators(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        for name in accelerator_names():
            assert name in out

    def test_compare_json_payload(self, tmp_path, capsys):
        path = tmp_path / "compare.json"
        assert (
            main(
                [
                    "compare",
                    "--accelerators",
                    "eyeriss,ideal",
                    "--json",
                    str(path),
                    "--quiet",
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())["compare"]
        assert payload["baseline"] == "eyeriss"
        assert payload["accelerators"] == ["eyeriss", "ideal"]
        assert payload["models"]["DCGAN"]["ideal"]["speedup"] > 1.0

    def test_compare_json_dash_prints_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a regression would create a file "-"
        assert main(["compare", "--accelerators", "eyeriss,ganax", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)["compare"]
        assert payload["baseline"] == "eyeriss"
        assert not (tmp_path / "-").exists()

    def test_compare_unknown_accelerator_is_clean_error(self, capsys):
        assert main(["compare", "--accelerators", "tpu"]) == 2
        err = capsys.readouterr().err
        assert "unknown accelerator 'tpu'" in err
        assert "registered accelerators" in err

    def test_compare_bad_baseline_is_clean_error(self, capsys):
        assert main(["compare", "--accelerators", "ganax,ideal", "--baseline", "eyeriss"]) == 2
        assert "error" in capsys.readouterr().err

    def test_accelerator_flags_rejected_outside_compare(self, capsys):
        assert main(["figure8", "--accelerators", "eyeriss,ideal"]) == 2
        assert "'compare'" in capsys.readouterr().err
        assert main(["all", "--baseline", "ganax"]) == 2
        assert "'compare'" in capsys.readouterr().err


class TestListAcceleratorsJson:
    def test_json_payload_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "accelerators.json"
        assert main(["list-accelerators", "--json", str(path), "--quiet"]) == 0
        payload = json.loads(path.read_text())
        entries = {entry["name"]: entry for entry in payload["accelerators"]}
        assert set(entries) == set(accelerator_names())
        for entry in entries.values():
            assert entry["version"]
            assert isinstance(entry["config_space"], list)
        assert "num_pvs" in entries["ganax"]["config_space"]
        assert "dram_bandwidth_bytes_per_cycle" not in entries["ideal"]["config_space"]

    def test_json_dash_prints_to_stdout(self, capsys):
        assert main(["list-accelerators", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accelerators"]


class TestDseCli:
    def test_dse_json_reports_frontier(self, tmp_path, capsys):
        path = tmp_path / "dse.json"
        assert (
            main(
                [
                    "dse",
                    "--fields",
                    "num_pvs",
                    "--json",
                    str(path),
                    "--quiet",
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())["dse"]
        assert payload["accelerator"] == "ganax"
        assert payload["baseline"] == "eyeriss"
        assert payload["strategy"] == "exhaustive"
        assert payload["frontier"]
        assert payload["evaluations"] == len(payload["frontier"]) + len(
            payload["dominated"]
        )

    def test_dse_random_strategy_respects_budget(self, tmp_path, capsys):
        path = tmp_path / "dse.json"
        assert (
            main(
                [
                    "dse",
                    "--fields",
                    "num_pvs,pes_per_pv",
                    "--strategy",
                    "random",
                    "--budget",
                    "2",
                    "--seed",
                    "5",
                    "--json",
                    str(path),
                    "--quiet",
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())["dse"]
        assert payload["strategy"] == "random"
        assert payload["evaluations"] == 2

    def test_dse_json_dash_is_pure_json(self, capsys):
        assert main(["dse", "--fields", "num_pvs", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)["dse"]
        assert payload["frontier"]

    def test_json_dash_with_cache_stats_keeps_stdout_pure(self, capsys):
        assert main(["dse", "--fields", "num_pvs", "--json", "-", "--cache-stats"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)["dse"]
        assert payload["frontier"]
        assert "cache:" in captured.err  # accounting rerouted to stderr

    def test_dse_unknown_strategy_is_clean_error(self, capsys):
        assert main(["dse", "--strategy", "bayesian"]) == 2
        assert "unknown search strategy" in capsys.readouterr().err

    def test_dse_unknown_field_is_clean_error(self, capsys):
        assert main(["dse", "--fields", "warp_speed"]) == 2
        assert "error" in capsys.readouterr().err

    def test_dse_flags_rejected_elsewhere(self, capsys):
        assert main(["figure8", "--strategy", "random"]) == 2
        assert "'dse'" in capsys.readouterr().err
        assert main(["all", "--budget", "4"]) == 2
        assert "'dse'" in capsys.readouterr().err
        assert main(["figure8", "--seed", "7"]) == 2
        assert "'dse'" in capsys.readouterr().err


class TestCachePruneCli:
    def test_requires_cache_dir_and_max_bytes(self, capsys):
        assert main(["cache-prune", "--max-bytes", "10"]) == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert main(["cache-prune", "--cache-dir", "/tmp/x-cache-prune"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prunes_populated_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        # warm the cache with a tiny dse run, then prune it to zero
        assert (
            main(
                [
                    "dse",
                    "--fields",
                    "num_pvs",
                    "--cache-dir",
                    str(cache_dir),
                    "--quiet",
                ]
            )
            == 0
        )
        assert any(cache_dir.glob("*/*.pkl"))
        assert (
            main(
                ["cache-prune", "--cache-dir", str(cache_dir), "--max-bytes", "0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pruned" in out
        assert not any(cache_dir.glob("*/*.pkl"))

    def test_prune_to_zero_leaves_no_entry_anywhere(self, tmp_path, capsys):
        """Everything a compare run stores under --cache-dir, prune accounts."""
        cache_dir = tmp_path / "cache"
        compare = [
            "compare",
            "--workloads",
            "dcgan",
            "--accelerators",
            "eyeriss,ganax",
            "--cache-dir",
            str(cache_dir),
            "--quiet",
        ]
        assert main(compare) == 0
        assert any(cache_dir.rglob("*.pkl"))
        prune = ["cache-prune", "--cache-dir", str(cache_dir), "--max-bytes", "0"]
        assert main(prune) == 0
        assert "0 entries (0 bytes) remain" in capsys.readouterr().out
        assert list(cache_dir.rglob("*.pkl")) == []

    def test_cache_dir_holds_only_sharded_results(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["headline", "--cache-dir", str(cache_dir), "--quiet"]) == 0
        entries = list(cache_dir.rglob("*.pkl"))
        assert entries
        for path in entries:
            assert path.parent.parent == cache_dir
            assert path.parent.name == path.stem[:2]
        assert not (cache_dir / "layers").exists()

    def test_json_dash_is_pure_json(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        assert (
            main(
                [
                    "cache-prune",
                    "--cache-dir",
                    str(cache_dir),
                    "--max-bytes",
                    "0",
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)["cache_prune"]
        assert payload["removed_entries"] == 0

    def test_max_bytes_rejected_elsewhere(self, capsys):
        assert main(["compare", "--max-bytes", "10"]) == 2
        assert "'cache-prune'" in capsys.readouterr().err


class TestWorkloadOptions:
    def test_parse_workload_list_resolves_specs(self):
        from repro.cli import parse_workload_list

        assert parse_workload_list(None) is None
        assert parse_workload_list(" DCGAN , dcgan@size=32 ") == (
            "DCGAN",
            "dcgan@32x32",
        )

    def test_parse_workload_list_unknown_name_message(self):
        from repro.cli import parse_workload_list
        from repro.errors import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError) as excinfo:
            parse_workload_list("DCGAN,StyleGAN")
        message = str(excinfo.value)
        assert "unknown workload 'StyleGAN'" in message
        assert "DCGAN" in message and "synthetic" in message

    def test_list_workloads_prints_registry_and_families(self, capsys):
        from repro.workloads import workload_names

        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in workload_names():
            assert name in out
        assert "synthetic@" in out and "families" in out

    def test_list_workloads_json_is_machine_readable(self, capsys):
        from repro.workloads import workload_families, workload_names

        assert main(["list-workloads", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload["workloads"]]
        assert names == list(workload_names())
        families = {entry["name"]: entry for entry in payload["families"]}
        assert set(families) == set(workload_families())
        assert families["synthetic"]["grammar"].startswith("synthetic@")
        assert families["synthetic"]["default_variants"]

    def test_compare_with_workload_specs(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--workloads",
                    "dcgan@64x64,synthetic@d4c64",
                    "--accelerators",
                    "eyeriss,ganax",
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)["compare"]
        assert set(payload["models"]) == {"DCGAN", "synthetic@d4c64"}
        assert payload["models"]["synthetic@d4c64"]["ganax"]["speedup"] > 1.0

    def test_compare_unknown_workload_is_clean_error(self, capsys):
        assert main(["compare", "--workloads", "stylegan"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'stylegan'" in err

    def test_compare_with_only_the_baseline_stays_table_only(self, capsys):
        """A baseline-only comparison has no chart bars but must still work."""
        assert main(["compare", "--accelerators", "eyeriss"]) == 0
        out = capsys.readouterr().out
        assert "DCGAN" in out
        assert "Generator speedup" not in out  # chart skipped, not crashed

    def test_workloads_flag_rejected_elsewhere(self, capsys):
        assert main(["figure8", "--workloads", "DCGAN"]) == 2
        err = capsys.readouterr().err
        assert "'compare'" in err and "'sweep'" in err and "'dse'" in err


class TestSweepCli:
    def test_sweep_json_payload(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--parameter",
                    "num_pvs",
                    "--values",
                    "8,16",
                    "--workloads",
                    "synthetic@d4c64",
                    "--accelerators",
                    "eyeriss,ganax",
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)["sweep"]
        assert payload["parameter"] == "num_pvs"
        assert payload["values"] == [8, 16]
        assert set(payload["points"]) == {"num_pvs=8", "num_pvs=16"}
        point = payload["points"]["num_pvs=8"]["synthetic@d4c64"]
        assert point["ganax"]["speedup"] > 1.0

    def test_sweep_requires_parameter_and_values(self, capsys):
        assert main(["sweep", "--values", "8"]) == 2
        assert "--parameter" in capsys.readouterr().err
        assert main(["sweep", "--parameter", "num_pvs"]) == 2
        assert "--values" in capsys.readouterr().err

    def test_sweep_unknown_field_is_clean_error(self, capsys):
        assert main(["sweep", "--parameter", "warp_speed", "--values", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_flags_rejected_elsewhere(self, capsys):
        assert main(["figure8", "--parameter", "num_pvs"]) == 2
        assert "'sweep'" in capsys.readouterr().err
        assert main(["compare", "--values", "8"]) == 2
        assert "'sweep'" in capsys.readouterr().err


class TestDseWorkloads:
    def test_dse_over_a_synthetic_workload(self, capsys):
        assert (
            main(
                [
                    "dse",
                    "--fields",
                    "num_pvs",
                    "--workloads",
                    "synthetic@d4c64",
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)["dse"]
        assert payload["frontier"]


class TestStreamingFlags:
    """The streaming CLI surface: --progress and --jsonl."""

    COMPARE = [
        "compare",
        "--workloads",
        "dcgan@64x64",
        "--accelerators",
        "eyeriss,ganax",
    ]

    def test_jsonl_dash_streams_one_record_per_job(self, capsys):
        assert main([*self.COMPARE, "--jsonl", "-"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 2  # one record per (model x accelerator) job
        records = [json.loads(line) for line in lines]
        assert {record["accelerator"] for record in records} == {"eyeriss", "ganax"}
        for record in records:
            assert record["event"] in ("completed", "cache-hit")
            assert record["model"] == "DCGAN"
            assert record["provenance"] in ("executed", "cache", "deduplicated")
            assert record["generator_cycles"] > 0
            assert record["total_energy_pj"] > 0

    def test_jsonl_file_on_sweep_covers_the_grid(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--parameter",
                    "num_pvs",
                    "--values",
                    "8,16",
                    "--workloads",
                    "dcgan@64x64",
                    "--accelerators",
                    "eyeriss,ganax",
                    "--jsonl",
                    str(path),
                    "--quiet",
                ]
            )
            == 0
        )
        records = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert len(records) == 4  # 2 values x 2 accelerators x 1 model
        assert all(record["model"] == "DCGAN" for record in records)

    def test_jsonl_rejected_outside_streaming_modes(self, capsys):
        assert main(["figure8", "--jsonl", "-"]) == 2
        err = capsys.readouterr().err
        assert "--jsonl" in err and "'compare'" in err

    def test_progress_reports_each_job_on_stderr(self, capsys):
        assert main([*self.COMPARE, "--progress", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err
        assert "DCGAN on ganax" in err

    def test_workers_option_no_longer_exists(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.COMPARE, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_backend_option_no_longer_exists(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.COMPARE, "--backend", "serial"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend serial" in err

    def test_help_no_longer_mentions_a_backend(self):
        assert "--backend" not in build_parser().format_help()

    def test_serve_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--backend", "asyncio"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend asyncio" in err

    def test_json_dash_and_jsonl_dash_cannot_share_stdout(self, capsys):
        assert main([*self.COMPARE, "--json", "-", "--jsonl", "-"]) == 2
        assert "claim stdout" in capsys.readouterr().err
        # either stream alone, or one of them to a file, stays fine
        assert main([*self.COMPARE, "--jsonl", "-", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert all(json.loads(line) for line in out.splitlines() if line.strip())

    def test_jsonl_records_carry_the_schema_version(self, capsys):
        """Wire compatibility: every --jsonl record is explicitly versioned."""
        from repro.runner import RECORD_SCHEMA_VERSION

        assert main([*self.COMPARE, "--jsonl", "-", "--quiet"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert records
        assert all(
            record["schema_version"] == RECORD_SCHEMA_VERSION
            for record in records
        )


class TestServiceVerbs:
    """The service CLI surface: 'serve' / 'remote-compare' and their flags."""

    def test_service_flags_rejected_outside_service_modes(self, capsys):
        for flags in (
            ["--host", "127.0.0.1"],
            ["--port", "8642"],
            ["--client-id", "w1"],
        ):
            assert main(["compare", *flags]) == 2
            err = capsys.readouterr().err
            assert flags[0] in err
        for flags in (
            ["--port-file", "p"],
            ["--quota", "4"],
            ["--queue-limit", "8"],
            ["--max-active", "2"],
            ["--journal", "j.jsonl"],
            ["--resume"],
        ):
            assert main(["remote-compare", *flags]) == 2
            err = capsys.readouterr().err
            assert flags[0] in err and "'serve'" in err

    def test_remote_compare_against_a_live_server(self, tmp_path, capsys):
        from repro.service import SimulationServer

        with SimulationServer(port=0) as server:
            assert (
                main(
                    [
                        "remote-compare",
                        "--port",
                        str(server.port),
                        "--workloads",
                        "dcgan@64x64",
                        "--accelerators",
                        "eyeriss,ganax",
                        "--jsonl",
                        "-",
                        "--quiet",
                    ]
                )
                == 0
            )
            records = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.strip()
            ]
            assert len(records) == 2
            assert {r["accelerator"] for r in records} == {"eyeriss", "ganax"}
            assert all(r["type"] == "event" for r in records)
            # a second invocation resolves entirely from the server's cache
            assert (
                main(
                    [
                        "remote-compare",
                        "--port",
                        str(server.port),
                        "--workloads",
                        "dcgan@64x64",
                        "--accelerators",
                        "eyeriss,ganax",
                        "--quiet",
                    ]
                )
                == 0
            )
            stats = server.runner.stats
        assert stats.misses == 2
        assert stats.hits == 2

    def test_remote_compare_unreachable_server_is_a_clean_error(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["remote-compare", "--port", str(port)]) == 2
        assert "could not connect" in capsys.readouterr().err


class TestTelemetryFlags:
    """The observability CLI surface: --trace, --metrics and the stats verb."""

    COMPARE = [
        "compare",
        "--workloads",
        "dcgan@64x64",
        "--accelerators",
        "eyeriss,ganax",
    ]

    def test_trace_writes_chrome_trace_event_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main([*self.COMPARE, "--trace", str(path), "--quiet"]) == 0
        payload = json.loads(path.read_text())
        names = [event["name"] for event in payload["traceEvents"]]
        assert names.count("batch") == 1
        assert names.count("job") == 2
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_trace_jsonl_extension_selects_span_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main([*self.COMPARE, "--trace", str(path), "--quiet"]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {record["name"] for record in records} >= {"batch", "job"}

    def test_metrics_dash_writes_the_snapshot_to_stdout(self, capsys):
        assert main([*self.COMPARE, "--metrics", "-"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["runner.jobs.scheduled"] == 2
        assert snapshot["counters"]["backend.jobs.dispatched{backend=serial}"] == 2
        assert snapshot["histograms"]["runner.job.latency_seconds"]["count"] == 2

    def test_metrics_file_and_cache_stats_agree(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main([*self.COMPARE, "--metrics", str(path), "--cache-stats"]) == 0
        snapshot = json.loads(path.read_text())
        out = capsys.readouterr().out
        misses = snapshot["counters"]["runner.cache.misses"]
        assert f"cache: 0 hits, {misses} misses" in out

    def test_trace_and_metrics_rejected_outside_streaming_modes(self, capsys):
        assert main(["figure8", "--trace", "t.json"]) == 2
        assert "--trace" in capsys.readouterr().err
        assert main(["all", "--metrics", "-"]) == 2
        assert "--metrics" in capsys.readouterr().err

    def test_bad_cache_dir_does_not_leak_the_tracer(self, tmp_path, capsys):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("a regular file")
        trace = tmp_path / "t.json"
        assert (
            main(
                [*self.COMPARE, "--trace", str(trace), "--cache-dir", str(not_a_dir)]
            )
            == 2
        )
        assert "error:" in capsys.readouterr().err
        assert get_tracer() is None

    def test_unwritable_jsonl_does_not_leak_the_tracer(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        jsonl = tmp_path / "missing" / "x.jsonl"
        assert (
            main([*self.COMPARE, "--trace", str(trace), "--jsonl", str(jsonl)]) == 2
        )
        assert "error:" in capsys.readouterr().err
        assert get_tracer() is None

    def test_metrics_dash_cannot_share_stdout_with_json_dash(self, capsys):
        assert main([*self.COMPARE, "--json", "-", "--metrics", "-"]) == 2
        assert "claim stdout" in capsys.readouterr().err

    def test_stats_verb_queries_a_running_service(self, capsys):
        from repro.service import Client, SimulationServer, grid_specs

        with SimulationServer(port=0) as server:
            with Client(port=server.port) as client:
                list(client.submit(grid_specs(["DCGAN"], ["eyeriss", "ganax"])))
            assert main(["stats", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "2 jobs done" in out
        assert "cache:" in out

    def test_stats_verb_unreachable_server_is_a_clean_error(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["stats", "--port", str(port)]) == 2
        assert "error:" in capsys.readouterr().err
