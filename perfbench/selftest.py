"""Self-tests of the benchmark: seeded inputs, metric names, smoke runs.

Not collected by the repository's own test suite (the file name does not
match ``test_*.py``); run it explicitly from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The smoke runs take about two minutes in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def take(stream, count):
    return [next(stream) for _ in range(count)]


def test_same_seed_gives_the_same_job_stream():
    assert take(suite.sessions(7, "dse"), 30) == take(suite.sessions(7, "dse"), 30)
    assert take(suite.sessions(7, "dse"), 30) != take(suite.sessions(8, "dse"), 30)
    served = take(suite.point_stream(7, "served-0"), 100)
    assert served == take(suite.point_stream(7, "served-0"), 100)
    assert served != take(suite.point_stream(8, "served-0"), 100)
    assert served != take(suite.point_stream(7, "served-1"), 100)


def test_same_seed_gives_the_same_cells():
    assert suite.program_cells(7) == suite.program_cells(7)
    assert suite.program_cells(7) != suite.program_cells(8)
    assert suite.gate_points(7) == suite.gate_points(7)
    assert suite.gate_points(7) != suite.gate_points(8)


def test_same_seed_gives_the_same_paper_grid_order():
    def orders(seed):
        workload = suite.PaperGrid(seed, ROOT)
        workload.pairs = [(w, a) for w in ("x", "y", "z") for a in ("a", "b")]
        workload._index = 0
        return [workload._grid() for _ in range(5)]

    assert orders(7) == orders(7)
    assert orders(7) != orders(8)


def test_a_cycle_covers_every_model_set_strategy_and_field_set():
    cycle = take(suite.sessions(7, "dse"), len(suite.model_sets()))
    assert [session[0].models for session in cycle] == suite.model_sets()
    assert sum(len(session) for session in cycle) == suite.searches_per_cycle()
    for session in cycle:
        kinds = {(search.strategy, search.fields) for search in session}
        assert kinds == {(strategy, fields) for strategy in suite.STRATEGIES
                         for fields in suite.FIELD_SETS}


def test_served_requests_are_the_explorers_jobs():
    models = tuple(suite.workload_names())
    for fields in suite.FIELD_SETS:
        search = suite.Search(models, fields, "random", 3)
        points = search.points()
        jobs, _slots, _configs = search.explorer()._build_jobs(points)
        specs = [
            spec for point in points
            for spec in suite.request_specs(suite.point_request(models, point))
        ]
        assert [spec.build().cache_key for spec in specs] == [job.cache_key for job in jobs]


def test_compare_counts_more_failures_as_worse():
    import compare

    assert compare.failed_more([(0, 100), (0, 100)], [(1, 100), (0, 100)])
    assert not compare.failed_more([(1, 100)], [(1, 100)])
    assert not compare.failed_more([(2, 100)], [(0, 100)])


def test_metric_names_match_benchmark_json():
    assert [(n, u) for n, u in bench.END_TO_END] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]
    assert [(n, u, b) for n, (u, b) in spans.PER_LAYER.items()] == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ]
    assert NAMES == list(suite.WORKLOADS) == list(bench.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_passes_its_checks(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "simulated-statistics digest" in done.stdout


def test_without_the_program_it_fails_without_a_result():
    bare = Path(tempfile.mkdtemp(dir=bench.scratch_dir()))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark("paper-grid", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bench.SCRATCH.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
