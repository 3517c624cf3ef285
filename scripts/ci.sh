#!/usr/bin/env sh
# Lightweight CI for the GANAX reproduction.
#
# Runs, from the repository root:
#   1. the tier-1 test suite (the gate every change must keep green), with
#      pytest's result cache disabled (-p no:cacheprovider) so runs are
#      byte-reproducible and leave no .pytest_cache behind;
#   2. the runner benchmarks, which enforce the warm-cache >= 5x speedup
#      contract, the cold/warm parity of the sweep results, the six-GAN
#      comparison-grid wall-clock budget, and the layer-memo speedup
#      contract on a synthetic family sweep (median of 7 alternating
#      cold/warm pairs >= 7.2x, a bar set from recorded runs);
#   3. an accelerator-registry smoke: a Session runs one small workload
#      through every registered accelerator and fails if the registry is
#      thinner than expected or any registered model cannot complete it;
#   4. a DSE smoke: a deterministic exhaustive search over a tiny two-field
#      space must produce a verifiably non-dominated Pareto frontier and a
#      warm re-search must answer entirely from cache;
#   5. a workload-registry smoke: `list-workloads --json` must emit valid
#      JSON covering the six paper workloads and the families, and a
#      synthetic-family workload must run an end-to-end CLI compare;
#   6. a streaming smoke: `compare --progress --jsonl -` must stream one
#      valid JSON record per job to stdout and per-job progress lines to
#      stderr (the streaming benchmark in step 2 separately enforces that
#      streaming scheduling overhead stays within 10% of batch run_jobs,
#      on the median of 21 alternating batch/streaming pairs);
#   7. a service smoke: `serve` hosts a shared runner, two concurrent
#      `remote-compare` clients submit the same grid, cross-client dedup
#      must leave exactly one simulation per distinct job, the `stats` verb
#      must report the same (8 jobs done, 4 cache misses, 4 jobs dispatched
#      to the serial backend), and SIGINT must shut the server down cleanly
#      with a complete event journal: 8 lines, exactly 4 of them carrying a
#      result payload (one per distinct job: the journal writes a key's
#      payload once), and `EventJournal.replay_into` of the file must
#      restore 4 entries (the service benchmark in step 2 separately
#      enforces that the served sweep stays within 1.5x of direct submit());
#   8. a telemetry smoke: `compare --trace --metrics` must write valid
#      Chrome trace-event JSON (one batch span, one job span per job) and a
#      metrics snapshot whose counters match the submitted grid (the
#      telemetry benchmark in step 2 separately enforces the overhead
#      budgets: disabled hooks <= 2%, and full telemetry <= 10% on the
#      median of 21 alternating dark/full pairs);
#   9. a staticcheck smoke: `lint` over the package source must be clean,
#      `check` over the six paper workloads x {eyeriss, ganax} x both
#      skip_zeros modes must verify every compiled program with zero
#      findings, a seeded single-µop corruption of a clean program must be
#      caught by the verifier, and a flipped mode bit (bit 68) in one access
#      word of the same program's encoded image must be reported by
#      `verify_words` as exactly one `mode-flag` at that word while the
#      uncorrupted image stays clean (the mutation tests in
#      tests/test_staticcheck.py separately prove every catalog id fires);
#  10. a schedule smoke: `list-schedules --json` must cover the builtin
#      specs and families, `check --schedule <name>` over every registered
#      schedule must verify the full grid with zero findings, the tuned
#      `hoisted` schedule must emit measurably fewer µops than `default`
#      on a pinned layer, and `dse --fields num_pvs,schedule` must rank
#      (geometry x schedule) points with schedule-aware cache keys (the
#      schedule benchmarks in benchmarks/bench_schedule.py separately
#      enforce the same contracts under timing);
#  11. a stale-memo smoke: one process, one layer memo, no cache cleared.  A
#      schedule name is registered, a DCGAN job runs under it, the name is
#      re-registered with different knobs and the same job runs again; the
#      second result must equal a memo-off run under the new knobs (the memo
#      keys the schedule by its knobs, not its name).  It checks
#      correctness, not time;
#  12. a paper-geometry machine smoke: the DCGAN-style slice (16x16 input,
#      5x5 kernel, stride 2) runs through GanaxLayerExecutor on the paper's
#      16x16 array; its output must equal transposed_conv2d (atol 1e-9) and
#      its per-wave machine cycles must sum to the pinned 18447.  It checks
#      correctness, not time (on a 2-vCPU VM a machine that ticked every PE
#      took 6-9 s; the event-driven machine takes ~1.5 s);
#  13. a CLI-surface smoke: `<verb> --help` must exit 0 for every verb, and
#      each of these must exit 2 (a usage error or a clean `error:`, never
#      a silent pass): a flag another verb owns (`figure8 --strategy`), a
#      compile bound below 1 (`check --max-columns 0`), a `check --layer`
#      filter that matches no layer, `lint --paths` on a missing path, and
#      a family point below its range (`compare --workloads discogan@16x16`,
#      which must stop at the DiscoGAN size guard's message, not at a
#      NetworkError from the discriminator's conv5).  It checks
#      correctness, not time;
#  14. the repository benchmark's self-tests (perfbench/selftest.py): seed
#      determinism, metric names matching BENCHMARK.json, and traced and
#      untraced smoke runs of every workload.  The traced runs wrap estimator
#      and pricing entry points by name (perfbench/spans.py), so renaming or
#      deleting one of them fails here instead of in the next benchmark run.
#
# Usage: scripts/ci.sh [extra pytest args for the tier-1 step]
set -eu

cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1 tests =="
python -m pytest -x -q -p no:cacheprovider "$@"

echo "== runner + layer-memo + DSE + workload + streaming + service + telemetry + schedule benchmarks (parity + cache + overhead contracts) =="
python -m pytest benchmarks/bench_runner.py benchmarks/bench_layercache.py \
    benchmarks/bench_dse.py benchmarks/bench_workloads.py \
    benchmarks/bench_streaming.py benchmarks/bench_service.py \
    benchmarks/bench_telemetry.py benchmarks/bench_schedule.py -q \
    -p no:cacheprovider --benchmark-disable-gc

echo "== accelerator registry smoke (Session over every registered model) =="
python - <<'PY'
from repro import Session
from repro.accelerators import accelerator_names

names = accelerator_names()
assert len(names) >= 4, f"registry too thin: {names}"
session = Session(accelerators=names)
multi = session.compare("DCGAN")["DCGAN"]
for name in names:
    result = multi.result(name)
    assert result.total_cycles > 0, f"{name} produced no cycles"
    assert result.total_energy_pj > 0, f"{name} produced no energy"
print("session smoke OK:",
      ", ".join(f"{n}={multi.generator_speedup(n):.2f}x" for n in names))
PY

echo "== DSE smoke (exhaustive 2-field space, deterministic) =="
python - <<'PY'
from repro.dse import DesignSpaceExplorer, ExhaustiveSearch, dominates

explorer = DesignSpaceExplorer()
space = explorer.space(
    fields=("num_pvs", "pes_per_pv"),
    overrides={"num_pvs": (8, 16), "pes_per_pv": (8, 16)},
)
result = explorer.explore(space=space, strategy=ExhaustiveSearch())
assert len(result.evaluated) == 4, result.space
frontier = result.frontier
assert frontier.frontier, "empty Pareto frontier"
for a in frontier.frontier:  # no frontier point dominates another
    for b in frontier.frontier:
        assert not dominates(a, b, frontier.objectives), (a.label, b.label)
for p in frontier.dominated:  # every excluded point is genuinely dominated
    assert any(dominates(f, p, frontier.objectives) for f in frontier.frontier)

warm = explorer.explore(space=space, strategy=ExhaustiveSearch())
assert warm.cache_stats.misses == 0, warm.cache_stats.as_dict()
assert warm.frontier.summary() == frontier.summary()
print("dse smoke OK:",
      f"{len(frontier.frontier)}/{len(result.evaluated)} points on the "
      f"frontier; warm re-search hit rate "
      f"{100 * warm.cache_stats.hit_rate:.0f}%")
PY

echo "== workload registry smoke (list-workloads JSON + synthetic compare) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

python -m repro.cli list-workloads --json "$SMOKE_DIR/workloads.json" --quiet
python - "$SMOKE_DIR/workloads.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)
names = [entry["name"] for entry in payload["workloads"]]
paper = ["3D-GAN", "ArtGAN", "DCGAN", "DiscoGAN", "GP-GAN", "MAGAN"]
assert names[:6] == paper, f"paper GANs not first, in figure order: {names}"
families = {entry["name"]: entry for entry in payload["families"]}
assert "synthetic" in families, sorted(families)
unlisted = [
    (entry["name"], entry["family"])
    for entry in payload["workloads"][:6]
    if entry["family"] not in families
]
assert not unlisted, f"paper GANs in unlisted families: {unlisted}"
assert all(entry["grammar"] and entry["version"] for entry in families.values())
print("list-workloads OK:", len(names), "workloads,", len(families), "families")
PY

python -m repro.cli compare \
    --workloads synthetic@d4c64,dcgan@64x64 \
    --accelerators eyeriss,ganax --json "$SMOKE_DIR/compare.json" --quiet
python - "$SMOKE_DIR/compare.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)["compare"]
assert set(payload["models"]) == {"synthetic@d4c64", "DCGAN"}, payload["models"].keys()
for name, summary in payload["models"].items():
    assert summary["ganax"]["speedup"] > 1.0, (name, summary)
print("synthetic compare OK:",
      ", ".join(f"{name}={summary['ganax']['speedup']:.2f}x"
                for name, summary in payload["models"].items()))
PY

echo "== streaming smoke (compare --progress --jsonl -) =="
python -m repro.cli compare \
    --workloads dcgan@64x64,MAGAN --accelerators eyeriss,ganax \
    --progress --jsonl - \
    > "$SMOKE_DIR/stream.jsonl" 2> "$SMOKE_DIR/stream.progress"
python - "$SMOKE_DIR/stream.jsonl" "$SMOKE_DIR/stream.progress" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    records = [json.loads(line) for line in handle if line.strip()]
assert len(records) == 4, f"expected 4 job records, got {len(records)}"
for record in records:
    assert record["event"] in ("completed", "cache-hit"), record
    assert record["provenance"] in ("executed", "cache", "deduplicated"), record
    assert record["generator_cycles"] > 0, record
assert {r["accelerator"] for r in records} == {"eyeriss", "ganax"}

with open(sys.argv[2], encoding="utf-8") as handle:
    progress = [line for line in handle if line.startswith("[")]
assert len(progress) == 4, f"expected 4 progress lines, got {len(progress)}"
assert any(line.startswith("[4/4]") for line in progress), progress
print("streaming smoke OK:", len(records), "JSONL records,",
      len(progress), "progress lines")
PY

echo "== service smoke (serve + two concurrent remote-compare clients) =="
python -m repro.cli serve --port 0 --port-file "$SMOKE_DIR/service.port" \
    --journal "$SMOKE_DIR/service.journal.jsonl" --quiet \
    2> "$SMOKE_DIR/service.log" &
SERVICE_PID=$!

for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/service.port" ] && break
    sleep 0.1
done
if ! [ -s "$SMOKE_DIR/service.port" ]; then
    echo "service smoke FAILED: server never published its port" >&2
    cat "$SMOKE_DIR/service.log" >&2
    exit 1
fi
SERVICE_PORT="$(cat "$SMOKE_DIR/service.port")"

python -m repro.cli remote-compare --port "$SERVICE_PORT" \
    --workloads dcgan@64x64,MAGAN --accelerators eyeriss,ganax \
    --client-id ci-a --jsonl "$SMOKE_DIR/client-a.jsonl" --quiet &
CLIENT_A=$!
python -m repro.cli remote-compare --port "$SERVICE_PORT" \
    --workloads dcgan@64x64,MAGAN --accelerators eyeriss,ganax \
    --client-id ci-b --jsonl "$SMOKE_DIR/client-b.jsonl" --quiet &
CLIENT_B=$!
wait "$CLIENT_A"
wait "$CLIENT_B"
python -m repro.cli stats --port "$SERVICE_PORT" --json - \
    > "$SMOKE_DIR/service.stats.json"

kill -INT "$SERVICE_PID"
wait "$SERVICE_PID"

python - "$SMOKE_DIR/client-a.jsonl" "$SMOKE_DIR/client-b.jsonl" \
    "$SMOKE_DIR/service.journal.jsonl" "$SMOKE_DIR/service.stats.json" <<'PY'
import json
import sys

streams = {}
for path in sys.argv[1:3]:
    with open(path, encoding="utf-8") as handle:
        streams[path] = [json.loads(line) for line in handle if line.strip()]

for path, records in streams.items():
    assert len(records) == 4, f"{path}: expected 4 records, got {len(records)}"
    for record in records:
        assert record["event"] in ("completed", "cache-hit"), record
        assert record["generator_cycles"] > 0, record

# Cross-client dedup: the grid has 4 distinct jobs, so across both clients
# exactly 4 simulations ran and the other 4 answers came from the cache.
events = [r["event"] for records in streams.values() for r in records]
assert events.count("completed") == 4, events
assert events.count("cache-hit") == 4, events

with open(sys.argv[3], encoding="utf-8") as handle:
    journal = [json.loads(line) for line in handle if line.strip()]
assert len(journal) == 8, f"expected 8 journal records, got {len(journal)}"
assert all("schema_version" in record for record in journal)
assert {(r["model"], r["accelerator"]) for r in journal} == {
    ("DCGAN", "eyeriss"), ("DCGAN", "ganax"),
    ("MAGAN", "eyeriss"), ("MAGAN", "ganax"),
}
# Each distinct job's result is journaled once; the repeats carry none, and
# the journal alone restores every job.
payloads = [r["cache_key"] for r in journal if "result_pickle" in r]
assert len(payloads) == 4, f"expected 4 payload lines, got {len(payloads)}"
assert len(set(payloads)) == 4, payloads
from repro.runner import InMemoryResultCache
from repro.service import EventJournal

restored = EventJournal.replay_into(sys.argv[3], InMemoryResultCache())
assert restored == 4, f"expected replay to restore 4 entries, got {restored}"

# The server's own accounting agrees: every job answered, each distinct
# job run exactly once, on the serial backend.
with open(sys.argv[4], encoding="utf-8") as handle:
    stats = json.load(handle)["stats"]
assert stats["jobs_done"] == 8, stats["jobs_done"]
assert stats["cache"]["misses"] == 4, stats["cache"]
if "metrics" in stats:
    dispatched = stats["metrics"]["counters"]["backend.jobs.dispatched{backend=serial}"]
    assert dispatched == 4, dispatched
print("service smoke OK: 2 clients x 4 jobs, 4 simulated + 4 dedup,",
      len(journal), "journal records,", len(payloads), "payloads,",
      "stats agree, clean shutdown")
PY

echo "== telemetry smoke (compare --trace --metrics) =="
python -m repro.cli compare \
    --workloads dcgan@64x64,MAGAN --accelerators eyeriss,ganax \
    --trace "$SMOKE_DIR/trace.json" --metrics "$SMOKE_DIR/metrics.json" \
    --cache-stats --quiet > "$SMOKE_DIR/telemetry.out"
python - "$SMOKE_DIR/trace.json" "$SMOKE_DIR/metrics.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    trace = json.load(handle)
events = trace["traceEvents"]
assert trace["displayTimeUnit"] == "ms", trace.keys()
names = [event["name"] for event in events]
assert names.count("batch") == 1, names
assert names.count("job") == 4, names
for event in events:
    assert event["ph"] == "X", event
    assert event["ts"] >= 0 and event["dur"] >= 0, event
    assert "span_id" in event["args"], event
batch_id = next(e["args"]["span_id"] for e in events if e["name"] == "batch")
job_parents = {e["args"]["parent_id"] for e in events if e["name"] == "job"}
assert job_parents == {batch_id}, (batch_id, job_parents)

with open(sys.argv[2], encoding="utf-8") as handle:
    metrics = json.load(handle)
counters = metrics["counters"]
assert counters["runner.jobs.scheduled"] == 4, counters
terminal = sum(
    value for key, value in counters.items()
    if key in ("runner.jobs.completed", "runner.jobs.cache-hit")
)
assert terminal == 4, counters
assert metrics["histograms"]["runner.job.latency_seconds"]["count"] == 4
print("telemetry smoke OK:", len(events), "trace events,",
      len(counters), "counters")
PY

echo "== staticcheck smoke (lint + full verification grid + seeded mutation) =="
python -m repro.cli lint --quiet --json "$SMOKE_DIR/lint.json"
python - "$SMOKE_DIR/lint.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)["lint"]
assert payload["ok"], payload["findings"]
print("lint OK: package source is clean")
PY

python -m repro.cli check --accelerators eyeriss,ganax \
    --json "$SMOKE_DIR/check.json" --quiet
python - "$SMOKE_DIR/check.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)["check"]
assert payload["ok"], payload
assert payload["findings"] == 0, payload
# six workloads x two accelerators x two skip_zeros modes, every
# compilable layer: the grid must not silently shrink.
assert payload["cells"] >= 200, payload["cells"]
assert payload["programs"] >= payload["cells"], payload
print("check OK:", payload["programs"], "programs across",
      payload["cells"], "cells, zero findings")
PY

python - <<'PY'
from repro.staticcheck import MachineModel, Severity, verify_program, verify_words
from repro.workloads.registry import get_workload
from repro.core.compiler import compile_layer_programs
from repro.isa.uops import AccessCfg

model = get_workload("dcgan")
binding = next(b for b in model.generator.bindings if b.is_transposed)
program = compile_layer_programs(
    binding, num_pvs=16, pes_per_pv=16, skip_zeros=True,
    max_waves=1, max_columns=4,
)[0]
machine = MachineModel.from_config(num_pvs=16, pes_per_pv=16)
assert not verify_program(program, machine), "clean program flagged"

# Flip the mode bit of one stored access word: the word-level check must
# report exactly that word, and the uncorrupted image must stay clean.
words = list(program.encoded_global_words())
assert not verify_words(words, num_pvs=program.num_pvs), "clean image flagged"
flip = next(i for i, u in enumerate(program.global_uops) if u.is_access)
words[flip] ^= 1 << 68
word_findings = verify_words(words, num_pvs=program.num_pvs)
assert [(f.check_id, f.index) for f in word_findings] == [("mode-flag", flip)], \
    word_findings
print("mode-bit smoke OK: flipped bit 68 of word", flip, "->",
      word_findings[0].check_id)

# Seed a single-µop corruption: point the first access.cfg at a PV the
# program never declared.  The verifier must catch it.
corrupt = list(program.global_uops)
at, uop = next(
    (i, u) for i, u in enumerate(corrupt) if isinstance(u, AccessCfg)
)
corrupt[at] = AccessCfg(
    pv_index=31, generator=uop.generator,
    register=uop.register, immediate=uop.immediate,
)
object.__setattr__(program, "global_uops", tuple(corrupt))
findings = verify_program(program, machine)
assert findings, "seeded corruption went undetected"
assert any(f.severity is Severity.ERROR for f in findings), findings
print("mutation smoke OK:", len(findings), "finding(s) on the seeded",
      "corruption, e.g.", findings[0].check_id)
PY

echo "== schedule smoke (list-schedules + per-schedule check grid + tuned win + dse axis) =="
python -m repro.cli list-schedules --json "$SMOKE_DIR/schedules.json" --quiet
python - "$SMOKE_DIR/schedules.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)
names = [entry["name"] for entry in payload["schedules"]]
assert "default" in names and "hoisted" in names, names
families = [entry["family"] for entry in payload["families"]]
assert "colmajor" in families and "unroll" in families, families
for entry in payload["schedules"]:
    assert entry["fingerprint"] and entry["knobs"], entry
print("list-schedules OK:", len(names), "schedules,", len(families), "families")
PY

for SCHEDULE in $(python - "$SMOKE_DIR/schedules.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)
print(" ".join(entry["name"] for entry in payload["schedules"]))
PY
); do
    python -m repro.cli check --schedule "$SCHEDULE" \
        --json "$SMOKE_DIR/check-schedule.json" --quiet
    python - "$SMOKE_DIR/check-schedule.json" "$SCHEDULE" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)["check"]
assert payload["ok"], (sys.argv[2], payload)
assert payload["findings"] == 0, (sys.argv[2], payload)
assert payload["programs"] > 0, (sys.argv[2], payload)
print(f"check --schedule {sys.argv[2]} OK:",
      payload["programs"], "programs, zero findings")
PY
done

python - <<'PY'
from repro.core.compiler import compile_layer_programs
from repro.workloads.registry import get_workload

model = get_workload("dcgan")
binding = next(b for b in model.generator.bindings if b.is_transposed)
counts = {}
for schedule in ("default", "hoisted"):
    programs = compile_layer_programs(
        binding, num_pvs=16, pes_per_pv=16, skip_zeros=True,
        max_waves=1, schedule=schedule,
    )
    counts[schedule] = sum(len(p.global_uops) for p in programs)
assert counts["hoisted"] < counts["default"] * 0.9, counts
print("tuned schedule OK: hoisted emits",
      f"{counts['hoisted']}/{counts['default']} uops",
      f"({1 - counts['hoisted'] / counts['default']:.0%} fewer) on dcgan/{binding.name}")
PY

python -m repro.cli dse --workloads magan --fields num_pvs,schedule \
    --json "$SMOKE_DIR/dse-schedule.json" --cache-stats --quiet \
    > "$SMOKE_DIR/dse-schedule.out"
python - "$SMOKE_DIR/dse-schedule.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    payload = json.load(handle)["dse"]
points = payload["frontier"] + payload["dominated"]
assert len(points) == payload["evaluations"], payload["evaluations"]
schedules = {point["point"]["schedule"] for point in points}
assert len(schedules) >= 2, schedules
assert "default" in schedules, schedules
# the schedule axis must move the objectives at fixed geometry
by_geometry = {}
for point in points:
    by_geometry.setdefault(point["point"]["num_pvs"], set()).add(
        json.dumps(point["metrics"], sort_keys=True)
    )
assert any(len(metrics) > 1 for metrics in by_geometry.values()), by_geometry
print("dse schedule axis OK:", len(points), "points across",
      len(schedules), "schedules,", len(payload["frontier"]), "on the frontier")
PY

echo "== stale-memo smoke (schedule re-registered with new knobs, one memo) =="
python - <<'PY'
from repro.config import ArchitectureConfig, SimulationOptions
from repro.runner import SimulationJob, configure_layer_memo, execute_job
from repro.schedule import ScheduleSpec, register_schedule, unregister_schedule


def run(**knobs):
    register_schedule(ScheduleSpec(name="tuned-x", **knobs))
    try:
        job = SimulationJob("dcgan", "ganax", ArchitectureConfig.paper_default(),
                            SimulationOptions(schedule="tuned-x"))
        return job.cache_key, execute_job(job)
    finally:
        unregister_schedule("tuned-x")


memo = configure_layer_memo()
old_key, old = run(repeat_unroll=1)
new_key, new = run(repeat_unroll=4, column_tile=2)
assert old_key != new_key, "re-registered knobs must move the job's cache key"
assert memo.stats.lookups > 0, memo.stats
configure_layer_memo(enabled=False)
_, reference = run(repeat_unroll=4, column_tile=2)
assert new == reference, (
    f"memo served stale layers: {new.total_cycles} cycles, "
    f"memo-off {reference.total_cycles}"
)
assert old.total_cycles != new.total_cycles, "the knobs must move the result"
print("stale-memo OK: re-registered tuned-x reads", new.total_cycles,
      "cycles with the memo on and off (old knobs:", old.total_cycles, "cycles)")
PY

echo "== paper-geometry machine smoke (16x16 array, 16x16 input, kernel 5, stride 2) =="
python - <<'PY'
import numpy as np

from repro.core.compiler import GanaxLayerExecutor
from repro.nn.functional import transposed_conv2d

rng = np.random.default_rng(2018)
x = rng.standard_normal((16, 16))
w = rng.standard_normal((5, 5))
run = GanaxLayerExecutor(num_pvs=16, pes_per_pv=16).run_transposed_conv(
    x, w, stride=2, padding=2
)
reference = transposed_conv2d(x[None], w[None, None], stride=2, padding=2)[0]
np.testing.assert_allclose(run.output, reference, rtol=0, atol=1e-9)
cycles = sum(s.cycles for s in run.statistics)
assert cycles == 18447, cycles
print("paper-geometry machine OK:", cycles, "machine cycles over",
      run.waves, "waves, output matches transposed_conv2d")
PY

echo "== CLI surface smoke (per-verb --help, usage errors, empty selections) =="
VERBS="$(python - <<'PY'
from repro.experiments import experiment_ids

modes = (
    "list list-accelerators list-workloads list-schedules cache-prune serve "
    "remote-compare stats check lint disasm compare sweep dse all"
).split()
print(" ".join(modes + [e for e in experiment_ids() if e not in modes]))
PY
)"
for VERB in $VERBS; do
    python -m repro.cli "$VERB" --help > /dev/null
done
expect_exit_2() {
    status=0
    python -m repro.cli "$@" > /dev/null 2> "$SMOKE_DIR/cli.err" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "CLI surface smoke FAILED: '$*' exited $status, expected 2" >&2
        cat "$SMOKE_DIR/cli.err" >&2
        exit 1
    fi
}
expect_exit_2 figure8 --strategy random
expect_exit_2 check --workloads dcgan --max-columns 0
expect_exit_2 check --workloads dcgan --layer nosuchlayer
expect_exit_2 lint --paths "$SMOKE_DIR/missing"
expect_exit_2 compare --workloads discogan@16x16
if ! grep -q "DiscoGAN size must be a power of two >= 32" "$SMOKE_DIR/cli.err" \
        || grep -q "conv5" "$SMOKE_DIR/cli.err"; then
    echo "CLI surface smoke FAILED: discogan@16x16 did not stop at the size guard" >&2
    cat "$SMOKE_DIR/cli.err" >&2
    exit 1
fi
echo "CLI surface OK: $(echo $VERBS | wc -w) verbs answer --help, 5 bad invocations exit 2"

echo "== perfbench self-tests (seeded workloads, metric names, traced smoke runs) =="
python -m pytest -q -p no:cacheprovider perfbench/selftest.py

echo "CI OK"
