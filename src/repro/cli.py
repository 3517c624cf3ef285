"""Command-line interface: regenerate the paper's tables and figures.

Installed as ``repro-experiments`` (see ``pyproject.toml``).  Examples::

    repro-experiments list                # list available experiments
    repro-experiments list-accelerators   # list registered accelerator models
    repro-experiments list-workloads      # list registered workloads + families
    repro-experiments list-schedules      # list registered µop schedules
    repro-experiments figure8             # regenerate Figure 8
    repro-experiments all                 # regenerate everything
    repro-experiments compare             # N-way comparison, all accelerators
    repro-experiments compare --accelerators eyeriss,ganax,ideal
    repro-experiments compare --workloads dcgan@64x64,synthetic@d8c256
    repro-experiments sweep --parameter num_pvs --values 4,8,16
    repro-experiments figure8 --json out.json
    repro-experiments all --cache-stats
    repro-experiments all --cache-dir .sim-cache   # warm-start reruns
    repro-experiments dse --accelerator ganax --strategy random --budget 8
    repro-experiments dse --workloads synthetic@d4c64,synthetic@d6c128z100
    repro-experiments dse --fields num_pvs,schedule  # geometry x schedule
    repro-experiments disasm --workload dcgan --layer tconv1 --schedule hoisted
    repro-experiments check --schedule colmajor@tile64
    repro-experiments cache-prune --cache-dir .sim-cache --max-bytes 10000000
    repro-experiments list-accelerators --json -   # machine-readable registry
    repro-experiments list-workloads --json -      # machine-readable registry
    repro-experiments all --progress               # live per-job progress
    repro-experiments compare --progress --jsonl - # stream results as JSONL
    repro-experiments sweep --parameter num_pvs --values 4,8 --jsonl run.jsonl
    repro-experiments serve --port 8642 --journal run.journal
    repro-experiments serve --journal run.journal --resume  # crash recovery
    repro-experiments remote-compare --port 8642 --workloads dcgan,artgan
    repro-experiments compare --trace trace.json   # Chrome trace (Perfetto)
    repro-experiments sweep --parameter num_pvs --values 4,8 --metrics m.json
    repro-experiments stats --port 8642            # telemetry of a service

Every simulation runs through one shared
:class:`~repro.runner.SimulationRunner`, so the whole invocation shares a
content-addressed result cache, and ``--cache-dir`` persists results across
invocations.  The ``compare`` and ``sweep`` modes route through
:class:`repro.Session`, so any accelerator registered in
:mod:`repro.accelerators` is addressable via ``--accelerators`` and any
workload — including family spec strings like ``dcgan@32x32`` or
``synthetic@d8c256`` (see ``list-workloads``) — via ``--workloads``; the
``dse`` mode runs a :mod:`repro.dse` design-space search and reports the
Pareto frontier.

The runner's streaming API drives two live outputs: ``--progress`` prints a
per-job progress line to stderr the moment each simulation finishes (or is
answered from cache), and ``--jsonl PATH|-`` writes one machine-readable
JSON record per job *as it terminates* — ``completed``, ``cache-hit``,
``failed`` or ``cancelled`` (result fields are present only on the first
two; PATH is rewritten each run).  Both work in every mode, because they
subscribe to the runner's typed event stream rather than wrapping any
particular mode.

The ``serve`` mode hosts one shared runner as a long-running TCP service
(see :mod:`repro.service`): multiple clients stream batches through the
same content-addressed cache with per-client admission control, and
``--journal``/``--resume`` make sweeps crash-recoverable.  The
``remote-compare`` mode is the matching client: it submits the same
(workload x accelerator) grid as ``compare`` to a running service and
streams the results back.

Observability rides on :mod:`repro.telemetry`: ``--trace PATH`` records
hierarchical spans (batch -> job -> simulate_layers -> layer-memo) and
writes Chrome trace-event JSON — or JSONL when PATH ends in ``.jsonl`` —
after the run; ``--metrics PATH|-`` dumps the process metrics-registry
snapshot as JSON; ``--cache-stats`` reads its accounting from the same
registry; and the ``stats`` mode asks a running service for its live
telemetry over the wire.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import IO, List, Optional, Sequence, Tuple

from .accelerators.registry import accelerator_names, create_accelerator, get_accelerator
from .analysis.charts import frontier_chart, multi_comparison_chart
from .analysis.report import format_table
from .config import ArchitectureConfig, SimulationOptions
from .analysis.serialization import multi_comparison_rows
from .dse.engine import DesignSpaceExplorer
from .dse.strategies import get_strategy
from .errors import ReproError, UnknownAcceleratorError, UnknownWorkloadError
from .experiments.base import ExperimentContext
from .experiments.registry import experiment_ids, run_all, run_experiment
from .runner import (
    DiskResultCache,
    RunnerEvent,
    SimulationRunner,
    configure_layer_memo,
    get_layer_memo,
)
from .service import Client, SimulationServer
from .service.protocol import grid_specs
from .service.server import DEFAULT_PORT
from .session import Session
from .telemetry import configure_metrics, configure_tracing, get_metrics
from .workloads.registry import (
    describe_workload_families,
    describe_workloads,
    resolve_workload,
    workload_families,
    workload_names,
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro-experiments``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the GANAX paper (ISCA 2018).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help=(
            "experiment id (e.g. figure8, table3), 'all', 'list', "
            "'list-accelerators', 'list-workloads', 'list-schedules', "
            "'compare' (N-way "
            "accelerator comparison), 'sweep' (one-parameter configuration "
            "sweep), 'dse' (design-space exploration), 'cache-prune', "
            "'serve' (host the simulation service), 'remote-compare' "
            "(run a comparison grid against a running service), 'stats' "
            "(query a running service for its telemetry snapshot), 'check' "
            "(statically verify compiled µop programs over a workload x "
            "accelerator grid), 'lint' (repo-invariant lints over the "
            "source tree), or 'disasm' (compile one layer and print its "
            "µop program)"
        ),
    )
    parser.add_argument(
        "--accelerators",
        metavar="NAMES",
        default=None,
        help=(
            "comma-separated registered accelerator names for "
            "'compare'/'sweep' (default: every registered accelerator)"
        ),
    )
    parser.add_argument(
        "--workloads",
        metavar="SPECS",
        default=None,
        help=(
            "comma-separated workload names or family spec strings (e.g. "
            "dcgan@64x64,synthetic@d8c256) for 'compare'/'sweep'/'dse' "
            "(default: every registered workload; see 'list-workloads')"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="NAME",
        default=None,
        help=(
            "baseline accelerator for 'compare'/'sweep'/'dse' ratios "
            "(default: eyeriss)"
        ),
    )
    parser.add_argument(
        "--parameter",
        metavar="FIELD",
        default=None,
        help="ArchitectureConfig field the 'sweep' mode varies",
    )
    parser.add_argument(
        "--values",
        metavar="VALUES",
        default=None,
        help="comma-separated values for the swept 'sweep' field",
    )
    parser.add_argument(
        "--accelerator",
        metavar="NAME",
        default=None,
        help="accelerator whose design space 'dse' explores (default: ganax)",
    )
    parser.add_argument(
        "--strategy",
        metavar="NAME",
        default=None,
        help="search strategy for 'dse': exhaustive, random or hillclimb",
    )
    parser.add_argument(
        "--budget",
        type=int,
        metavar="N",
        default=None,
        help="maximum design points 'dse' evaluates",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        default=None,
        help="random seed for the 'dse' random/hillclimb strategies (default 0)",
    )
    parser.add_argument(
        "--fields",
        metavar="NAMES",
        default=None,
        help=(
            "comma-separated axes spanning the 'dse' space: "
            "ArchitectureConfig fields plus the special 'schedule' axis "
            "(default: num_pvs,pes_per_pv,dram_bandwidth_bytes_per_cycle)"
        ),
    )
    parser.add_argument(
        "--schedule",
        metavar="SPEC",
        default=None,
        help=(
            "µop schedule spec string for 'check'/'disasm'/'compare'/'dse' "
            "(e.g. default, hoisted, colmajor@tile64; see 'list-schedules')"
        ),
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        default=None,
        help="size budget for 'cache-prune' (oldest entries evicted first)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the computed data as JSON to PATH",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered report (useful with --json)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live per-job progress line to stderr as results stream",
    )
    parser.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help=(
            "stream one JSON record per terminated job (completed/cache-hit/"
            "failed/cancelled) to PATH ('-' for stdout) for "
            "'compare'/'sweep'/'dse'; PATH is rewritten each run"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="persist simulation results in a content-addressed disk cache",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching (every job re-simulates)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss accounting after the run",
    )
    parser.add_argument(
        "--host",
        metavar="ADDR",
        default=None,
        help=(
            "service address for 'serve'/'remote-compare' "
            "(default: 127.0.0.1)"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        metavar="N",
        default=None,
        help=(
            "service TCP port for 'serve'/'remote-compare' "
            f"(default: {DEFAULT_PORT}; 0 binds an ephemeral port)"
        ),
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="'serve' writes its bound port to PATH (for scripted clients)",
    )
    parser.add_argument(
        "--quota",
        type=int,
        metavar="N",
        default=None,
        help="'serve' per-client in-flight job quota",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        metavar="N",
        default=None,
        help="'serve' server-wide in-flight job bound",
    )
    parser.add_argument(
        "--max-active",
        type=int,
        metavar="N",
        default=None,
        help="'serve' batches concurrently dispatched to the shared runner",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="'serve' journals terminal job events to PATH (JSONL, fsync'd)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        default=None,
        help=(
            "'serve' replays the --journal into the result cache at startup "
            "so a restarted sweep re-runs only missing jobs"
        ),
    )
    parser.add_argument(
        "--client-id",
        metavar="ID",
        default=None,
        help="client identity 'remote-compare' announces to the service",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record tracing spans for 'compare'/'sweep'/'dse' and write "
            "Chrome trace-event JSON to PATH after the run (open in "
            "Perfetto); a PATH ending in .jsonl gets one span per line"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "write the metrics-registry snapshot (counters/gauges/"
            "histograms) as JSON to PATH ('-' for stdout) after "
            "'compare'/'sweep'/'dse'"
        ),
    )
    parser.add_argument(
        "--workload",
        metavar="NAME",
        default=None,
        help="workload whose layer 'disasm' compiles (e.g. dcgan)",
    )
    parser.add_argument(
        "--layer",
        metavar="NAME",
        default=None,
        help=(
            "layer name for 'disasm' (exact) or 'check' (substring filter "
            "over binding names)"
        ),
    )
    parser.add_argument(
        "--max-columns",
        type=int,
        metavar="N",
        default=None,
        help=(
            "output columns compiled per wave for 'check'/'disasm' "
            "(default: 8 for check, 4 for disasm — the golden-test tile)"
        ),
    )
    parser.add_argument(
        "--max-waves",
        type=int,
        metavar="N",
        default=None,
        help="waves compiled per layer for 'check'/'disasm' (default: 1)",
    )
    parser.add_argument(
        "--no-skip-zeros",
        action="store_true",
        default=None,
        help=(
            "'disasm' compiles the dense (EYERISS-style) lowering instead "
            "of the zero-skipping GANAX one; 'check' always verifies both"
        ),
    )
    parser.add_argument(
        "--paths",
        metavar="PATHS",
        default=None,
        help=(
            "comma-separated files/directories 'lint' scans "
            "(default: the installed repro package source)"
        ),
    )
    return parser


def parse_accelerator_list(spec: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse a comma-separated ``--accelerators`` value into registry names.

    Unknown (or empty) specs raise
    :class:`~repro.errors.UnknownAcceleratorError`, whose message lists every
    registered name.
    """
    if spec is None:
        return None
    names = tuple(token.strip() for token in spec.split(",") if token.strip())
    if not names:
        raise UnknownAcceleratorError(spec, accelerator_names())
    return tuple(get_accelerator(name).name for name in names)


def parse_workload_list(spec: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse a comma-separated ``--workloads`` value into canonical specs.

    Entries may be registered names, aliases, or family spec strings
    (``dcgan@32x32``); family arguments are NOT comma-separable here, so use
    the compact grammar (``synthetic@d8c256``).  Unknown (or empty) values
    raise :class:`~repro.errors.UnknownWorkloadError`, whose message lists
    every registered workload and family.
    """
    if spec is None:
        return None
    names = tuple(token.strip() for token in spec.split(",") if token.strip())
    if not names:
        raise UnknownWorkloadError(spec, workload_names(), workload_families())
    return tuple(resolve_workload(name).name for name in names)


def parse_value_list(spec: str) -> Tuple[object, ...]:
    """Parse ``--values``: each comma-separated token as int, float or str."""
    values: List[object] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        for parse in (int, float):
            try:
                values.append(parse(token))
                break
            except ValueError:
                continue
        else:
            values.append(token)
    if not values:
        raise ReproError(f"--values '{spec}' contains no values")
    return tuple(values)


def build_runner(args: argparse.Namespace) -> SimulationRunner:
    """Construct the runner the CLI's experiments submit through."""
    if args.no_cache:
        # --no-cache disables every caching tier, including the layer memo.
        configure_layer_memo(enabled=False)
        return SimulationRunner(use_cache=False)
    configure_layer_memo()
    cache = DiskResultCache(args.cache_dir) if args.cache_dir else None
    return SimulationRunner(cache=cache)


def _owns_stdout(args: argparse.Namespace) -> bool:
    """Whether a machine-readable stream claimed stdout (implies quiet text)."""
    return args.json == "-" or args.jsonl == "-" or args.metrics == "-"


class _ProgressPrinter:
    """Live per-job progress on stderr, driven by the runner's event stream.

    Alongside the per-job lines, a ``metrics:`` summary line (cache hit
    counts, job-latency p50) is printed at most every ``metrics_interval``
    seconds — long sweeps get a periodic pulse without per-job noise.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        metrics_interval: float = 5.0,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self._scheduled = 0
        self._finished = 0
        self._metrics_interval = metrics_interval
        self._last_metrics = time.monotonic()

    def __call__(self, event: RunnerEvent) -> None:
        with self._lock:
            if event.kind == "scheduled":
                self._scheduled += 1
                return
            if not event.is_terminal:
                return
            self._finished += 1
            detail = event.provenance or event.kind
            if event.kind == "failed":
                detail = f"failed: {event.error}"
            print(
                f"[{self._finished}/{self._scheduled}] "
                f"{event.job.model_name} on {event.job.accelerator}: {detail}",
                file=self._stream,
                flush=True,
            )
            now = time.monotonic()
            if (
                self._metrics_interval > 0
                and now - self._last_metrics >= self._metrics_interval
            ):
                self._last_metrics = now
                self._print_metrics_line()

    def _print_metrics_line(self) -> None:
        registry = get_metrics()
        if registry is None:
            return
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        parts = [
            f"metrics: {self._finished}/{self._scheduled} done",
            f"cache {counters.get('runner.cache.hits', 0)} hits"
            f"/{counters.get('runner.cache.misses', 0)} misses",
        ]
        latency = snapshot["histograms"].get("runner.job.latency_seconds")
        if latency and latency.get("count"):
            parts.append(f"job p50 {latency['p50'] * 1000:.0f} ms")
        print(", ".join(parts), file=self._stream, flush=True)


class _JsonlWriter:
    """One JSON record per terminal job event, streamed as results land.

    Subscribed to the runner, so every mode that routes jobs through the
    shared runner streams records without knowing about the flag; records
    use :meth:`repro.runner.RunnerEvent.describe` (machine-readable entries
    in the same spirit as ``list-accelerators --json``).
    """

    def __init__(self, destination: str) -> None:
        self._owns_handle = destination != "-"
        self._handle: IO[str] = (
            open(destination, "w", encoding="utf-8")
            if self._owns_handle
            else sys.stdout
        )
        self._lock = threading.Lock()

    def __call__(self, event: RunnerEvent) -> None:
        if not event.is_terminal:
            return
        line = json.dumps(event.describe(), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()


def _hit_rate(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def _print_cache_stats(runner: SimulationRunner, args: argparse.Namespace) -> None:
    # The accounting is read from the metrics registry (the same numbers every
    # other telemetry surface reports); runner.stats / memo.stats remain the
    # fallback when metrics are disabled.  Output format is pinned by
    # tests/test_cli.py — keep it byte-stable.
    registry = get_metrics()
    if registry is not None:
        counters = registry.snapshot()["counters"]
        hits = counters.get("runner.cache.hits", 0)
        misses = counters.get("runner.cache.misses", 0)
        deduplicated = counters.get("runner.cache.deduplicated", 0)
    else:
        stats = runner.stats
        hits, misses = stats.hits, stats.misses
        deduplicated = stats.deduplicated
    # with '--json -' / '--jsonl -' stdout is the machine-readable payload,
    # so the accounting line goes to stderr instead of corrupting it
    stream = sys.stderr if _owns_stdout(args) else sys.stdout
    print(
        "cache: "
        f"{hits} hits, {misses} misses, "
        f"{deduplicated} deduplicated "
        f"(hit rate {100 * _hit_rate(hits, misses):.1f}%)",
        file=stream,
    )
    memo = get_layer_memo()
    if memo is not None:
        if registry is not None:
            counters = registry.snapshot()["counters"]
            layer_hits = counters.get("runner.layer_memo.hits", 0)
            layer_misses = counters.get("runner.layer_memo.misses", 0)
        else:
            layer_hits, layer_misses = memo.stats.hits, memo.stats.misses
        print(
            "layer memo: "
            f"{layer_hits} hits, {layer_misses} misses "
            f"(hit rate {100 * _hit_rate(layer_hits, layer_misses):.1f}%, "
            f"{len(memo)} resident entries)",
            file=stream,
        )


def _export_telemetry(args: argparse.Namespace, tracer) -> None:
    """Write the --trace and --metrics artifacts after a streaming-mode run."""
    if tracer is not None and args.trace:
        tracer.export(args.trace)
        if not args.quiet:
            kind = "span JSONL" if args.trace.endswith(".jsonl") else (
                "Chrome trace-event JSON (open in Perfetto: "
                "https://ui.perfetto.dev)"
            )
            print(f"wrote {kind} to {args.trace}", file=sys.stderr)
    if args.metrics:
        registry = get_metrics()
        snapshot = registry.snapshot() if registry is not None else {}
        if args.metrics == "-":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
            if not args.quiet:
                print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)


def _write_json(payload: dict, destination: str, quiet: bool) -> None:
    """Write a JSON payload to a file, or to stdout when destination is '-'."""
    if destination == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    if not quiet:
        print(f"wrote JSON results to {destination}")


def _list_accelerators(args: argparse.Namespace) -> int:
    """The ``list-accelerators`` mode: plain text, or machine-readable JSON."""
    if args.json:
        # config_space() is an instance method, so the JSON listing has to
        # instantiate each model; the text listing stays metadata-only
        entries = [
            {
                **get_accelerator(name).describe(),
                "config_space": list(create_accelerator(name).config_space()),
            }
            for name in accelerator_names()
        ]
        _write_json({"accelerators": entries}, args.json, args.quiet)
    else:
        for name in accelerator_names():
            spec = get_accelerator(name)
            print(f"{spec.name}  (v{spec.version})  {spec.description}")
    return 0


def _list_workloads(args: argparse.Namespace) -> int:
    """The ``list-workloads`` mode: plain text, or machine-readable JSON."""
    if args.json:
        payload = {
            "workloads": describe_workloads(),
            "families": describe_workload_families(),
        }
        _write_json(payload, args.json, args.quiet)
    else:
        for entry in describe_workloads():
            print(
                f"{entry['name']}  ({entry['family']}, v{entry['version']})  "
                f"{entry['description']}"
            )
        print()
        print("families (usable as '<family>@<args>'):")
        for entry in describe_workload_families():
            print(f"{entry['grammar']}  (v{entry['version']})  {entry['description']}")
    return 0


def _list_schedules(args: argparse.Namespace) -> int:
    """The ``list-schedules`` mode: plain text, or machine-readable JSON."""
    from .schedule import describe_schedules

    catalog = describe_schedules()
    if args.json:
        _write_json(catalog, args.json, args.quiet)
    else:
        for entry in catalog["schedules"]:
            print(
                f"{entry['name']}  [{entry['fingerprint'][:12]}]  "
                f"{entry['description']}"
            )
        print()
        print("families (usable as '<family>@<args>'):")
        for entry in catalog["families"]:
            print(f"{entry['grammar']}  {entry['description']}")
    return 0


def _run_cache_prune(args: argparse.Namespace) -> int:
    """The ``cache-prune`` mode: evict oldest disk-cache entries to a budget."""
    if not args.cache_dir:
        print("error: cache-prune requires --cache-dir", file=sys.stderr)
        return 2
    if args.max_bytes is None:
        print("error: cache-prune requires --max-bytes", file=sys.stderr)
        return 2
    try:
        stats = DiskResultCache(args.cache_dir).prune(max_bytes=args.max_bytes)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet and not _owns_stdout(args):
        print(
            f"pruned {stats.removed_entries} entries "
            f"({stats.removed_bytes} bytes); "
            f"{stats.remaining_entries} entries "
            f"({stats.remaining_bytes} bytes) remain"
        )
    if args.json:
        _write_json({"cache_prune": stats.as_dict()}, args.json, args.quiet)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` mode: host the simulation service until interrupted."""
    import signal

    try:
        runner = build_runner(args)
    except Exception as exc:  # bad --cache-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.progress:
        runner.subscribe(_ProgressPrinter())
    try:
        server = SimulationServer(
            host=args.host or "127.0.0.1",
            port=args.port if args.port is not None else DEFAULT_PORT,
            runner=runner,
            quota=args.quota if args.quota is not None else 64,
            queue_limit=args.queue_limit if args.queue_limit is not None else 1024,
            max_active_requests=args.max_active if args.max_active is not None else 4,
            journal_path=args.journal,
            resume=bool(args.resume),
        )
        server.start_in_thread()
    except (ReproError, OSError) as exc:  # bad knobs, port in use, bad journal
        print(f"error: {exc}", file=sys.stderr)
        runner.close()
        return 2
    # Operational chatter goes to stderr so scripts can own stdout.
    if server.restored_entries:
        print(
            f"resumed {server.restored_entries} journaled results into the cache",
            file=sys.stderr,
        )
    print(
        f"serving on {server.host}:{server.port} "
        f"(quota={server.admission.quota}, "
        f"queue-limit={server.admission.queue_limit}); Ctrl-C stops",
        file=sys.stderr,
    )
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")
    stop = threading.Event()

    def _request_stop(_signum: int, _frame: object) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except ValueError:  # not the main thread (e.g. under a test harness)
            pass
    try:
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("draining in-flight jobs...", file=sys.stderr)
        server.shutdown()
        runner.close()
    print("server stopped", file=sys.stderr)
    return 0


def _run_remote_compare(args: argparse.Namespace) -> int:
    """The ``remote-compare`` mode: the comparison grid, via a running service."""
    try:
        accelerators = parse_accelerator_list(args.accelerators) or accelerator_names()
        workloads = parse_workload_list(args.workloads) or workload_names()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = grid_specs(workloads, accelerators)
    jsonl_handle: Optional[IO[str]] = None
    if args.jsonl:
        try:
            jsonl_handle = (
                sys.stdout
                if args.jsonl == "-"
                else open(args.jsonl, "w", encoding="utf-8")
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    records = []
    try:
        with Client(
            host=args.host or "127.0.0.1",
            port=args.port if args.port is not None else DEFAULT_PORT,
            client_id=args.client_id,
        ) as client:
            for record in client.submit(specs):
                records.append(record)
                if jsonl_handle is not None:
                    jsonl_handle.write(json.dumps(record, sort_keys=True) + "\n")
                    jsonl_handle.flush()
                if not args.quiet and not _owns_stdout(args):
                    detail = record.get("provenance") or record.get("event")
                    if record.get("event") == "failed":
                        detail = f"failed: {record.get('error')}"
                    print(
                        f"[{len(records)}/{len(specs)}] "
                        f"{record.get('model')} on {record.get('accelerator')}: "
                        f"{detail}"
                    )
            counts = client.last_counts or {}
        if not args.quiet and not _owns_stdout(args):
            summary = ", ".join(
                f"{kind}={counts[kind]}" for kind in sorted(counts) if counts[kind]
            )
            print(f"done ({summary or 'no jobs'})")
        if args.json:
            _write_json(
                {"remote_compare": {"counts": counts, "records": records}},
                args.json,
                args.quiet,
            )
        return 1 if counts.get("failed") else 0
    except (ReproError, OSError) as exc:  # rejected, unreachable, protocol
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if jsonl_handle is not None and jsonl_handle is not sys.stdout:
            jsonl_handle.close()


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` mode: a running service's telemetry snapshot, over the wire."""
    try:
        with Client(
            host=args.host or "127.0.0.1",
            port=args.port if args.port is not None else DEFAULT_PORT,
        ) as client:
            payload = client.stats()
    except (ReproError, OSError) as exc:  # unreachable, old server, shutdown
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet and not _owns_stdout(args):
        print(
            f"server {payload.get('server', '?')}: "
            f"up {payload.get('uptime_seconds', 0.0):.1f}s, "
            f"{payload.get('requests_done', 0)} requests done, "
            f"{payload.get('jobs_done', 0)} jobs done"
        )
        print(
            f"queue depth {payload.get('queue_depth', 0)}, "
            f"{payload.get('active_requests', 0)} active requests, "
            f"{payload.get('connections', 0)} connections"
        )
        cache = payload.get("cache") or {}
        print(
            f"cache: {cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses, "
            f"{cache.get('deduplicated', 0)} deduplicated "
            f"(hit rate {100 * cache.get('hit_rate', 0.0):.1f}%)"
        )
        memo = payload.get("layer_memo")
        if memo:
            print(
                f"layer memo: {memo.get('hits', 0)} hits, "
                f"{memo.get('misses', 0)} misses "
                f"(hit rate {100 * memo.get('hit_rate', 0.0):.1f}%)"
            )
        metrics = payload.get("metrics") or {}
        latency = metrics.get("histograms", {}).get("service.request_latency_seconds")
        if latency and latency.get("count"):
            print(
                f"request latency: p50 {latency['p50'] * 1000:.1f} ms, "
                f"p90 {latency['p90'] * 1000:.1f} ms, "
                f"p99 {latency['p99'] * 1000:.1f} ms "
                f"({latency['count']} requests)"
            )
    if args.json:
        _write_json({"stats": payload}, args.json, args.quiet)
    return 0


def _run_check(args: argparse.Namespace) -> int:
    """The ``check`` mode: statically verify compiled µop programs.

    Compiles every compilable layer of the requested workloads in both
    ``skip_zeros`` modes and runs the full verifier catalog; exits non-zero
    if any error-severity finding survives.
    """
    from .staticcheck import Severity, run_check_grid

    workloads = parse_workload_list(args.workloads)
    accelerators = (
        [token.strip() for token in args.accelerators.split(",") if token.strip()]
        if args.accelerators
        else ["eyeriss", "ganax"]
    )
    try:
        report = run_check_grid(
            workloads,
            accelerators,
            max_waves=args.max_waves if args.max_waves is not None else 1,
            max_columns=args.max_columns if args.max_columns is not None else 8,
            layer=args.layer,
            schedule=args.schedule,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet and not _owns_stdout(args):
        for entry in report.entries:
            for finding in entry.findings:
                mode = "skip" if entry.skip_zeros else "dense"
                print(
                    f"{entry.workload}/{entry.layer} [{entry.accelerator}, "
                    f"{mode}] {finding}"
                )
        errors = sum(
            1 for f in report.findings if f.severity is Severity.ERROR
        )
        warnings = len(report.findings) - errors
        print(
            f"checked {report.programs} programs across {len(report.entries)} "
            f"cells: {errors} errors, {warnings} warnings"
        )
    if args.json:
        _write_json({"check": report.describe()}, args.json, args.quiet)
    return 0 if report.ok else 1


def _run_lint(args: argparse.Namespace) -> int:
    """The ``lint`` mode: repo-invariant AST lints over the source tree."""
    from pathlib import Path

    from .staticcheck import run_lints

    if args.paths:
        paths = [Path(token.strip()) for token in args.paths.split(",") if token.strip()]
    else:
        paths = [Path(__file__).parent]
    try:
        findings = run_lints(paths)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet and not _owns_stdout(args):
        for finding in findings:
            print(str(finding))
        scanned = ", ".join(str(path) for path in paths)
        print(f"linted {scanned}: {len(findings)} finding(s)")
    if args.json:
        payload = {
            "ok": not findings,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "check_id": f.check_id,
                    "message": f.message,
                }
                for f in findings
            ],
        }
        _write_json({"lint": payload}, args.json, args.quiet)
    return 0 if not findings else 1


def _run_disasm(args: argparse.Namespace) -> int:
    """The ``disasm`` mode: compile one layer and print its µop program(s)."""
    from .core.compiler import compile_layer_programs
    from .staticcheck import iter_compilable_bindings
    from .workloads.registry import get_workload

    if not args.workload or not args.layer:
        print("error: disasm requires --workload and --layer", file=sys.stderr)
        return 2
    try:
        model = get_workload(args.workload)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bindings = {b.name: b for _, b in iter_compilable_bindings(model)}
    binding = bindings.get(args.layer)
    if binding is None:
        print(
            f"error: no compilable layer '{args.layer}' in {model.name} "
            f"(available: {', '.join(sorted(bindings))})",
            file=sys.stderr,
        )
        return 2
    config = ArchitectureConfig.paper_default()
    try:
        programs = compile_layer_programs(
            binding,
            num_pvs=config.num_pvs,
            pes_per_pv=config.pes_per_pv,
            skip_zeros=not args.no_skip_zeros,
            max_waves=args.max_waves if args.max_waves is not None else 1,
            max_columns=args.max_columns if args.max_columns is not None else 4,
            schedule=args.schedule,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet and not _owns_stdout(args):
        for index, program in enumerate(programs):
            if index:
                print()  # blank line between waves
            print(program.disassemble(), end="")
    if args.json:
        from .schedule import canonical_schedule_name

        payload = {
            "workload": model.name,
            "layer": binding.name,
            "skip_zeros": not args.no_skip_zeros,
            "schedule": canonical_schedule_name(args.schedule or "default"),
            "programs": [program.uop_records() for program in programs],
        }
        _write_json({"disasm": payload}, args.json, args.quiet)
    return 0


def _run_dse(args: argparse.Namespace, runner: SimulationRunner) -> int:
    """The ``dse`` mode: search one accelerator's design space, report the frontier."""
    try:
        options = None
        if args.schedule is not None:
            options = SimulationOptions(schedule=args.schedule)
        explorer = DesignSpaceExplorer(
            accelerator=args.accelerator or "ganax",
            baseline=args.baseline or "eyeriss",
            models=parse_workload_list(args.workloads),
            options=options,
            runner=runner,
        )
        fields = None
        if args.fields is not None:
            fields = tuple(
                token.strip() for token in args.fields.split(",") if token.strip()
            )
        space = explorer.space(fields=fields)
        strategy = get_strategy(
            args.strategy or "exhaustive",
            seed=args.seed if args.seed is not None else 0,
        )
        result = explorer.explore(space=space, strategy=strategy, budget=args.budget)

        # with '--json -' / '--jsonl -' stdout *is* the payload; the text
        # report would corrupt it, so it is implied-quiet in that case
        if not args.quiet and not _owns_stdout(args):
            print(result.report())
            print()
            print(frontier_chart("Pareto frontier (first objective)", result.frontier))
        if args.json:
            _write_json({"dse": result.summary()}, args.json, args.quiet)
        if args.cache_stats:
            _print_cache_stats(runner, args)
    except ReproError as exc:  # unknown accelerator/strategy/field, bad budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    return 0


def _run_compare(args: argparse.Namespace, runner: SimulationRunner) -> int:
    """The ``compare`` mode: N workloads across N registered accelerators."""
    try:
        accelerators = parse_accelerator_list(args.accelerators) or accelerator_names()
        workloads = parse_workload_list(args.workloads)
        options = None
        if args.schedule is not None:
            options = SimulationOptions(schedule=args.schedule)
        session = Session(
            accelerators=accelerators,
            baseline=args.baseline,
            options=options,
            runner=runner,
        )
        comparisons = session.compare(workloads)

        if not args.quiet and not _owns_stdout(args):
            rows = [
                [
                    row["model"],
                    row["accelerator"],
                    row["speedup"],
                    row["energy_reduction"],
                    row["pe_utilization"],
                ]
                for row in multi_comparison_rows(comparisons)
            ]
            print(
                format_table(
                    [
                        "Model",
                        "Accelerator",
                        f"Speedup vs {session.baseline}",
                        "Energy reduction",
                        "PE utilization",
                    ],
                    rows,
                    title="N-way accelerator comparison (generator)",
                    float_format="{:.2f}",
                )
            )
            # The chart only has bars for non-baseline accelerators, so a
            # baseline-only comparison keeps its (valid) table-only output.
            if any(name != session.baseline for name in session.accelerators):
                print()
                print(
                    multi_comparison_chart(
                        f"Generator speedup vs {session.baseline}", comparisons
                    )
                )

        if args.json:
            payload = {
                "compare": {
                    "baseline": session.baseline,
                    "accelerators": list(session.accelerators),
                    "models": {
                        name: comparison.summary()
                        for name, comparison in comparisons.items()
                    },
                }
            }
            _write_json(payload, args.json, args.quiet)

        if args.cache_stats:
            _print_cache_stats(runner, args)
    except ReproError as exc:  # e.g. unknown --accelerators / --workloads
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    return 0


def _run_sweep(args: argparse.Namespace, runner: SimulationRunner) -> int:
    """The ``sweep`` mode: one configuration field across the session grid."""
    try:
        if not args.parameter:
            raise ReproError("sweep requires --parameter")
        if not args.values:
            raise ReproError("sweep requires --values")
        known_fields = sorted(ArchitectureConfig.paper_default().to_mapping())
        if args.parameter not in known_fields:
            raise ReproError(
                f"unknown ArchitectureConfig field '{args.parameter}'; "
                f"known fields: {', '.join(known_fields)}"
            )
        values = parse_value_list(args.values)
        accelerators = parse_accelerator_list(args.accelerators) or accelerator_names()
        workloads = parse_workload_list(args.workloads)
        session = Session(
            accelerators=accelerators, baseline=args.baseline, runner=runner
        )
        grid = session.sweep(args.parameter, values, models=workloads)

        if not args.quiet and not _owns_stdout(args):
            rows = []
            for label, comparisons in grid.items():
                for row in multi_comparison_rows(comparisons):
                    rows.append(
                        [
                            label,
                            row["model"],
                            row["accelerator"],
                            row["speedup"],
                            row["energy_reduction"],
                        ]
                    )
            print(
                format_table(
                    [
                        "Point",
                        "Model",
                        "Accelerator",
                        f"Speedup vs {session.baseline}",
                        "Energy reduction",
                    ],
                    rows,
                    title=f"Sweep of {args.parameter} (generator)",
                    float_format="{:.2f}",
                )
            )

        if args.json:
            payload = {
                "sweep": {
                    "parameter": args.parameter,
                    "values": list(values),
                    "baseline": session.baseline,
                    "accelerators": list(session.accelerators),
                    "points": {
                        label: {
                            name: comparison.summary()
                            for name, comparison in comparisons.items()
                        }
                        for label, comparisons in grid.items()
                    },
                }
            }
            _write_json(payload, args.json, args.quiet)

        if args.cache_stats:
            _print_cache_stats(runner, args)
    except ReproError as exc:  # unknown field/value/workload/accelerator
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    # Mode-specific flags are rejected elsewhere: a silently ignored selection
    # would report numbers for a run the user did not ask for.
    flag_gates = (
        ("--accelerators", args.accelerators, {"compare", "sweep", "remote-compare", "check"}),
        ("--workloads", args.workloads, {"compare", "sweep", "dse", "remote-compare", "check"}),
        ("--baseline", args.baseline, {"compare", "sweep", "dse"}),
        ("--parameter", args.parameter, {"sweep"}),
        ("--values", args.values, {"sweep"}),
        ("--accelerator", args.accelerator, {"dse"}),
        ("--strategy", args.strategy, {"dse"}),
        ("--budget", args.budget, {"dse"}),
        ("--seed", args.seed, {"dse"}),
        ("--fields", args.fields, {"dse"}),
        ("--max-bytes", args.max_bytes, {"cache-prune"}),
        ("--jsonl", args.jsonl, {"compare", "sweep", "dse", "remote-compare"}),
        ("--host", args.host, {"serve", "remote-compare", "stats"}),
        ("--port", args.port, {"serve", "remote-compare", "stats"}),
        ("--port-file", args.port_file, {"serve"}),
        ("--quota", args.quota, {"serve"}),
        ("--queue-limit", args.queue_limit, {"serve"}),
        ("--max-active", args.max_active, {"serve"}),
        ("--journal", args.journal, {"serve"}),
        ("--resume", args.resume, {"serve"}),
        ("--client-id", args.client_id, {"remote-compare"}),
        ("--trace", args.trace, {"compare", "sweep", "dse"}),
        ("--metrics", args.metrics, {"compare", "sweep", "dse"}),
        ("--workload", args.workload, {"disasm"}),
        ("--layer", args.layer, {"check", "disasm"}),
        ("--max-columns", args.max_columns, {"check", "disasm"}),
        ("--max-waves", args.max_waves, {"check", "disasm"}),
        ("--no-skip-zeros", args.no_skip_zeros, {"disasm"}),
        ("--schedule", args.schedule, {"check", "disasm", "compare", "dse"}),
        ("--paths", args.paths, {"lint"}),
    )
    for flag, value, modes in flag_gates:
        if value is not None and args.experiment not in modes:
            print(
                f"error: {flag} only applies to the "
                f"{'/'.join(sorted(repr(m) for m in modes))} mode",
                file=sys.stderr,
            )
            return 2

    stdout_claims = [
        flag
        for flag, value in (
            ("--json", args.json),
            ("--jsonl", args.jsonl),
            ("--metrics", args.metrics),
        )
        if value == "-"
    ]
    if len(stdout_claims) > 1:
        # the streams would interleave on stdout, corrupting each other
        print(
            f"error: {' - and '.join(stdout_claims)} - both claim stdout; "
            "write at least one of them to a file",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0

    if args.experiment == "list-accelerators":
        return _list_accelerators(args)

    if args.experiment == "list-workloads":
        return _list_workloads(args)

    if args.experiment == "list-schedules":
        return _list_schedules(args)

    if args.experiment == "cache-prune":
        return _run_cache_prune(args)

    if args.experiment == "serve":
        return _run_serve(args)

    if args.experiment == "remote-compare":
        return _run_remote_compare(args)

    if args.experiment == "stats":
        return _run_stats(args)

    if args.experiment == "check":
        return _run_check(args)

    if args.experiment == "lint":
        return _run_lint(args)

    if args.experiment == "disasm":
        return _run_disasm(args)

    # Each invocation starts its telemetry from zero: a fresh metrics
    # registry (metrics are on by default), and — only with --trace — a
    # fresh tracer (tracing is off by default; spans cost allocations).
    configure_metrics()
    tracer = configure_tracing() if args.trace else None
    jsonl_writer: Optional[_JsonlWriter] = None
    try:
        try:
            runner = build_runner(args)
        except Exception as exc:  # bad --cache-dir
            print(f"error: {exc}", file=sys.stderr)
            return 2

        # Live consumers of the runner's event stream: every job any mode
        # submits reports the moment it terminates.
        if args.progress:
            runner.subscribe(_ProgressPrinter())
        if args.jsonl:
            try:
                jsonl_writer = _JsonlWriter(args.jsonl)
            except OSError as exc:  # unwritable --jsonl destination
                print(f"error: {exc}", file=sys.stderr)
                runner.close()
                return 2
            runner.subscribe(jsonl_writer)

        code: Optional[int] = None
        if args.experiment == "compare":
            code = _run_compare(args, runner)
        elif args.experiment == "sweep":
            code = _run_sweep(args, runner)
        elif args.experiment == "dse":
            code = _run_dse(args, runner)
        if code is not None:
            _export_telemetry(args, tracer)
            return code
    finally:
        if jsonl_writer is not None:
            jsonl_writer.close()
        if tracer is not None:
            # don't leave the process-global tracer collecting spans after
            # the invocation it was asked for
            configure_tracing(enabled=False)

    context = ExperimentContext(runner=runner)
    try:
        if args.experiment == "all":
            results = run_all(context)
        else:
            try:
                results = [run_experiment(args.experiment, context)]
            except Exception as exc:  # surfaced as a clean CLI error
                print(f"error: {exc}", file=sys.stderr)
                return 2

        if not args.quiet and not _owns_stdout(args):
            for result in results:
                print(result.report)
                print()

        if args.json:
            payload = {
                result.experiment_id: {
                    "title": result.title,
                    "data": result.data,
                    "paper_reference": result.paper_reference,
                }
                for result in results
            }
            _write_json(payload, args.json, args.quiet)

        if args.cache_stats:
            _print_cache_stats(runner, args)
    finally:
        runner.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
