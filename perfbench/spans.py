"""Layer spans for the traced run, recorded from outside ``src/``.

The traced run wraps calls into the public functions and methods of each
``repro`` module -- the estimators, energy pricing, cache keys, the wire
codec, the compiler, the verifier, the cycle-level machine -- in timing
spans.  Nothing inside ``src/`` changes: :func:`install` swaps each target
for a wrapper for the length of the traced phase, and
:meth:`SpanRecorder.restore` puts the originals back.

Spans nest per thread.  A span's *self time* is its duration minus the time
its child spans cover; it is accumulated as spans close, so a traced phase
keeps one small record per span name and thread rather than one object per
span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every span the traced run records, in report order.  The names are the
#: module (under ``repro``) and public callable the span wraps; ``bench.batch``
#: is the benchmark's own closed-loop batch or client request.
SPAN_NAMES = (
    "bench.batch",
    "runner.SimulationRunner.submit",
    "runner.SimulationJob.cache_key",
    "analysis.layer_fingerprint",
    "workloads.resolve_workload",
    "workloads.get_workload",
    "schedule.resolve_schedule",
    "accelerators.AcceleratorSpec.create",
    "accelerators.simulate_layers",
    "core.performance.estimate_network",
    "baseline.performance.estimate_network",
    "hw.EventCounters.scaled",
    "hw.EnergyModel.energy_of",
    "analysis.aggregate",
    "service.Client.run",
    "service.protocol.encode",
    "service.protocol.decode",
    "service.EventJournal.append",
    "staticcheck.check_binding",
    "core.compiler.compile_layer_programs",
    "staticcheck.verify_program",
    "schedule.verify_schedule",
    "core.compiler.GanaxLayerExecutor.run_transposed_conv",
    "core.machine.GanaxMachine.run",
    "nn.functional.transposed_conv2d",
)


class SpanRecorder:
    """Per-thread span stacks with online busy/self-time accumulation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[Dict[str, List[float]], Dict[str, float]]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # (stats: name -> [count, busy_s, self_s], counts, stack)
            state = self._local.state = ({}, {}, [])
            with self._lock:
                self._threads.append(state[:2])
        return state

    def begin(self, name: str) -> None:
        self._state()[2].append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        now = time.perf_counter()
        stats, _counts, stack = self._state()
        name, start, covered = stack.pop()
        duration = now - start
        if stack:
            stack[-1][2] += duration
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered

    def add(self, key: str, amount: float) -> None:
        """Count work done at a span boundary (layers, programs, cycles)."""
        counts = self._state()[1]
        counts[key] = counts.get(key, 0.0) + amount

    def wrap(self, fn: Callable, name: str,
             on_call: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    # -- reading ---------------------------------------------------------
    def table(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (count, busy seconds, self seconds), over every thread."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for stats, _counts in threads:
            for name, (count, busy, own) in stats.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += busy
                entry[2] += own
        return {name: tuple(entry) for name, entry in merged.items()}

    def report(self, batches: int) -> List[str]:
        """The span table: calls, busy ms, self ms, self ms per batch."""
        table = self.table()
        lines = [f"  {'span':<54} {'calls':>9} {'busy ms':>10} {'self ms':>10} "
                 f"{'self ms/batch':>13}"]
        for name in SPAN_NAMES:
            if name in table:
                count, busy, own = table[name]
                lines.append(f"  {name:<54} {count:>9} {busy * 1e3:>10.2f} "
                             f"{own * 1e3:>10.2f} {own * 1e3 / max(batches, 1):>13.4f}")
        return lines

    def counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for _stats, counts in threads:
            for key, value in counts.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    # -- patching --------------------------------------------------------
    def patch_function(self, module, attr: str, name: str,
                       on_call: Optional[Callable[[tuple, Any], None]] = None,
                       extra_modules: Tuple = ()) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module bound it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_call)
        for mod in list(sys.modules.values()) + list(extra_modules):
            if mod is None:
                continue
            if not (getattr(mod, "__name__", "").startswith("repro") or mod in extra_modules):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str,
                     on_call: Optional[Callable[[tuple, Any], None]] = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, functools.cached_property):
            patched = functools.cached_property(self.wrap(original.func, name, on_call))
            patched.__set_name__(cls, attr)
        else:
            patched = self.wrap(original, name, on_call)
        setattr(cls, attr, patched)
        self._undo.append((cls, attr, original))

    def patch_instance(self, obj, attr: str, name: str) -> None:
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))
        self._undo.append((obj, attr, None))

    def restore(self) -> None:
        for target, attr, original in reversed(self._undo):
            if original is None:
                delattr(target, attr)  # an instance attribute shadowing a method
            else:
                setattr(target, attr, original)
        self._undo.clear()


def install(recorder: SpanRecorder, suite, workload) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.accelerators.base import GanSimulatorBase
    from repro.accelerators.registry import AcceleratorSpec
    from repro.analysis import serialization
    from repro.baseline import performance as baseline_performance
    from repro.baseline.simulator import EyerissSimulator
    from repro.core import compiler, performance
    from repro.core.machine import GanaxMachine
    from repro.core.simulator import GanaxSimulator
    from repro.hw.counters import EventCounters
    from repro.hw.energy import EnergyModel
    from repro.nn import functional
    from repro.runner import SimulationJob, SimulationRunner
    from repro.schedule import registry as schedule_registry
    from repro.schedule import verify
    from repro.service import Client, protocol
    from repro.service.journal import EventJournal
    from repro.staticcheck import checks, programs
    from repro.workloads import registry as workload_registry

    rec = recorder

    def count(key: str, measure: Callable[[Any], float]):
        return lambda _args, result: rec.add(key, measure(result))

    def machine_counts(_args, stats) -> None:
        rec.add("machine.cycles", stats.cycles)
        rec.add("machine.pe_busy", stats.pe_busy_cycles)
        rec.add("machine.pe_stall", stats.pe_stall_cycles)

    def check_counts(_args, result) -> None:
        rec.add("staticcheck.programs", result[0])
        rec.add("staticcheck.uops", result[1])

    functions = (
        (performance, "estimate_network", "core.performance.estimate_network",
         count("core.performance.layers", len)),
        (baseline_performance, "estimate_network", "baseline.performance.estimate_network",
         count("baseline.performance.layers", len)),
        (serialization, "layer_fingerprint", "analysis.layer_fingerprint", None),
        (workload_registry, "resolve_workload", "workloads.resolve_workload", None),
        (workload_registry, "get_workload", "workloads.get_workload", None),
        (schedule_registry, "resolve_schedule", "schedule.resolve_schedule", None),
        (protocol, "encode", "service.protocol.encode", None),
        (protocol, "decode", "service.protocol.decode", None),
        (compiler, "compile_layer_programs", "core.compiler.compile_layer_programs",
         count("core.compiler.programs", len)),
        (checks, "verify_program", "staticcheck.verify_program", None),
        (programs, "check_binding", "staticcheck.check_binding", check_counts),
        (verify, "verify_schedule", "schedule.verify_schedule", None),
        (functional, "transposed_conv2d", "nn.functional.transposed_conv2d", None),
        (suite, "aggregate", "analysis.aggregate", None),
    )
    for module, attr, name, on_call in functions:
        rec.patch_function(module, attr, name, on_call, extra_modules=(suite,))

    methods = [
        (SimulationRunner, "submit", "runner.SimulationRunner.submit", None),
        (SimulationJob, "cache_key", "runner.SimulationJob.cache_key", None),
        (AcceleratorSpec, "create", "accelerators.AcceleratorSpec.create", None),
        (EventCounters, "scaled", "hw.EventCounters.scaled", None),
        (EnergyModel, "energy_of", "hw.EnergyModel.energy_of", None),
        (Client, "run", "service.Client.run", None),
        (EventJournal, "append", "service.EventJournal.append", None),
        (compiler.GanaxLayerExecutor, "run_transposed_conv",
         "core.compiler.GanaxLayerExecutor.run_transposed_conv", None),
        (GanaxMachine, "run", "core.machine.GanaxMachine.run", machine_counts),
    ]
    for cls in (GanSimulatorBase, GanaxSimulator, EyerissSimulator):
        if "simulate_layers" in cls.__dict__:
            methods.append((cls, "simulate_layers", "accelerators.simulate_layers",
                            count("accelerators.layers", len)))
    for cls, attr, name, on_call in methods:
        rec.patch_method(cls, attr, name, on_call)
    for attr in ("batch", "request"):
        if hasattr(workload, attr):
            rec.patch_instance(workload, attr, "bench.batch")


#: Every per-layer metric of a traced run: name -> (unit, better).  The
#: ``per_layer`` list of BENCHMARK.json names the same metrics, in this order.
PER_LAYER = {
    "core.performance.estimate_us_per_layer": ("us", "lower"),
    "baseline.performance.estimate_us_per_layer": ("us", "lower"),
    "hw.price_us_per_layer": ("us", "lower"),
    "accelerators.simulate_layers_us_per_layer": ("us", "lower"),
    "accelerators.create_us": ("us", "lower"),
    "analysis.aggregate_us_per_job": ("us", "lower"),
    "analysis.cache_key_us": ("us", "lower"),
    "analysis.layer_fingerprint_us": ("us", "lower"),
    "runner.job_cache.hit_ratio": ("ratio", "higher"),
    "runner.job_cache.lookups": ("count", "lower"),
    "runner.layer_memo.hit_ratio": ("ratio", "higher"),
    "runner.layer_memo.lookups": ("count", "lower"),
    "runner.dedup_ratio": ("ratio", "higher"),
    "runner.submit_self_ms": ("ms", "lower"),
    "workloads.resolve_us": ("us", "lower"),
    "schedule.resolve_us": ("us", "lower"),
    "service.request_overhead_ms": ("ms", "lower"),
    "service.encode_us_per_record": ("us", "lower"),
    "service.decode_us_per_record": ("us", "lower"),
    "service.journal_append_us": ("us", "lower"),
    "service.rejected_frac": ("ratio", "lower"),
    "core.compiler.compile_ms_per_program": ("ms", "lower"),
    "staticcheck.verify_ms_per_program": ("ms", "lower"),
    "staticcheck.uops_per_program": ("uops", "lower"),
    "schedule.verify_ms": ("ms", "lower"),
    "core.machine.us_per_cycle": ("us", "lower"),
    "core.machine.pe_occupancy": ("ratio", "higher"),
    "programs_per_s": ("programs/s", "higher"),
    "machine_cycles_per_s": ("cycles/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}
PER_LAYER.update({f"{name}.self_ms": ("ms", "lower") for name in SPAN_NAMES})


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    plain,
    traced,
    before: Dict[str, float],
    after: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of the traced run, by its BENCHMARK.json name.

    Times come from the span table of the traced phase; cache counters are
    the change over the traced phase; host throughputs that tracing would
    distort come from the untraced phase (``plain``) of the same run.
    """
    table = recorder.table()
    counts = recorder.counts()

    def busy(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[0]

    def delta(key: str) -> float:
        return after[key] - before[key]

    def per_call_us(name: str) -> float:
        return _per(busy(name), calls(name), 1e6)

    plain_rate = plain.rate() if plain.batches else 0.0
    traced_rate = traced.rate() if traced.batches else 0.0
    machine_cycles = counts.get("machine.cycles", 0.0)
    occupied = counts.get("machine.pe_busy", 0.0) + counts.get("machine.pe_stall", 0.0)
    metrics = {
        "core.performance.estimate_us_per_layer": _per(
            busy("core.performance.estimate_network"),
            counts.get("core.performance.layers", 0.0), 1e6),
        "baseline.performance.estimate_us_per_layer": _per(
            busy("baseline.performance.estimate_network"),
            counts.get("baseline.performance.layers", 0.0), 1e6),
        "hw.price_us_per_layer": _per(
            busy("hw.EventCounters.scaled") + busy("hw.EnergyModel.energy_of"),
            calls("hw.EnergyModel.energy_of"), 1e6),
        "accelerators.simulate_layers_us_per_layer": _per(
            busy("accelerators.simulate_layers"), counts.get("accelerators.layers", 0.0), 1e6),
        "accelerators.create_us": per_call_us("accelerators.AcceleratorSpec.create"),
        "analysis.aggregate_us_per_job": per_call_us("analysis.aggregate"),
        "analysis.cache_key_us": per_call_us("runner.SimulationJob.cache_key"),
        "analysis.layer_fingerprint_us": per_call_us("analysis.layer_fingerprint"),
        "runner.job_cache.hit_ratio": _per(delta("job_hits"), delta("job_lookups")),
        "runner.job_cache.lookups": delta("job_lookups"),
        "runner.layer_memo.hit_ratio": _per(delta("memo_hits"), delta("memo_lookups")),
        "runner.layer_memo.lookups": delta("memo_lookups"),
        "runner.dedup_ratio": _per(delta("dedup"), delta("submitted")),
        "runner.submit_self_ms": _per(
            table.get("runner.SimulationRunner.submit", (0, 0.0, 0.0))[2],
            calls("runner.SimulationRunner.submit"), 1e3),
        "workloads.resolve_us": per_call_us("workloads.resolve_workload"),
        "schedule.resolve_us": per_call_us("schedule.resolve_schedule"),
        "service.request_overhead_ms": extras.get("service.request_overhead_ms", 0.0),
        "service.encode_us_per_record": per_call_us("service.protocol.encode"),
        "service.decode_us_per_record": per_call_us("service.protocol.decode"),
        "service.journal_append_us": per_call_us("service.EventJournal.append"),
        "service.rejected_frac": _per(
            plain.totals.get("rejected", 0.0) + traced.totals.get("rejected", 0.0),
            plain.totals.get("requests", 0.0) + traced.totals.get("requests", 0.0)),
        "core.compiler.compile_ms_per_program": _per(
            busy("core.compiler.compile_layer_programs"),
            counts.get("core.compiler.programs", 0.0), 1e3),
        "staticcheck.verify_ms_per_program": _per(
            busy("staticcheck.verify_program"), calls("staticcheck.verify_program"), 1e3),
        "staticcheck.uops_per_program": _per(
            counts.get("staticcheck.uops", 0.0), counts.get("staticcheck.programs", 0.0)),
        "schedule.verify_ms": _per(
            busy("schedule.verify_schedule"), calls("schedule.verify_schedule"), 1e3),
        "core.machine.us_per_cycle": _per(
            busy("core.machine.GanaxMachine.run"), machine_cycles, 1e6),
        "core.machine.pe_occupancy": _per(counts.get("machine.pe_busy", 0.0), occupied),
        "programs_per_s": _per(plain.totals.get("programs", 0.0), plain.wall_s),
        "machine_cycles_per_s": _per(plain.totals.get("machine_cycles", 0.0), plain.wall_s),
        "trace.overhead_frac": _per(plain_rate, traced_rate) - 1.0 if traced_rate else 0.0,
    }
    batches = len(traced.batches)
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = _per(table.get(name, (0, 0.0, 0.0))[2], batches, 1e3)
    return {name: metrics[name] for name in PER_LAYER}
