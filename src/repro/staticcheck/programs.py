"""Grid verification: compile and verify µop programs across the registry.

This is the driver behind ``repro check``: for every requested workload ×
accelerator × ``skip_zeros`` mode it compiles each compilable layer (conv /
transposed-conv) into representative-tile micro-programs via
:func:`~repro.core.compiler.compile_layer_programs` and runs the full
:mod:`repro.staticcheck.checks` catalog over each program, against the same
machine geometry the executor would instantiate for that layer.

Compilation is bounded to one wave of at most ``max_columns`` output columns
per layer — the µop *patterns* repeat across waves, so one tile exercises
every structural property the verifier can see while keeping the whole
six-workload grid a few-second CI step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..accelerators.registry import get_accelerator
from ..config import ArchitectureConfig
from ..core.compiler import compile_layer_programs
from ..errors import CompilationError, ReproError
from ..nn.network import GANModel, LayerBinding
from ..schedule import ScheduleLike, resolve_schedule
from ..workloads.registry import get_workload, resolve_workload, workload_names
from .checks import selected_checks, verify_program
from .ir import Finding, MachineModel, Severity


@dataclass(frozen=True)
class ProgramReport:
    """Verification outcome for one layer × mode cell of the grid."""

    workload: str
    accelerator: str
    network: str  # "generator" | "discriminator"
    layer: str
    skip_zeros: bool
    programs: int
    global_uops: int
    findings: Tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def describe(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "accelerator": self.accelerator,
            "network": self.network,
            "layer": self.layer,
            "skip_zeros": self.skip_zeros,
            "programs": self.programs,
            "global_uops": self.global_uops,
            "findings": [f.describe() for f in self.findings],
        }


@dataclass(frozen=True)
class GridReport:
    """Aggregate of every cell checked by one :func:`run_check_grid` call."""

    entries: Tuple[ProgramReport, ...]

    @property
    def findings(self) -> Tuple[Finding, ...]:
        return tuple(f for entry in self.entries for f in entry.findings)

    @property
    def programs(self) -> int:
        return sum(entry.programs for entry in self.entries)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def describe(self) -> Dict[str, object]:
        return {
            "cells": len(self.entries),
            "programs": self.programs,
            "findings": len(self.findings),
            "ok": self.ok,
            "entries": [entry.describe() for entry in self.entries],
        }


def iter_compilable_bindings(
    model: GANModel,
) -> Iterator[Tuple[str, LayerBinding]]:
    """Every (network, binding) of ``model`` the compiler can lower."""
    for network_name, network in (
        ("generator", model.generator),
        ("discriminator", model.discriminator),
    ):
        for binding in network.bindings:
            if binding.is_convolutional or binding.is_transposed:
                yield network_name, binding


def check_binding(
    binding: LayerBinding,
    *,
    config: ArchitectureConfig,
    skip_zeros: bool,
    max_waves: int = 1,
    max_columns: int = 8,
    select: Optional[Sequence[str]] = None,
    schedule: ScheduleLike = None,
) -> Tuple[int, int, List[Finding]]:
    """Compile one bound layer and verify its programs.

    Returns ``(programs, global_uops, findings)``.  The verification model
    mirrors :class:`~repro.core.compiler.GanaxLayerExecutor` buffer sizing
    for this layer's output width.  ``schedule`` selects the
    :class:`~repro.schedule.ScheduleSpec` lowering the layer; the verifier
    then sees exactly the µop stream that schedule would execute.
    An unknown id in ``select`` raises before anything is compiled.
    """
    selected_checks(select)
    programs = compile_layer_programs(
        binding,
        num_pvs=config.num_pvs,
        pes_per_pv=config.pes_per_pv,
        skip_zeros=skip_zeros,
        max_waves=max_waves,
        max_columns=max_columns,
        schedule=schedule,
    )
    model = MachineModel.for_executor(
        config,
        num_pvs=config.num_pvs,
        pes_per_pv=config.pes_per_pv,
        output_columns=binding.output_shape.spatial[-1],
    )
    findings: List[Finding] = []
    uops = 0
    for program in programs:
        uops += len(program.global_uops)
        findings.extend(verify_program(program, model, select=select))
    return len(programs), uops, findings


def run_check_grid(
    workloads: Optional[Sequence[str]] = None,
    accelerators: Sequence[str] = ("ganax",),
    *,
    skip_zeros_modes: Sequence[bool] = (True, False),
    max_waves: int = 1,
    max_columns: int = 8,
    select: Optional[Sequence[str]] = None,
    layer: Optional[str] = None,
    schedule: ScheduleLike = None,
) -> GridReport:
    """Compile-and-verify every cell of a workload × accelerator × mode grid.

    ``workloads`` defaults to the six registered paper GANs.  Each
    accelerator name is resolved through the registry (validating it and
    adopting its architecture geometry).  ``layer`` restricts the sweep to
    bindings whose name contains the given substring.  ``schedule`` lowers
    every cell with the given :class:`~repro.schedule.ScheduleSpec` (resolved
    once up front so typos fail before any compilation, as do unknown check
    ids in ``select``).
    """
    selected_checks(select)
    spec_schedule = resolve_schedule(schedule)
    names = list(workloads) if workloads is not None else list(workload_names())
    entries: List[ProgramReport] = []
    available: Set[str] = set()
    matched = False
    for accelerator_name in accelerators:
        accelerator = get_accelerator(accelerator_name).create()
        config = getattr(accelerator, "config", None) or ArchitectureConfig.paper_default()
        for workload in names:
            spec = resolve_workload(workload)
            model = get_workload(spec)
            for network_name, binding in iter_compilable_bindings(model):
                available.add(binding.name)
                if layer is not None and layer not in binding.name:
                    continue
                matched = True
                for skip_zeros in skip_zeros_modes:
                    try:
                        programs, uops, findings = check_binding(
                            binding,
                            config=config,
                            skip_zeros=skip_zeros,
                            max_waves=max_waves,
                            max_columns=max_columns,
                            select=select,
                            schedule=spec_schedule,
                        )
                    except CompilationError as exc:
                        # A layer the compiler rejects outright is not a
                        # verifier finding — surface it as a zero-program
                        # cell so the caller still sees the cell exists.
                        raise CompilationError(
                            f"{spec.name}/{binding.name} "
                            f"(skip_zeros={skip_zeros}): {exc}"
                        ) from exc
                    entries.append(
                        ProgramReport(
                            workload=spec.name,
                            accelerator=accelerator.name,
                            network=network_name,
                            layer=binding.name,
                            skip_zeros=skip_zeros,
                            programs=programs,
                            global_uops=uops,
                            findings=tuple(findings),
                        )
                    )
    if layer is not None and not matched:
        # an empty selection would verify nothing and still report success
        raise ReproError(
            f"no compilable layer matches '{layer}' "
            f"(available: {', '.join(sorted(available))})"
        )
    return GridReport(entries=tuple(entries))
