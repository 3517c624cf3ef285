"""Byte-identical parity: the `default` schedule == the pre-schedule compiler.

The schedule subsystem's core promise is that the algorithm half never moved:
lowering a layer with the builtin ``default`` :class:`~repro.schedule.ScheduleSpec`
must reproduce the row tasks and µop streams of the compiler as it existed
*before* the algorithm–schedule split, byte for byte, and the six golden paper
numbers must be untouched when the schedule is spelled explicitly.

To make that claim falsifiable without trusting the refactored code to test
itself, this module freezes the **legacy** planners and wave builder verbatim
(copied from git history, commit 4697b63, ``src/repro/core/compiler.py``) and
compares their output against the current schedule-aware entry points across
the full workload × skip_zeros grid and, for end-to-end results, across every
registered accelerator.

If a deliberate lowering change moves the default µop stream, the legacy
copies below must be updated in the same commit — and the commit message must
say the default schedule changed, because every cached result and golden
keyed on the default fingerprint moves with it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.accelerators import accelerator_names, create_accelerator
from repro.analysis.metrics import geometric_mean
from repro.analysis.sweep import compare_models
from repro.config import ArchitectureConfig, SimulationOptions
from repro.core.compiler import (
    ColumnWork,
    RowTask,
    _bind,
    _chunk,
    _column_window,
    compile_layer_programs,
    plan_dense_row_tasks,
    plan_ganax_row_tasks,
)
from repro.core.dataflow import DataflowSchedule, build_schedule
from repro.errors import CompilationError
from repro.isa.program import MicroProgram, MicroProgramBuilder
from repro.isa.uops import (
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    RepeatUop,
)
from repro.nn.layers import ConvLayer, TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape
from repro.runner import SimulationRunner
from repro.workloads.registry import all_workloads, get_workload, workload_names

NUM_PVS = 16
PES_PER_PV = 16
#: representative tile bounds — identical caps on both compilers, so the
#: comparison still exercises multi-wave chunking and column truncation.
MAX_WAVES = 2
MAX_COLUMNS = 6

#: the six paper numbers, pinned in tests/test_golden_regression.py; spelled
#: again here so an explicit ``schedule="default"`` run is checked against
#: the *same* values, not against a re-run that could drift in lockstep.
GOLDEN = {
    "3D-GAN": (8.294872609932957, 4.6774771943603755),
    "ArtGAN": (3.939804766358853, 2.430527162956952),
    "DCGAN": (4.55573990462587, 2.4957907010860487),
    "DiscoGAN": (3.160956537367584, 1.975331062100266),
    "GP-GAN": (3.940532910783142, 2.3379412950065754),
    "MAGAN": (2.5665611960038337, 2.018641698631775),
}
GOLDEN_GEOMEAN_SPEEDUP = 4.101361734069381
GOLDEN_GEOMEAN_ENERGY_REDUCTION = 2.5336240675564055
RELATIVE_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# The legacy compiler, frozen verbatim (git 4697b63, pre-schedule split).
# Only the function names carry a `legacy_` prefix; bodies are unchanged.
# Dataclasses and helpers that survived the refactor untouched (RowTask,
# ColumnWork, _column_window, _chunk, _bind, MicroProgramBuilder) are
# imported from the current modules — they ARE the legacy definitions.
# ----------------------------------------------------------------------
def legacy_plan_ganax_row_tasks(
    layer: TransposedConvLayer,
    in_cols: int,
    schedule: DataflowSchedule,
    num_pvs: int,
) -> List[RowTask]:
    tasks: List[RowTask] = []
    pv = 0
    for group in schedule.row_groups:
        for output_row in group.output_rows:
            columns = tuple(
                ColumnWork(
                    taps=taps,
                    input_base=input_base,
                    weight_base=kernel_cols[0],
                    weight_step=layer.stride[1],
                    output_column=out_col,
                )
                for out_col in range(schedule.output_cols)
                for taps, kernel_cols, input_base in [
                    _column_window(out_col, layer, in_cols)
                ]
                if taps > 0
            )
            tasks.append(
                RowTask(
                    pv_index=pv % num_pvs,
                    output_row=output_row,
                    filter_rows=group.filter_rows,
                    columns=columns,
                )
            )
            pv += 1
    return tasks


def legacy_plan_dense_row_tasks(
    out_rows: int,
    out_cols: int,
    k_rows: int,
    k_cols: int,
    stride: int,
    num_pvs: int,
) -> List[RowTask]:
    tasks: List[RowTask] = []
    for i, row in enumerate(range(out_rows)):
        columns = tuple(
            ColumnWork(
                taps=k_cols,
                input_base=out_col * stride,
                weight_base=0,
                weight_step=1,
                output_column=out_col,
            )
            for out_col in range(out_cols)
        )
        tasks.append(
            RowTask(
                pv_index=i % num_pvs,
                output_row=row,
                filter_rows=tuple(range(k_rows)),
                columns=columns,
            )
        )
    return tasks


def legacy_build_wave_program(
    name: str, wave: Sequence[RowTask], num_pvs: int
) -> MicroProgram:
    builder = MicroProgramBuilder(name=name, num_pvs=num_pvs)
    mac = ExecuteUop(op=ExecuteOp.MAC)
    act = ExecuteUop(op=ExecuteOp.ACT, activation="identity")
    rep = RepeatUop()
    nop = ExecuteUop(op=ExecuteOp.NOP)

    by_pv = {task.pv_index: task for task in wave}
    max_columns = max(len(task.columns) for task in wave)
    column_active: List[List[int]] = [
        [
            pv
            for pv in range(num_pvs)
            if by_pv.get(pv) is not None and column_index < len(by_pv[pv].columns)
        ]
        for column_index in range(max_columns)
    ]
    emitted = [active for active in column_active if active]
    mac_idx: Dict[int, int] = {}
    act_idx: Dict[int, int] = {}
    rep_idx: Dict[int, int] = {}
    nop_idx: Dict[int, int] = {}
    for pv in range(num_pvs):
        if any(pv in active for active in emitted):
            mac_idx[pv] = builder.preload_local(pv, mac)
            act_idx[pv] = builder.preload_local(pv, act)
            rep_idx[pv] = builder.preload_local(pv, rep)
        if any(pv not in active for active in emitted):
            nop_idx[pv] = builder.preload_local(pv, nop)

    for column_index in range(max_columns):
        active_pvs = column_active[column_index]
        for pv in active_pvs:
            work = by_pv[pv].columns[column_index]
            legacy_emit_generator(
                builder, pv, AddressGenerator.INPUT,
                offset=work.input_base, end=work.taps, repeat=1,
            )
            legacy_emit_generator(
                builder, pv, AddressGenerator.WEIGHT,
                offset=work.weight_base,
                end=(work.taps - 1) * work.weight_step + 1,
                repeat=1,
                step=work.weight_step,
            )
            legacy_emit_generator(
                builder, pv, AddressGenerator.OUTPUT,
                offset=work.output_column, end=1, repeat=1,
            )
            builder.emit_mimd_load(pv, "repeat", work.taps)
        if not active_pvs:
            continue

        def indices(active_map, idle_map):
            return [
                active_map[pv] if pv in active_pvs else idle_map[pv]
                for pv in range(num_pvs)
            ]

        builder.emit_mimd(indices(rep_idx, nop_idx))
        builder.emit_mimd(indices(mac_idx, nop_idx))
        builder.emit_mimd(indices(act_idx, nop_idx))
    return builder.build()


def legacy_emit_generator(
    builder: MicroProgramBuilder,
    pv: int,
    generator: AddressGenerator,
    *,
    offset: int,
    end: int,
    repeat: int,
    step: int = 1,
    addr: int = 0,
) -> None:
    step = min(step, end)
    builder.emit_access_cfg(pv, generator, ConfigRegister.ADDR, addr)
    builder.emit_access_cfg(pv, generator, ConfigRegister.OFFSET, offset)
    builder.emit_access_cfg(pv, generator, ConfigRegister.STEP, step)
    builder.emit_access_cfg(pv, generator, ConfigRegister.END, end)
    builder.emit_access_cfg(pv, generator, ConfigRegister.REPEAT, repeat)
    builder.emit_access_start(pv, generator)


def legacy_compile_layer_programs(
    binding: LayerBinding,
    *,
    num_pvs: int,
    pes_per_pv: int,
    skip_zeros: bool = True,
    max_waves=None,
    max_columns=None,
) -> Tuple[MicroProgram, ...]:
    if num_pvs <= 0 or pes_per_pv <= 0:
        raise CompilationError("compile dimensions must be positive")
    layer = binding.layer
    if not isinstance(layer, (ConvLayer, TransposedConvLayer)):
        raise CompilationError(
            f"{binding.name}: only convolutional layers compile to micro-programs, "
            f"got {type(layer).__name__}"
        )
    in_rows, in_cols = binding.input_shape.spatial[-2:]
    slice_cls = (
        TransposedConvLayer if isinstance(layer, TransposedConvLayer) else ConvLayer
    )
    slice_layer = slice_cls(
        name=layer.name,
        out_channels=1,
        kernel=(layer.kernel[-2], layer.kernel[-1]),
        stride=(layer.stride[-2], layer.stride[-1]),
        padding=(layer.padding[-2], layer.padding[-1]),
    )
    slice_binding = _bind(slice_layer, FeatureMapShape.image(1, in_rows, in_cols))
    out_rows, out_cols = slice_binding.output_shape.spatial
    k_rows, k_cols = slice_layer.kernel

    if isinstance(slice_layer, TransposedConvLayer) and skip_zeros:
        schedule = build_schedule(slice_binding)
        max_active = max(len(g.filter_rows) for g in schedule.row_groups)
        if max_active > pes_per_pv:
            raise CompilationError(
                f"{binding.name}: needs {max_active} active PEs per PV but the "
                f"target has only {pes_per_pv}"
            )
        tasks = legacy_plan_ganax_row_tasks(slice_layer, in_cols, schedule, num_pvs)
    else:
        if k_rows > pes_per_pv:
            raise CompilationError(
                f"{binding.name}: kernel height {k_rows} exceeds {pes_per_pv} PEs per PV"
            )
        stride = (
            1 if isinstance(slice_layer, TransposedConvLayer) else slice_layer.stride[1]
        )
        tasks = legacy_plan_dense_row_tasks(
            out_rows, out_cols, k_rows, k_cols, stride, num_pvs
        )

    if max_columns is not None:
        tasks = [
            RowTask(
                pv_index=task.pv_index,
                output_row=task.output_row,
                filter_rows=task.filter_rows,
                columns=task.columns[:max_columns],
            )
            for task in tasks
        ]
    tasks = [task for task in tasks if task.columns]
    if not tasks:
        return ()
    waves = _chunk(tasks, num_pvs)
    if max_waves is not None:
        waves = waves[:max_waves]
    return tuple(
        legacy_build_wave_program(binding.name, wave, num_pvs) for wave in waves
    )


# ----------------------------------------------------------------------
# Grid enumeration
# ----------------------------------------------------------------------
def _compilable_bindings(workload: str) -> List[Tuple[str, LayerBinding]]:
    model = get_workload(workload)
    out = []
    for net in (model.generator, model.discriminator):
        for binding in net.bindings:
            if isinstance(binding.layer, (ConvLayer, TransposedConvLayer)):
                out.append((f"{net.name}/{binding.name}", binding))
    return out


GRID = [
    pytest.param(workload, label, binding, skip_zeros,
                 id=f"{workload}-{label}-{'skip' if skip_zeros else 'dense'}")
    for workload in workload_names()
    for label, binding in _compilable_bindings(workload)
    for skip_zeros in (True, False)
]


# ----------------------------------------------------------------------
# µop-stream and row-task parity
# ----------------------------------------------------------------------
class TestProgramParity:
    @pytest.mark.parametrize("workload,label,binding,skip_zeros", GRID)
    def test_default_schedule_is_byte_identical(
        self, workload, label, binding, skip_zeros
    ):
        """Current default-spec output == frozen legacy output, byte for byte."""
        try:
            legacy = legacy_compile_layer_programs(
                binding,
                num_pvs=NUM_PVS,
                pes_per_pv=PES_PER_PV,
                skip_zeros=skip_zeros,
                max_waves=MAX_WAVES,
                max_columns=MAX_COLUMNS,
            )
        except CompilationError:
            with pytest.raises(CompilationError):
                compile_layer_programs(
                    binding,
                    num_pvs=NUM_PVS,
                    pes_per_pv=PES_PER_PV,
                    skip_zeros=skip_zeros,
                    max_waves=MAX_WAVES,
                    max_columns=MAX_COLUMNS,
                    schedule="default",
                )
            return
        current = compile_layer_programs(
            binding,
            num_pvs=NUM_PVS,
            pes_per_pv=PES_PER_PV,
            skip_zeros=skip_zeros,
            max_waves=MAX_WAVES,
            max_columns=MAX_COLUMNS,
            schedule="default",
        )
        assert len(current) == len(legacy)
        for new_prog, old_prog in zip(current, legacy):
            assert new_prog.uop_records() == old_prog.uop_records()
            assert new_prog.disassemble() == old_prog.disassemble()

    def test_none_schedule_means_default(self):
        """``schedule=None`` and ``schedule="default"`` are the same lowering."""
        binding = _compilable_bindings("dcgan")[0][1]
        by_none = compile_layer_programs(
            binding, num_pvs=NUM_PVS, pes_per_pv=PES_PER_PV,
            max_waves=1, max_columns=4,
        )
        by_name = compile_layer_programs(
            binding, num_pvs=NUM_PVS, pes_per_pv=PES_PER_PV,
            max_waves=1, max_columns=4, schedule="default",
        )
        assert [p.uop_records() for p in by_none] == [
            p.uop_records() for p in by_name
        ]


class TestRowTaskParity:
    """The planners themselves (row groups, PV assignment, column order)."""

    def _tconv_slice(self, binding):
        layer = binding.layer
        slice_layer = TransposedConvLayer(
            name=layer.name,
            out_channels=1,
            kernel=(layer.kernel[-2], layer.kernel[-1]),
            stride=(layer.stride[-2], layer.stride[-1]),
            padding=(layer.padding[-2], layer.padding[-1]),
        )
        in_rows, in_cols = binding.input_shape.spatial[-2:]
        return slice_layer, _bind(
            slice_layer, FeatureMapShape.image(1, in_rows, in_cols)
        ), in_cols

    def test_ganax_row_tasks_identical_on_every_tconv(self):
        checked = 0
        for workload in workload_names():
            for _, binding in _compilable_bindings(workload):
                if not isinstance(binding.layer, TransposedConvLayer):
                    continue
                slice_layer, slice_binding, in_cols = self._tconv_slice(binding)
                schedule = build_schedule(slice_binding)
                legacy = legacy_plan_ganax_row_tasks(
                    slice_layer, in_cols, schedule, NUM_PVS
                )
                current = plan_ganax_row_tasks(
                    slice_layer, in_cols, schedule, NUM_PVS
                )
                assert current == legacy
                checked += 1
        assert checked > 0

    def test_dense_row_tasks_identical(self):
        for out_rows, out_cols, k, stride in [(32, 32, 5, 2), (8, 8, 3, 1)]:
            legacy = legacy_plan_dense_row_tasks(
                out_rows, out_cols, k, k, stride, NUM_PVS
            )
            current = plan_dense_row_tasks(
                out_rows, out_cols, k, k, stride, NUM_PVS
            )
            assert current == legacy

    def test_row_groups_untouched_by_spec_threading(self):
        """build_schedule's group decomposition (the algorithm half) is
        identical whether or not a spec is passed."""
        _, binding = _compilable_bindings("dcgan")[0]
        _, slice_binding, _ = self._tconv_slice(binding)
        assert (
            build_schedule(slice_binding).row_groups
            == build_schedule(slice_binding, "default").row_groups
            == build_schedule(slice_binding, "colmajor@tile4").row_groups
        )


# ----------------------------------------------------------------------
# End-to-end parity: results and the six golden paper numbers
# ----------------------------------------------------------------------
class TestResultParity:
    @pytest.mark.parametrize("accelerator", sorted(accelerator_names()))
    def test_explicit_default_schedule_changes_nothing(self, accelerator):
        """Every registered accelerator: default options == explicit default."""
        model = get_workload("dcgan")
        config = ArchitectureConfig.paper_default()
        implicit = create_accelerator(accelerator, config=config).simulate_gan(model)
        explicit = create_accelerator(
            accelerator, config=config, options=SimulationOptions(schedule="default")
        ).simulate_gan(model)
        assert explicit == implicit

    @pytest.fixture(scope="class")
    def comparisons(self):
        return compare_models(
            all_workloads(),
            ArchitectureConfig.paper_default(),
            SimulationOptions(schedule="default"),
            runner=SimulationRunner(),
        )

    @pytest.mark.parametrize("model_name", sorted(GOLDEN))
    def test_paper_numbers_pinned_under_explicit_schedule(
        self, comparisons, model_name
    ):
        speedup, reduction = GOLDEN[model_name]
        assert comparisons[model_name].generator_speedup == pytest.approx(
            speedup, rel=RELATIVE_TOLERANCE
        )
        assert comparisons[model_name].generator_energy_reduction == pytest.approx(
            reduction, rel=RELATIVE_TOLERANCE
        )

    def test_geomeans_pinned_under_explicit_schedule(self, comparisons):
        speedups = [comparisons[m].generator_speedup for m in GOLDEN]
        reductions = [comparisons[m].generator_energy_reduction for m in GOLDEN]
        assert geometric_mean(speedups) == pytest.approx(
            GOLDEN_GEOMEAN_SPEEDUP, rel=RELATIVE_TOLERANCE
        )
        assert geometric_mean(reductions) == pytest.approx(
            GOLDEN_GEOMEAN_ENERGY_REDUCTION, rel=RELATIVE_TOLERANCE
        )
