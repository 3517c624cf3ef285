"""Layer-to-microprogram compiler and cycle-level layer executor.

The compiler lowers a small single-channel 2-D (transposed) convolution onto
the cycle-level :class:`~repro.core.machine.GanaxMachine`:

* the :class:`~repro.core.dataflow.DataflowSchedule` decides which output rows
  and which consequential filter rows each processing vector works on,
* each PE receives one (packed) input row and one filter row in its private
  buffers,
* the access µ-engines are configured with strided patterns that enumerate
  exactly the consequential operand addresses, and
* the execute stream is the tiny reusable set the paper describes —
  ``repeat`` + ``mac`` per output element, followed by ``act`` to commit it —
  dispatched with ``mimd.exe`` so different PVs can run different patterns.

Two dataflow modes are supported so the benefit of the GANAX reorganization
can be measured on identical hardware:

* :meth:`GanaxLayerExecutor.run_transposed_conv` with ``skip_zeros=True``
  (GANAX): only consequential taps are enumerated;
* the same entry point with ``skip_zeros=False`` (conventional): the window
  walks the zero-inserted input, spending multiply-adds on inserted zeros
  exactly like a conventional convolution dataflow.

The executor is restricted to single input / output channel layers whose
kernel height fits within one PV; multi-channel behaviour is covered by the
analytical model.  Within that restriction its numerical output is validated
against the NumPy functional reference.

Note on dispatch bandwidth: the executor issues the access configuration µops
of every output column through the single global dispatch port, so its
wall-clock cycle counts over-weigh control relative to a production mapping
that would amortise one configuration over a long-running pattern.  The
quantities meant for comparisons are therefore the PE-level statistics
(executed µops / MAC counts), while end-to-end performance numbers come from
:mod:`repro.core.performance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ArchitectureConfig
from ..errors import CompilationError
from ..isa.program import MicroProgram, MicroProgramBuilder
from ..isa.uops import (
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    RepeatUop,
)
from ..nn.functional import insert_zeros_2d
from ..nn.layers import ConvLayer, TransposedConvLayer
from ..nn.network import LayerBinding
from ..nn.shapes import FeatureMapShape
from ..schedule import ScheduleLike, ScheduleSpec, resolve_schedule
from .dataflow import DataflowSchedule, build_schedule
from .machine import GanaxMachine, MachineRunStatistics


@dataclass(frozen=True)
class ColumnWork:
    """The operand addressing of one output column for one PV."""

    taps: int
    input_base: int
    weight_base: int
    weight_step: int
    output_column: int


@dataclass(frozen=True)
class RowTask:
    """One output row's worth of work for one PV within one wave."""

    pv_index: int
    output_row: int
    filter_rows: Tuple[int, ...]
    columns: Tuple[ColumnWork, ...]


@dataclass(frozen=True)
class LayerExecution:
    """Result of executing one small layer on the cycle-level machine."""

    layer_name: str
    output: np.ndarray
    cycles: int
    waves: int
    statistics: Tuple[MachineRunStatistics, ...]
    skip_zeros: bool

    @property
    def executed_pe_uops(self) -> int:
        return sum(s.executed_pe_uops for s in self.statistics)

    @property
    def pe_busy_cycles(self) -> int:
        return sum(s.pe_busy_cycles for s in self.statistics)


class GanaxLayerExecutor:
    """Compile and run small single-channel 2-D layers on the GANAX machine."""

    def __init__(
        self,
        num_pvs: int = 2,
        pes_per_pv: int = 4,
        config: Optional[ArchitectureConfig] = None,
        skip_zeros: bool = True,
        schedule: ScheduleLike = None,
    ) -> None:
        if num_pvs <= 0 or pes_per_pv <= 0:
            raise CompilationError("executor dimensions must be positive")
        self._num_pvs = num_pvs
        self._pes_per_pv = pes_per_pv
        self._config = config or ArchitectureConfig.paper_default()
        self._skip_zeros = skip_zeros
        self._schedule = resolve_schedule(schedule)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run_transposed_conv(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        stride: int,
        padding: int,
    ) -> LayerExecution:
        """Execute a single-channel 2-D transposed convolution.

        ``x`` has shape ``(H, W)``; ``weight`` has shape ``(kH, kW)`` in the
        transposed-convolution (scatter) convention, matching
        :func:`repro.nn.functional.transposed_conv2d` with single channels.
        """
        self._check_2d(x, weight)
        layer = TransposedConvLayer(
            name="tconv_exec",
            out_channels=1,
            kernel=(weight.shape[0], weight.shape[1]),
            stride=stride,
            padding=padding,
        )
        input_shape = FeatureMapShape.image(1, x.shape[0], x.shape[1])
        binding = _bind(layer, input_shape)
        if self._skip_zeros:
            return self._run_ganax_dataflow(binding, x, weight)
        return self._run_conventional_dataflow(binding, x, weight)

    @staticmethod
    def _check_2d(x: np.ndarray, weight: np.ndarray) -> None:
        if x.ndim != 2 or weight.ndim != 2:
            raise CompilationError(
                "the cycle-level executor handles 2-D single-channel data"
            )

    # ------------------------------------------------------------------
    # GANAX dataflow (zero skipping + reorganization)
    # ------------------------------------------------------------------
    def _run_ganax_dataflow(
        self, binding: LayerBinding, x: np.ndarray, weight: np.ndarray
    ) -> LayerExecution:
        layer = binding.layer
        assert isinstance(layer, TransposedConvLayer)
        schedule = build_schedule(binding, self._schedule)
        max_active = max(len(g.filter_rows) for g in schedule.row_groups)
        if max_active > self._pes_per_pv:
            raise CompilationError(
                f"{binding.name}: needs {max_active} active PEs per PV but the "
                f"executor has only {self._pes_per_pv}"
            )
        in_rows, in_cols = x.shape
        tasks = plan_ganax_row_tasks(
            layer, in_cols, schedule, self._num_pvs, schedule_spec=self._schedule
        )

        def load_operands(machine: GanaxMachine, task: RowTask) -> int:
            active = len(task.filter_rows)
            k_rows, k_cols = weight.shape
            for j, kernel_row in enumerate(task.filter_rows):
                input_row_index = _input_row_for(task.output_row, kernel_row, layer, in_rows)
                if input_row_index is None:
                    input_row = np.zeros(in_cols)
                else:
                    input_row = x[input_row_index, :]
                # The zero-insertion formulation convolves with the flipped
                # kernel: enumerated kernel index k pairs with weight index
                # K-1-k, so each PE holds the flipped row of the flipped
                # kernel-row index.
                flipped_row = weight[k_rows - 1 - kernel_row, ::-1]
                machine.load_pe_operands(task.pv_index, j, list(input_row), list(flipped_row))
            for j in range(active, self._pes_per_pv):
                machine.load_pe_operands(task.pv_index, j, [0.0] * in_cols, [0.0] * k_cols)
            return active

        return self._execute_tasks(
            binding, tasks, skip_zeros=True, load_operands=load_operands
        )

    # ------------------------------------------------------------------
    # Conventional (dense) dataflow over the zero-inserted input
    # ------------------------------------------------------------------
    def _run_conventional_dataflow(
        self, binding: LayerBinding, x: np.ndarray, weight: np.ndarray
    ) -> LayerExecution:
        layer = binding.layer
        assert isinstance(layer, TransposedConvLayer)
        expanded = insert_zeros_2d(
            x[np.newaxis, :, :], (layer.stride[0], layer.stride[1])
        )[0]
        out_rows, out_cols = binding.output_shape.spatial
        pad_top = layer.kernel[0] - 1 - layer.padding[0]
        pad_left = layer.kernel[1] - 1 - layer.padding[1]
        pad_bottom = out_rows + layer.kernel[0] - 1 - pad_top - expanded.shape[0]
        pad_right = out_cols + layer.kernel[1] - 1 - pad_left - expanded.shape[1]
        padded = np.pad(expanded, ((pad_top, pad_bottom), (pad_left, pad_right)))
        flipped = np.flip(np.flip(weight, 0), 1)
        tasks = self._dense_tasks(binding, padded, flipped, stride=1)
        result = self._execute_tasks(
            binding,
            tasks,
            skip_zeros=False,
            operands=(padded, flipped),
        )
        return result

    def _dense_tasks(
        self,
        binding: LayerBinding,
        padded: np.ndarray,
        weight: np.ndarray,
        stride: int,
    ) -> List[RowTask]:
        k_rows, k_cols = weight.shape
        if k_rows > self._pes_per_pv:
            raise CompilationError(
                f"{binding.name}: kernel height {k_rows} exceeds {self._pes_per_pv} PEs per PV"
            )
        out_rows, out_cols = binding.output_shape.spatial
        tasks = plan_dense_row_tasks(
            out_rows,
            out_cols,
            k_rows,
            k_cols,
            stride,
            self._num_pvs,
            schedule_spec=self._schedule,
        )
        # Dense tasks carry their operands implicitly via the padded array /
        # weight captured in the default loader below.
        self._dense_operands = (padded, weight, stride)
        return tasks

    # ------------------------------------------------------------------
    # Shared execution engine
    # ------------------------------------------------------------------
    def _execute_tasks(
        self,
        binding: LayerBinding,
        tasks: Sequence[RowTask],
        skip_zeros: bool,
        load_operands=None,
        operands: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> LayerExecution:
        out_rows, out_cols = binding.output_shape.spatial
        output = np.zeros((out_rows, out_cols), dtype=np.float64)
        waves = _chunk(tasks, self._num_pvs)
        stats: List[MachineRunStatistics] = []
        total_cycles = 0

        if load_operands is None:
            padded, weight, stride = self._dense_operands

            def load_operands(machine: GanaxMachine, task: RowTask) -> int:  # type: ignore[misc]
                k_rows, k_cols = weight.shape
                for j in range(k_rows):
                    input_row = padded[task.output_row * stride + j, :]
                    machine.load_pe_operands(task.pv_index, j, list(input_row), list(weight[j, :]))
                for j in range(k_rows, self._pes_per_pv):
                    machine.load_pe_operands(
                        task.pv_index, j, [0.0] * padded.shape[1], [0.0] * k_cols
                    )
                return k_rows

        max_words = 4096
        for wave in waves:
            machine = self._new_machine(max_words, max_words, max(out_cols, 16))
            active_by_pv: Dict[int, int] = {}
            for task in wave:
                active_by_pv[task.pv_index] = load_operands(machine, task)
            program = build_wave_program(
                binding.name, wave, self._num_pvs, schedule_spec=self._schedule
            )
            machine.load_program(program)
            run = machine.run()
            stats.append(run)
            total_cycles += run.cycles
            for task in wave:
                row_values = machine.accumulate_pv(
                    task.pv_index, out_cols, active_pes=active_by_pv[task.pv_index]
                )
                output[task.output_row, :] = row_values
            total_cycles += out_cols + max(active_by_pv.values())

        return LayerExecution(
            layer_name=binding.name,
            output=output,
            cycles=total_cycles,
            waves=len(waves),
            statistics=tuple(stats),
            skip_zeros=skip_zeros,
        )

    def _new_machine(self, input_words: int, weight_words: int, output_words: int) -> GanaxMachine:
        return GanaxMachine(
            num_pvs=self._num_pvs,
            pes_per_pv=self._pes_per_pv,
            config=self._config,
            pe_buffer_words={
                "input": max(16, input_words),
                "weight": max(16, weight_words),
                "output": max(16, output_words),
            },
        )


# ----------------------------------------------------------------------
# Static compilation (operand-free planning and program emission)
# ----------------------------------------------------------------------
def plan_ganax_row_tasks(
    layer: TransposedConvLayer,
    in_cols: int,
    schedule: DataflowSchedule,
    num_pvs: int,
    schedule_spec: ScheduleLike = None,
) -> List[RowTask]:
    """Plan the GANAX (zero-skipping) row tasks for one 2-D layer slice.

    Pure geometry: the plan depends only on the layer's kernel/stride/padding
    and the input width, never on operand values, so the same tasks drive both
    the cycle-level executor and static program compilation.

    ``schedule_spec`` applies the ordering knobs of a
    :class:`~repro.schedule.ScheduleSpec` — row walk, PV policy and column
    traversal — over the fixed work the :class:`DataflowSchedule` describes.
    Each task always covers one *full* output row (the executor commits whole
    rows), so no spec can split a row across tasks.
    """
    spec = resolve_schedule(schedule_spec)
    # A column's window depends on the layer and the input width, never on
    # the output row, so every task shares one permuted column tuple.
    columns = spec.permute_columns(
        tuple(
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
    )
    planned = [
        (output_row, group.filter_rows)
        for output_row, group in schedule.row_plan(spec)
    ]
    tasks: List[RowTask] = []
    for index, pv in spec.task_emission(len(planned), num_pvs):
        output_row, filter_rows = planned[index]
        tasks.append(
            RowTask(
                pv_index=pv,
                output_row=output_row,
                filter_rows=filter_rows,
                columns=columns,
            )
        )
    return tasks


def plan_dense_row_tasks(
    out_rows: int,
    out_cols: int,
    k_rows: int,
    k_cols: int,
    stride: int,
    num_pvs: int,
    schedule_spec: ScheduleLike = None,
) -> List[RowTask]:
    """Plan the conventional (dense) row tasks: every tap of every window.

    The schedule spec's PV-policy and column-traversal knobs apply exactly as
    in the zero-skipping planner (``row_order`` is moot: the dense walk is
    already a raster over a single pattern).
    """
    spec = resolve_schedule(schedule_spec)
    columns = spec.permute_columns(
        tuple(
            ColumnWork(
                taps=k_cols,
                input_base=out_col * stride,
                weight_base=0,
                weight_step=1,
                output_column=out_col,
            )
            for out_col in range(out_cols)
        )
    )
    filter_rows = tuple(range(k_rows))
    tasks: List[RowTask] = []
    for row, pv in spec.task_emission(out_rows, num_pvs):
        tasks.append(
            RowTask(
                pv_index=pv,
                output_row=row,
                filter_rows=filter_rows,
                columns=columns,
            )
        )
    return tasks


def build_wave_program(
    name: str,
    wave: Sequence[RowTask],
    num_pvs: int,
    schedule_spec: ScheduleLike = None,
) -> MicroProgram:
    """Column-synchronised micro-program for one wave of row tasks.

    All tasks advance column index in lockstep: per column, each active PV
    receives its own access configuration (per-PV µops) and then three
    ``mimd.exe`` µops dispatch ``repeat``/``mac``/``act`` to every PV.  PVs
    that have exhausted their columns receive a ``nop``.  Each PV's local
    buffer is preloaded with exactly the µops it will be dispatched — active
    PVs get ``mac``/``act``/``repeat`` (plus ``nop`` if some dispatch leaves
    them idle), PVs with no work in the wave get only ``nop`` — so compiled
    programs carry no dead local µops.

    The schedule spec's lowering knobs act here: ``repeat_unroll`` splits a
    column's accumulation into several repeat/mac dispatch groups before the
    single committing ``act`` (exact, because the PE accumulator persists
    across dispatches), and ``hoist_invariant_cfg`` elides configuration and
    repeat-register writes whose target already holds the value (exact,
    because the machine's registers persist until rewritten).  The default
    spec reproduces the legacy emission byte-identically.
    """
    spec = resolve_schedule(schedule_spec)
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
    # Per column, split each active PV's repeat count into the spec's unroll
    # parts (part 0 is never empty); the dispatch groups decide preloading.
    column_parts: List[Dict[int, Tuple[int, ...]]] = [
        {
            pv: spec.split_repeat(by_pv[pv].columns[column_index].taps)
            for pv in column_active[column_index]
        }
        for column_index in range(max_columns)
    ]
    dispatch_groups: List[List[int]] = []
    for column_index in range(max_columns):
        active = column_active[column_index]
        if not active:
            continue
        dispatch_groups.append(active)
        for part in range(1, spec.repeat_unroll):
            group = [
                pv for pv in active if column_parts[column_index][pv][part] > 0
            ]
            if group:
                dispatch_groups.append(group)
    mac_idx: Dict[int, int] = {}
    act_idx: Dict[int, int] = {}
    rep_idx: Dict[int, int] = {}
    nop_idx: Dict[int, int] = {}
    for pv in range(num_pvs):
        if any(pv in group for group in dispatch_groups):
            mac_idx[pv] = builder.preload_local(pv, mac)
            act_idx[pv] = builder.preload_local(pv, act)
            rep_idx[pv] = builder.preload_local(pv, rep)
        if any(pv not in group for group in dispatch_groups):
            nop_idx[pv] = builder.preload_local(pv, nop)

    cfg_state: Optional[Dict[Tuple[int, AddressGenerator, int], int]]
    repeat_state: Optional[Dict[int, int]]
    cfg_state = {} if spec.hoist_invariant_cfg else None
    repeat_state = {} if spec.hoist_invariant_cfg else None

    for column_index in range(max_columns):
        active_pvs = column_active[column_index]
        parts = column_parts[column_index]
        for pv in active_pvs:
            work = by_pv[pv].columns[column_index]
            _emit_generator(
                builder, pv, AddressGenerator.INPUT,
                offset=work.input_base, end=work.taps, repeat=1,
                cfg_state=cfg_state,
            )
            _emit_generator(
                builder, pv, AddressGenerator.WEIGHT,
                offset=work.weight_base,
                end=(work.taps - 1) * work.weight_step + 1,
                repeat=1,
                step=work.weight_step,
                cfg_state=cfg_state,
            )
            _emit_generator(
                builder, pv, AddressGenerator.OUTPUT,
                offset=work.output_column, end=1, repeat=1,
                cfg_state=cfg_state,
            )
            _emit_repeat_load(builder, pv, parts[pv][0], repeat_state)
        if not active_pvs:
            continue

        def indices(active_map, idle_map, group):
            return [
                active_map[pv] if pv in group else idle_map[pv]
                for pv in range(num_pvs)
            ]

        builder.emit_mimd(indices(rep_idx, nop_idx, active_pvs))
        builder.emit_mimd(indices(mac_idx, nop_idx, active_pvs))
        for part in range(1, spec.repeat_unroll):
            group = [pv for pv in active_pvs if parts[pv][part] > 0]
            if not group:
                continue
            for pv in group:
                _emit_repeat_load(builder, pv, parts[pv][part], repeat_state)
            builder.emit_mimd(indices(rep_idx, nop_idx, group))
            builder.emit_mimd(indices(mac_idx, nop_idx, group))
        builder.emit_mimd(indices(act_idx, nop_idx, active_pvs))
    return builder.build()


#: The configuration registers in the order a generator block writes them.
_CONFIG_REGISTERS = (
    ConfigRegister.ADDR,
    ConfigRegister.OFFSET,
    ConfigRegister.STEP,
    ConfigRegister.END,
    ConfigRegister.REPEAT,
)


def _emit_generator(
    builder: MicroProgramBuilder,
    pv: int,
    generator: AddressGenerator,
    *,
    offset: int,
    end: int,
    repeat: int,
    step: int = 1,
    addr: int = 0,
    cfg_state: Optional[Dict[Tuple[int, AddressGenerator, int], int]] = None,
) -> None:
    # A single-address pattern (End=1) degenerates to step 1: the hardware
    # constrains Step <= End.
    values = (addr, offset, min(step, end), end, repeat)
    for register, value in zip(_CONFIG_REGISTERS, values):
        if cfg_state is not None:
            # keyed by the register's value: a plain Enum hashes in Python
            key = (pv, generator, register._value_)
            if cfg_state.get(key) == value:
                continue
            cfg_state[key] = value
        builder.emit_access_cfg(pv, generator, register, value)
    builder.emit_access_start(pv, generator)


def _emit_repeat_load(
    builder: MicroProgramBuilder,
    pv: int,
    count: int,
    repeat_state: Optional[Dict[int, int]],
) -> None:
    """``mimd.ld`` of the per-PV repeat register, elidable when hoisting."""
    if repeat_state is not None:
        if repeat_state.get(pv) == count:
            return
        repeat_state[pv] = count
    builder.emit_mimd_load(pv, "repeat", count)


def compile_layer_programs(
    binding: LayerBinding,
    *,
    num_pvs: int,
    pes_per_pv: int,
    skip_zeros: bool = True,
    max_waves: Optional[int] = None,
    max_columns: Optional[int] = None,
    schedule: ScheduleLike = None,
) -> Tuple[MicroProgram, ...]:
    """Statically compile a convolutional layer binding to micro-programs.

    Emits the exact per-wave programs the cycle-level executor would run for a
    single-channel 2-D slice of the layer (rank-3 layers compile their spatial
    slice; the channel dimension is covered by the analytical model).  No
    operand data is needed — planning and emission are pure geometry — which
    makes this the entry point for static verification and disassembly.

    ``max_waves`` / ``max_columns`` bound the emitted program to a
    representative tile so whole-workload grids stay cheap; the µop *pattern*
    of the truncated program is identical to the full one.

    ``schedule`` selects the :class:`~repro.schedule.ScheduleSpec` lowering
    the fixed layer algorithm (spec string, instance, or ``None`` for the
    default, which reproduces the legacy emission byte-identically).
    """
    if num_pvs <= 0 or pes_per_pv <= 0:
        raise CompilationError("compile dimensions must be positive")
    # a bound < 1 would slice the tile away (or drop the last wave), so the
    # caller would verify or print less than it asked for without noticing
    for bound_name, bound in (("max_waves", max_waves), ("max_columns", max_columns)):
        if bound is not None and bound < 1:
            raise CompilationError(f"{bound_name} must be at least 1, got {bound}")
    spec = resolve_schedule(schedule)
    layer = binding.layer
    if not isinstance(layer, (ConvLayer, TransposedConvLayer)):
        raise CompilationError(
            f"{binding.name}: only convolutional layers compile to micro-programs, "
            f"got {type(layer).__name__}"
        )
    in_rows, in_cols = binding.input_shape.spatial[-2:]
    slice_cls = TransposedConvLayer if isinstance(layer, TransposedConvLayer) else ConvLayer
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
        dataflow = build_schedule(slice_binding, spec)
        max_active = max(len(g.filter_rows) for g in dataflow.row_groups)
        if max_active > pes_per_pv:
            raise CompilationError(
                f"{binding.name}: needs {max_active} active PEs per PV but the "
                f"target has only {pes_per_pv}"
            )
        tasks = plan_ganax_row_tasks(
            slice_layer, in_cols, dataflow, num_pvs, schedule_spec=spec
        )
    else:
        if k_rows > pes_per_pv:
            raise CompilationError(
                f"{binding.name}: kernel height {k_rows} exceeds {pes_per_pv} PEs per PV"
            )
        stride = 1 if isinstance(slice_layer, TransposedConvLayer) else slice_layer.stride[1]
        tasks = plan_dense_row_tasks(
            out_rows, out_cols, k_rows, k_cols, stride, num_pvs, schedule_spec=spec
        )

    tasks = [task for task in tasks if task.columns]
    if not tasks:
        return ()
    waves = _chunk(tasks, num_pvs)
    if max_waves is not None:
        waves = waves[:max_waves]
    if max_columns is not None:
        # Clip only the kept waves: a bound >= 1 leaves no task empty, so
        # clipping after the wave split cuts the same waves.
        waves = [
            [
                RowTask(
                    pv_index=task.pv_index,
                    output_row=task.output_row,
                    filter_rows=task.filter_rows,
                    columns=task.columns[:max_columns],
                )
                for task in wave
            ]
            for wave in waves
        ]
    return tuple(
        build_wave_program(binding.name, wave, num_pvs, schedule_spec=spec)
        for wave in waves
    )


# ----------------------------------------------------------------------
# Module-level helpers
# ----------------------------------------------------------------------
def _bind(layer, input_shape: FeatureMapShape) -> LayerBinding:
    """Create a standalone binding without constructing a full network."""
    return LayerBinding(
        index=0,
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.output_shape(input_shape),
    )


def _chunk(tasks: Sequence[RowTask], num_pvs: int) -> List[List[RowTask]]:
    """Split row tasks into waves with at most one task per PV."""
    waves: List[List[RowTask]] = []
    current: List[RowTask] = []
    used: set = set()
    for task in tasks:
        if task.pv_index in used:
            waves.append(current)
            current = []
            used = set()
        current.append(task)
        used.add(task.pv_index)
    if current:
        waves.append(current)
    return waves


def _input_row_for(
    output_row: int, kernel_row: int, layer: TransposedConvLayer, in_rows: int
) -> Optional[int]:
    """Genuine input row paired with enumerated ``kernel_row`` for ``output_row``.

    Returns None when the tap falls on an inserted zero or outside the input
    (border), in which case the PE's contribution is zero.
    """
    border = layer.kernel[0] - 1 - layer.padding[0]
    expanded_row = output_row + kernel_row - border
    if expanded_row < 0:
        return None
    if expanded_row % layer.stride[0] != 0:
        return None
    genuine = expanded_row // layer.stride[0]
    if genuine >= in_rows:
        return None
    return genuine


def _column_window(
    out_col: int,
    layer: TransposedConvLayer,
    in_cols: int,
) -> Tuple[int, Tuple[int, ...], int]:
    """Consequential column taps for one output column.

    Returns ``(taps, enumerated_kernel_columns, first_genuine_input_column)``
    with border clipping applied, so edge columns naturally get fewer taps.
    The weight buffer holds the *flipped* filter row, so the enumerated kernel
    column indices address it directly.
    """
    border = layer.kernel[1] - 1 - layer.padding[1]
    kernel_cols = []
    genuine_cols = []
    for k in range(layer.kernel[1]):
        expanded = out_col + k - border
        if expanded < 0 or expanded % layer.stride[1] != 0:
            continue
        genuine = expanded // layer.stride[1]
        if genuine >= in_cols:
            continue
        kernel_cols.append(k)
        genuine_cols.append(genuine)
    if not kernel_cols:
        return 0, (), 0
    return len(kernel_cols), tuple(kernel_cols), genuine_cols[0]
