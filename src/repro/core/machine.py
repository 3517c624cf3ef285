"""Cycle-level GANAX machine: PE array + global controller.

:class:`GanaxMachine` executes :class:`~repro.isa.program.MicroProgram`
objects on a (usually small) array of processing vectors.  It is used to

* validate the ISA and the decoupled access-execute microarchitecture
  end-to-end against the NumPy functional reference (tests and the ISA
  walkthrough example), and
* measure cycle counts of the GANAX dataflow versus the conventional dense
  dataflow on identical hardware for small layers (an ablation benchmark).

Full-model numbers in the experiments come from the analytical model
(:mod:`repro.core.performance`), mirroring how the paper's own evaluation uses
a simulator rather than RTL for whole networks.

Dispatch semantics
------------------
One global µop is dispatched per cycle, in program order:

* ``access.cfg`` writes a configuration register of one generator in every PE
  of the addressed PV; it stalls while that generator is still running so an
  in-flight pattern is never corrupted.
* ``access.start`` / ``access.stop`` control the addressed generator.
* ``mimd.ld`` writes the repeat register of every PE in the addressed PV.
* an execute-group µop (SIMD mode) is broadcast to every PE of every PV.
* ``mimd.exe`` (MIMD-SIMD mode) makes each PV fetch the µop selected by its
  4-bit index from its local buffer and broadcast it to its own PEs.

Broadcasts apply back-pressure: if any destination µop FIFO is full the
global µop retries on the next cycle.

Time advance
------------
Each cycle the controller dispatches first, then the PEs tick their access
and execute µ-engines.  :meth:`GanaxMachine.run` produces exactly the cycle
counts, statistics, counters and outputs of a stepper that ticks every PE on
every cycle (``tests/machine_oracle.json`` pins them), but it only ticks PEs
that can change state:

* **Quiet PEs.**  A PE is :attr:`~repro.core.pe.ProcessingEngine.quiet` when
  every generator is stopped or has a full FIFO, no repeat is pending, and
  its µop FIFO is empty or holds a repeat prefix whose follower has not
  arrived.  Its tick would only count a stall, so the machine drops it from
  the active set and credits the skipped stalls in bulk
  (:meth:`~repro.core.pe.ProcessingEngine.idle`) when it wakes and when the
  run ends.
* **Waking.**  Only an enqueued µop (a SIMD broadcast or a ``mimd.exe``) or
  an ``access.start`` on its PV wakes a quiet PE.  ``access.cfg``,
  ``mimd.ld`` and ``access.stop`` never change what a quiet PE's tick does.
* **Quiet array.**  While no PE is active, each cycle retires one global µop
  and ticks nothing, until a µop wakes a PE.
* **Deadlock.**  When no PE is active and the head µop stalls, or the stream
  is exhausted while some PE still holds work, no later cycle can change
  anything.  The clock jumps to the ``max_cycles`` limit and the run raises
  the stepper's :class:`~repro.errors.SimulationError`.

:meth:`GanaxMachine.step` keeps its one-cycle contract: it advances the whole
machine by one cycle and leaves every PE accounted up to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..isa.program import MicroProgram
from ..isa.uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    ExecuteUop,
    MicroOp,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)
from .pe import ProcessingEngine
from .pv import ProcessingVector
from .uop_buffers import GlobalUopBuffer


@dataclass(frozen=True)
class MachineRunStatistics:
    """Summary of one program execution on the cycle-level machine.

    Every figure counts that run only, also on a machine that ran before.
    """

    cycles: int
    dispatched_uops: int
    dispatch_stall_cycles: int
    executed_pe_uops: int
    pe_busy_cycles: int
    pe_stall_cycles: int

    @property
    def pe_occupancy(self) -> float:
        total = self.pe_busy_cycles + self.pe_stall_cycles
        if total == 0:
            return 0.0
        return self.pe_busy_cycles / total


class GanaxMachine:
    """A cycle-level model of the GANAX PE array and its global controller."""

    def __init__(
        self,
        num_pvs: int = 2,
        pes_per_pv: int = 4,
        config: Optional[ArchitectureConfig] = None,
        pe_buffer_words: Optional[Dict[str, int]] = None,
    ) -> None:
        if num_pvs <= 0 or pes_per_pv <= 0:
            raise SimulationError("machine dimensions must be positive")
        base = config or ArchitectureConfig.paper_default()
        self._config = base.with_updates(num_pvs=num_pvs, pes_per_pv=pes_per_pv)
        self._counters = EventCounters()
        self._pvs: List[ProcessingVector] = [
            ProcessingVector(
                pv_index=i,
                num_pes=pes_per_pv,
                config=self._config,
                counters=self._counters,
                pe_buffer_words=pe_buffer_words,
            )
            for i in range(num_pvs)
        ]
        self._global_buffer = GlobalUopBuffer(
            entries=self._config.global_uop_entries, counters=self._counters
        )
        self._all_pes: List[ProcessingEngine] = [pe for pv in self._pvs for pe in pv.pes]
        self._cycle = 0
        self._dispatched = 0
        self._dispatch_stalls = 0
        # The run's active set: PEs ticked every cycle, and the quiet ones
        # with the last cycle their stalls are accounted up to.
        self._active: List[ProcessingEngine] = []
        self._quiet_since: Dict[ProcessingEngine, int] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> ArchitectureConfig:
        return self._config

    @property
    def counters(self) -> EventCounters:
        return self._counters

    @property
    def pvs(self) -> List[ProcessingVector]:
        return self._pvs

    @property
    def cycle(self) -> int:
        return self._cycle

    def pv(self, index: int) -> ProcessingVector:
        if not (0 <= index < len(self._pvs)):
            raise SimulationError(f"PV index {index} out of range")
        return self._pvs[index]

    @property
    def busy(self) -> bool:
        return (not self._global_buffer.exhausted) or any(pv.busy for pv in self._pvs)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load_program(self, program: MicroProgram) -> None:
        """Load local µop buffers and the global µop stream."""
        if program.num_pvs != len(self._pvs):
            raise SimulationError(
                f"program targets {program.num_pvs} PVs but the machine has "
                f"{len(self._pvs)}"
            )
        program.validate_against_buffers(self._config.local_uop_entries)
        for pv, uops in zip(self._pvs, program.local_uops):
            pv.preload_local_uops(uops)
        self._global_buffer.load_program(program.global_uops)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> MachineRunStatistics:
        """Run until the program completes and the array drains."""
        start_cycle = self._cycle
        start_dispatched = self._dispatched
        start_stalls = self._dispatch_stalls
        start_pe = self._pe_totals()
        limit = start_cycle + max_cycles
        self._wake_scan()
        try:
            while True:
                quiet = not self._active
                if quiet and self._global_buffer.exhausted:
                    if any(pe.busy for pe in self._all_pes):
                        # Queued work that no µop will ever consume.
                        self._run_out_clock(limit, max_cycles)
                    break
                if self._cycle >= limit:
                    self._raise_deadlock(max_cycles)
                if not self._advance() and quiet:
                    # Nothing ticked and nothing woke: every later cycle
                    # stalls on the same µop.
                    self._run_out_clock(limit, max_cycles, stalled=True)
        finally:
            self._settle()
        end_pe = self._pe_totals()
        return MachineRunStatistics(
            cycles=self._cycle - start_cycle,
            dispatched_uops=self._dispatched - start_dispatched,
            dispatch_stall_cycles=self._dispatch_stalls - start_stalls,
            executed_pe_uops=end_pe[0] - start_pe[0],
            pe_busy_cycles=end_pe[1] - start_pe[1],
            pe_stall_cycles=end_pe[2] - start_pe[2],
        )

    def step(self) -> None:
        """Advance the whole machine by one cycle."""
        self._wake_scan()
        try:
            self._advance()
        finally:
            self._settle()

    def _advance(self) -> bool:
        """One cycle: dispatch, then tick the active PEs.

        Returns False when the head µop stalled.
        """
        self._cycle += 1
        issued = self._dispatch_one()
        self._tick_active()
        return issued

    def _tick_active(self) -> None:
        awake = []
        for pe in self._active:
            pe.tick()
            if pe.quiet:
                self._quiet_since[pe] = self._cycle
            else:
                awake.append(pe)
        self._active = awake

    # ------------------------------------------------------------------
    # Active-set bookkeeping
    # ------------------------------------------------------------------
    def _wake_scan(self) -> None:
        """Split the PEs into active and quiet ones by their current state."""
        self._active = []
        self._quiet_since = {}
        for pe in self._all_pes:
            if pe.quiet:
                self._quiet_since[pe] = self._cycle
            else:
                self._active.append(pe)

    def _wake(self, pes: Sequence[ProcessingEngine]) -> None:
        """Return quiet PEs to the active set before this cycle's tick."""
        for pe in pes:
            since = self._quiet_since.pop(pe, None)
            if since is not None:
                pe.idle(self._cycle - 1 - since)
                self._active.append(pe)

    def _settle(self) -> None:
        """Credit every quiet PE the stall cycles it skipped up to now."""
        for pe, since in self._quiet_since.items():
            pe.idle(self._cycle - since)
        self._quiet_since = {}
        self._active = []

    def _run_out_clock(self, limit: int, max_cycles: int, stalled: bool = False) -> None:
        """Nothing is active and nothing can wake a PE: jump to the limit.

        Every remaining cycle would repeat this one, so the clock -- and, when
        the head µop is stalled, the dispatch stall count -- moves to
        ``limit`` at once, and the run fails as a stepped one would.
        """
        if stalled:
            self._dispatch_stalls += limit - self._cycle
        self._cycle = limit
        self._raise_deadlock(max_cycles)

    @staticmethod
    def _raise_deadlock(max_cycles: int) -> None:
        raise SimulationError(
            f"machine did not finish within {max_cycles} cycles; "
            "the program is likely deadlocked"
        )

    def _pe_totals(self) -> Tuple[int, int, int]:
        """(executed µops, busy cycles, stall cycles) summed over every PE."""
        executed = busy = stalls = 0
        for pe in self._all_pes:
            executed += pe.execute.executed_uops
            busy += pe.execute.busy_cycles
            stalls += pe.execute.stall_cycles
        return executed, busy, stalls

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_one(self) -> bool:
        """Dispatch the head µop, if any; False when it stalled."""
        uop = self._global_buffer.peek()
        if uop is None:
            return True
        if self._try_dispatch(uop):
            self._global_buffer.advance()
            self._dispatched += 1
            return True
        self._dispatch_stalls += 1
        return False

    def _try_dispatch(self, uop: MicroOp) -> bool:
        if isinstance(uop, AccessCfg):
            pv = self.pv(uop.pv_index)
            if pv.any_generator_running(uop.generator):
                return False
            pv.apply_access_cfg(uop.generator, uop.register, uop.immediate)
            return True
        if isinstance(uop, AccessStart):
            pv = self.pv(uop.pv_index)
            if pv.any_generator_running(uop.generator):
                return False
            pv.start_generator(uop.generator)
            self._wake(pv.pes)
            return True
        if isinstance(uop, AccessStop):
            self.pv(uop.pv_index).stop_generator(uop.generator)
            return True
        if isinstance(uop, MimdLoad):
            pv = self.pv(uop.pv_index)
            if uop.destination == "repeat":
                pv.set_repeat_register(uop.immediate)
                return True
            raise SimulationError(
                f"mimd.ld destination '{uop.destination}' is not modelled"
            )
        if isinstance(uop, (ExecuteUop, RepeatUop)):
            # SIMD mode: broadcast to every PE of every PV; all-or-nothing.
            if any(pe.execute.uop_fifo.is_full for pe in self._all_pes):
                return False
            for pv in self._pvs:
                pv.broadcast_uop(uop)
            self._wake(self._all_pes)
            return True
        if isinstance(uop, MimdExecute):
            # MIMD-SIMD mode: per-PV local fetch; all-or-nothing so the PVs
            # stay aligned with the global stream.
            if any(pe.execute.uop_fifo.is_full for pe in self._all_pes):
                return False
            for pv, index in zip(self._pvs, uop.local_indices):
                pv.dispatch_local(index)
            self._wake(self._all_pes)
            return True
        raise SimulationError(f"cannot dispatch µop {uop!r}")

    # ------------------------------------------------------------------
    # Data-side helpers used by the layer executor
    # ------------------------------------------------------------------
    def load_pe_operands(
        self,
        pv_index: int,
        pe_index: int,
        input_row: Sequence[float],
        weight_row: Sequence[float],
    ) -> None:
        pe = self.pv(pv_index).pe(pe_index)
        pe.clear_output()
        pe.load_input_row(input_row)
        pe.load_weight_row(weight_row)

    def accumulate_pv(self, pv_index: int, width: int, active_pes: int) -> List[float]:
        return self.pv(pv_index).accumulate_rows(width, active_pes=active_pes)
