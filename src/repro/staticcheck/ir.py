"""Verifier IR: findings, the static machine model, and the abstract
interpreter over compiled micro-programs.

The interpreter in this module walks a :class:`~repro.isa.program.MicroProgram`'s
global µop stream *in dispatch order*, tracking per-PV abstract state that
mirrors the cycle-level machine's semantics without simulating cycles:

* per address generator: which configuration registers have been written, the
  written values, and the number of produced-but-not-yet-consumed addresses
  (``access.start`` credits :meth:`GeneratorConfig.total_addresses`, execute
  µops debit their operand consumption);
* per PV: the ``repeat`` register state loaded by ``mimd.ld`` and a pending
  ``repeat`` prefix awaiting its follower µop.

Because the compiler dispatches one global µop per cycle in program order, any
point where the abstract model is inconsistent (an execute µop consuming more
addresses than were ever produced, a reconfiguration while addresses are
outstanding, a ``repeat`` with no follower) corresponds to a concrete machine
deadlock or silent operand misalignment.  The checks that interpret these
events into findings — with stable check ids and severities — live in
:mod:`repro.staticcheck.checks`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import ArchitectureConfig
from ..core.index_generator import GeneratorConfig
from ..errors import SimulationError
from ..isa.program import MicroProgram
from ..isa.uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    MicroOp,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)


class Severity(enum.Enum):
    """Severity of a verifier finding."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One verifier diagnosis, anchored to a global µop offset.

    ``index`` is the offset into the program's global µop stream (or -1 for
    program-level findings such as an oversized local buffer), ``mnemonic``
    the offending µop's mnemonic (or a section label like ``local[pv3]``), so
    every finding renders as a clickable ``(index, mnemonic, check-id,
    message)`` tuple.
    """

    check_id: str
    severity: Severity
    index: int
    mnemonic: str
    message: str
    program: str = ""

    def __str__(self) -> str:
        where = f"[{self.index}] {self.mnemonic}" if self.index >= 0 else self.mnemonic
        return f"{self.severity.value}: {self.check_id} @ {where}: {self.message}"

    def describe(self) -> Dict[str, object]:
        """JSON-ready record of this finding."""
        return {
            "check_id": self.check_id,
            "severity": self.severity.value,
            "index": self.index,
            "mnemonic": self.mnemonic,
            "message": self.message,
            "program": self.program,
        }


@dataclass(frozen=True)
class MachineModel:
    """Static model of the hardware a program is verified against.

    Mirrors the geometry the cycle-level machine derives from
    :class:`~repro.config.ArchitectureConfig` (PE buffer words default to
    ``max(entries, 64)`` exactly like :class:`~repro.core.pe.ProcessingEngine`)
    so the verifier and the simulator reject the same programs.
    """

    num_pvs: int
    pes_per_pv: int
    local_uop_entries: int
    pv_index_bits: int
    input_buffer_words: int
    weight_buffer_words: int
    output_buffer_words: int

    @classmethod
    def from_config(
        cls,
        config: Optional[ArchitectureConfig] = None,
        *,
        num_pvs: Optional[int] = None,
        pes_per_pv: Optional[int] = None,
        input_buffer_words: Optional[int] = None,
        weight_buffer_words: Optional[int] = None,
        output_buffer_words: Optional[int] = None,
    ) -> "MachineModel":
        config = config or ArchitectureConfig.paper_default()
        return cls(
            num_pvs=num_pvs if num_pvs is not None else config.num_pvs,
            pes_per_pv=pes_per_pv if pes_per_pv is not None else config.pes_per_pv,
            local_uop_entries=config.local_uop_entries,
            pv_index_bits=config.pv_index_bits,
            input_buffer_words=(
                input_buffer_words
                if input_buffer_words is not None
                else max(config.input_register_entries, 64)
            ),
            weight_buffer_words=(
                weight_buffer_words
                if weight_buffer_words is not None
                else max(config.weight_sram_entries, 64)
            ),
            output_buffer_words=(
                output_buffer_words
                if output_buffer_words is not None
                else max(config.partial_sum_register_entries, 64)
            ),
        )

    @classmethod
    def for_executor(
        cls,
        config: Optional[ArchitectureConfig] = None,
        *,
        num_pvs: int,
        pes_per_pv: int,
        output_columns: int,
        max_words: int = 4096,
    ) -> "MachineModel":
        """The buffer sizing :class:`~repro.core.compiler.GanaxLayerExecutor`
        uses when it instantiates a machine for one wave."""
        return cls.from_config(
            config,
            num_pvs=num_pvs,
            pes_per_pv=pes_per_pv,
            input_buffer_words=max(16, max_words),
            weight_buffer_words=max(16, max_words),
            output_buffer_words=max(output_columns, 16),
        )

    def buffer_words(self, generator: AddressGenerator) -> int:
        if generator is AddressGenerator.INPUT:
            return self.input_buffer_words
        if generator is AddressGenerator.WEIGHT:
            return self.weight_buffer_words
        return self.output_buffer_words


# ----------------------------------------------------------------------
# Abstract interpretation
# ----------------------------------------------------------------------
#: The :class:`GeneratorConfig` field each configuration register loads.
_REGISTER_FIELDS = {
    ConfigRegister.ADDR: "addr",
    ConfigRegister.OFFSET: "offset",
    ConfigRegister.STEP: "step",
    ConfigRegister.END: "end",
    ConfigRegister.REPEAT: "repeat",
}
#: A generator's state keeps register values in slots indexed by the
#: member's ``_value_`` (bit ``1 << slot`` of its written mask): reading
#: that attribute costs no ``Enum.__hash__`` per ``access.cfg``.
_SLOT_FIELDS = tuple(_REGISTER_FIELDS[register] for register in ConfigRegister)
assert [register.value for register in ConfigRegister] == list(range(len(_SLOT_FIELDS)))
#: Unwritten registers read as the :class:`GeneratorConfig` defaults.
_DEFAULT_VALUES = tuple(getattr(GeneratorConfig(), name) for name in _SLOT_FIELDS)
_ALL_WRITTEN = (1 << len(_SLOT_FIELDS)) - 1
_EXACT_VALUES = (int,) * len(_SLOT_FIELDS)


@dataclass
class _GeneratorState:
    written: int = 0  # bit mask over register slots
    values: List[object] = field(default_factory=lambda: list(_DEFAULT_VALUES))
    # Written registers that are not ConfigRegister members: no
    # GeneratorConfig field matches one, so a start raises KeyError for it.
    foreign: List[object] = field(default_factory=list)
    started: bool = False
    outstanding: int = 0
    last_start_index: int = -1

    def write(self, register: ConfigRegister, value: int) -> None:
        if type(register) is ConfigRegister:
            slot = register._value_
            self.written |= 1 << slot
            self.values[slot] = value
        else:
            hash(register)  # an unhashable register fails here, as a set would
            self.foreign.append(register)

    def missing(self) -> List[str]:
        """Names of the configuration registers never written."""
        if self.written == _ALL_WRITTEN:
            return []
        return [r.name for r in ConfigRegister if not self.written >> r.value & 1]


def _start_outcome(values: Tuple[object, ...]) -> tuple:
    """What ``access.start`` derives from five register values alone:
    ``(validation error, highest address, total addresses)``, where the
    last two are None when the configuration is invalid."""
    config = GeneratorConfig(**dict(zip(_SLOT_FIELDS, values)))
    try:
        config.validate()
    except SimulationError as exc:
        return exc, None, None
    return None, config.offset + config.end - 1, config.total_addresses()


@dataclass
class _PvState:
    generators: Dict[AddressGenerator, _GeneratorState]
    repeat_value: Optional[int] = None  # loaded by mimd.ld %repeat
    pending_repeat: Optional[Tuple[int, int]] = None  # (global index, count)


class ProgramInterpreter:
    """Walk a program's global stream, emitting findings via a callback.

    The callback signature is ``emit(check_id, index, mnemonic, message)``;
    severity tagging and filtering happen in :mod:`repro.staticcheck.checks`.
    What an ``access.start`` derives from its five register values alone
    is computed once per distinct set of ``int`` values per interpreter.
    """

    def __init__(self, program: MicroProgram, model: MachineModel, emit) -> None:
        self._program = program
        self._model = model
        self._emit = emit
        self._pvs = [
            _PvState(generators={gen: _GeneratorState() for gen in AddressGenerator})
            for _ in range(program.num_pvs)
        ]
        self.dispatched_local_indices: set = set()  # (pv, index) pairs
        # register values -> _start_outcome; keys hold only exact ints, as
        # 2.0 equals 2 but derives "2.0 produced addresses"
        self._start_outcomes: Dict[Tuple[int, ...], tuple] = {}

    # -- driver ---------------------------------------------------------
    def run(self) -> None:
        for index, uop in enumerate(self._program.global_uops):
            self._step(index, uop)
        self._finish()

    def _step(self, index: int, uop: MicroOp) -> None:
        if isinstance(uop, AccessCfg):
            state = self._pv_state(index, uop)
            if state is None:
                return
            gen = state.generators[uop.generator]
            if gen.outstanding > 0:
                self._emit(
                    "reconfigure-running", index, uop.mnemonic,
                    f"PV {uop.pv_index} {uop.generator.name} generator is "
                    f"reconfigured with {gen.outstanding} produced addresses "
                    "still unconsumed; the pattern in flight is clobbered",
                )
            gen.write(uop.register, uop.immediate)
        elif isinstance(uop, AccessStart):
            state = self._pv_state(index, uop)
            if state is None:
                return
            self._start_generator(index, uop, state.generators[uop.generator])
        elif isinstance(uop, AccessStop):
            state = self._pv_state(index, uop)
            if state is None:
                return
            gen = state.generators[uop.generator]
            if not gen.started:
                self._emit(
                    "stop-without-start", index, uop.mnemonic,
                    f"PV {uop.pv_index} {uop.generator.name} generator is "
                    "stopped but was never started",
                )
            gen.outstanding = 0
        elif isinstance(uop, MimdLoad):
            state = self._pv_state(index, uop)
            if state is None:
                return
            if uop.destination == "repeat":
                if uop.immediate <= 0:
                    self._emit(
                        "repeat-count", index, uop.mnemonic,
                        f"mimd.ld loads repeat register with {uop.immediate}; "
                        "the execute engine requires a positive count",
                    )
                else:
                    state.repeat_value = uop.immediate
            # stride/base destinations are not modeled by the cycle-level
            # machine; they carry no verifiable state here.
        elif isinstance(uop, MimdExecute):
            if len(uop.local_indices) != self._program.num_pvs:
                self._emit(
                    "pv-index-range", index, uop.mnemonic,
                    f"mimd.exe carries {len(uop.local_indices)} local indices "
                    f"for {self._program.num_pvs} PVs",
                )
            for pv, local_index in enumerate(uop.local_indices):
                if pv >= self._program.num_pvs:
                    break
                if not self._local_index_ok(index, pv, local_index):
                    continue
                self.dispatched_local_indices.add((pv, local_index))
                self._dispatch_execute(
                    index, pv, self._program.local_uops[pv][local_index]
                )
        elif isinstance(uop, (ExecuteUop, RepeatUop)):
            # SIMD broadcast: every PE of every PV receives the µop.
            for pv in range(self._program.num_pvs):
                self._dispatch_execute(index, pv, uop)
        else:  # pragma: no cover - MicroProgram validation forbids this
            self._emit(
                "pv-index-range", index, uop.mnemonic,
                f"{uop!r} is not a dispatchable global µop",
            )

    # -- access µ-engine ------------------------------------------------
    def _pv_state(self, index: int, uop) -> Optional[_PvState]:
        if not (0 <= uop.pv_index < self._program.num_pvs):
            self._emit(
                "pv-index-range", index, uop.mnemonic,
                f"PV index {uop.pv_index} out of range for "
                f"{self._program.num_pvs} PVs",
            )
            return None
        return self._pvs[uop.pv_index]

    def _start_generator(self, index: int, uop: AccessStart, gen: _GeneratorState) -> None:
        if gen.outstanding > 0:
            self._emit(
                "reconfigure-running", index, uop.mnemonic,
                f"PV {uop.pv_index} {uop.generator.name} generator is restarted "
                f"with {gen.outstanding} produced addresses still unconsumed",
            )
        missing = gen.missing()
        if missing:
            self._emit(
                "cfg-def-before-use", index, uop.mnemonic,
                f"PV {uop.pv_index} {uop.generator.name} generator started with "
                f"unwritten configuration registers: {', '.join(missing)}",
            )
        if gen.foreign:
            raise KeyError(gen.foreign[0])
        values = tuple(gen.values)
        if tuple(map(type, values)) == _EXACT_VALUES:
            outcome = self._start_outcomes.get(values)
            if outcome is None:
                outcome = self._start_outcomes[values] = _start_outcome(values)
        else:
            outcome = _start_outcome(values)
        error, highest, total = outcome
        if error is not None:
            self._emit(
                "cfg-invalid-at-start", index, uop.mnemonic,
                f"PV {uop.pv_index} {uop.generator.name} generator configuration "
                f"is invalid: {error}",
            )
            gen.started = True
            return
        capacity = self._model.buffer_words(uop.generator)
        if highest >= capacity:
            self._emit(
                "addr-range-overflow", index, uop.mnemonic,
                f"PV {uop.pv_index} {uop.generator.name} pattern reaches address "
                f"{highest} but the PE buffer holds {capacity} words",
            )
        gen.started = True
        gen.outstanding += total
        gen.last_start_index = index

    # -- execute µ-engine -----------------------------------------------
    def _local_index_ok(self, index: int, pv: int, local_index: int) -> bool:
        limit = min(
            self._model.local_uop_entries, 1 << self._model.pv_index_bits
        )
        if local_index >= limit:
            self._emit(
                "local-index-range", index, "mimd.exe",
                f"PV {pv} local index {local_index} exceeds the "
                f"{limit}-entry local µop buffer window",
            )
            return False
        if local_index >= len(self._program.local_uops[pv]):
            self._emit(
                "local-index-range", index, "mimd.exe",
                f"PV {pv} local index {local_index} points past the "
                f"{len(self._program.local_uops[pv])} preloaded entries",
            )
            return False
        return True

    def _dispatch_execute(self, index: int, pv: int, uop: MicroOp) -> None:
        state = self._pvs[pv]
        if isinstance(uop, RepeatUop):
            if state.pending_repeat is not None:
                self._emit(
                    "repeat-pairing", index, uop.mnemonic,
                    f"PV {pv} receives a repeat prefix while the repeat at "
                    f"global µop {state.pending_repeat[0]} still awaits its "
                    "follower execute µop",
                )
            if uop.count >= (1 << 12):
                self._emit(
                    "repeat-count", index, uop.mnemonic,
                    f"repeat count {uop.count} does not fit the 12-bit "
                    "local encoding",
                )
            count = uop.count
            if count == 0:
                if state.repeat_value is None:
                    self._emit(
                        "repeat-default", index, uop.mnemonic,
                        f"PV {pv} dispatches a count-0 repeat with no prior "
                        "mimd.ld of the repeat register; the hardware falls "
                        "back to the register's reset value of 1",
                    )
                    count = 1
                else:
                    count = state.repeat_value
            state.pending_repeat = (index, count)
            return
        if not isinstance(uop, ExecuteUop):  # pragma: no cover - validated
            return
        times = 1
        if state.pending_repeat is not None:
            times = state.pending_repeat[1]
            state.pending_repeat = None
        self._consume(index, pv, uop, times)

    def _consume(self, index: int, pv: int, uop: ExecuteUop, times: int) -> None:
        state = self._pvs[pv]
        op = uop.op
        if op in (ExecuteOp.MAC, ExecuteOp.MUL, ExecuteOp.ADD):
            self._debit(index, pv, uop, AddressGenerator.INPUT, times)
            self._debit(index, pv, uop, AddressGenerator.WEIGHT, times)
        elif op is ExecuteOp.ACT:
            self._debit(index, pv, uop, AddressGenerator.OUTPUT, times)
        elif op is ExecuteOp.POOL:
            # pool drains every queued input address and writes one output.
            gen = state.generators[AddressGenerator.INPUT]
            if gen.outstanding == 0:
                self._emit(
                    "execute-starved", index, uop.mnemonic,
                    f"PV {pv} pool µop finds no input addresses to drain",
                )
            gen.outstanding = 0
            self._debit(index, pv, uop, AddressGenerator.OUTPUT, times)
        # nop consumes nothing.

    def _debit(
        self, index: int, pv: int, uop: ExecuteUop, generator: AddressGenerator, n: int
    ) -> None:
        gen = self._pvs[pv].generators[generator]
        if gen.outstanding < n:
            self._emit(
                "execute-starved", index, uop.mnemonic,
                f"PV {pv} {uop.mnemonic} consumes {n} {generator.name} "
                f"address(es) but only {gen.outstanding} were produced; the "
                "execute engine would stall forever",
            )
            gen.outstanding = 0
        else:
            gen.outstanding -= n

    # -- end of program ---------------------------------------------------
    def _finish(self) -> None:
        for pv, state in enumerate(self._pvs):
            if state.pending_repeat is not None:
                index, _count = state.pending_repeat
                self._emit(
                    "repeat-pairing", index, "repeat",
                    f"PV {pv} repeat prefix at global µop {index} is never "
                    "followed by an execute µop",
                )
            for generator, gen in state.generators.items():
                if gen.outstanding > 0:
                    self._emit(
                        "unconsumed-addresses", gen.last_start_index, "access.start",
                        f"PV {pv} {generator.name} generator ends the program "
                        f"with {gen.outstanding} produced address(es) never "
                        "consumed; the machine would not drain",
                    )
