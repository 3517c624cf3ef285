"""A GANAX processing engine: decoupled access and execute µ-engines.

Each PE (Figure 7a) owns:

* an :class:`~repro.core.access_engine.AccessEngine` with three strided
  µindex generators (input, weight, output) and their address FIFOs,
* an :class:`~repro.core.execute_engine.ExecuteEngine` with a µop FIFO, an
  ALU and an accumulator register, and
* three small data buffers: the input register file, the weight SRAM and the
  output (partial-sum) register file, sized per Table III.

The PE exposes a single :meth:`tick` that advances both µ-engines by one
cycle; they communicate only through the address FIFOs, so either engine can
run ahead of (or stall behind) the other — the decoupled access-execute
behaviour the paper relies on to amortise MIMD overheads.  A PE whose engines
cannot move is :attr:`~ProcessingEngine.quiet`; the machine stops ticking it
and credits the skipped stall cycles through :meth:`~ProcessingEngine.idle`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..hw.sram import Scratchpad
from ..isa.uops import (
    AddressGenerator,
    ConfigRegister,
    ExecuteUop,
    MicroOp,
    RepeatUop,
)
from .access_engine import AccessEngine
from .execute_engine import ExecuteEngine


class ProcessingEngine:
    """One GANAX PE with decoupled access/execute µ-engines."""

    def __init__(
        self,
        pv_index: int,
        pe_index: int,
        config: Optional[ArchitectureConfig] = None,
        counters: Optional[EventCounters] = None,
        input_words: Optional[int] = None,
        weight_words: Optional[int] = None,
        output_words: Optional[int] = None,
    ) -> None:
        self._config = config or ArchitectureConfig.paper_default()
        self._pv_index = pv_index
        self._pe_index = pe_index
        self._counters = counters if counters is not None else EventCounters()
        name = f"pe[{pv_index}][{pe_index}]"

        self._input_buffer = Scratchpad(
            words=input_words or max(self._config.input_register_entries, 64),
            name=f"{name}.input",
            counters=self._counters,
            read_counter="register_file_reads",
            write_counter="register_file_writes",
        )
        self._weight_buffer = Scratchpad(
            words=weight_words or max(self._config.weight_sram_entries, 64),
            name=f"{name}.weight",
            counters=self._counters,
            read_counter="register_file_reads",
            write_counter="register_file_writes",
        )
        self._output_buffer = Scratchpad(
            words=output_words or max(self._config.partial_sum_register_entries, 64),
            name=f"{name}.output",
            counters=self._counters,
            read_counter="register_file_reads",
            write_counter="register_file_writes",
        )
        self._access = AccessEngine(
            fifo_depth=self._config.address_fifo_depth,
            counters=self._counters,
            name=f"{name}.access",
        )
        self._execute = ExecuteEngine(
            access=self._access,
            input_buffer=self._input_buffer,
            weight_buffer=self._weight_buffer,
            output_buffer=self._output_buffer,
            uop_fifo_depth=self._config.uop_fifo_depth,
            counters=self._counters,
            name=f"{name}.execute",
        )
        self._cycles = 0

    # ------------------------------------------------------------------
    # Identity and sub-components
    # ------------------------------------------------------------------
    @property
    def pv_index(self) -> int:
        return self._pv_index

    @property
    def pe_index(self) -> int:
        return self._pe_index

    @property
    def access(self) -> AccessEngine:
        return self._access

    @property
    def execute(self) -> ExecuteEngine:
        return self._execute

    @property
    def input_buffer(self) -> Scratchpad:
        return self._input_buffer

    @property
    def weight_buffer(self) -> Scratchpad:
        return self._weight_buffer

    @property
    def output_buffer(self) -> Scratchpad:
        return self._output_buffer

    @property
    def counters(self) -> EventCounters:
        return self._counters

    @property
    def cycles(self) -> int:
        return self._cycles

    @property
    def busy(self) -> bool:
        """True while either µ-engine has outstanding work."""
        return self._access.busy or self._execute.busy

    # ------------------------------------------------------------------
    # Control interface (driven by the global controller / PV)
    # ------------------------------------------------------------------
    def apply_access_cfg(
        self, generator: AddressGenerator, register: ConfigRegister, value: int
    ) -> None:
        self._access.write_register(generator, register, value)

    def start_generator(self, generator: AddressGenerator) -> None:
        self._access.start(generator)

    def stop_generator(self, generator: AddressGenerator) -> None:
        self._access.stop(generator)

    def generator_running(self, generator: AddressGenerator) -> bool:
        return self._access.generator(generator).running

    def set_repeat_register(self, value: int) -> None:
        self._execute.set_repeat_register(value)

    def enqueue_uop(self, uop: MicroOp) -> bool:
        """Push a dispatched execute-group µop; False when the FIFO is full."""
        if not isinstance(uop, (ExecuteUop, RepeatUop)):
            raise SimulationError(f"PE cannot execute {uop!r}")
        return self._execute.enqueue(uop)

    # ------------------------------------------------------------------
    # Data movement helpers (modelled as fills from the global buffer)
    # ------------------------------------------------------------------
    def load_input_row(self, values: Iterable[float], base: int = 0) -> None:
        values = list(values)
        self._input_buffer.load(values, base=base)
        self._count_fill(len(values))

    def load_weight_row(self, values: Iterable[float], base: int = 0) -> None:
        values = list(values)
        self._weight_buffer.load(values, base=base)
        self._count_fill(len(values))

    def read_output_row(self, count: int, base: int = 0) -> List[float]:
        return self._output_buffer.dump(base=base, count=count)

    def clear_output(self) -> None:
        self._output_buffer.clear()

    def _count_fill(self, words: int) -> None:
        """A buffer fill reads the global buffer and crosses the NoC once per word."""
        self._counters.global_buffer_reads += words
        self._counters.noc_transfers += words

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Advance both µ-engines one cycle; True if the execute engine worked."""
        self._cycles += 1
        self._access.tick()
        return self._execute.tick()

    @property
    def quiet(self) -> bool:
        """True when a tick would only count one stall cycle.

        Neither µ-engine can move: no generator can push an address and the
        execute engine has nothing it can issue.  A quiet PE stays quiet until
        the controller enqueues a µop or starts one of its generators.
        """
        return self._execute.waiting and not self._access.can_push

    def idle(self, cycles: int) -> None:
        """Count ``cycles`` quiet ticks at once: each is one cycle and one stall."""
        self._cycles += cycles
        self._execute.add_stall_cycles(cycles)
