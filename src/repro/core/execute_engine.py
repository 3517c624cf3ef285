"""Execute µ-engine: µop FIFO, ALU and accumulator register (Figure 7a).

The execute µ-engine consumes one µop per cycle from its µop FIFO.  Execute
µops carry no operand addresses; the engine pops source/destination addresses
from the access µ-engine's address FIFOs and reads/writes the PE-local data
buffers.  When the µop FIFO is empty — or a needed address FIFO is empty —
the engine stalls, which is exactly the decoupled synchronisation the paper
describes.

Supported operations mirror the SIMD µop group: ``add``, ``mul``, ``mac``,
``pool``, ``act`` plus the ``repeat`` prefix that re-executes the following
µop a register-defined number of times.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..hw.fifo import Fifo
from ..hw.sram import Scratchpad
from ..isa.uops import AddressGenerator, ExecuteOp, ExecuteUop, MicroOp, RepeatUop
from .access_engine import AccessEngine


def _sigmoid(x: float) -> float:
    """Logistic function; exp() only ever sees a non-positive argument."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


_ACTIVATIONS: Dict[str, Callable[[float], float]] = {
    "relu": lambda x: max(x, 0.0),
    "leaky_relu": lambda x: x if x >= 0 else 0.2 * x,
    "tanh": math.tanh,
    "sigmoid": _sigmoid,
    "identity": lambda x: x,
}


class ExecuteEngine:
    """The execute µ-engine of one GANAX processing engine."""

    def __init__(
        self,
        access: AccessEngine,
        input_buffer: Scratchpad,
        weight_buffer: Scratchpad,
        output_buffer: Scratchpad,
        uop_fifo_depth: int = 8,
        counters: Optional[EventCounters] = None,
        name: str = "execute",
    ) -> None:
        self._name = name
        self._access = access
        self._input = input_buffer
        self._weight = weight_buffer
        self._output = output_buffer
        self._counters = counters if counters is not None else EventCounters()
        self._uop_fifo: Fifo[MicroOp] = Fifo(depth=uop_fifo_depth, name=f"{name}.uop_fifo")
        self._accumulator = 0.0
        self._repeat_register = 1
        self._pending_repeats = 0
        self._pending_uop: Optional[ExecuteUop] = None
        self._executed_uops = 0
        self._busy_cycles = 0
        self._stall_cycles = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def accumulator(self) -> float:
        return self._accumulator

    @property
    def executed_uops(self) -> int:
        return self._executed_uops

    @property
    def busy_cycles(self) -> int:
        return self._busy_cycles

    @property
    def stall_cycles(self) -> int:
        return self._stall_cycles

    @property
    def uop_fifo(self) -> Fifo[MicroOp]:
        return self._uop_fifo

    @property
    def busy(self) -> bool:
        """True while µops are queued or a repeated µop is still running."""
        return not self._uop_fifo.is_empty or self._pending_repeats > 0

    @property
    def waiting(self) -> bool:
        """True when a tick can only stall: nothing is queued that can issue.

        No repeat is pending, and the µop FIFO is empty or holds a repeat
        prefix whose follower has not arrived.
        """
        if self._pending_repeats > 0:
            return False
        head = self._uop_fifo.peek()
        return head is None or (
            isinstance(head, RepeatUop) and self._uop_fifo.occupancy < 2
        )

    # ------------------------------------------------------------------
    # Control interface
    # ------------------------------------------------------------------
    def add_stall_cycles(self, cycles: int) -> None:
        """Count ``cycles`` stalls the machine skipped while this engine waited."""
        self._stall_cycles += cycles

    def set_repeat_register(self, value: int) -> None:
        """The mimd.ld path: preload the repetition count register."""
        if value <= 0:
            raise SimulationError(f"{self._name}: repeat register must be positive")
        self._repeat_register = value

    def enqueue(self, uop: MicroOp) -> bool:
        """Push a dispatched µop into the µop FIFO (False if the FIFO is full)."""
        if not isinstance(uop, (ExecuteUop, RepeatUop)):
            raise SimulationError(f"{self._name}: {uop!r} is not an execute-group µop")
        return self._uop_fifo.try_push(uop)

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Advance one cycle; returns True if an operation was performed."""
        uop = self._next_uop()
        if uop is None:
            self._stall_cycles += 1
            return False
        performed = self._execute(uop)
        if performed:
            self._busy_cycles += 1
            self._executed_uops += 1
        else:
            # The operation could not proceed (address starvation): the µop
            # stays pending and the engine records a stall cycle.
            self._requeue(uop)
            self._stall_cycles += 1
        return performed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_uop(self) -> Optional[ExecuteUop]:
        if self._pending_repeats > 0 and self._pending_uop is not None:
            self._pending_repeats -= 1
            return self._pending_uop
        head = self._uop_fifo.peek()
        if head is None:
            return None
        if isinstance(head, RepeatUop):
            # A repeat prefix needs its follower in the FIFO before it can be
            # consumed; until then the engine stalls (the follower arrives on
            # a later dispatch cycle).
            if self._uop_fifo.occupancy < 2:
                return None
            self._uop_fifo.pop()
            follower = self._uop_fifo.pop()
            if not isinstance(follower, ExecuteUop):
                raise SimulationError(
                    f"{self._name}: repeat µop must be followed by an execute µop"
                )
            if self._counters is not None:
                self._counters.uop_fetches += 2
            count = head.count if head.count > 0 else self._repeat_register
            self._pending_uop = follower
            self._pending_repeats = count - 1
            return follower
        uop = self._uop_fifo.pop()
        if self._counters is not None:
            self._counters.uop_fetches += 1
        return uop

    def _requeue(self, uop: ExecuteUop) -> None:
        """Re-arm a µop that stalled on operand starvation."""
        if self._pending_uop is uop and self._pending_repeats >= 0:
            self._pending_repeats += 1
        else:
            self._pending_uop = uop
            self._pending_repeats = 1

    def _execute(self, uop: ExecuteUop) -> bool:
        op = uop.op
        if op is ExecuteOp.NOP:
            return True
        if op in (ExecuteOp.MAC, ExecuteOp.MUL, ExecuteOp.ADD):
            return self._execute_arithmetic(op)
        if op is ExecuteOp.ACT:
            return self._execute_activation(uop.activation)
        if op is ExecuteOp.POOL:
            return self._execute_pool()
        raise SimulationError(f"{self._name}: unsupported execute op {op}")

    def _execute_arithmetic(self, op: ExecuteOp) -> bool:
        if not (
            self._access.has_address(AddressGenerator.INPUT)
            and self._access.has_address(AddressGenerator.WEIGHT)
        ):
            return False
        in_addr = self._access.pop_address(AddressGenerator.INPUT)
        w_addr = self._access.pop_address(AddressGenerator.WEIGHT)
        assert in_addr is not None and w_addr is not None
        a = self._input.read(in_addr)
        b = self._weight.read(w_addr)
        if op is ExecuteOp.MAC:
            self._accumulator += a * b
        elif op is ExecuteOp.MUL:
            self._accumulator = a * b
        else:  # ADD
            self._accumulator = a + b
        if self._counters is not None:
            self._counters.mac_ops += 1
        return True

    def _execute_activation(self, activation: str) -> bool:
        if not self._access.has_address(AddressGenerator.OUTPUT):
            return False
        out_addr = self._access.pop_address(AddressGenerator.OUTPUT)
        assert out_addr is not None
        function = _ACTIVATIONS.get(activation)
        if function is None:
            raise SimulationError(f"{self._name}: unknown activation '{activation}'")
        self._output.write(out_addr, function(self._accumulator))
        self._accumulator = 0.0
        if self._counters is not None:
            self._counters.alu_ops += 1
        return True

    def _execute_pool(self) -> bool:
        """Max pooling over the addresses currently queued in the input FIFO."""
        if not (
            self._access.has_address(AddressGenerator.INPUT)
            and self._access.has_address(AddressGenerator.OUTPUT)
        ):
            return False
        values = []
        while self._access.has_address(AddressGenerator.INPUT):
            addr = self._access.pop_address(AddressGenerator.INPUT)
            assert addr is not None
            values.append(self._input.read(addr))
        out_addr = self._access.pop_address(AddressGenerator.OUTPUT)
        assert out_addr is not None
        self._output.write(out_addr, max(values))
        if self._counters is not None:
            self._counters.alu_ops += len(values)
        return True
