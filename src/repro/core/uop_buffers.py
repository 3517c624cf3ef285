"""Hierarchical µop buffers (paper Section III-A).

GANAX uses a two-level µop buffer hierarchy:

* one **global µop buffer** (32 entries x 64 bits) shared by the whole array,
  holding the statically-translated µop stream of the current layer; it is
  double-buffered so the next layer's µops can be loaded while the current
  layer executes, and
* one **local µop buffer** per processing vector (16 entries x 16 bits),
  preloaded once with the small set of execute µops, which a ``mimd.exe``
  global µop indexes with a 4-bit field per PV.

In SIMD mode the local buffers are bypassed and the global µop is broadcast
to every PE; in MIMD-SIMD mode each PV fetches the µop its index selects and
broadcasts it to its own PEs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ProgramError, SimulationError
from ..hw.counters import EventCounters
from ..isa.uops import ExecuteUop, MicroOp, RepeatUop


class LocalUopBuffer:
    """Per-PV local µop buffer."""

    def __init__(
        self,
        entries: int,
        pv_index: int,
        counters: Optional[EventCounters] = None,
    ) -> None:
        if entries <= 0:
            raise SimulationError("local µop buffer must have at least one entry")
        self._entries = entries
        self._pv_index = pv_index
        self._uops: List[MicroOp] = []
        self._counters = counters
        self._fetches = 0

    @property
    def capacity(self) -> int:
        return self._entries

    @property
    def occupancy(self) -> int:
        return len(self._uops)

    @property
    def fetches(self) -> int:
        return self._fetches

    def preload(self, uops: Sequence[MicroOp]) -> None:
        """Load the buffer contents before execution starts."""
        uops = list(uops)
        if len(uops) > self._entries:
            raise ProgramError(
                f"PV {self._pv_index}: {len(uops)} µops exceed the local buffer "
                f"capacity of {self._entries}"
            )
        for uop in uops:
            if not isinstance(uop, (ExecuteUop, RepeatUop)):
                raise ProgramError(
                    f"PV {self._pv_index}: {uop!r} cannot live in a local µop buffer"
                )
        self._uops = uops

    def fetch(self, index: int) -> MicroOp:
        """Fetch the µop at ``index`` (the MIMD-SIMD path)."""
        if not (0 <= index < len(self._uops)):
            raise SimulationError(
                f"PV {self._pv_index}: local µop index {index} out of range "
                f"(buffer holds {len(self._uops)} µops)"
            )
        self._fetches += 1
        if self._counters is not None:
            self._counters.uop_fetches += 1
        return self._uops[index]

    def contents(self) -> Tuple[MicroOp, ...]:
        return tuple(self._uops)


class GlobalUopBuffer:
    """The double-buffered global µop buffer.

    The buffer holds ``entries`` µops at a time; programs longer than one
    buffer's worth are streamed in refills (the double-buffering hides the
    refill latency, so the model charges only the fetch energy).
    """

    def __init__(
        self,
        entries: int,
        counters: Optional[EventCounters] = None,
    ) -> None:
        if entries <= 0:
            raise SimulationError("global µop buffer must have at least one entry")
        self._entries = entries
        self._counters = counters
        self._stream: List[MicroOp] = []
        self._pc = 0
        self._fetches = 0
        self._refills = 0

    @property
    def capacity(self) -> int:
        return self._entries

    @property
    def fetches(self) -> int:
        return self._fetches

    @property
    def refills(self) -> int:
        """Number of times a fresh window of µops had to be streamed in."""
        return self._refills

    @property
    def exhausted(self) -> bool:
        return self._pc >= len(self._stream)

    def load_program(self, uops: Sequence[MicroOp]) -> None:
        """Load a (possibly multi-window) µop stream and reset the PC."""
        self._stream = list(uops)
        self._pc = 0
        self._refills = max(0, (len(self._stream) - 1)) // self._entries

    def peek(self) -> Optional[MicroOp]:
        """The µop the controller would dispatch next (None when exhausted)."""
        if self.exhausted:
            return None
        return self._stream[self._pc]

    def advance(self) -> MicroOp:
        """Consume the current µop (called once the dispatch succeeded)."""
        if self.exhausted:
            raise SimulationError("global µop buffer is exhausted")
        uop = self._stream[self._pc]
        self._pc += 1
        self._fetches += 1
        if self._counters is not None:
            self._counters.uop_fetches += 1
        return uop

    def remaining(self) -> int:
        return len(self._stream) - self._pc
