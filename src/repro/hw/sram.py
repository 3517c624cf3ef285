"""On-chip scratchpad buffers (register files, weight SRAM, data buffers).

The cycle-level machine uses :class:`Scratchpad` for the per-PE input, weight
and output buffers and for the shared global data buffer.  Every read and
write is counted so the energy model can convert accesses into picojoules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import BufferError_
from .counters import EventCounters


class Scratchpad:
    """A word-addressable on-chip buffer with access counting.

    Parameters
    ----------
    words:
        Capacity of the buffer in data words.
    name:
        Human-readable name used in error messages and statistics.
    counters:
        Optional shared :class:`EventCounters`; when provided, reads and
        writes are recorded into the given counter attributes.
    read_counter / write_counter:
        Names of the :class:`EventCounters` fields to increment on accesses
        (e.g. ``"register_file_reads"`` or ``"global_buffer_reads"``).
    """

    def __init__(
        self,
        words: int,
        name: str = "scratchpad",
        counters: Optional[EventCounters] = None,
        read_counter: str = "register_file_reads",
        write_counter: str = "register_file_writes",
    ) -> None:
        if words <= 0:
            raise BufferError_(f"{name}: capacity must be positive, got {words}")
        self._name = name
        self._data = np.zeros(words, dtype=np.float64)
        self._counters = counters
        self._read_counter = read_counter
        self._write_counter = write_counter
        self._reads = 0
        self._writes = 0

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def capacity(self) -> int:
        return int(self._data.shape[0])

    @property
    def reads(self) -> int:
        return self._reads

    @property
    def writes(self) -> int:
        return self._writes

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _check_address(self, address: int) -> None:
        if not (0 <= address < self.capacity):
            raise BufferError_(
                f"{self._name}: address {address} out of range [0, {self.capacity})"
            )

    def read(self, address: int) -> float:
        """Read one word; reading a never-written word returns 0.0."""
        self._check_address(address)
        self._reads += 1
        if self._counters is not None:
            setattr(
                self._counters,
                self._read_counter,
                getattr(self._counters, self._read_counter) + 1,
            )
        return float(self._data[address])

    def write(self, address: int, value: float) -> None:
        """Write one word."""
        self._check_address(address)
        self._writes += 1
        if self._counters is not None:
            setattr(
                self._counters,
                self._write_counter,
                getattr(self._counters, self._write_counter) + 1,
            )
        self._data[address] = value

    def load(self, values: Iterable[float], base: int = 0) -> None:
        """Bulk-initialise contents without counting accesses (DMA fill)."""
        values = list(values)
        if base < 0 or base + len(values) > self.capacity:
            raise BufferError_(
                f"{self._name}: bulk load of {len(values)} words at base {base} "
                f"exceeds capacity {self.capacity}"
            )
        self._data[base : base + len(values)] = values

    def dump(self, base: int = 0, count: Optional[int] = None) -> List[float]:
        """Copy contents without counting accesses (for result collection)."""
        if count is None:
            count = self.capacity - base
        if base < 0 or base + count > self.capacity:
            raise BufferError_(
                f"{self._name}: dump of {count} words at base {base} exceeds "
                f"capacity {self.capacity}"
            )
        return [float(v) for v in self._data[base : base + count]]

    def clear(self) -> None:
        """Zero the contents (statistics are preserved)."""
        self._data[:] = 0.0

    def statistics(self) -> Dict[str, int]:
        """Access statistics for reports and tests."""
        return {"reads": self._reads, "writes": self._writes, "capacity": self.capacity}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scratchpad(name={self._name!r}, words={self.capacity})"
