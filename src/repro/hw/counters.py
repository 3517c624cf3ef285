"""Event counters shared by the hardware models.

Every hardware primitive (buffers, DRAM, NoC, PEs) records its activity into
an :class:`EventCounters` instance.  The energy model later converts those
counts into picojoules using the per-bit costs of Table II, and the
performance model uses some of them (e.g. DRAM bytes) for roofline bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, Tuple


@dataclass
class EventCounters:
    """Mutable activity counters for one simulated component or accelerator.

    All counters are in *events*; bit conversion happens in the energy model.

    Attributes
    ----------
    mac_ops:
        Multiply-accumulate operations actually performed (consequential).
    gated_ops:
        Operations suppressed by zero gating: a cycle is spent but the
        datapath is gated, costing only a small fraction of the MAC energy.
    alu_ops:
        Non-MAC ALU operations (adds for accumulation, comparisons, ...).
    register_file_reads / register_file_writes:
        Accesses to the per-PE register files (input/weight/psum registers).
    noc_transfers:
        Word transfers over the inter-PE network (psum forwarding, filter-row
        multicast hops).
    global_buffer_reads / global_buffer_writes:
        Word accesses to the shared on-chip global data buffer.
    dram_reads / dram_writes:
        Word accesses to off-chip DRAM.
    uop_fetches:
        Micro-op fetches (global or local µop buffer reads).
    index_generations:
        Addresses produced by the strided µindex generators.
    """

    mac_ops: int = 0
    gated_ops: int = 0
    alu_ops: int = 0
    register_file_reads: int = 0
    register_file_writes: int = 0
    noc_transfers: int = 0
    global_buffer_reads: int = 0
    global_buffer_writes: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    uop_fetches: int = 0
    index_generations: int = 0

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------
    def add(self, other: "EventCounters") -> "EventCounters":
        """Accumulate ``other`` into this instance and return ``self``."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _FIELDS:
            mine[name] += theirs[name]
        return self

    def __add__(self, other: "EventCounters") -> "EventCounters":
        result = EventCounters()
        result.add(self)
        result.add(other)
        return result

    def scaled(self, factor: float) -> "EventCounters":
        """Return a copy with every counter multiplied by ``factor``.

        Used to scale a single representative window / row to the whole
        layer.  Counts are rounded to the nearest integer (half-to-even).
        An integer factor (the batch size on the pricing hot path) skips the
        ``int(round(...))`` calls, which are a no-op on an integer product;
        that halves the cost of a call.
        """
        values = self.__dict__
        if type(factor) is int:
            return EventCounters(*[values[name] * factor for name in _FIELDS])
        return EventCounters(
            *[int(round(values[name] * factor)) for name in _FIELDS]
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain dict view (stable field order), useful for reports/tests."""
        values = self.__dict__
        return {name: values[name] for name in _FIELDS}

    @property
    def register_file_accesses(self) -> int:
        return self.register_file_reads + self.register_file_writes

    @property
    def global_buffer_accesses(self) -> int:
        return self.global_buffer_reads + self.global_buffer_writes

    @property
    def dram_accesses(self) -> int:
        return self.dram_reads + self.dram_writes

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.as_dict().items())


#: Counter names in declaration order; the aggregation helpers loop over this
#: instead of re-deriving it with :func:`dataclasses.fields` on every call.
_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(EventCounters))
