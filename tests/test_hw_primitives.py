"""Unit tests for FIFOs, scratchpads and event counters."""

from __future__ import annotations

import pytest

from repro.errors import BufferError_, FifoError
from repro.hw.counters import EventCounters
from repro.hw.fifo import Fifo
from repro.hw.sram import Scratchpad


class TestFifo:
    def test_push_pop_order(self):
        fifo = Fifo(depth=4)
        for value in (1, 2, 3):
            fifo.push(value)
        assert [fifo.pop(), fifo.pop(), fifo.pop()] == [1, 2, 3]

    def test_full_push_raises(self):
        fifo = Fifo(depth=2)
        fifo.push(1)
        fifo.push(2)
        with pytest.raises(FifoError):
            fifo.push(3)

    def test_empty_pop_raises(self):
        with pytest.raises(FifoError):
            Fifo(depth=1).pop()

    def test_try_push_reports_stall(self):
        fifo = Fifo(depth=1)
        assert fifo.try_push(1)
        assert not fifo.try_push(2)
        assert fifo.snapshot() == [1]

    def test_try_pop_returns_none_when_empty(self):
        fifo = Fifo(depth=1)
        assert fifo.try_pop() is None

    def test_peek_does_not_remove(self):
        fifo = Fifo(depth=2)
        fifo.push(42)
        assert fifo.peek() == 42
        assert fifo.occupancy == 1

    def test_occupancy_and_flags(self):
        fifo = Fifo(depth=2)
        assert fifo.is_empty and not fifo.is_full
        fifo.push(1)
        fifo.push(2)
        assert fifo.is_full and not fifo.is_empty

    def test_invalid_depth(self):
        with pytest.raises(FifoError):
            Fifo(depth=0)

    def test_clear_empties_the_fifo(self):
        fifo = Fifo(depth=4)
        fifo.push(1)
        fifo.clear()
        assert fifo.is_empty

    def test_snapshot_returns_copy(self):
        fifo = Fifo(depth=3)
        fifo.push(1)
        fifo.push(2)
        snap = fifo.snapshot()
        snap.append(99)
        assert fifo.occupancy == 2


class TestScratchpad:
    def test_write_then_read(self):
        pad = Scratchpad(words=8)
        pad.write(3, 1.5)
        assert pad.read(3) == 1.5

    def test_unwritten_reads_zero(self):
        pad = Scratchpad(words=4)
        assert pad.read(0) == 0.0

    def test_out_of_range_raises(self):
        pad = Scratchpad(words=4)
        with pytest.raises(BufferError_):
            pad.read(4)
        with pytest.raises(BufferError_):
            pad.write(-1, 1.0)

    def test_access_counting_into_event_counters(self):
        counters = EventCounters()
        pad = Scratchpad(words=4, counters=counters)
        pad.write(0, 1.0)
        pad.read(0)
        assert counters.register_file_writes == 1
        assert counters.register_file_reads == 1

    def test_bulk_load_does_not_count(self):
        counters = EventCounters()
        pad = Scratchpad(words=4, counters=counters)
        pad.load([1.0, 2.0, 3.0])
        assert counters.register_file_writes == 0
        assert pad.read(1) == 2.0

    def test_bulk_load_overflow_raises(self):
        with pytest.raises(BufferError_):
            Scratchpad(words=2).load([1.0, 2.0, 3.0])

    def test_dump_roundtrip(self):
        pad = Scratchpad(words=4)
        pad.load([1.0, 2.0, 3.0, 4.0])
        assert pad.dump() == [1.0, 2.0, 3.0, 4.0]
        assert pad.dump(base=1, count=2) == [2.0, 3.0]

    def test_clear_zeroes_contents(self):
        pad = Scratchpad(words=2)
        pad.write(0, 5.0)
        pad.clear()
        assert pad.read(0) == 0.0

    def test_statistics(self):
        pad = Scratchpad(words=2)
        pad.write(0, 1.0)
        pad.read(0)
        stats = pad.statistics()
        assert stats["reads"] == 1 and stats["writes"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(BufferError_):
            Scratchpad(words=0)


class TestEventCounters:
    def test_addition(self):
        a = EventCounters(mac_ops=5, dram_reads=2)
        b = EventCounters(mac_ops=3, noc_transfers=7)
        total = a + b
        assert total.mac_ops == 8
        assert total.dram_reads == 2
        assert total.noc_transfers == 7

    def test_in_place_add_returns_self(self):
        a = EventCounters(mac_ops=1)
        result = a.add(EventCounters(mac_ops=2))
        assert result is a
        assert a.mac_ops == 3

    def test_scaled(self):
        counters = EventCounters(mac_ops=10, register_file_reads=4)
        scaled = counters.scaled(2.5)
        assert scaled.mac_ops == 25
        assert scaled.register_file_reads == 10

    def test_derived_totals(self):
        counters = EventCounters(
            register_file_reads=3, register_file_writes=2,
            global_buffer_reads=5, global_buffer_writes=1,
            dram_reads=7, dram_writes=3,
        )
        assert counters.register_file_accesses == 5
        assert counters.global_buffer_accesses == 6
        assert counters.dram_accesses == 10

    def test_integer_scale_is_exact_beyond_float64(self):
        big = 2**53 + 1  # not representable as a float64
        scaled = EventCounters(mac_ops=big, dram_reads=7).scaled(3)
        assert scaled.mac_ops == 3 * big
        assert scaled.dram_reads == 21
        assert type(scaled.mac_ops) is int

    def test_fractional_scale_rounds_half_to_even(self):
        counters = EventCounters(mac_ops=1, gated_ops=3, alu_ops=5, dram_reads=7)
        scaled = counters.scaled(0.5)
        assert (scaled.mac_ops, scaled.gated_ops, scaled.alu_ops, scaled.dram_reads) == (
            0, 2, 2, 4
        )
        assert all(type(value) is int for value in scaled.as_dict().values())
