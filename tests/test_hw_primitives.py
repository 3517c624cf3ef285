"""Unit tests for FIFOs, scratchpads, DRAM, NoC and event counters."""

from __future__ import annotations

import pytest

from repro.errors import BufferError_, FifoError, HardwareError
from repro.hw.counters import EventCounters
from repro.hw.dram import DramModel, DramTraffic
from repro.hw.fifo import Fifo
from repro.hw.noc import NocModel
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
        assert fifo.full_stalls == 1

    def test_try_pop_returns_none_when_empty(self):
        fifo = Fifo(depth=1)
        assert fifo.try_pop() is None
        assert fifo.empty_stalls == 1

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

    def test_statistics_track_traffic(self):
        fifo = Fifo(depth=4)
        for i in range(4):
            fifo.push(i)
        for _ in range(4):
            fifo.pop()
        assert fifo.total_pushes == 4
        assert fifo.total_pops == 4

    def test_clear_preserves_statistics(self):
        fifo = Fifo(depth=4)
        fifo.push(1)
        fifo.clear()
        assert fifo.is_empty
        assert fifo.total_pushes == 1

    def test_invalid_depth(self):
        with pytest.raises(FifoError):
            Fifo(depth=0)

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
        assert not pad.is_written(0)

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


class TestDram:
    def test_traffic_accumulation(self):
        dram = DramModel(bandwidth_bytes_per_cycle=16, data_bytes=2)
        dram.read_words(100)
        dram.write_words(50)
        assert dram.bytes_read == 200
        assert dram.bytes_written == 100
        assert dram.total_bytes == 300

    def test_traffic_cycles_roofline(self):
        dram = DramModel(bandwidth_bytes_per_cycle=16, data_bytes=2)
        traffic = DramTraffic(bytes_read=160, bytes_written=0)
        assert dram.traffic_cycles(traffic) == 10

    def test_traffic_cycles_from_recorded(self):
        dram = DramModel(bandwidth_bytes_per_cycle=8, data_bytes=2)
        dram.read_words(40)  # 80 bytes
        assert dram.traffic_cycles() == 10

    def test_counters_integration(self):
        counters = EventCounters()
        dram = DramModel(bandwidth_bytes_per_cycle=16, counters=counters)
        dram.read_words(5)
        dram.write_words(3)
        assert counters.dram_reads == 5
        assert counters.dram_writes == 3

    def test_record_traffic(self):
        dram = DramModel(bandwidth_bytes_per_cycle=16, data_bytes=2)
        dram.record_traffic(DramTraffic(bytes_read=20, bytes_written=10))
        assert dram.bytes_read == 20
        assert dram.bytes_written == 10

    def test_negative_traffic_rejected(self):
        with pytest.raises(HardwareError):
            DramTraffic(bytes_read=-1, bytes_written=0)
        dram = DramModel(bandwidth_bytes_per_cycle=16)
        with pytest.raises(HardwareError):
            dram.read_words(-1)

    def test_traffic_addition(self):
        total = DramTraffic(10, 5) + DramTraffic(1, 2)
        assert total.bytes_read == 11 and total.bytes_written == 7

    def test_invalid_bandwidth(self):
        with pytest.raises(HardwareError):
            DramModel(bandwidth_bytes_per_cycle=0)

    def test_reset(self):
        dram = DramModel(bandwidth_bytes_per_cycle=16)
        dram.read_words(10)
        dram.reset()
        assert dram.total_bytes == 0


class TestNoc:
    def test_multicast_counts_per_destination(self):
        counters = EventCounters()
        noc = NocModel(rows=4, cols=4, counters=counters)
        noc.multicast(words=10, destinations=4)
        assert noc.statistics.multicast_transfers == 40
        assert counters.noc_transfers == 40

    def test_psum_forwarding(self):
        noc = NocModel(rows=4, cols=4)
        noc.forward_psum(words=8, hops=3)
        assert noc.statistics.psum_transfers == 24

    def test_accumulation_latency(self):
        noc = NocModel(rows=4, cols=4)
        assert noc.accumulation_latency(5) == 5
        assert noc.accumulation_latency(0) == 0

    def test_negative_traffic_rejected(self):
        noc = NocModel(rows=2, cols=2)
        with pytest.raises(HardwareError):
            noc.multicast(-1, 2)
        with pytest.raises(HardwareError):
            noc.forward_psum(1, -1)

    def test_invalid_dimensions(self):
        with pytest.raises(HardwareError):
            NocModel(rows=0, cols=4)

    def test_reset(self):
        noc = NocModel(rows=2, cols=2)
        noc.multicast(4, 2)
        noc.reset()
        assert noc.statistics.total_transfers == 0


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

    def test_dict_roundtrip(self):
        counters = EventCounters(mac_ops=1, gated_ops=2, dram_writes=3)
        assert EventCounters.from_dict(counters.as_dict()) == counters

    def test_derived_totals(self):
        counters = EventCounters(
            register_file_reads=3, register_file_writes=2,
            global_buffer_reads=5, global_buffer_writes=1,
            dram_reads=7, dram_writes=3,
        )
        assert counters.register_file_accesses == 5
        assert counters.global_buffer_accesses == 6
        assert counters.dram_accesses == 10

    def test_total_events(self):
        counters = EventCounters(mac_ops=1, alu_ops=2)
        assert counters.total_events() == 3

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
