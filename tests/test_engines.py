"""Unit tests for the access µ-engine, execute µ-engine, PE and PV."""

from __future__ import annotations

import pytest

from repro.config import ArchitectureConfig
from repro.core.access_engine import AccessEngine
from repro.core.execute_engine import ExecuteEngine
from repro.core.index_generator import GeneratorConfig
from repro.core.pe import ProcessingEngine
from repro.core.pv import ProcessingVector
from repro.core.uop_buffers import GlobalUopBuffer, LocalUopBuffer
from repro.errors import ProgramError, SimulationError
from repro.hw.counters import EventCounters
from repro.hw.sram import Scratchpad
from repro.isa.uops import AddressGenerator, ConfigRegister, ExecuteOp, ExecuteUop, RepeatUop


def _make_access(depth=4) -> AccessEngine:
    return AccessEngine(fifo_depth=depth, counters=EventCounters())


class TestAccessEngine:
    def test_addresses_flow_into_fifo(self):
        access = _make_access()
        access.configure(AddressGenerator.INPUT, GeneratorConfig(end=3, repeat=1))
        access.start(AddressGenerator.INPUT)
        produced = sum(access.tick() for _ in range(5))
        assert produced == 3
        assert [access.pop_address(AddressGenerator.INPUT) for _ in range(3)] == [0, 1, 2]

    def test_full_fifo_applies_backpressure(self):
        access = _make_access(depth=2)
        access.configure(AddressGenerator.INPUT, GeneratorConfig(end=10, repeat=1))
        access.start(AddressGenerator.INPUT)
        for _ in range(5):
            access.tick()
        # Only two addresses could be buffered; the generator is stalled, not done.
        assert access.fifo(AddressGenerator.INPUT).occupancy == 2
        assert access.generator(AddressGenerator.INPUT).running

    def test_backpressure_resumes_after_pop(self):
        access = _make_access(depth=1)
        access.configure(AddressGenerator.WEIGHT, GeneratorConfig(end=3, repeat=1))
        access.start(AddressGenerator.WEIGHT)
        access.tick()
        assert access.pop_address(AddressGenerator.WEIGHT) == 0
        access.tick()
        assert access.pop_address(AddressGenerator.WEIGHT) == 1

    def test_three_independent_streams(self):
        access = _make_access()
        for stream, base in zip(AddressGenerator, (0, 10, 20)):
            access.configure(stream, GeneratorConfig(offset=base, end=2, repeat=1))
            access.start(stream)
        access.tick()
        assert access.pop_address(AddressGenerator.INPUT) == 0
        assert access.pop_address(AddressGenerator.WEIGHT) == 10
        assert access.pop_address(AddressGenerator.OUTPUT) == 20

    def test_busy_reflects_pending_work(self):
        access = _make_access()
        assert not access.busy
        access.configure(AddressGenerator.INPUT, GeneratorConfig(end=1, repeat=1))
        access.start(AddressGenerator.INPUT)
        assert access.busy
        access.tick()
        access.pop_address(AddressGenerator.INPUT)
        assert not access.busy

    def test_index_generation_counter(self):
        counters = EventCounters()
        access = AccessEngine(fifo_depth=4, counters=counters)
        access.configure(AddressGenerator.INPUT, GeneratorConfig(end=3, repeat=1))
        access.start(AddressGenerator.INPUT)
        for _ in range(3):
            access.tick()
        assert counters.index_generations == 3

    def test_invalid_depth_rejected(self):
        with pytest.raises(SimulationError):
            AccessEngine(fifo_depth=0)


def _make_execute():
    counters = EventCounters()
    access = AccessEngine(fifo_depth=8, counters=counters)
    input_buffer = Scratchpad(words=16, counters=counters)
    weight_buffer = Scratchpad(words=16, counters=counters)
    output_buffer = Scratchpad(words=16, counters=counters)
    engine = ExecuteEngine(
        access=access,
        input_buffer=input_buffer,
        weight_buffer=weight_buffer,
        output_buffer=output_buffer,
        counters=counters,
    )
    return engine, access, input_buffer, weight_buffer, output_buffer


class TestExecuteEngine:
    def test_mac_accumulates(self):
        engine, access, inp, wgt, _ = _make_execute()
        inp.load([1.0, 2.0, 3.0])
        wgt.load([10.0, 20.0, 30.0])
        access.configure(AddressGenerator.INPUT, GeneratorConfig(end=3, repeat=1))
        access.configure(AddressGenerator.WEIGHT, GeneratorConfig(end=3, repeat=1))
        access.start(AddressGenerator.INPUT)
        access.start(AddressGenerator.WEIGHT)
        for _ in range(3):
            engine.enqueue(ExecuteUop(op=ExecuteOp.MAC))
        for _ in range(6):
            access.tick()
            engine.tick()
        assert engine.accumulator == pytest.approx(1 * 10 + 2 * 20 + 3 * 30)

    def test_act_writes_and_resets_accumulator(self):
        engine, access, inp, wgt, out = _make_execute()
        inp.load([2.0])
        wgt.load([3.0])
        for stream, end in ((AddressGenerator.INPUT, 1), (AddressGenerator.WEIGHT, 1), (AddressGenerator.OUTPUT, 1)):
            access.configure(stream, GeneratorConfig(offset=0, end=end, repeat=1))
            access.start(stream)
        engine.enqueue(ExecuteUop(op=ExecuteOp.MAC))
        engine.enqueue(ExecuteUop(op=ExecuteOp.ACT, activation="identity"))
        for _ in range(6):
            access.tick()
            engine.tick()
        assert out.read(0) == pytest.approx(6.0)
        assert engine.accumulator == 0.0

    def test_relu_activation_clamps(self):
        engine, access, inp, wgt, out = _make_execute()
        inp.load([1.0])
        wgt.load([-5.0])
        for stream in AddressGenerator:
            access.configure(stream, GeneratorConfig(end=1, repeat=1))
            access.start(stream)
        engine.enqueue(ExecuteUop(op=ExecuteOp.MAC))
        engine.enqueue(ExecuteUop(op=ExecuteOp.ACT, activation="relu"))
        for _ in range(6):
            access.tick()
            engine.tick()
        assert out.read(0) == 0.0

    @pytest.mark.parametrize("weight, expected", [(1.0, 1.0), (-1.0, 0.0)])
    def test_sigmoid_saturates_on_a_huge_accumulator(self, weight, expected):
        engine, access, inp, wgt, out = _make_execute()
        inp.load([1000.0])
        wgt.load([weight])
        for stream in AddressGenerator:
            access.configure(stream, GeneratorConfig(end=1, repeat=1))
            access.start(stream)
        engine.enqueue(ExecuteUop(op=ExecuteOp.MAC))
        engine.enqueue(ExecuteUop(op=ExecuteOp.ACT, activation="sigmoid"))
        for _ in range(6):
            access.tick()
            engine.tick()
        assert out.read(0) == expected

    def test_stalls_without_addresses(self):
        engine, _access, _inp, _wgt, _out = _make_execute()
        engine.enqueue(ExecuteUop(op=ExecuteOp.MAC))
        assert not engine.tick()
        assert engine.stall_cycles >= 1

    def test_stalls_with_empty_uop_fifo(self):
        engine, *_ = _make_execute()
        assert not engine.tick()
        assert engine.executed_uops == 0

    def test_repeat_waits_for_follower(self):
        engine, access, inp, wgt, _ = _make_execute()
        inp.load([1.0, 1.0])
        wgt.load([1.0, 1.0])
        access.configure(AddressGenerator.INPUT, GeneratorConfig(end=2, repeat=1))
        access.configure(AddressGenerator.WEIGHT, GeneratorConfig(end=2, repeat=1))
        access.start(AddressGenerator.INPUT)
        access.start(AddressGenerator.WEIGHT)
        engine.set_repeat_register(2)
        engine.enqueue(RepeatUop())
        # Follower not yet enqueued: the engine must stall, not crash.
        access.tick()
        assert not engine.tick()
        engine.enqueue(ExecuteUop(op=ExecuteOp.MAC))
        for _ in range(4):
            access.tick()
            engine.tick()
        assert engine.accumulator == pytest.approx(2.0)

    def test_repeat_register_validation(self):
        engine, *_ = _make_execute()
        with pytest.raises(SimulationError):
            engine.set_repeat_register(0)

    def test_nop_executes_without_operands(self):
        engine, *_ = _make_execute()
        engine.enqueue(ExecuteUop(op=ExecuteOp.NOP))
        assert engine.tick()

    def test_rejects_non_execute_uop(self):
        engine, *_ = _make_execute()
        from repro.isa.uops import AccessStart

        with pytest.raises(SimulationError):
            engine.enqueue(AccessStart(pv_index=0, generator=AddressGenerator.INPUT))


class TestProcessingEngine:
    def test_pe_runs_decoupled_pipeline(self, small_config):
        counters = EventCounters()
        pe = ProcessingEngine(0, 0, config=small_config, counters=counters,
                              input_words=16, weight_words=16, output_words=16)
        pe.load_input_row([1.0, 2.0, 3.0])
        pe.load_weight_row([4.0, 5.0, 6.0])
        pe.apply_access_cfg(AddressGenerator.INPUT, ConfigRegister.END, 3)
        pe.apply_access_cfg(AddressGenerator.INPUT, ConfigRegister.REPEAT, 1)
        pe.apply_access_cfg(AddressGenerator.WEIGHT, ConfigRegister.END, 3)
        pe.apply_access_cfg(AddressGenerator.WEIGHT, ConfigRegister.REPEAT, 1)
        pe.apply_access_cfg(AddressGenerator.OUTPUT, ConfigRegister.END, 1)
        pe.apply_access_cfg(AddressGenerator.OUTPUT, ConfigRegister.REPEAT, 1)
        for generator in AddressGenerator:
            pe.start_generator(generator)
        pe.set_repeat_register(3)
        pe.enqueue_uop(RepeatUop())
        pe.enqueue_uop(ExecuteUop(op=ExecuteOp.MAC))
        pe.enqueue_uop(ExecuteUop(op=ExecuteOp.ACT, activation="identity"))
        for _ in range(12):
            pe.tick()
        assert pe.read_output_row(1)[0] == pytest.approx(1 * 4 + 2 * 5 + 3 * 6)
        assert not pe.busy

    def test_buffer_fills_charge_gbuf_and_noc(self, small_config):
        counters = EventCounters()
        pe = ProcessingEngine(0, 0, config=small_config, counters=counters)
        pe.load_input_row([1.0] * 8)
        assert counters.global_buffer_reads == 8
        assert counters.noc_transfers == 8

    def test_generator_running_flag(self, small_config):
        pe = ProcessingEngine(0, 1, config=small_config)
        assert not pe.generator_running(AddressGenerator.INPUT)
        pe.apply_access_cfg(AddressGenerator.INPUT, ConfigRegister.END, 4)
        pe.apply_access_cfg(AddressGenerator.INPUT, ConfigRegister.REPEAT, 1)
        pe.start_generator(AddressGenerator.INPUT)
        assert pe.generator_running(AddressGenerator.INPUT)


class TestProcessingVector:
    def test_broadcast_is_all_or_nothing(self, small_config):
        pv = ProcessingVector(0, num_pes=2, config=small_config)
        uop = ExecuteUop(op=ExecuteOp.NOP)
        # Fill one PE's FIFO to force a rejected broadcast.
        target = pv.pe(0)
        while not target.execute.uop_fifo.is_full:
            target.enqueue_uop(uop)
        assert not pv.broadcast_uop(uop)
        # The other PE must not have received anything.
        assert pv.pe(1).execute.uop_fifo.is_empty

    def test_dispatch_local_fetches_from_buffer(self, small_config):
        counters = EventCounters()
        pv = ProcessingVector(0, num_pes=2, config=small_config, counters=counters)
        pv.preload_local_uops([ExecuteUop(op=ExecuteOp.NOP), ExecuteUop(op=ExecuteOp.MAC)])
        assert pv.dispatch_local(1)
        assert pv.pe(0).execute.uop_fifo.snapshot() == [ExecuteUop(op=ExecuteOp.MAC)]
        assert counters.uop_fetches == 1

    def test_accumulate_rows_sums_partial_outputs(self, small_config):
        pv = ProcessingVector(0, num_pes=3, config=small_config,
                              pe_buffer_words={"input": 8, "weight": 8, "output": 8})
        for index, pe in enumerate(pv.pes):
            pe.output_buffer.load([float(index + 1)] * 4)
        total = pv.accumulate_rows(width=4, active_pes=2)
        assert total == [3.0, 3.0, 3.0, 3.0]
        assert pv.accumulation_cycles == 4 + 2

    def test_accumulate_validation(self, small_config):
        pv = ProcessingVector(0, num_pes=2, config=small_config)
        with pytest.raises(SimulationError):
            pv.accumulate_rows(width=0)
        with pytest.raises(SimulationError):
            pv.accumulate_rows(width=4, active_pes=5)

    def test_set_repeat_register_broadcasts(self, small_config):
        pv = ProcessingVector(0, num_pes=2, config=small_config)
        pv.set_repeat_register(7)
        for pe in pv.pes:
            # A count-0 repeat runs its follower repeat-register times.
            pe.enqueue_uop(RepeatUop(count=0))
            pe.enqueue_uop(ExecuteUop(op=ExecuteOp.NOP))
            while pe.execute.busy:
                pe.execute.tick()
        assert [pe.execute.executed_uops for pe in pv.pes] == [7, 7]


class TestUopBuffers:
    def test_local_buffer_capacity(self):
        buffer = LocalUopBuffer(entries=2, pv_index=0)
        with pytest.raises(ProgramError):
            buffer.preload([ExecuteUop(op=ExecuteOp.MAC)] * 3)

    def test_local_buffer_fetch_counts(self):
        counters = EventCounters()
        buffer = LocalUopBuffer(entries=4, pv_index=0, counters=counters)
        buffer.preload([ExecuteUop(op=ExecuteOp.MAC)])
        buffer.fetch(0)
        assert counters.uop_fetches == 1
        with pytest.raises(SimulationError):
            buffer.fetch(1)

    def test_local_buffer_rejects_global_uops(self):
        from repro.isa.uops import MimdLoad

        buffer = LocalUopBuffer(entries=4, pv_index=0)
        with pytest.raises(ProgramError):
            buffer.preload([MimdLoad(pv_index=0, destination="repeat", immediate=1)])

    def test_global_buffer_streams_in_order(self):
        buffer = GlobalUopBuffer(entries=4)
        uops = [ExecuteUop(op=ExecuteOp.MAC), RepeatUop(count=2)]
        buffer.load_program(uops)
        assert buffer.peek() == uops[0]
        assert buffer.advance() == uops[0]
        assert buffer.advance() == uops[1]
        assert buffer.exhausted
        assert buffer.peek() is None

    def test_global_buffer_refill_count(self):
        buffer = GlobalUopBuffer(entries=4)
        buffer.load_program([ExecuteUop(op=ExecuteOp.NOP)] * 10)
        assert buffer.refills == 2

    def test_global_buffer_advance_past_end_raises(self):
        buffer = GlobalUopBuffer(entries=2)
        buffer.load_program([])
        with pytest.raises(SimulationError):
            buffer.advance()
