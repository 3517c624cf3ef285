"""Unit tests for the cycle-level GANAX machine and the global controller."""

from __future__ import annotations

import pytest

from repro.core.machine import GanaxMachine
from repro.errors import SimulationError
from repro.isa.program import MicroProgramBuilder
from repro.isa.uops import (
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    RepeatUop,
)


def _machine(num_pvs=2, pes_per_pv=2) -> GanaxMachine:
    return GanaxMachine(
        num_pvs=num_pvs,
        pes_per_pv=pes_per_pv,
        pe_buffer_words={"input": 16, "weight": 16, "output": 16},
    )


def _dot_product_program(num_pvs: int, length: int, simd: bool):
    """A program computing a dot product of `length` elements on every PE."""
    builder = MicroProgramBuilder(name="dot", num_pvs=num_pvs)
    mac = ExecuteUop(op=ExecuteOp.MAC)
    act = ExecuteUop(op=ExecuteOp.ACT, activation="identity")
    rep = RepeatUop()
    mac_idx = builder.preload_local_everywhere(mac)
    act_idx = builder.preload_local_everywhere(act)
    rep_idx = builder.preload_local_everywhere(rep)
    for pv in range(num_pvs):
        for generator, end in (
            (AddressGenerator.INPUT, length),
            (AddressGenerator.WEIGHT, length),
            (AddressGenerator.OUTPUT, 1),
        ):
            builder.emit_access_cfg(pv, generator, ConfigRegister.ADDR, 0)
            builder.emit_access_cfg(pv, generator, ConfigRegister.OFFSET, 0)
            builder.emit_access_cfg(pv, generator, ConfigRegister.STEP, 1)
            builder.emit_access_cfg(pv, generator, ConfigRegister.END, end)
            builder.emit_access_cfg(pv, generator, ConfigRegister.REPEAT, 1)
            builder.emit_access_start(pv, generator)
        builder.emit_mimd_load(pv, "repeat", length)
    if simd:
        builder.emit(rep)
        builder.emit(mac)
        builder.emit(act)
    else:
        builder.emit_mimd([rep_idx[pv] for pv in range(num_pvs)])
        builder.emit_mimd([mac_idx[pv] for pv in range(num_pvs)])
        builder.emit_mimd([act_idx[pv] for pv in range(num_pvs)])
    return builder.build()


class TestMachineExecution:
    @pytest.mark.parametrize("simd", [True, False], ids=["simd", "mimd-simd"])
    def test_dot_product_on_every_pe(self, simd):
        machine = _machine()
        for pv in range(2):
            for pe in range(2):
                machine.load_pe_operands(pv, pe, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        machine.load_program(_dot_product_program(2, 3, simd=simd))
        stats = machine.run()
        for pv in range(2):
            for pe in range(2):
                value = machine.pv(pv).pe(pe).read_output_row(1)[0]
                assert value == pytest.approx(12.0)
        assert stats.cycles > 0
        assert stats.executed_pe_uops > 0

    def test_mimd_mode_lets_pvs_differ(self):
        """Different PVs execute different µops from their local buffers."""
        builder = MicroProgramBuilder(name="diff", num_pvs=2)
        mac = ExecuteUop(op=ExecuteOp.MAC)
        nop = ExecuteUop(op=ExecuteOp.NOP)
        act = ExecuteUop(op=ExecuteOp.ACT, activation="identity")
        mac_idx = builder.preload_local_everywhere(mac)
        nop_idx = builder.preload_local_everywhere(nop)
        act_idx = builder.preload_local_everywhere(act)
        # Only PV0 gets configured address streams and a real MAC; PV1 NOPs.
        for generator, end in (
            (AddressGenerator.INPUT, 1),
            (AddressGenerator.WEIGHT, 1),
            (AddressGenerator.OUTPUT, 1),
        ):
            builder.emit_access_cfg(0, generator, ConfigRegister.END, end)
            builder.emit_access_cfg(0, generator, ConfigRegister.REPEAT, 1)
            builder.emit_access_start(0, generator)
        builder.emit_mimd([mac_idx[0], nop_idx[1]])
        builder.emit_mimd([act_idx[0], nop_idx[1]])
        program = builder.build()

        machine = _machine()
        machine.load_pe_operands(0, 0, [3.0], [4.0])
        machine.load_pe_operands(0, 1, [3.0], [4.0])
        machine.load_program(program)
        machine.run()
        assert machine.pv(0).pe(0).read_output_row(1)[0] == pytest.approx(12.0)
        # PV1 executed only NOPs and wrote nothing.
        assert machine.pv(1).pe(0).read_output_row(1)[0] == 0.0

    def test_program_pv_count_must_match(self):
        machine = _machine(num_pvs=2)
        with pytest.raises(SimulationError):
            machine.load_program(_dot_product_program(3, 2, simd=True))

    def test_counters_accumulate_activity(self):
        machine = _machine()
        for pv in range(2):
            for pe in range(2):
                machine.load_pe_operands(pv, pe, [1.0, 1.0], [1.0, 1.0])
        machine.load_program(_dot_product_program(2, 2, simd=True))
        machine.run()
        counters = machine.counters
        assert counters.mac_ops == 2 * 2 * 2  # 2 MACs on each of 4 PEs
        assert counters.index_generations > 0
        assert counters.uop_fetches > 0

    def test_run_statistics_consistency(self):
        machine = _machine()
        for pv in range(2):
            for pe in range(2):
                machine.load_pe_operands(pv, pe, [1.0], [1.0])
        machine.load_program(_dot_product_program(2, 1, simd=True))
        stats = machine.run()
        assert stats.dispatched_uops == machine.cycle - stats.dispatch_stall_cycles
        assert 0.0 <= stats.pe_occupancy <= 1.0

    def test_accumulate_pv_after_run(self):
        machine = _machine()
        for pe in range(2):
            machine.load_pe_operands(0, pe, [1.0, 2.0], [1.0, 1.0])
        machine.load_program(_dot_product_program(2, 2, simd=True))
        machine.run()
        total = machine.accumulate_pv(0, width=1, active_pes=2)
        assert total[0] == pytest.approx(6.0)

    def test_deadlock_guard_raises(self):
        machine = _machine()
        builder = MicroProgramBuilder(name="stall", num_pvs=2)
        builder.preload_local_everywhere(ExecuteUop(op=ExecuteOp.MAC))
        # A MAC with no configured address streams can never execute.
        builder.emit(ExecuteUop(op=ExecuteOp.MAC))
        machine.load_program(builder.build())
        with pytest.raises(SimulationError):
            machine.run(max_cycles=200)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(SimulationError):
            GanaxMachine(num_pvs=0, pes_per_pv=2)

    def test_pv_lookup_bounds(self):
        machine = _machine()
        with pytest.raises(SimulationError):
            machine.pv(5)


def _started_generator(pv, generator, end):
    """A 2-PV program builder that configures and starts one generator."""
    builder = MicroProgramBuilder(name="access-only", num_pvs=2)
    builder.preload_local_everywhere(ExecuteUop(op=ExecuteOp.NOP))
    builder.emit_access_cfg(pv, generator, ConfigRegister.END, end)
    builder.emit_access_cfg(pv, generator, ConfigRegister.REPEAT, 1)
    builder.emit_access_start(pv, generator)
    return builder


class TestRunAccounting:
    def test_a_second_run_reports_only_its_own_statistics(self):
        machine = _machine()
        runs = []
        for _ in range(2):
            for pv in range(2):
                for pe in range(2):
                    machine.load_pe_operands(pv, pe, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
            machine.load_program(_dot_product_program(2, 3, simd=True))
            runs.append(machine.run())
        assert runs[0].cycles == 43
        assert runs[1] == runs[0]

    def test_cfg_to_a_running_generator_with_no_consumer_deadlocks(self):
        """The FIFO fills, the generator never stops, the cfg never issues."""
        machine = _machine()
        builder = _started_generator(0, AddressGenerator.INPUT, 1000)
        builder.emit_access_cfg(0, AddressGenerator.INPUT, ConfigRegister.ADDR, 0)
        machine.load_program(builder.build())
        with pytest.raises(SimulationError, match="within 200 cycles"):
            machine.run(max_cycles=200)
        assert machine.cycle == 200
        assert all(pe.cycles == 200 for pv in machine.pvs for pe in pv.pes)

    def test_addresses_left_queued_after_the_stream_ends_deadlock(self):
        machine = _machine()
        machine.load_program(_started_generator(1, AddressGenerator.WEIGHT, 2).build())
        with pytest.raises(SimulationError, match="within 200 cycles"):
            machine.run(max_cycles=200)
        assert machine.cycle == 200
        assert machine.pv(1).pe(0).access.fifo(AddressGenerator.WEIGHT).occupancy == 2
        assert all(pe.cycles == 200 for pv in machine.pvs for pe in pv.pes)
