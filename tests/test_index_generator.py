"""Unit tests for the strided µindex generator (Figure 7b)."""

from __future__ import annotations

import pytest

from repro.core.index_generator import GeneratorConfig, StridedIndexGenerator
from repro.errors import SimulationError
from repro.isa.uops import ConfigRegister


def _configured(addr=0, offset=0, step=1, end=4, repeat=1) -> StridedIndexGenerator:
    generator = StridedIndexGenerator()
    generator.configure(GeneratorConfig(addr=addr, offset=offset, step=step, end=end, repeat=repeat))
    generator.start()
    return generator


class TestConfiguration:
    def test_write_registers_via_access_cfg_path(self):
        generator = StridedIndexGenerator()
        generator.write_register(ConfigRegister.ADDR, 0)
        generator.write_register(ConfigRegister.OFFSET, 10)
        generator.write_register(ConfigRegister.STEP, 2)
        generator.write_register(ConfigRegister.END, 6)
        generator.write_register(ConfigRegister.REPEAT, 1)
        generator.start()
        assert generator.drain() == [10, 12, 14]

    def test_negative_register_value_rejected(self):
        with pytest.raises(SimulationError):
            StridedIndexGenerator().write_register(ConfigRegister.STEP, -1)

    def test_invalid_configuration_rejected_on_start(self):
        generator = StridedIndexGenerator()
        generator.configure(GeneratorConfig(addr=0, offset=0, step=0, end=4, repeat=1))
        with pytest.raises(SimulationError):
            generator.start()

    def test_addr_must_be_below_end(self):
        generator = StridedIndexGenerator()
        generator.configure(GeneratorConfig(addr=4, offset=0, step=1, end=4, repeat=1))
        with pytest.raises(SimulationError):
            generator.start()


class TestSequences:
    def test_sequential_sweep(self):
        assert _configured(offset=100, end=5).drain() == [100, 101, 102, 103, 104]

    def test_strided_sweep(self):
        assert _configured(step=3, end=10).drain() == [0, 3, 6, 9]

    def test_constant_pattern_via_repeat(self):
        # End=1 with Repeat=n emits the same (offset) address n times: the
        # stationary-operand configuration used for weights.
        assert _configured(offset=7, end=1, repeat=4).drain() == [7, 7, 7, 7]

    def test_repeat_replays_pattern(self):
        assert _configured(end=3, repeat=2).drain() == [0, 1, 2, 0, 1, 2]

    def test_total_addresses_prediction(self):
        config = GeneratorConfig(addr=0, offset=0, step=2, end=7, repeat=3)
        generator = StridedIndexGenerator()
        generator.configure(config)
        generator.start()
        assert len(generator.drain()) == config.total_addresses()

    def test_zero_repeat_generates_nothing(self):
        generator = StridedIndexGenerator()
        generator.configure(GeneratorConfig(addr=0, offset=0, step=1, end=4, repeat=0))
        generator.start()
        assert not generator.running
        assert generator.drain() == []

    def test_stop_interrupts_generation(self):
        generator = _configured(end=100, repeat=1)
        first = generator.tick()
        generator.stop()
        assert first == 0
        assert generator.tick() is None
        assert not generator.running

    def test_restart_after_stop(self):
        generator = _configured(end=3, repeat=1)
        generator.tick()
        generator.stop()
        generator.start()
        assert generator.drain() == [0, 1, 2]

    def test_one_address_per_tick(self):
        generator = _configured(end=3)
        assert generator.tick() == 0
        assert generator.tick() == 1
        assert generator.tick() == 2
        assert generator.tick() is None

    def test_drain_limit_guards_against_runaway(self):
        generator = _configured(end=1000, repeat=1000)
        with pytest.raises(SimulationError):
            generator.drain(limit=10)

    def test_stop_signal_asserted_when_repeat_exhausted(self):
        generator = _configured(end=2, repeat=1)
        generator.tick()
        assert generator.running
        generator.tick()
        assert not generator.running


class TestGeneratorConfig:
    def test_total_addresses_zero_repeat(self):
        assert GeneratorConfig(step=1, end=4, repeat=0).total_addresses() == 0
