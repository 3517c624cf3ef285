"""Unit/integration tests for the whole-network simulators and result types."""

from __future__ import annotations

import functools
import operator

import pytest

from repro.analysis.results import ComparisonResult
from repro.baseline.simulator import EyerissSimulator
from repro.config import ArchitectureConfig, SimulationOptions
from repro.core.simulator import GanaxSimulator
from repro.errors import AnalysisError
from repro.hw.energy import EnergyBreakdown


@pytest.fixture(scope="module")
def dcgan_comparison(dcgan_model):
    eyeriss = EyerissSimulator()
    ganax = GanaxSimulator()
    return ComparisonResult(
        model_name=dcgan_model.name,
        eyeriss=eyeriss.simulate_gan(dcgan_model),
        ganax=ganax.simulate_gan(dcgan_model),
    )


# Module-scoped fixtures cannot see the session conftest fixtures directly;
# re-import the workload here.
@pytest.fixture(scope="module")
def dcgan_model():
    from repro.workloads import get_workload

    return get_workload("DCGAN")


class TestLayerResults:
    def test_layer_results_cover_all_layers(self, dcgan_model):
        result = EyerissSimulator().simulate_network(dcgan_model.generator)
        assert len(result.layer_results) == len(dcgan_model.generator)

    def test_layer_result_fields(self, dcgan_model):
        result = GanaxSimulator().simulate_network(dcgan_model.generator)
        tconv = [r for r in result.layer_results if r.is_transposed][0]
        assert tconv.accelerator == "ganax"
        assert tconv.cycles > 0
        assert tconv.energy.total_pj > 0
        assert 0.0 <= tconv.pe_utilization <= 1.0
        assert tconv.macs_consequential <= tconv.macs_total

    def test_network_totals_are_sums(self, dcgan_model):
        result = EyerissSimulator().simulate_network(dcgan_model.generator)
        assert result.cycles == sum(r.cycles for r in result.layer_results)
        assert result.energy_pj == pytest.approx(
            sum(r.energy_pj for r in result.layer_results)
        )
        assert result.macs_total == dcgan_model.generator.total_macs()

    def test_layer_lookup(self, dcgan_model):
        result = EyerissSimulator().simulate_network(dcgan_model.generator)
        assert result.layer("tconv1").layer_name == "tconv1"
        with pytest.raises(AnalysisError):
            result.layer("missing")

    def test_batch_size_scales_cycles(self, dcgan_model):
        single = EyerissSimulator().simulate_network(dcgan_model.generator)
        batched = EyerissSimulator(
            options=SimulationOptions(batch_size=4)
        ).simulate_network(dcgan_model.generator)
        assert batched.cycles == 4 * single.cycles


class TestGanResults:
    def test_gan_result_contains_both_networks(self, dcgan_model):
        result = EyerissSimulator().simulate_gan(dcgan_model)
        assert result.generator.cycles > 0
        assert result.discriminator is not None
        assert result.total_cycles == result.generator.cycles + result.discriminator.cycles

    def test_discriminator_can_be_excluded(self, dcgan_model):
        simulator = EyerissSimulator(options=SimulationOptions(include_discriminator=False))
        result = simulator.simulate_gan(dcgan_model)
        assert result.discriminator is None
        assert result.total_cycles == result.generator.cycles

    def test_runtime_and_energy_splits(self, dcgan_model):
        result = GanaxSimulator().simulate_gan(dcgan_model)
        runtime = result.runtime_split()
        energy = result.energy_split()
        assert set(runtime) == {"generative", "discriminative"}
        assert runtime["generative"] > 0
        assert energy["discriminative"] > 0

    def test_magan_discriminator_tconv_excluded(self, magan_model):
        result = EyerissSimulator().simulate_gan(magan_model)
        assert all(not r.is_transposed for r in result.discriminator.layer_results)
        # The six encoder convolutions are still accounted for.
        conv_layers = [r for r in result.discriminator.layer_results if r.is_convolutional]
        assert len(conv_layers) == 6

    def test_total_energy_is_breakdown_sum(self, dcgan_model):
        result = GanaxSimulator().simulate_gan(dcgan_model)
        assert isinstance(result.total_energy, EnergyBreakdown)
        assert result.total_energy_pj == pytest.approx(
            result.generator.energy_pj + result.discriminator.energy_pj
        )


def _chained_sum(breakdowns):
    """``EnergyBreakdown() + b0 + b1 + ...``: the order a total must add in."""
    return functools.reduce(operator.add, breakdowns, EnergyBreakdown())


class TestResultTotals:
    """Totals are summed once per result and equal a fresh layer sum."""

    def test_cached_totals_equal_a_fresh_sum(self, dcgan_model):
        result = GanaxSimulator().simulate_gan(dcgan_model)
        networks = (result.generator, result.discriminator)
        for network in networks:
            assert network.cycles == sum(r.cycles for r in network.layer_results)
            assert network.energy == _chained_sum(
                r.energy for r in network.layer_results
            )
            assert network.energy is network.energy  # stored, not re-summed
        assert result.total_cycles == sum(
            r.cycles for network in networks for r in network.layer_results
        )
        assert result.total_energy == _chained_sum(
            r.energy for r in result.generator.layer_results
        ) + _chained_sum(r.energy for r in result.discriminator.layer_results)
        assert result.total_energy is result.total_energy

    def test_totals_are_not_fields(self, dcgan_model):
        result = EyerissSimulator().simulate_gan(dcgan_model)
        fresh = EyerissSimulator().simulate_gan(dcgan_model)
        result.total_energy_pj  # fills the caches of one side only
        assert result == fresh


class TestComparisonResult:
    def test_speedup_and_energy_reduction_positive(self, dcgan_comparison):
        assert dcgan_comparison.generator_speedup > 1.0
        assert dcgan_comparison.generator_energy_reduction > 1.0

    def test_ganax_utilization_higher(self, dcgan_comparison):
        assert (
            dcgan_comparison.ganax_generator_utilization
            > dcgan_comparison.eyeriss_generator_utilization
        )

    def test_normalized_runtime_structure(self, dcgan_comparison):
        runtime = dcgan_comparison.normalized_runtime()
        assert set(runtime) == {"eyeriss", "ganax"}
        # EYERISS normalises to itself: segments sum to 1.
        assert sum(runtime["eyeriss"].values()) == pytest.approx(1.0)
        # GANAX total must be smaller (faster).
        assert sum(runtime["ganax"].values()) < 1.0

    def test_normalized_energy_structure(self, dcgan_comparison):
        energy = dcgan_comparison.normalized_energy()
        assert sum(energy["eyeriss"].values()) == pytest.approx(1.0)
        assert sum(energy["ganax"].values()) < 1.0

    def test_discriminative_share_unchanged(self, dcgan_comparison):
        """GANAX delivers the same efficiency as EYERISS on discriminators."""
        runtime = dcgan_comparison.normalized_runtime()
        assert runtime["ganax"]["discriminative"] == pytest.approx(
            runtime["eyeriss"]["discriminative"], rel=1e-6
        )

    def test_unit_energy_breakdown_components(self, dcgan_comparison):
        unit = dcgan_comparison.normalized_unit_energy()
        assert set(unit["eyeriss"]) == {"pe", "rf", "noc", "gbuf", "dram"}
        assert sum(unit["eyeriss"].values()) == pytest.approx(1.0)
        # Every component shrinks or stays equal on GANAX (Figure 10).
        for key in unit["eyeriss"]:
            assert unit["ganax"][key] <= unit["eyeriss"][key] * 1.001

    def test_mismatched_accelerators_rejected(self, dcgan_model):
        eyeriss = EyerissSimulator().simulate_gan(dcgan_model)
        with pytest.raises(AnalysisError):
            ComparisonResult(model_name="bad", eyeriss=eyeriss, ganax=eyeriss)


class TestConfigSensitivity:
    def test_smaller_array_is_slower(self, dcgan_model):
        big = GanaxSimulator().simulate_gan(dcgan_model)
        small = GanaxSimulator(
            config=ArchitectureConfig.paper_default().with_updates(num_pvs=4, pes_per_pv=4)
        ).simulate_gan(dcgan_model)
        assert small.generator.cycles > big.generator.cycles

    def test_lower_bandwidth_never_faster(self, dcgan_model):
        fast = EyerissSimulator().simulate_gan(dcgan_model)
        slow = EyerissSimulator(
            config=ArchitectureConfig.paper_default().with_updates(
                dram_bandwidth_bytes_per_cycle=4.0
            )
        ).simulate_gan(dcgan_model)
        assert slow.generator.cycles >= fast.generator.cycles
