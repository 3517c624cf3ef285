"""Unit tests for the Table II energy model and the Table III area model."""

from __future__ import annotations

import pytest

from repro.analysis.results import LayerResult, NetworkResult
from repro.errors import ConfigurationError
from repro.hw.area import AcceleratorAreaBreakdown, AreaModel, PeAreaBreakdown
from repro.hw.counters import EventCounters
from repro.hw.energy import ENERGY_COMPONENTS, EnergyBreakdown, EnergyModel, EnergyTable


class TestEnergyTable:
    def test_paper_values(self):
        table = EnergyTable.paper_table2()
        assert table.register_file_pj_per_bit == pytest.approx(0.20)
        assert table.pe_pj_per_bit == pytest.approx(0.36)
        assert table.inter_pe_pj_per_bit == pytest.approx(0.40)
        assert table.global_buffer_pj_per_bit == pytest.approx(1.20)
        assert table.dram_pj_per_bit == pytest.approx(15.00)

    def test_relative_costs_match_table2(self):
        relative = EnergyTable.paper_table2().relative_costs()
        assert relative["Register File Access"] == pytest.approx(1.0)
        assert relative["16-bit Fixed Point PE"] == pytest.approx(1.8)
        assert relative["Inter-PE Communication"] == pytest.approx(2.0)
        assert relative["Global Buffer Access"] == pytest.approx(6.0)
        assert relative["DDR4 Memory Access"] == pytest.approx(75.0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            EnergyTable(dram_pj_per_bit=-1.0)


class TestEnergyBreakdown:
    def test_total(self):
        breakdown = EnergyBreakdown(pe_pj=1, rf_pj=2, noc_pj=3, gbuf_pj=4, dram_pj=5)
        assert breakdown.total_pj == 15
        assert breakdown.total_uj == pytest.approx(15e-6)

    def test_addition(self):
        a = EnergyBreakdown(pe_pj=1, dram_pj=2)
        b = EnergyBreakdown(rf_pj=3)
        total = a + b
        assert total.pe_pj == 1 and total.rf_pj == 3 and total.dram_pj == 2

    def test_scaling(self):
        scaled = EnergyBreakdown(pe_pj=2, gbuf_pj=4).scaled(0.5)
        assert scaled.pe_pj == 1 and scaled.gbuf_pj == 2

    def test_scaling_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyBreakdown(pe_pj=1).scaled(-1)

    def test_fractions_sum_to_one(self):
        breakdown = EnergyBreakdown(pe_pj=1, rf_pj=1, noc_pj=1, gbuf_pj=1, dram_pj=1)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert set(fractions) == set(ENERGY_COMPONENTS)

    def test_fractions_of_zero_total(self):
        assert all(v == 0.0 for v in EnergyBreakdown().fractions().values())

    def test_network_energy_sums_its_layers(self):
        parts = [(1.0, 0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 3.0)]
        network = NetworkResult(
            network_name="net",
            accelerator="ganax",
            layer_results=[
                LayerResult(f"l{i}", "ganax", 1, 0, 0, 1, 0, 0, EventCounters().as_tuple(), p)
                for i, p in enumerate(parts)
            ],
        )
        total = network.energy
        assert total.pe_pj == 3 and total.dram_pj == 3
        assert total == EnergyBreakdown(pe_pj=1) + EnergyBreakdown(pe_pj=2) + EnergyBreakdown(
            dram_pj=3
        )
        assert network.energy_pj == 6.0
        empty = NetworkResult(network_name="net", accelerator="ganax", layer_results=())
        assert empty.energy == EnergyBreakdown()

    def test_negative_component_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyBreakdown(pe_pj=-1.0)

    @pytest.mark.parametrize("component", ENERGY_COMPONENTS)
    def test_negative_component_error_names_it(self, component):
        with pytest.raises(
            ConfigurationError, match=f"energy component {component} cannot"
        ):
            EnergyBreakdown(**{f"{component}_pj": -0.5})


class TestEnergyModel:
    def test_mac_energy(self):
        model = EnergyModel(data_bits=16)
        counters = EventCounters(mac_ops=10)
        breakdown = model.energy_of(counters)
        assert breakdown.pe_pj == pytest.approx(10 * 0.36 * 16)
        assert breakdown.total_pj == breakdown.pe_pj

    def test_dram_energy_dominates_per_access(self):
        model = EnergyModel(data_bits=16)
        one_dram = model.energy_of(EventCounters(dram_reads=1)).total_pj
        one_rf = model.energy_of(EventCounters(register_file_reads=1)).total_pj
        assert one_dram == pytest.approx(75 * one_rf)

    def test_gated_op_fraction(self):
        model = EnergyModel(data_bits=16, gated_op_fraction=0.1)
        gated = model.energy_of(EventCounters(gated_ops=10)).pe_pj
        full = model.energy_of(EventCounters(mac_ops=10)).pe_pj
        assert gated == pytest.approx(0.1 * full)

    def test_energy_is_additive_in_counters(self):
        model = EnergyModel()
        a = EventCounters(mac_ops=5, dram_reads=3)
        b = EventCounters(noc_transfers=7, global_buffer_reads=2)
        combined = model.energy_of(a + b).total_pj
        separate = model.energy_of(a).total_pj + model.energy_of(b).total_pj
        assert combined == pytest.approx(separate)

    def test_component_assignment(self):
        model = EnergyModel()
        breakdown = model.energy_of(
            EventCounters(
                mac_ops=1, register_file_reads=1, noc_transfers=1,
                global_buffer_reads=1, dram_reads=1,
            )
        )
        assert breakdown.pe_pj > 0
        assert breakdown.rf_pj > 0
        assert breakdown.noc_pj > 0
        assert breakdown.gbuf_pj > 0
        assert breakdown.dram_pj > 0

    def test_terms_keep_left_associative_order(self):
        """Pricing multiplies count, cost and width left to right.

        With non-power-of-two factors, folding the constants first rounds
        differently; the golden energies depend on this exact order.
        """
        table = EnergyTable()
        model = EnergyModel(table=table, data_bits=16, gated_op_fraction=0.3)
        counters = EventCounters(*range(7, 19))
        counters.gated_ops = 5
        bits = 16
        pe = table.pe_pj_per_bit
        # The inputs are sensitive to the order: a folded gated term differs.
        assert 5 * pe * bits * 0.3 != 5 * (pe * bits * 0.3)
        expected_pe = (
            counters.mac_ops * pe * bits
            + counters.alu_ops * pe * bits * 0.5
            + counters.gated_ops * pe * bits * 0.3
            + counters.index_generations * table.index_generation_pj_per_bit * bits
        )
        expected_rf = (
            counters.register_file_accesses * table.register_file_pj_per_bit * bits
            + counters.uop_fetches * table.uop_fetch_pj_per_bit * 16
        )
        breakdown = model.energy_of(counters)
        assert breakdown.pe_pj == expected_pe
        assert breakdown.rf_pj == expected_rf
        assert breakdown.noc_pj == (
            counters.noc_transfers * table.inter_pe_pj_per_bit * bits
        )
        assert breakdown.gbuf_pj == (
            counters.global_buffer_accesses * table.global_buffer_pj_per_bit * bits
        )
        assert breakdown.dram_pj == (
            counters.dram_accesses * table.dram_pj_per_bit * bits
        )

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(data_bits=0)
        with pytest.raises(ConfigurationError):
            EnergyModel(gated_op_fraction=1.5)


class TestAreaModel:
    def test_pe_area_matches_table3(self):
        pe = PeAreaBreakdown()
        assert pe.total == pytest.approx(29471.6, rel=1e-3)

    def test_pe_fraction_weight_sram_dominates(self):
        fractions = PeAreaBreakdown().fractions()
        assert fractions["weight_sram"] == pytest.approx(0.488, abs=0.01)
        assert max(fractions, key=fractions.get) == "weight_sram"

    def test_total_area_matches_table3(self):
        model = AreaModel(num_pes=256)
        assert model.total_area_um2(ganax=True) == pytest.approx(9066211.8, rel=1e-3)

    def test_pe_array_share(self):
        model = AreaModel(num_pes=256)
        share = model.pe_array_area_um2(True) / model.total_area_um2(True)
        assert share == pytest.approx(0.832, abs=0.01)

    def test_overhead_close_to_paper(self):
        overhead = AreaModel(num_pes=256).ganax_overhead_fraction()
        assert 0.06 <= overhead <= 0.10  # paper reports ~7.8%

    def test_baseline_smaller_than_ganax(self):
        model = AreaModel(num_pes=256)
        assert model.total_area_um2(ganax=False) < model.total_area_um2(ganax=True)

    def test_table3_rows_structure(self):
        rows = AreaModel(num_pes=256).table3_rows()
        names = [name for name, _, _ in rows]
        assert "Strided uIndex Generator" in names
        assert "GANAX Total Area" in names
        total_row = [r for r in rows if r[0] == "GANAX Total Area"][0]
        assert total_row[2] == pytest.approx(1.0)

    def test_negative_component_rejected(self):
        with pytest.raises(ConfigurationError):
            PeAreaBreakdown(weight_sram=-1.0)
        with pytest.raises(ConfigurationError):
            AcceleratorAreaBreakdown(global_data_buffer=-5.0)

    def test_invalid_pe_count(self):
        with pytest.raises(ConfigurationError):
            AreaModel(num_pes=0)

    def test_mm2_conversion(self):
        model = AreaModel(num_pes=256)
        assert model.total_area_mm2(True) == pytest.approx(
            model.total_area_um2(True) * 1e-6
        )
