"""Tests for flattening simulation results into rows."""

from __future__ import annotations

import json

import pytest

from repro.analysis.serialization import (
    flatten_mapping,
    gan_result_rows,
    network_result_rows,
)
from repro.analysis.sweep import compare_model
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def comparison():
    return compare_model(get_workload("DCGAN"))


class TestFlatten:
    def test_nested_mapping_flattens_with_dots(self):
        flat = flatten_mapping({"a": {"b": 1, "c": {"d": 2}}, "e": 3})
        assert flat == {"a.b": 1, "a.c.d": 2, "e": 3}

    def test_lists_are_json_encoded(self):
        flat = flatten_mapping({"a": [1, 2, 3]})
        assert json.loads(flat["a"]) == [1, 2, 3]


class TestRowBuilders:
    def test_network_rows_one_per_layer(self, comparison):
        rows = network_result_rows(comparison.ganax.generator)
        assert len(rows) == len(comparison.ganax.generator.layer_results)
        assert all(row["accelerator"] == "ganax" for row in rows)
        assert all("energy_dram_pj" in row for row in rows)

    def test_gan_rows_include_both_networks(self, comparison):
        rows = gan_result_rows(comparison.eyeriss)
        networks = {row["network"] for row in rows}
        assert len(networks) == 2
        assert all(row["model"] == "DCGAN" for row in rows)
