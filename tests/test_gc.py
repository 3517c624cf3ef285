"""What the job path leaves for the garbage collector.

Caches keep every result of every job, so a full collection walks them:
a retained layer result must cost the collector one object, not four.
And no step of the job path may leave reference cycles behind: a cycle
through a frame keeps every caller above it alive (runner and result cache
included) until the next full collection.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.simulator import GanaxSimulator
from repro.dse import DesignSpaceExplorer, ExhaustiveSearch
from repro.runner import SimulationRunner
from repro.schedule import schedule_is_feasible
from repro.workloads.registry import get_workload


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_layer_result_leaves_one_tracked_object():
    result = GanaxSimulator().simulate_gan(get_workload("DCGAN"))
    gc.collect()
    for layer in result.generator.layer_results:
        assert gc.is_tracked(layer.event_counts) is False, layer.layer_name
        assert gc.is_tracked(layer.energy_parts) is False, layer.layer_name
        assert gc.is_tracked(layer.__dict__) is False, layer.layer_name


def test_an_unencodable_gate_and_a_search_leave_no_cycles(collector_off):
    """The 32-PV gate fails to encode its probe programs' indices: the
    memoized failures must not keep their frames alive."""
    assert not schedule_is_feasible(None, num_pvs=32, pes_per_pv=4)
    explorer = DesignSpaceExplorer(
        models=[get_workload("DCGAN")], runner=SimulationRunner()
    )
    space = explorer.space(
        fields=("num_pvs", "schedule"),
        overrides={"num_pvs": (16, 32), "schedule": ("default", "hoisted")},
    )
    result = explorer.explore(space=space, strategy=ExhaustiveSearch())
    assert result.evaluated
    assert gc.collect() == 0
