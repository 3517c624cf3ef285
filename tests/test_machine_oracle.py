"""The cycle machine's oracle: statistics pinned from the per-cycle stepper.

``machine_oracle.json`` was captured from a machine that ticked every PE of
every PV on every cycle.  It covers every paper GAN's generator transposed
convolutions x input size {4, 5} x ``num_pvs`` {2, 4} x every registered
schedule x both ``skip_zeros`` modes.  A cell's run depends only on the
layer's (kernel, stride, padding) and those knobs -- the operands are seeded
by geometry -- so the table stores one run per distinct geometry and maps
every layer onto it.

Each run pins, per wave, the :class:`MachineRunStatistics`, the machine's
final :class:`EventCounters` and every PE's ``cycles`` / ``busy_cycles`` /
``stall_cycles``, plus the SHA-256 of the layer output.  Any change to how
the machine advances time must leave all of it byte-identical.

Regenerate the table (only for a change meant to move the machine's timing)::

    PYTHONPATH=src python tests/test_machine_oracle.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.compiler import GanaxLayerExecutor
from repro.schedule import schedule_names
from repro.workloads import get_workload, workload_names

ORACLE = Path(__file__).with_name("machine_oracle.json")
SIZES = (4, 5)
NUM_PVS = (2, 4)

Geometry = Tuple[int, int, int]


def layer_geometries() -> Dict[str, Geometry]:
    """``workload/layer`` -> (kernel, stride, padding) of every generator tconv."""
    cells = {}
    for workload in workload_names():
        for binding in get_workload(workload).generator.bindings:
            if binding.is_transposed:
                layer = binding.layer
                kernel = layer.kernel[-1]
                assert layer.kernel[-2] == kernel, "slices use square kernels"
                cells[f"{workload}/{binding.name}"] = (
                    kernel, layer.stride[-1], layer.padding[-1]
                )
    return cells


def geometry_key(geometry: Geometry) -> str:
    kernel, stride, padding = geometry
    return f"k{kernel}s{stride}p{padding}"


def run_key(geometry: Geometry, size: int, num_pvs: int, schedule: str, skip: bool) -> str:
    mode = "skip" if skip else "dense"
    return f"{geometry_key(geometry)}/in{size}/pv{num_pvs}/{schedule}/{mode}"


def oracle_runs() -> Dict[str, tuple]:
    """Every distinct run the table pins, keyed by :func:`run_key`."""
    runs = {}
    for geometry in sorted(set(layer_geometries().values())):
        for size in SIZES:
            for num_pvs in NUM_PVS:
                for schedule in schedule_names():
                    for skip in (True, False):
                        key = run_key(geometry, size, num_pvs, schedule, skip)
                        runs[key] = (geometry, size, num_pvs, schedule, skip)
    return runs


class _RecordingExecutor(GanaxLayerExecutor):
    """An executor that keeps every per-wave machine it builds."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.machines: List = []

    def _new_machine(self, *args):
        machine = super()._new_machine(*args)
        self.machines.append(machine)
        return machine


def measure(geometry: Geometry, size: int, num_pvs: int, schedule: str, skip: bool) -> dict:
    """Run one cell on the machine and collect what the table pins."""
    kernel, stride, padding = geometry
    data = np.random.default_rng([kernel, stride, padding, size])
    x = data.standard_normal((size, size))
    w = data.standard_normal((kernel, kernel))
    # The dense dataflow needs one PE per kernel row.
    executor = _RecordingExecutor(
        num_pvs=num_pvs, pes_per_pv=max(4, kernel), skip_zeros=skip, schedule=schedule
    )
    run = executor.run_transposed_conv(x, w, stride=stride, padding=padding)
    waves = [
        {
            "stats": list(dataclasses.astuple(stats)),
            "counters": list(dataclasses.astuple(machine.counters)),
            "pes": [
                [pe.cycles, pe.execute.busy_cycles, pe.execute.stall_cycles]
                for pv in machine.pvs
                for pe in pv.pes
            ],
        }
        for stats, machine in zip(run.statistics, executor.machines)
    ]
    assert len(waves) == run.waves == len(executor.machines)
    return {"output_sha256": hashlib.sha256(run.output.tobytes()).hexdigest(), "waves": waves}


def capture() -> str:
    """The table as JSON text, one cell and one run per line."""
    cells = {name: geometry_key(g) for name, g in layer_geometries().items()}
    runs = {key: measure(*args) for key, args in oracle_runs().items()}

    def block(entries: dict) -> str:
        return ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(entries.items())
        )

    return f'{{\n "cells": {{\n{block(cells)}\n }},\n "runs": {{\n{block(runs)}\n }}\n}}\n'


@pytest.fixture(scope="module")
def oracle() -> dict:
    return json.loads(ORACLE.read_text())


def test_table_covers_every_generator_tconv_layer(oracle):
    assert oracle["cells"] == {
        name: geometry_key(g) for name, g in layer_geometries().items()
    }
    assert sorted(oracle["runs"]) == sorted(oracle_runs())


@pytest.mark.parametrize("key", sorted(oracle_runs()))
def test_machine_matches_the_stepper_oracle(oracle, key):
    assert measure(*oracle_runs()[key]) == oracle["runs"][key]


if __name__ == "__main__":
    ORACLE.write_text(capture())
    print(f"wrote {ORACLE}")
