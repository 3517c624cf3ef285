"""Cycle-level machine benchmarks: GANAX dataflow vs the dense dataflow.

These benchmarks execute the paper's running example (4x4 input, 5x5 filter,
stride 2) on the cycle-level machine with and without zero skipping, verifying
the functional result against NumPy and measuring the simulation cost.  The
PE-level operation counts quantify the microarchitectural benefit of the
reorganized dataflow independent of the analytical model.  A last case runs
the same kernel on a 16x16 input on the paper's 16x16 PE array and reports
the simulation cost per machine cycle and the PE occupancy.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import emit

from repro.analysis.report import format_key_values
from repro.core.compiler import GanaxLayerExecutor
from repro.nn.functional import transposed_conv2d

_RNG = np.random.default_rng(2018)
_X = _RNG.standard_normal((4, 4))
_W = _RNG.standard_normal((5, 5))
_REFERENCE = transposed_conv2d(_X[None], _W[None, None], stride=2, padding=2)[0]


_PAPER_RNG = np.random.default_rng(2018)
_PAPER_X = _PAPER_RNG.standard_normal((16, 16))
_PAPER_W = _PAPER_RNG.standard_normal((5, 5))
_PAPER_REFERENCE = transposed_conv2d(
    _PAPER_X[None], _PAPER_W[None, None], stride=2, padding=2
)[0]
#: Machine cycles of the paper-geometry slice, summed over its waves.
PAPER_SLICE_CYCLES = 18447


def _run_ganax():
    executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4, skip_zeros=True)
    return executor.run_transposed_conv(_X, _W, stride=2, padding=2)


def _run_dense():
    executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=5, skip_zeros=False)
    return executor.run_transposed_conv(_X, _W, stride=2, padding=2)


def test_machine_ganax_dataflow(benchmark):
    """Cycle-level execution with zero skipping and row reorganization."""
    result = benchmark(_run_ganax)
    np.testing.assert_allclose(result.output, _REFERENCE, atol=1e-9)


def test_machine_dense_dataflow(benchmark):
    """Cycle-level execution of the conventional dense dataflow."""
    result = benchmark(_run_dense)
    np.testing.assert_allclose(result.output, _REFERENCE, atol=1e-9)


def test_machine_zero_skipping_ratio(benchmark):
    """Measure the PE-operation reduction of the GANAX dataflow."""

    def compare():
        ganax = _run_ganax()
        dense = _run_dense()
        return ganax, dense

    ganax, dense = benchmark.pedantic(compare, iterations=1, rounds=1)
    ratio = dense.executed_pe_uops / ganax.executed_pe_uops
    assert ratio > 1.5  # the example's inconsequential fraction is ~55-75%
    emit(
        format_key_values(
            "Cycle-level machine: dense vs GANAX dataflow (paper running example)",
            {
                "GANAX PE µops": ganax.executed_pe_uops,
                "Dense PE µops": dense.executed_pe_uops,
                "PE-operation reduction": f"{ratio:.2f}x",
                "GANAX machine cycles": ganax.cycles,
                "Dense machine cycles": dense.cycles,
            },
        )
    )


def test_machine_paper_geometry(benchmark):
    """The 16x16 PE array on a 16x16-input, 5x5-kernel, stride-2 slice."""

    def run():
        executor = GanaxLayerExecutor(num_pvs=16, pes_per_pv=16)
        start = time.perf_counter()
        result = executor.run_transposed_conv(_PAPER_X, _PAPER_W, stride=2, padding=2)
        return result, time.perf_counter() - start

    result, seconds = benchmark.pedantic(run, iterations=1, rounds=1)
    np.testing.assert_allclose(result.output, _PAPER_REFERENCE, rtol=0, atol=1e-9)
    cycles = sum(s.cycles for s in result.statistics)
    assert cycles == PAPER_SLICE_CYCLES
    busy = result.pe_busy_cycles
    stalls = sum(s.pe_stall_cycles for s in result.statistics)
    emit(
        format_key_values(
            "Cycle-level machine: paper geometry (16x16 PEs, 16x16 input, k5 s2)",
            {
                "Machine cycles": cycles,
                "Waves": result.waves,
                "Wall time": f"{seconds:.2f} s",
                "µs per simulated cycle": f"{1e6 * seconds / cycles:.1f}",
                "PE occupancy": f"{busy / (busy + stalls):.3f}",
            },
        )
    )
