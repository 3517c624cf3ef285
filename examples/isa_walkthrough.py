#!/usr/bin/env python
"""ISA walkthrough: run a tiny transposed convolution on the cycle-level machine.

This example demonstrates the GANAX microarchitecture end to end:

1. it builds the paper's motivating example — a 4x4 input, a 5x5 filter,
   stride 2, padding 2 (Figure 4) — and reads its zero structure off the
   GANAX dataflow schedule,
2. it shows the µop ISA by assembling and disassembling a short program,
3. it compiles the layer onto the cycle-level machine twice, once with the
   GANAX dataflow (zero skipping + row reorganization) and once with the
   conventional dense dataflow, and
4. it verifies both against the NumPy functional reference and compares the
   PE-level work.

Run with::

    python examples/isa_walkthrough.py
"""

from __future__ import annotations

import numpy as np

from repro.core import GanaxLayerExecutor, build_schedule
from repro.isa import assemble, disassemble
from repro.nn import FeatureMapShape, TransposedConvLayer
from repro.nn.functional import transposed_conv2d
from repro.nn.network import LayerBinding


def describe_dataflow() -> None:
    """Reproduce the Section II analysis of the paper's running example."""
    layer = TransposedConvLayer(
        name="example", out_channels=1, kernel=5, stride=2, padding=2
    )
    input_shape = FeatureMapShape.image(1, 4, 4)
    binding = LayerBinding(
        index=0,
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.output_shape(input_shape),
    )
    schedule = build_schedule(binding)
    total, consequential = binding.total_macs, binding.consequential_macs
    print("Paper running example: 4x4 input, 5x5 filter, stride 2, padding 2")
    print(f"  output shape:            {binding.output_shape}")
    print(f"  dense MACs:              {total}")
    print(f"  consequential MACs:      {consequential}")
    print(f"  inconsequential fraction:{100 * (total - consequential) / total:5.1f}%")
    print(f"  distinct row patterns:   {schedule.num_patterns}")
    for group in schedule.row_groups:
        print(
            f"    phase {group.phase}: consequential filter rows "
            f"{group.filter_rows} "
            f"(accumulation chain of {len(group.filter_rows)} instead of 5)"
        )
    print(
        "  idle compute nodes under the conventional dataflow: "
        f"{100 * schedule.baseline_idle_fraction():.0f}% (paper: 50%)"
    )
    print()


def show_isa() -> None:
    """Assemble and disassemble a small GANAX µop sequence."""
    source = """
    # Configure the input-address generator of PV0 and start it.
    access.cfg   %pv0, %gen0, %addr, 0
    access.cfg   %pv0, %gen0, %offset, 16
    access.cfg   %pv0, %gen0, %step, 1
    access.cfg   %pv0, %gen0, %end, 3
    access.cfg   %pv0, %gen0, %repeat, 1
    access.start %pv0, %gen0
    # Preload the repeat register and run three MACs, then commit.
    mimd.ld      %pv0, %repeat, 3
    repeat
    mac
    act          identity
    # MIMD-SIMD dispatch: PV0 runs local µop 0, PV1 runs local µop 1.
    mimd.exe     0, 1
    """
    uops = assemble(source)
    print("Assembled µop stream (disassembled back):")
    for line in disassemble(uops).splitlines():
        print(f"  {line}")
    print()


def run_on_machine() -> None:
    """Execute the example layer on the cycle-level machine, both dataflows."""
    rng = np.random.default_rng(2018)
    x = rng.standard_normal((4, 4))
    w = rng.standard_normal((5, 5))
    reference = transposed_conv2d(x[None], w[None, None], stride=2, padding=2)[0]

    ganax = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4, skip_zeros=True)
    dense = GanaxLayerExecutor(num_pvs=2, pes_per_pv=5, skip_zeros=False)

    ganax_run = ganax.run_transposed_conv(x, w, stride=2, padding=2)
    dense_run = dense.run_transposed_conv(x, w, stride=2, padding=2)

    print("Cycle-level execution of the example layer:")
    print(f"  GANAX dataflow  : max |error| vs NumPy = {np.abs(ganax_run.output - reference).max():.2e}")
    print(f"  dense dataflow  : max |error| vs NumPy = {np.abs(dense_run.output - reference).max():.2e}")
    print(f"  PE µops executed: GANAX {ganax_run.executed_pe_uops}, dense {dense_run.executed_pe_uops}")
    ratio = dense_run.executed_pe_uops / max(1, ganax_run.executed_pe_uops)
    print(f"  -> the reorganized, zero-skipping dataflow performs {ratio:.2f}x fewer PE operations")


def main() -> int:
    describe_dataflow()
    show_isa()
    run_on_machine()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
