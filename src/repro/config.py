"""Architecture configuration for the GANAX and EYERISS simulators.

The paper evaluates a GANAX configuration of 16 Processing Vectors (PVs), each
with 16 Processing Engines (PEs), clocked at 500 MHz, and compares it against
an EYERISS baseline with the same number of PEs and the same on-chip memory
sizes (paper Section V, "Architecture configurations").

:class:`ArchitectureConfig` captures every architectural parameter that the
performance and energy models consume.  The default instance reproduces the
paper's configuration; tests and ablation benchmarks construct variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping

from .errors import ConfigurationError

#: Clock frequency used for both accelerators in the paper (Hz).
DEFAULT_FREQUENCY_HZ: float = 500e6

#: Data width of activations, weights and partial sums (bits).
DEFAULT_DATA_BITS: int = 16


def _canonical_value(value: Any) -> Any:
    """Normalize a field value for canonical serialization.

    Python compares ``64 == 64.0`` as equal, so two equal configs may hold
    the same number as int in one and float in the other (e.g. a sweep over
    ``[16, 64]`` vs the float default ``64.0``).  Canonical JSON would
    serialize them differently and break the fingerprint contract that equal
    configs hash equal; collapsing integral floats to int restores it.
    Bools are left untouched (bool is an int subclass but serializes as
    true/false).
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@dataclass(frozen=True)
class ArchitectureConfig:
    """Parameters shared by the GANAX and EYERISS models.

    Attributes
    ----------
    num_pvs:
        Number of Processing Vectors (rows of the PE array).  Each PV shares
        one local µop buffer.
    pes_per_pv:
        Number of Processing Engines per PV (columns of the PE array).
    frequency_hz:
        Clock frequency in Hz.  Identical for GANAX and EYERISS in the paper.
    data_bits:
        Width of a data word (activations, weights, partial sums).
    input_register_entries / partial_sum_register_entries / weight_sram_entries:
        Per-PE storage sizes in 16-bit words (Table III).
    local_uop_entries:
        Entries in each PV's local µop buffer (16 in the paper).
    global_uop_entries / global_uop_bits:
        Global µop buffer geometry (32 entries × 64 bits in the paper).
    pv_index_bits:
        Bits of the global µop used to index one local µop buffer (4 bits).
    global_data_buffer_bytes / global_instruction_buffer_bytes:
        Shared on-chip buffer sizes (108 KB and 27 KB in Table III).
    dram_bandwidth_bytes_per_cycle:
        Sustained off-chip bandwidth available to the accelerator, expressed
        per accelerator cycle.  Used as a roofline bound on layer runtime.
        The default (64 B/cycle at 500 MHz = 32 GB/s) keeps the evaluated
        layers compute-bound, matching the paper's analytical comparison; the
        DRAM roofline ablation benchmark sweeps this parameter.
    address_fifo_depth / uop_fifo_depth:
        Depths of the per-PE decoupling FIFOs (8×32-bit I/O FIFOs in
        Table III; the µop FIFO uses the same depth).
    index_generators_per_pe:
        Strided µindex generators per access µ-engine (input, weight, output).
    mimd_dispatch_overhead_cycles:
        Extra cycles charged per MIMD-SIMD global µop dispatch (local buffer
        lookup + broadcast); amortised over the repeated execute µops.
    zero_gating_energy_fraction:
        Fraction of the full MAC energy consumed by an EYERISS PE when data
        gating suppresses a multiply on a zero operand.  EYERISS saves energy
        but not cycles on gated operations.
    ganax_target_utilization:
        Upper bound on the PE-array utilization GANAX can reach after the
        output/filter row reorganization (the paper reports ≈90%).
    """

    num_pvs: int = 16
    pes_per_pv: int = 16
    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    data_bits: int = DEFAULT_DATA_BITS

    input_register_entries: int = 12
    partial_sum_register_entries: int = 24
    weight_sram_entries: int = 224
    local_uop_entries: int = 16
    global_uop_entries: int = 32
    global_uop_bits: int = 64
    pv_index_bits: int = 4
    global_data_buffer_bytes: int = 108 * 1024
    global_instruction_buffer_bytes: int = 27 * 1024

    dram_bandwidth_bytes_per_cycle: float = 64.0
    address_fifo_depth: int = 8
    uop_fifo_depth: int = 8
    index_generators_per_pe: int = 3

    mimd_dispatch_overhead_cycles: int = 1
    zero_gating_energy_fraction: float = 0.1
    ganax_target_utilization: float = 0.92

    def __post_init__(self) -> None:
        if self.num_pvs <= 0 or self.pes_per_pv <= 0:
            raise ConfigurationError(
                "PE array dimensions must be positive, got "
                f"{self.num_pvs} PVs x {self.pes_per_pv} PEs"
            )
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency_hz must be positive")
        if self.data_bits <= 0:
            raise ConfigurationError("data_bits must be positive")
        if self.local_uop_entries <= 0 or self.global_uop_entries <= 0:
            raise ConfigurationError("µop buffer sizes must be positive")
        if not (0.0 <= self.zero_gating_energy_fraction <= 1.0):
            raise ConfigurationError(
                "zero_gating_energy_fraction must lie in [0, 1]"
            )
        if not (0.0 < self.ganax_target_utilization <= 1.0):
            raise ConfigurationError(
                "ganax_target_utilization must lie in (0, 1]"
            )
        if self.dram_bandwidth_bytes_per_cycle <= 0:
            raise ConfigurationError("dram_bandwidth_bytes_per_cycle must be positive")
        if self.pv_index_bits <= 0:
            raise ConfigurationError("pv_index_bits must be positive")
        if (1 << self.pv_index_bits) < self.local_uop_entries:
            raise ConfigurationError(
                f"{self.pv_index_bits}-bit PV index cannot address "
                f"{self.local_uop_entries} local µop entries"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Total number of processing engines in the array."""
        return self.num_pvs * self.pes_per_pv

    @property
    def data_bytes(self) -> int:
        """Size of one data word in bytes."""
        return (self.data_bits + 7) // 8

    @property
    def cycle_time_s(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0 / self.frequency_hz

    @property
    def peak_macs_per_cycle(self) -> int:
        """Peak multiply-accumulate throughput of the array (1 MAC/PE/cycle)."""
        return self.num_pes

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into wall-clock seconds at this frequency."""
        return cycles * self.cycle_time_s

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def with_updates(self, **changes: Any) -> "ArchitectureConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return replace(self, **changes)

    def to_mapping(self) -> Dict[str, Any]:
        """All configuration fields as a plain dict (inverse of ``from_mapping``).

        The mapping contains only declared dataclass fields with numerically
        normalized values (integral floats collapse to int), so it is the
        canonical serialization that :func:`repro.analysis.serialization.
        config_fingerprint` hashes: equal configs always map equal.
        """
        return {f.name: _canonical_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def paper_default(cls) -> "ArchitectureConfig":
        """The configuration evaluated in the paper (16x16 PEs @ 500 MHz)."""
        return cls()

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ArchitectureConfig":
        """Build a configuration from a plain mapping (e.g. parsed JSON)."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(mapping) - known
        if unknown:
            raise ConfigurationError(
                f"unknown configuration keys: {sorted(unknown)}"
            )
        return cls(**dict(mapping))


@dataclass(frozen=True)
class SimulationOptions:
    """Options controlling a whole-model simulation run.

    Attributes
    ----------
    batch_size:
        Number of inputs processed per run.  The paper evaluates inference of
        a single generated sample, so the default is 1.
    include_discriminator:
        Whether the discriminator layers are simulated alongside the
        generator (needed for Figure 9).
    magan_discriminator_conv_only:
        The paper notes that for MAGAN's discriminator only the convolution
        layers are counted, because its discriminator is an autoencoder that
        also contains transposed-convolution layers.
    ganax_zero_skipping:
        Whether the GANAX model skips the inserted-zero operations of
        transposed convolutions through its strided µindex generators (the
        paper's design).  Disabling it models the ablated dense machine that
        executes the zero-inserted input like the baseline while still paying
        the MIMD µop dispatch — the ``"ganax-noskip"`` entry of
        :mod:`repro.accelerators` forces this flag off.
    schedule:
        Canonical spec string of the :class:`~repro.schedule.ScheduleSpec`
        lowering each layer (see :mod:`repro.schedule`).  Resolved and
        canonicalized at construction, so unknown spec strings fail here and
        aliases of the same registered schedule compare (and fingerprint)
        equal.  Models without µop machinery collapse it to ``"default"``
        via ``canonical_options``.
    """

    batch_size: int = 1
    include_discriminator: bool = True
    magan_discriminator_conv_only: bool = True
    ganax_zero_skipping: bool = True
    schedule: str = "default"

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if not isinstance(self.schedule, str) or not self.schedule.strip():
            raise ConfigurationError("schedule must be a non-empty spec string")
        if self.schedule != "default":
            # Late import: repro.schedule depends only on repro.errors, so
            # this cannot cycle; resolving here canonicalizes family points
            # (``colmajor`` -> ``colmajor@tile64``) and rejects typos at the
            # options boundary instead of deep inside a simulation.
            from .schedule import canonical_schedule_name

            object.__setattr__(self, "schedule", canonical_schedule_name(self.schedule))

    def with_updates(self, **changes: Any) -> "SimulationOptions":
        """Return a copy of these options with ``changes`` applied."""
        return replace(self, **changes)

    def to_mapping(self) -> Dict[str, Any]:
        """All option fields as a plain dict (inverse of ``from_mapping``).

        Values are numerically normalized like
        :meth:`ArchitectureConfig.to_mapping`, so equal options map equal.
        """
        return {f.name: _canonical_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "SimulationOptions":
        """Build options from a plain mapping (e.g. parsed JSON)."""
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigurationError(f"unknown option keys: {sorted(unknown)}")
        return cls(**dict(mapping))
