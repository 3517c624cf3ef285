"""Energy model based on Table II of the paper.

Table II reports per-bit energy costs for the major structures (TSMC 45 nm,
numbers aligned with TETRIS/EYERISS): register file 0.20 pJ/bit, 16-bit
fixed-point PE 0.36 pJ/bit, inter-PE communication 0.40 pJ/bit, global buffer
access 1.20 pJ/bit, DDR4 memory access 15.0 pJ/bit.  The PE cost already
includes the strided µindex generators, per the table's caption.

:class:`EnergyModel` converts :class:`~repro.hw.counters.EventCounters`
(events on data words) into an :class:`EnergyBreakdown` in picojoules, using
the configured word width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..errors import ConfigurationError
from .counters import EventCounters

#: Canonical component keys used in breakdowns (Figure 10's categories).
ENERGY_COMPONENTS = ("pe", "rf", "noc", "gbuf", "dram")


@dataclass(frozen=True)
class EnergyTable:
    """Per-bit energy costs (picojoules per bit), Table II of the paper."""

    register_file_pj_per_bit: float = 0.20
    pe_pj_per_bit: float = 0.36
    inter_pe_pj_per_bit: float = 0.40
    global_buffer_pj_per_bit: float = 1.20
    dram_pj_per_bit: float = 15.00
    uop_fetch_pj_per_bit: float = 0.20
    index_generation_pj_per_bit: float = 0.0  # folded into the PE cost (Table II)

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ConfigurationError(f"energy cost {name} cannot be negative")

    def as_dict(self) -> Dict[str, float]:
        return {
            "register_file_pj_per_bit": self.register_file_pj_per_bit,
            "pe_pj_per_bit": self.pe_pj_per_bit,
            "inter_pe_pj_per_bit": self.inter_pe_pj_per_bit,
            "global_buffer_pj_per_bit": self.global_buffer_pj_per_bit,
            "dram_pj_per_bit": self.dram_pj_per_bit,
            "uop_fetch_pj_per_bit": self.uop_fetch_pj_per_bit,
            "index_generation_pj_per_bit": self.index_generation_pj_per_bit,
        }

    def relative_costs(self) -> Dict[str, float]:
        """Costs normalised to the register-file access (Table II last column)."""
        base = self.register_file_pj_per_bit
        if base <= 0:
            raise ConfigurationError("register file energy must be positive")
        return {
            "Register File Access": self.register_file_pj_per_bit / base,
            "16-bit Fixed Point PE": self.pe_pj_per_bit / base,
            "Inter-PE Communication": self.inter_pe_pj_per_bit / base,
            "Global Buffer Access": self.global_buffer_pj_per_bit / base,
            "DDR4 Memory Access": self.dram_pj_per_bit / base,
        }

    @classmethod
    def paper_table2(cls) -> "EnergyTable":
        """The exact Table II numbers."""
        return cls()


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (picojoules) split by microarchitectural component.

    The component set mirrors Figure 10: PE datapath, register files, NoC,
    global buffer and DRAM.
    """

    pe_pj: float = 0.0
    rf_pj: float = 0.0
    noc_pj: float = 0.0
    gbuf_pj: float = 0.0
    dram_pj: float = 0.0

    def __post_init__(self) -> None:
        if (
            self.pe_pj < 0
            or self.rf_pj < 0
            or self.noc_pj < 0
            or self.gbuf_pj < 0
            or self.dram_pj < 0
        ):
            for name, value in self.as_dict().items():
                if value < 0:
                    raise ConfigurationError(
                        f"energy component {name} cannot be negative"
                    )

    @property
    def total_pj(self) -> float:
        return self.pe_pj + self.rf_pj + self.noc_pj + self.gbuf_pj + self.dram_pj

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    def as_dict(self) -> Dict[str, float]:
        return {
            "pe": self.pe_pj,
            "rf": self.rf_pj,
            "noc": self.noc_pj,
            "gbuf": self.gbuf_pj,
            "dram": self.dram_pj,
        }

    def fractions(self) -> Dict[str, float]:
        """Each component as a fraction of the total (0 if total is 0)."""
        total = self.total_pj
        if total <= 0:
            return {key: 0.0 for key in ENERGY_COMPONENTS}
        return {key: value / total for key, value in self.as_dict().items()}

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            pe_pj=self.pe_pj + other.pe_pj,
            rf_pj=self.rf_pj + other.rf_pj,
            noc_pj=self.noc_pj + other.noc_pj,
            gbuf_pj=self.gbuf_pj + other.gbuf_pj,
            dram_pj=self.dram_pj + other.dram_pj,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        if factor < 0:
            raise ConfigurationError("cannot scale energy by a negative factor")
        return EnergyBreakdown(
            pe_pj=self.pe_pj * factor,
            rf_pj=self.rf_pj * factor,
            noc_pj=self.noc_pj * factor,
            gbuf_pj=self.gbuf_pj * factor,
            dram_pj=self.dram_pj * factor,
        )

    @classmethod
    def zero(cls) -> "EnergyBreakdown":
        return cls()

    @classmethod
    def sum(cls, breakdowns) -> "EnergyBreakdown":
        """Component-wise sum, added in order (equal to chaining ``+``)."""
        pe = rf = noc = gbuf = dram = 0.0
        for b in breakdowns:
            pe += b.pe_pj
            rf += b.rf_pj
            noc += b.noc_pj
            gbuf += b.gbuf_pj
            dram += b.dram_pj
        return cls(pe, rf, noc, gbuf, dram)


class EnergyModel:
    """Converts event counters into an energy breakdown.

    Parameters
    ----------
    table:
        Per-bit energy costs (defaults to the paper's Table II).
    data_bits:
        Width of a data word.
    uop_bits:
        Width of a fetched µop (used for the small µop-fetch overhead, which
        is charged to the register-file category as the µop buffers are small
        SRAM structures inside the PE array).
    gated_op_fraction:
        Fraction of the full PE energy charged for a zero-gated operation
        (EYERISS's data gating saves most, but not all, of the MAC energy).
    """

    def __init__(
        self,
        table: EnergyTable | None = None,
        data_bits: int = 16,
        uop_bits: int = 16,
        gated_op_fraction: float = 0.1,
    ) -> None:
        if data_bits <= 0 or uop_bits <= 0:
            raise ConfigurationError("data_bits and uop_bits must be positive")
        if not (0.0 <= gated_op_fraction <= 1.0):
            raise ConfigurationError("gated_op_fraction must lie in [0, 1]")
        self._table = table or EnergyTable.paper_table2()
        self._data_bits = data_bits
        self._uop_bits = uop_bits
        self._gated_op_fraction = gated_op_fraction

    @property
    def table(self) -> EnergyTable:
        return self._table

    @property
    def data_bits(self) -> int:
        return self._data_bits

    def energy_of(self, counters: EventCounters) -> EnergyBreakdown:
        """Energy breakdown (pJ) corresponding to ``counters``.

        Each term keeps its left-associative ``count * cost * width
        [* factor]`` order: folding the constant factors first would round
        differently whenever one of them is not a power of two.
        """
        bits = self._data_bits
        t = self._table
        pe_pj = (
            counters.mac_ops * t.pe_pj_per_bit * bits
            + counters.alu_ops * t.pe_pj_per_bit * bits * 0.5
            + counters.gated_ops * t.pe_pj_per_bit * bits * self._gated_op_fraction
            + counters.index_generations * t.index_generation_pj_per_bit * bits
        )
        rf_pj = (
            counters.register_file_accesses * t.register_file_pj_per_bit * bits
            + counters.uop_fetches * t.uop_fetch_pj_per_bit * self._uop_bits
        )
        noc_pj = counters.noc_transfers * t.inter_pe_pj_per_bit * bits
        gbuf_pj = counters.global_buffer_accesses * t.global_buffer_pj_per_bit * bits
        dram_pj = counters.dram_accesses * t.dram_pj_per_bit * bits
        return EnergyBreakdown(
            pe_pj=pe_pj, rf_pj=rf_pj, noc_pj=noc_pj, gbuf_pj=gbuf_pj, dram_pj=dram_pj
        )
