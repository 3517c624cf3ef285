"""Energy model based on Table II of the paper.

Table II reports per-bit energy costs for the major structures (TSMC 45 nm,
numbers aligned with TETRIS/EYERISS): register file 0.20 pJ/bit, 16-bit
fixed-point PE 0.36 pJ/bit, inter-PE communication 0.40 pJ/bit, global buffer
access 1.20 pJ/bit, DDR4 memory access 15.0 pJ/bit.  The PE cost already
includes the strided µindex generators, per the table's caption.

:class:`EnergyModel` converts :class:`~repro.hw.counters.EventCounters`
(events on data words) into an :class:`EnergyBreakdown` in picojoules, using
the configured word width, or into the breakdown's five components as one
tuple (:meth:`EnergyModel.energy_parts`, what a layer result keeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

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


@dataclass(frozen=True, init=False)
class EnergyBreakdown:
    """Energy (picojoules) split by microarchitectural component.

    The component set mirrors Figure 10: PE datapath, register files, NoC,
    global buffer and DRAM.

    A :class:`~repro.analysis.results.LayerResult` keeps no breakdown: it
    keeps :meth:`EnergyModel.energy_parts`, the same five numbers in field
    order as one tuple, which the garbage collector stops tracking, and
    builds a breakdown on each read of its ``energy``.  Breakdowns are the
    totals and the reporting view.

    ``__init__`` is hand-written: plain stores into the instance
    ``__dict__`` (in field order, so pickles keep their bytes) cost about
    half the generated frozen ``__init__``'s one ``object.__setattr__`` per
    field.  It takes the same parameters and defaults and still runs
    ``__post_init__`` (``tests/test_record_init.py`` keeps it in step with
    the fields).
    """

    pe_pj: float = 0.0
    rf_pj: float = 0.0
    noc_pj: float = 0.0
    gbuf_pj: float = 0.0
    dram_pj: float = 0.0

    def __init__(
        self,
        pe_pj: float = 0.0,
        rf_pj: float = 0.0,
        noc_pj: float = 0.0,
        gbuf_pj: float = 0.0,
        dram_pj: float = 0.0,
    ) -> None:
        state = self.__dict__
        state["pe_pj"] = pe_pj
        state["rf_pj"] = rf_pj
        state["noc_pj"] = noc_pj
        state["gbuf_pj"] = gbuf_pj
        state["dram_pj"] = dram_pj
        self.__post_init__()

    def __post_init__(self) -> None:
        if (
            self.pe_pj < 0
            or self.rf_pj < 0
            or self.noc_pj < 0
            or self.gbuf_pj < 0
            or self.dram_pj < 0
        ):
            _reject_negative(self.as_dict().values())

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


def _reject_negative(parts: Iterable[float]) -> None:
    """Raise for the first negative component of ``parts`` (field order)."""
    for name, value in zip(ENERGY_COMPONENTS, parts):
        if value < 0:
            raise ConfigurationError(f"energy component {name} cannot be negative")


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
        # The table is frozen: read its per-bit costs once, not per layer.
        t = self._table
        self._costs = (
            t.pe_pj_per_bit,
            t.index_generation_pj_per_bit,
            t.register_file_pj_per_bit,
            t.uop_fetch_pj_per_bit,
            t.inter_pe_pj_per_bit,
            t.global_buffer_pj_per_bit,
            t.dram_pj_per_bit,
        )

    @property
    def table(self) -> EnergyTable:
        return self._table

    @property
    def data_bits(self) -> int:
        return self._data_bits

    def energy_of(self, counters: EventCounters) -> EnergyBreakdown:
        """Energy breakdown (pJ) corresponding to ``counters``."""
        return EnergyBreakdown(*self.energy_parts(counters))

    def energy_parts(self, counters: EventCounters) -> Tuple[float, ...]:
        """The components of :meth:`energy_of` (pJ), in field order.

        Each term keeps its left-associative ``count * cost * width
        [* factor]`` order: folding the constant factors first would round
        differently whenever one of them is not a power of two.  A negative
        component raises the :class:`EnergyBreakdown` error.
        """
        bits = self._data_bits
        pe, index, rf, uop, noc, gbuf, dram = self._costs
        c = counters
        pe_pj = (
            c.mac_ops * pe * bits
            + c.alu_ops * pe * bits * 0.5
            + c.gated_ops * pe * bits * self._gated_op_fraction
            + c.index_generations * index * bits
        )
        rf_pj = (
            c.register_file_accesses * rf * bits
            + c.uop_fetches * uop * self._uop_bits
        )
        noc_pj = c.noc_transfers * noc * bits
        gbuf_pj = c.global_buffer_accesses * gbuf * bits
        dram_pj = c.dram_accesses * dram * bits
        parts = (pe_pj, rf_pj, noc_pj, gbuf_pj, dram_pj)
        if pe_pj < 0 or rf_pj < 0 or noc_pj < 0 or gbuf_pj < 0 or dram_pj < 0:
            _reject_negative(parts)
        return parts
