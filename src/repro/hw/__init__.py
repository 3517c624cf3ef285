"""Hardware substrate: event counters, FIFOs, scratchpads, energy and area models."""

from .area import AcceleratorAreaBreakdown, AreaModel, PeAreaBreakdown
from .counters import EventCounters
from .energy import ENERGY_COMPONENTS, EnergyBreakdown, EnergyModel, EnergyTable
from .fifo import Fifo
from .sram import Scratchpad

__all__ = [
    "AcceleratorAreaBreakdown",
    "AreaModel",
    "PeAreaBreakdown",
    "EventCounters",
    "ENERGY_COMPONENTS",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyTable",
    "Fifo",
    "Scratchpad",
]
