"""EYERISS-style row-stationary baseline accelerator model."""

from .performance import LayerEstimate, estimate_layer
from .row_stationary import RowStationaryMapping, map_layer
from .simulator import ACCELERATOR_NAME, EyerissSimulator

__all__ = [
    "LayerEstimate",
    "estimate_layer",
    "RowStationaryMapping",
    "map_layer",
    "ACCELERATOR_NAME",
    "EyerissSimulator",
]
