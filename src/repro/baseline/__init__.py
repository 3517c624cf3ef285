"""EYERISS-style row-stationary baseline accelerator model."""

from .performance import BaselineLayerEstimate, estimate_layer
from .row_stationary import RowStationaryMapping, map_layer
from .simulator import ACCELERATOR_NAME, EyerissSimulator

__all__ = [
    "BaselineLayerEstimate",
    "estimate_layer",
    "RowStationaryMapping",
    "map_layer",
    "ACCELERATOR_NAME",
    "EyerissSimulator",
]
