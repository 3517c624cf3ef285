"""GANAX core: dataflow, ISA-level machine, compiler and analytical simulator."""

from .access_engine import AccessEngine
from .compiler import GanaxLayerExecutor, LayerExecution
from .dataflow import (
    ColumnSegment,
    DataflowSchedule,
    RowGroup,
    average_active_filter_rows,
    build_schedule,
)
from .execute_engine import ExecuteEngine
from .index_generator import GeneratorConfig, StridedIndexGenerator
from .machine import GanaxMachine, MachineRunStatistics
from .pe import ProcessingEngine
from .performance import estimate_layer
from .pv import ProcessingVector
from .simulator import ACCELERATOR_NAME, GanaxSimulator
from .uop_buffers import GlobalUopBuffer, LocalUopBuffer

__all__ = [
    "AccessEngine",
    "GanaxLayerExecutor",
    "LayerExecution",
    "ColumnSegment",
    "DataflowSchedule",
    "RowGroup",
    "average_active_filter_rows",
    "build_schedule",
    "ExecuteEngine",
    "GeneratorConfig",
    "StridedIndexGenerator",
    "GanaxMachine",
    "MachineRunStatistics",
    "ProcessingEngine",
    "estimate_layer",
    "ProcessingVector",
    "ACCELERATOR_NAME",
    "GanaxSimulator",
    "GlobalUopBuffer",
    "LocalUopBuffer",
]
