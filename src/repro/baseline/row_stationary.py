"""Row-stationary mapping of convolution layers onto a 2-D PE array.

EYERISS maps a convolution onto its PE array with the *row-stationary* (RS)
dataflow: one PE computes the 1-D convolution of one filter row with one input
row; a logical *PE set* of ``R`` (filter height) by ``E`` (output height) PEs
produces one 2-D plane of partial sums; filter rows are reused horizontally,
input rows diagonally and partial sums are accumulated vertically across the
set.  Sets that do not fill the physical array are replicated across filters /
channels, and sets larger than the array are folded.

The reproduction implements the mapping arithmetic — how many logical PE sets
fit, how the spatial dimensions fold, and the resulting occupancy — because
that occupancy is what determines the *mapping utilization* term of the
baseline performance model.  The temporal loop ordering inside a PE is not
modelled beyond MAC counting, which is the same level of abstraction the
paper's analytical comparisons rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..config import ArchitectureConfig
from ..errors import DataflowError
from ..nn.layers import ConvLayer, TransposedConvLayer
from ..nn.network import LayerBinding


@dataclass(frozen=True, init=False)
class RowStationaryMapping:
    """Result of mapping one (t)conv layer onto the PE array.

    Attributes
    ----------
    filter_rows:
        Height of the kernel (``R``): the height of one logical PE set.
    output_rows:
        Height of the output feature map (``E``): the width of one PE set
        before folding.
    set_height / set_width:
        Dimensions of one logical PE set after folding to fit the array.
    folds:
        Number of sequential passes needed because a full PE set does not fit
        the array at once.
    sets_per_pass:
        Number of logical PE sets processed concurrently (replication across
        output channels / input channels).
    occupancy:
        Fraction of physical PEs holding useful work during a pass.

    ``__init__`` is hand-written: every convolutional layer of every job
    builds one, and plain stores into the instance ``__dict__`` (in field
    order, so pickles keep their bytes) cost about half the generated frozen
    ``__init__``'s one ``object.__setattr__`` per field.  It takes the same
    parameters and still runs ``__post_init__`` (``tests/test_record_init.py``
    keeps it in step with the fields).
    """

    filter_rows: int
    output_rows: int
    set_height: int
    set_width: int
    folds: int
    sets_per_pass: int
    occupancy: float

    def __init__(
        self,
        filter_rows: int,
        output_rows: int,
        set_height: int,
        set_width: int,
        folds: int,
        sets_per_pass: int,
        occupancy: float,
    ) -> None:
        state = self.__dict__
        state["filter_rows"] = filter_rows
        state["output_rows"] = output_rows
        state["set_height"] = set_height
        state["set_width"] = set_width
        state["folds"] = folds
        state["sets_per_pass"] = sets_per_pass
        state["occupancy"] = occupancy
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.set_height <= 0 or self.set_width <= 0:
            raise DataflowError("PE set dimensions must be positive")
        if not (0.0 < self.occupancy <= 1.0):
            raise DataflowError(f"occupancy must lie in (0, 1], got {self.occupancy}")


def spatial_rows_cols(binding: LayerBinding) -> Tuple[int, int, int, int]:
    """Extract (filter_rows, filter_cols, output_rows, output_cols).

    Rank-3 (voxel) layers fold their depth dimension into the output rows: the
    accelerator processes one depth slice after another, each slice being a
    2-D row-stationary problem, so the effective number of output rows is
    ``depth * height``.
    """
    layer = binding.layer
    if not isinstance(layer, (ConvLayer, TransposedConvLayer)):
        raise DataflowError(f"layer '{layer.name}' is not convolutional")
    kernel = layer.kernel
    out_spatial = binding.output_shape.spatial
    if layer.rank == 1:
        return kernel[0], 1, out_spatial[0], 1
    if layer.rank == 2:
        return kernel[0], kernel[1], out_spatial[0], out_spatial[1]
    if layer.rank == 3:
        return kernel[1], kernel[2], out_spatial[0] * out_spatial[1], out_spatial[2]
    raise DataflowError(f"unsupported rank {layer.rank} for layer '{layer.name}'")


def map_layer(binding: LayerBinding, config: ArchitectureConfig) -> RowStationaryMapping:
    """Map one convolutional layer binding onto the configured PE array."""
    filter_rows, _filter_cols, output_rows, _output_cols = spatial_rows_cols(binding)
    array_rows = config.num_pvs
    array_cols = config.pes_per_pv

    # Fold the PE-set height (filter rows) onto the array height.
    set_height = min(filter_rows, array_rows)
    height_folds = math.ceil(filter_rows / set_height)

    # Fold the PE-set width (output rows) onto the array width.
    set_width = min(output_rows, array_cols)
    width_folds = math.ceil(output_rows / set_width)

    # Replicate sets across the array when one set leaves idle PEs.
    sets_down = max(1, array_rows // set_height)
    sets_across = max(1, array_cols // set_width)
    sets_per_pass = sets_down * sets_across

    used_pes = sets_per_pass * set_height * set_width
    occupancy = min(1.0, used_pes / (array_rows * array_cols))

    return RowStationaryMapping(
        filter_rows=filter_rows,
        output_rows=output_rows,
        set_height=set_height,
        set_width=set_width,
        folds=height_folds * width_folds,
        sets_per_pass=sets_per_pass,
        occupancy=occupancy,
    )
