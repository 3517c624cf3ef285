"""Layer specifications for the GAN workloads.

Each layer is a small frozen dataclass that knows how to:

* compute its output :class:`~repro.nn.shapes.FeatureMapShape`,
* report its weight footprint, and
* report its multiply-accumulate (MAC) work, both *total* (as executed by a
  conventional dense convolution dataflow over the zero-inserted input) and
  *consequential* (MACs whose operands are genuine, non-inserted values).

The consequential/inconsequential split is the quantity Figure 1 of the paper
plots and the quantity GANAX exploits.  The aggregate counts live here; the
per-row patterns of consequential filter rows are the row groups of
:func:`repro.core.dataflow.build_schedule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import LayerError, ShapeError
from .shapes import (
    FeatureMapShape,
    conv_geometry_tuple,
    conv_output_extent,
    transposed_conv_output_extent,
    zero_inserted_extent,
)


@dataclass(frozen=True)
class LayerSpec:
    """Base class for all layer specifications.

    Attributes
    ----------
    name:
        Human readable layer name, unique within a network (e.g. ``"tconv2"``).
    """

    name: str

    # -- interface -----------------------------------------------------
    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        """Shape of the feature map this layer produces for ``input_shape``."""
        raise NotImplementedError

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        """Number of scalar weights (0 for weight-less layers)."""
        raise NotImplementedError

    def total_macs(self, input_shape: FeatureMapShape) -> int:
        """MACs executed by a dense dataflow (zeros included for tconv)."""
        raise NotImplementedError

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        """MACs whose input operand is a genuine (non-inserted) value."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------
    @property
    def is_convolutional(self) -> bool:
        """True for convolution-family layers (conv / transposed conv)."""
        return isinstance(self, (ConvLayer, TransposedConvLayer))

    @property
    def is_transposed(self) -> bool:
        """True only for transposed-convolution layers."""
        return isinstance(self, TransposedConvLayer)

    def inconsequential_macs(self, input_shape: FeatureMapShape) -> int:
        """MACs wasted on inserted zeros under a dense dataflow."""
        return self.total_macs(input_shape) - self.consequential_macs(input_shape)

    def inconsequential_fraction(self, input_shape: FeatureMapShape) -> float:
        """Fraction of dense MACs that are inconsequential (Figure 1)."""
        total = self.total_macs(input_shape)
        if total == 0:
            return 0.0
        return self.inconsequential_macs(input_shape) / total


def _validate_conv_common(
    name: str,
    out_channels: int,
    kernel: Tuple[int, ...],
    stride: Tuple[int, ...],
    padding: Tuple[int, ...],
) -> None:
    if not name:
        raise LayerError("layer name must be non-empty")
    if out_channels <= 0:
        raise LayerError(f"{name}: out_channels must be positive, got {out_channels}")
    if any(k <= 0 for k in kernel):
        raise LayerError(f"{name}: kernel extents must be positive, got {kernel}")
    if any(s <= 0 for s in stride):
        raise LayerError(f"{name}: stride extents must be positive, got {stride}")
    if any(p < 0 for p in padding):
        raise LayerError(f"{name}: padding must be non-negative, got {padding}")


@lru_cache(maxsize=4096)
def consequential_taps_along_extent(
    in_extent: int, out_extent: int, kernel: int, stride: int, padding: int
) -> Tuple[int, ...]:
    """Per-output-coordinate consequential tap counts along one dimension.

    Vectorized over the (output coordinate, kernel tap) grid and memoized on
    the five geometry scalars: the same extents recur for every channel pair,
    every repeated block of a generator stack, and across workload variants
    that share layer geometry, so virtually all calls after the first are
    dictionary lookups.
    """
    border = kernel - 1 - padding
    zi_extent = (in_extent - 1) * stride + 1
    expanded = (
        np.arange(out_extent, dtype=np.int64)[:, None]
        + np.arange(kernel, dtype=np.int64)[None, :]
        - border
    )
    genuine = (expanded >= 0) & (expanded < zi_extent) & (expanded % stride == 0)
    return tuple(int(taps) for taps in genuine.sum(axis=1))


@dataclass(frozen=True)
class ConvLayer(LayerSpec):
    """A conventional (strided) convolution layer of arbitrary spatial rank.

    ``kernel``, ``stride`` and ``padding`` may be scalars (broadcast to every
    spatial dimension) or per-dimension tuples.
    """

    out_channels: int = 0
    kernel: Tuple[int, ...] = ()
    stride: Tuple[int, ...] = (1,)
    padding: Tuple[int, ...] = (0,)
    rank: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", conv_geometry_tuple(self.kernel, self.rank, "kernel"))
        object.__setattr__(self, "stride", conv_geometry_tuple(self.stride, self.rank, "stride"))
        object.__setattr__(self, "padding", conv_geometry_tuple(self.padding, self.rank, "padding"))
        _validate_conv_common(self.name, self.out_channels, self.kernel, self.stride, self.padding)

    # -- shapes ----------------------------------------------------------
    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        if input_shape.rank != self.rank:
            raise ShapeError(
                f"{self.name}: expected rank-{self.rank} input, got rank "
                f"{input_shape.rank} ({input_shape})"
            )
        spatial = tuple(
            conv_output_extent(extent, k, s, p)
            for extent, k, s, p in zip(
                input_shape.spatial, self.kernel, self.stride, self.padding
            )
        )
        return FeatureMapShape(channels=self.out_channels, spatial=spatial)

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        kernel_volume = math.prod(self.kernel)
        return self.out_channels * input_shape.channels * kernel_volume

    # -- work ------------------------------------------------------------
    def total_macs(self, input_shape: FeatureMapShape) -> int:
        out = self.output_shape(input_shape)
        kernel_volume = math.prod(self.kernel)
        return out.spatial_size * out.channels * input_shape.channels * kernel_volume

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        # Conventional convolution has no structurally-inserted zeros: every
        # MAC is consequential (data-dependent sparsity is out of scope here,
        # matching the paper's structural analysis).
        return self.total_macs(input_shape)


@dataclass(frozen=True)
class TransposedConvLayer(LayerSpec):
    """A transposed (fractionally-strided) convolution layer.

    The layer is modelled through the zero-insertion formulation used by the
    paper: ``stride - 1`` zeros are inserted between neighbouring input
    elements along every spatial dimension, the expanded map is padded with
    ``kernel - 1 - padding`` on each border, and a unit-stride convolution is
    slid over the result.
    """

    out_channels: int = 0
    kernel: Tuple[int, ...] = ()
    stride: Tuple[int, ...] = (1,)
    padding: Tuple[int, ...] = (0,)
    output_padding: Tuple[int, ...] = (0,)
    rank: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", conv_geometry_tuple(self.kernel, self.rank, "kernel"))
        object.__setattr__(self, "stride", conv_geometry_tuple(self.stride, self.rank, "stride"))
        object.__setattr__(self, "padding", conv_geometry_tuple(self.padding, self.rank, "padding"))
        object.__setattr__(
            self,
            "output_padding",
            conv_geometry_tuple(self.output_padding, self.rank, "output_padding"),
        )
        _validate_conv_common(self.name, self.out_channels, self.kernel, self.stride, self.padding)
        for k, p in zip(self.kernel, self.padding):
            if k - 1 - p < 0:
                raise LayerError(
                    f"{self.name}: padding {p} exceeds kernel-1 ({k - 1}); the "
                    "zero-insertion formulation requires padding <= kernel - 1"
                )

    # -- shapes ----------------------------------------------------------
    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        if input_shape.rank != self.rank:
            raise ShapeError(
                f"{self.name}: expected rank-{self.rank} input, got rank "
                f"{input_shape.rank} ({input_shape})"
            )
        spatial = tuple(
            transposed_conv_output_extent(extent, k, s, p, op)
            for extent, k, s, p, op in zip(
                input_shape.spatial,
                self.kernel,
                self.stride,
                self.padding,
                self.output_padding,
            )
        )
        return FeatureMapShape(channels=self.out_channels, spatial=spatial)

    def expanded_spatial(self, input_shape: FeatureMapShape) -> Tuple[int, ...]:
        """Spatial extents of the zero-inserted (and edge-padded) input.

        The expanded map is exactly the region the unit-stride convolution
        window slides over, i.e. ``output_extent + kernel - 1`` along every
        dimension, which equals the zero-inserted extent plus the implicit
        border padding of ``kernel - 1 - padding`` (+ output_padding on the
        trailing edge).
        """
        out = self.output_shape(input_shape)
        return tuple(o + k - 1 for o, k in zip(out.spatial, self.kernel))

    def zero_inserted_spatial(self, input_shape: FeatureMapShape) -> Tuple[int, ...]:
        """Spatial extents after zero insertion but before border padding."""
        return tuple(
            zero_inserted_extent(extent, s)
            for extent, s in zip(input_shape.spatial, self.stride)
        )

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        kernel_volume = math.prod(self.kernel)
        return self.out_channels * input_shape.channels * kernel_volume

    # -- work ------------------------------------------------------------
    def total_macs(self, input_shape: FeatureMapShape) -> int:
        """Dense MACs when the zero-inserted input is convolved naively."""
        out = self.output_shape(input_shape)
        kernel_volume = math.prod(self.kernel)
        return out.spatial_size * out.channels * input_shape.channels * kernel_volume

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        """MACs whose input operand is a genuine value.

        Each genuine input element at position ``x`` contributes to all output
        positions it overlaps under the kernel, which (ignoring borders) is the
        full kernel volume; the exact count is obtained by summing, per
        dimension, how many kernel taps keep the element inside the output.
        Equivalently (and how we compute it here): for each output position
        and kernel tap, the tap is consequential iff it lands on a genuine
        element of the expanded input.  The per-dimension counts factorise, so
        the exact total is the product over dimensions of the summed
        per-output-coordinate consequential tap counts.
        """
        out = self.output_shape(input_shape)
        per_dim_sums = []
        for dim in range(self.rank):
            per_dim_sums.append(
                self._consequential_taps_along_dim(
                    in_extent=input_shape.spatial[dim],
                    out_extent=out.spatial[dim],
                    kernel=self.kernel[dim],
                    stride=self.stride[dim],
                    padding=self.padding[dim],
                )
            )
        spatial_consequential = math.prod(sum(counts) for counts in per_dim_sums)
        return spatial_consequential * out.channels * input_shape.channels

    def consequential_taps_along_dim(self, input_shape: FeatureMapShape, dim: int) -> Tuple[int, ...]:
        """Per-output-coordinate consequential kernel-tap counts along ``dim``."""
        out = self.output_shape(input_shape)
        return self._consequential_taps_along_dim(
            in_extent=input_shape.spatial[dim],
            out_extent=out.spatial[dim],
            kernel=self.kernel[dim],
            stride=self.stride[dim],
            padding=self.padding[dim],
        )

    @staticmethod
    def _consequential_taps_along_dim(
        in_extent: int, out_extent: int, kernel: int, stride: int, padding: int
    ) -> Tuple[int, ...]:
        """Count consequential kernel taps for every output coordinate.

        In the zero-insertion formulation, output coordinate ``o`` is produced
        by a window covering expanded coordinates ``o .. o + kernel - 1`` where
        the expanded array has ``kernel - 1 - padding`` border zeros followed
        by the zero-inserted input.  Expanded coordinate ``e`` holds a genuine
        element iff ``e - (kernel - 1 - padding)`` is a non-negative multiple
        of ``stride`` smaller than ``(in_extent - 1) * stride + 1``.
        """
        return consequential_taps_along_extent(
            in_extent, out_extent, kernel, stride, padding
        )


@dataclass(frozen=True)
class DenseLayer(LayerSpec):
    """A fully connected layer (used for the projection layer of generators)."""

    out_features: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise LayerError("layer name must be non-empty")
        if self.out_features <= 0:
            raise LayerError(f"{self.name}: out_features must be positive")

    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        return FeatureMapShape.vector(self.out_features)

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        return input_shape.num_elements * self.out_features

    def total_macs(self, input_shape: FeatureMapShape) -> int:
        return input_shape.num_elements * self.out_features

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        return self.total_macs(input_shape)


@dataclass(frozen=True)
class ReshapeLayer(LayerSpec):
    """Reinterpret a flat vector as a multi-channel feature map (no compute)."""

    target: Optional[FeatureMapShape] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise LayerError("layer name must be non-empty")
        if self.target is None:
            raise LayerError(f"{self.name}: target shape is required")

    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        assert self.target is not None
        if input_shape.num_elements != self.target.num_elements:
            raise ShapeError(
                f"{self.name}: cannot reshape {input_shape.num_elements} elements "
                f"into {self.target.num_elements}"
            )
        return self.target

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        return 0

    def total_macs(self, input_shape: FeatureMapShape) -> int:
        return 0

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        return 0


@dataclass(frozen=True)
class ActivationLayer(LayerSpec):
    """Element-wise activation (ReLU, leaky ReLU, tanh, sigmoid)."""

    function: str = "relu"

    _SUPPORTED = ("relu", "leaky_relu", "tanh", "sigmoid")

    def __post_init__(self) -> None:
        if not self.name:
            raise LayerError("layer name must be non-empty")
        if self.function not in self._SUPPORTED:
            raise LayerError(
                f"{self.name}: unsupported activation '{self.function}', "
                f"expected one of {self._SUPPORTED}"
            )

    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        return input_shape

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        return 0

    def total_macs(self, input_shape: FeatureMapShape) -> int:
        return 0

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        return 0


@dataclass(frozen=True)
class BatchNormLayer(LayerSpec):
    """Batch normalisation folded into a per-channel scale and shift."""

    def __post_init__(self) -> None:
        if not self.name:
            raise LayerError("layer name must be non-empty")

    def output_shape(self, input_shape: FeatureMapShape) -> FeatureMapShape:
        return input_shape

    def weight_count(self, input_shape: FeatureMapShape) -> int:
        return 2 * input_shape.channels

    def total_macs(self, input_shape: FeatureMapShape) -> int:
        # One multiply-add per element for the folded scale/shift.
        return input_shape.num_elements

    def consequential_macs(self, input_shape: FeatureMapShape) -> int:
        return self.total_macs(input_shape)
