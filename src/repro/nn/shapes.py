"""Tensor shape helpers for feature maps used by the layer algebra.

The GAN workloads in the paper mix 2-D feature maps (images) and 3-D feature
maps (3D-GAN voxel grids).  :class:`FeatureMapShape` represents a single
feature map of arbitrary spatial rank with a channel count, and provides the
arithmetic used throughout the layer definitions: element counts, byte sizes,
and the standard convolution / transposed-convolution output-size formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import ShapeError


def _as_tuple(value: int | Sequence[int], rank: int, name: str) -> Tuple[int, ...]:
    """Broadcast a scalar (or 1-tuple) to ``rank`` dimensions or validate a sequence."""
    if isinstance(value, int):
        return (value,) * rank
    result = tuple(int(v) for v in value)
    if len(result) == 1 and rank > 1:
        return result * rank
    if len(result) != rank:
        raise ShapeError(
            f"{name} must have {rank} entries, got {len(result)}: {result}"
        )
    return result


@dataclass(frozen=True)
class FeatureMapShape:
    """Shape of a multi-channel feature map.

    Attributes
    ----------
    channels:
        Number of channels (depth of the feature map).
    spatial:
        Spatial extents, e.g. ``(height, width)`` for images or
        ``(depth, height, width)`` for voxel grids.
    """

    channels: int
    spatial: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ShapeError(f"channels must be positive, got {self.channels}")
        if not self.spatial:
            raise ShapeError("spatial extents must be non-empty")
        if any(s <= 0 for s in self.spatial):
            raise ShapeError(f"spatial extents must be positive, got {self.spatial}")
        object.__setattr__(self, "spatial", tuple(int(s) for s in self.spatial))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def image(cls, channels: int, height: int, width: int) -> "FeatureMapShape":
        """A 2-D feature map of ``channels x height x width``."""
        return cls(channels=channels, spatial=(height, width))

    @classmethod
    def volume(cls, channels: int, depth: int, height: int, width: int) -> "FeatureMapShape":
        """A 3-D feature map of ``channels x depth x height x width``."""
        return cls(channels=channels, spatial=(depth, height, width))

    @classmethod
    def vector(cls, length: int) -> "FeatureMapShape":
        """A flat vector, modelled as ``length`` channels of a 1x1 map."""
        return cls(channels=length, spatial=(1,))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of spatial dimensions (1, 2 or 3)."""
        return len(self.spatial)

    @property
    def height(self) -> int:
        """Height (second-to-last spatial dim) for rank >= 2 shapes."""
        if self.rank < 2:
            raise ShapeError(f"shape {self} has no height")
        return self.spatial[-2]

    @property
    def width(self) -> int:
        """Width (last spatial dim)."""
        return self.spatial[-1]

    @property
    def spatial_size(self) -> int:
        """Product of the spatial extents."""
        size = 1
        for s in self.spatial:
            size *= s
        return size

    @property
    def num_elements(self) -> int:
        """Total number of scalar elements (channels * spatial size)."""
        return self.channels * self.spatial_size

    def as_tuple(self) -> Tuple[int, ...]:
        """Full shape tuple ``(channels, *spatial)``."""
        return (self.channels, *self.spatial)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(s) for s in self.spatial)
        return f"{self.channels}x{dims}"


# ----------------------------------------------------------------------
# Convolution shape arithmetic
# ----------------------------------------------------------------------
def conv_output_extent(in_extent: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of a conventional convolution along one dimension."""
    if kernel <= 0 or stride <= 0 or padding < 0:
        raise ShapeError(
            f"invalid conv geometry: kernel={kernel} stride={stride} padding={padding}"
        )
    numerator = in_extent + 2 * padding - kernel
    if numerator < 0:
        raise ShapeError(
            f"kernel {kernel} larger than padded input {in_extent + 2 * padding}"
        )
    return numerator // stride + 1


def transposed_conv_output_extent(
    in_extent: int,
    kernel: int,
    stride: int,
    padding: int,
    output_padding: int = 0,
) -> int:
    """Output extent of a transposed convolution along one dimension.

    Uses the standard relationship
    ``out = (in - 1) * stride - 2 * padding + kernel + output_padding``.
    """
    if kernel <= 0 or stride <= 0 or padding < 0 or output_padding < 0:
        raise ShapeError(
            "invalid transposed conv geometry: "
            f"kernel={kernel} stride={stride} padding={padding} "
            f"output_padding={output_padding}"
        )
    if output_padding >= stride and output_padding >= kernel:
        raise ShapeError(
            f"output_padding {output_padding} must be smaller than stride "
            f"{stride} or kernel {kernel}"
        )
    out = (in_extent - 1) * stride - 2 * padding + kernel + output_padding
    if out <= 0:
        raise ShapeError(
            f"transposed conv produces non-positive extent {out} for input "
            f"{in_extent} (kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def zero_inserted_extent(in_extent: int, stride: int) -> int:
    """Extent after inserting ``stride - 1`` zeros between elements."""
    if in_extent <= 0 or stride <= 0:
        raise ShapeError(
            f"invalid zero-insertion geometry: extent={in_extent} stride={stride}"
        )
    return (in_extent - 1) * stride + 1


def conv_geometry_tuple(
    value: int | Sequence[int], rank: int, name: str
) -> Tuple[int, ...]:
    """Public wrapper over :func:`_as_tuple` for layer constructors."""
    return _as_tuple(value, rank, name)
