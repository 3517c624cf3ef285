"""Independent reference counts the tests pin the library against.

The library uses none of these: each recomputes, by a route of its own, a
quantity the models derive arithmetically.

* :func:`count_consequential_macs_bruteforce` materialises the genuine-value
  mask of the zero-inserted input and sums it under every window;
* :func:`count_consequential_macs_gemm` applies the implicit-GEMM gather
  predicate of a transposed convolution, one spatial dimension at a time;
* :func:`genuine_mask_2d` and :func:`insert_zeros_nd` build the expanded
  input of the paper's zero-insertion formulation explicitly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import LayerError, ShapeError
from repro.nn.layers import TransposedConvLayer
from repro.nn.shapes import FeatureMapShape


def _pair(value: int | Tuple[int, int]) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    if len(value) != 2:
        raise ShapeError(f"expected a scalar or a pair, got {value!r}")
    return (int(value[0]), int(value[1]))


def insert_zeros_nd(x: np.ndarray, stride: Tuple[int, ...]) -> np.ndarray:
    """Insert zeros along every spatial dimension of a ``(C, *spatial)`` array."""
    if x.ndim < 2:
        raise ShapeError(f"expected (C, *spatial), got shape {x.shape}")
    spatial = x.shape[1:]
    if len(stride) != len(spatial):
        raise ShapeError(
            f"stride rank {len(stride)} does not match spatial rank {len(spatial)}"
        )
    if any(s <= 0 for s in stride):
        raise ShapeError(f"stride must be positive, got {stride}")
    out_spatial = tuple((e - 1) * s + 1 for e, s in zip(spatial, stride))
    out = np.zeros((x.shape[0], *out_spatial), dtype=x.dtype)
    slices = (slice(None),) + tuple(slice(None, None, s) for s in stride)
    out[slices] = x
    return out


def genuine_mask_2d(
    input_spatial: Tuple[int, int],
    stride: int | Tuple[int, int],
    kernel: int | Tuple[int, int],
    padding: int | Tuple[int, int],
) -> np.ndarray:
    """Boolean mask of genuine positions over the expanded (padded) input.

    The expanded input is what the unit-stride convolution window slides over
    during a transposed convolution: border zeros of ``kernel - 1 - padding``
    on the leading edges, the zero-inserted input, and border zeros on the
    trailing edges sized so that the output matches the standard formula.
    """
    h, w = input_spatial
    sh, sw = _pair(stride)
    kh, kw = _pair(kernel)
    ph, pw = _pair(padding)
    border_h, border_w = kh - 1 - ph, kw - 1 - pw
    if border_h < 0 or border_w < 0:
        raise ShapeError("padding must not exceed kernel - 1")
    out_h = (h - 1) * sh - 2 * ph + kh
    out_w = (w - 1) * sw - 2 * pw + kw
    exp_h, exp_w = out_h + kh - 1, out_w + kw - 1
    mask = np.zeros((exp_h, exp_w), dtype=bool)
    rows = border_h + sh * np.arange(h)
    cols = border_w + sw * np.arange(w)
    rows = rows[rows < exp_h]
    cols = cols[cols < exp_w]
    mask[np.ix_(rows, cols)] = True
    return mask


def count_consequential_macs_bruteforce(
    layer: TransposedConvLayer, input_shape: FeatureMapShape
) -> int:
    """Count consequential MACs by materialising the genuine-value mask.

    This is O(output volume * kernel volume) and intended for small layers in
    tests; the exact arithmetic in :meth:`TransposedConvLayer.consequential_macs`
    must agree with it.
    """
    if layer.rank not in (1, 2, 3):
        raise LayerError("brute-force counting supports ranks 1-3 only")
    out = layer.output_shape(input_shape)
    expanded = layer.expanded_spatial(input_shape)

    mask = np.zeros(expanded, dtype=bool)
    genuine_coords = []
    for dim in range(layer.rank):
        border = layer.kernel[dim] - 1 - layer.padding[dim]
        coords = border + layer.stride[dim] * np.arange(input_shape.spatial[dim])
        coords = coords[coords < expanded[dim]]
        genuine_coords.append(coords)
    mask[np.ix_(*genuine_coords)] = True

    count = 0
    for out_index in np.ndindex(*out.spatial):
        window = mask[
            tuple(
                slice(o, o + k) for o, k in zip(out_index, layer.kernel)
            )
        ]
        count += int(window.sum())
    return count * out.channels * input_shape.channels


def count_consequential_macs_gemm(
    layer: TransposedConvLayer, input_shape: FeatureMapShape
) -> int:
    """Count consequential MACs with the implicit-GEMM gather predicate.

    An implicit-GEMM transposed convolution gathers, for output position ``o``
    and kernel tap ``r``, input ``(o + padding - r) / stride`` — a real input
    only when the division is exact and the quotient lies inside the input.
    The predicate factorises over spatial dimensions, so the count is the
    product of the per-dimension numbers of valid ``(o, r)`` pairs, times the
    channel product.  Cost is O(sum of output extent * kernel extent).
    """
    out = layer.output_shape(input_shape)
    count = 1
    for extent, out_extent, kernel, stride, padding in zip(
        input_shape.spatial, out.spatial, layer.kernel, layer.stride, layer.padding
    ):
        gathered = np.arange(out_extent)[:, None] + padding - np.arange(kernel)[None, :]
        quotient = gathered // stride
        valid = (gathered % stride == 0) & (quotient >= 0) & (quotient < extent)
        count *= int(valid.sum())
    return count * out.channels * input_shape.channels
