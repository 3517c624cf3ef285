"""NumPy functional reference for convolution and transposed convolution.

These routines are the "ground truth" the cycle-level GANAX machine and the
dataflow transformations are validated against.  Two independent formulations
of the transposed convolution are provided:

* :func:`transposed_conv2d` — the direct scatter-add ("fractionally strided")
  definition, and
* :func:`transposed_conv2d_via_zero_insertion` — the paper's formulation:
  insert zeros, pad the border, then run a unit-stride convolution with the
  spatially flipped kernel.

Property-based tests assert the two agree, which pins down the zero-insertion
geometry used throughout the performance models.

Layouts: activations are ``(C, H, W)`` or ``(C, D, H, W)``, weights are
``(M, C, kH, kW)`` / ``(M, C, kD, kH, kW)`` where ``M`` is the number of
output channels and ``C`` the number of input channels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError


def _pair(value: int | Tuple[int, int]) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    if len(value) != 2:
        raise ShapeError(f"expected a scalar or a pair, got {value!r}")
    return (int(value[0]), int(value[1]))


# ----------------------------------------------------------------------
# Zero insertion
# ----------------------------------------------------------------------
def insert_zeros_2d(x: np.ndarray, stride: int | Tuple[int, int]) -> np.ndarray:
    """Insert ``stride - 1`` zeros between rows/columns of ``(C, H, W)`` input."""
    if x.ndim != 3:
        raise ShapeError(f"insert_zeros_2d expects (C, H, W), got shape {x.shape}")
    sh, sw = _pair(stride)
    if sh <= 0 or sw <= 0:
        raise ShapeError(f"stride must be positive, got {(sh, sw)}")
    c, h, w = x.shape
    out = np.zeros((c, (h - 1) * sh + 1, (w - 1) * sw + 1), dtype=x.dtype)
    out[:, ::sh, ::sw] = x
    return out


# ----------------------------------------------------------------------
# Conventional convolution
# ----------------------------------------------------------------------
def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int | Tuple[int, int] = 1,
    padding: int | Tuple[int, int] = 0,
) -> np.ndarray:
    """Dense 2-D convolution (cross-correlation) reference.

    Parameters mirror the usual deep-learning convention: no kernel flip is
    applied (cross-correlation), which matches how the workloads and the
    accelerator treat weights.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv2d expects input (C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects weight (M, C, kH, kW), got {weight.shape}")
    c, h, w = x.shape
    m, wc, kh, kw = weight.shape
    if wc != c:
        raise ShapeError(f"channel mismatch: input has {c}, weight expects {wc}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ShapeError("kernel larger than padded input")
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((m, out_h, out_w), dtype=np.result_type(x, weight))
    for oy in range(out_h):
        iy = oy * sh
        for ox in range(out_w):
            ix = ox * sw
            window = padded[:, iy : iy + kh, ix : ix + kw]
            out[:, oy, ox] = np.tensordot(weight, window, axes=([1, 2, 3], [0, 1, 2]))
    return out


def conv3d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int | Tuple[int, int, int] = 1,
    padding: int | Tuple[int, int, int] = 0,
) -> np.ndarray:
    """Dense 3-D convolution reference for voxel workloads (3D-GAN)."""
    if x.ndim != 4:
        raise ShapeError(f"conv3d expects input (C, D, H, W), got {x.shape}")
    if weight.ndim != 5:
        raise ShapeError(f"conv3d expects weight (M, C, kD, kH, kW), got {weight.shape}")
    c = x.shape[0]
    m, wc = weight.shape[0], weight.shape[1]
    if wc != c:
        raise ShapeError(f"channel mismatch: input has {c}, weight expects {wc}")
    if isinstance(stride, int):
        stride = (stride, stride, stride)
    if isinstance(padding, int):
        padding = (padding, padding, padding)
    kd, kh, kw = weight.shape[2:]
    padded = np.pad(
        x,
        ((0, 0), (padding[0],) * 2, (padding[1],) * 2, (padding[2],) * 2),
    )
    out_d = (x.shape[1] + 2 * padding[0] - kd) // stride[0] + 1
    out_h = (x.shape[2] + 2 * padding[1] - kh) // stride[1] + 1
    out_w = (x.shape[3] + 2 * padding[2] - kw) // stride[2] + 1
    if out_d <= 0 or out_h <= 0 or out_w <= 0:
        raise ShapeError("kernel larger than padded input")
    out = np.zeros((m, out_d, out_h, out_w), dtype=np.result_type(x, weight))
    for od in range(out_d):
        for oy in range(out_h):
            for ox in range(out_w):
                window = padded[
                    :,
                    od * stride[0] : od * stride[0] + kd,
                    oy * stride[1] : oy * stride[1] + kh,
                    ox * stride[2] : ox * stride[2] + kw,
                ]
                out[:, od, oy, ox] = np.tensordot(
                    weight, window, axes=([1, 2, 3, 4], [0, 1, 2, 3])
                )
    return out


# ----------------------------------------------------------------------
# Transposed convolution
# ----------------------------------------------------------------------
def transposed_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int | Tuple[int, int] = 1,
    padding: int | Tuple[int, int] = 0,
    output_padding: int | Tuple[int, int] = 0,
) -> np.ndarray:
    """Direct scatter-add 2-D transposed convolution reference.

    ``weight`` has layout ``(C_in, M_out, kH, kW)`` following the usual
    transposed-convolution convention (the transpose of the conv weight).
    """
    if x.ndim != 3:
        raise ShapeError(f"transposed_conv2d expects (C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(
            f"transposed_conv2d expects weight (C, M, kH, kW), got {weight.shape}"
        )
    c, h, w = x.shape
    wc, m, kh, kw = weight.shape
    if wc != c:
        raise ShapeError(f"channel mismatch: input has {c}, weight expects {wc}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oph, opw = _pair(output_padding)
    out_h = (h - 1) * sh - 2 * ph + kh + oph
    out_w = (w - 1) * sw - 2 * pw + kw + opw
    if out_h <= 0 or out_w <= 0:
        raise ShapeError("transposed convolution output has non-positive extent")
    full = np.zeros((m, out_h + 2 * ph, out_w + 2 * pw), dtype=np.result_type(x, weight))
    for iy in range(h):
        for ix in range(w):
            contrib = np.tensordot(x[:, iy, ix], weight, axes=([0], [0]))
            full[:, iy * sh : iy * sh + kh, ix * sw : ix * sw + kw] += contrib
    return full[:, ph : ph + out_h, pw : pw + out_w]


def transposed_conv2d_via_zero_insertion(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int | Tuple[int, int] = 1,
    padding: int | Tuple[int, int] = 0,
    output_padding: int | Tuple[int, int] = 0,
) -> np.ndarray:
    """Transposed convolution by zero-insertion + unit-stride convolution.

    This is the formulation the GANAX paper analyses: the input is expanded by
    inserting zeros, the border is padded, and a stride-1 convolution with the
    spatially *flipped* kernel is applied.  The result is identical to
    :func:`transposed_conv2d`.
    """
    if x.ndim != 3 or weight.ndim != 4:
        raise ShapeError("expected input (C, H, W) and weight (C, M, kH, kW)")
    c, h, w = x.shape
    wc, m, kh, kw = weight.shape
    if wc != c:
        raise ShapeError(f"channel mismatch: input has {c}, weight expects {wc}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oph, opw = _pair(output_padding)
    if kh - 1 - ph < 0 or kw - 1 - pw < 0:
        raise ShapeError("padding must not exceed kernel - 1")
    expanded = insert_zeros_2d(x, (sh, sw))
    pad_top, pad_left = kh - 1 - ph, kw - 1 - pw
    pad_bottom, pad_right = kh - 1 - ph + oph, kw - 1 - pw + opw
    expanded = np.pad(expanded, ((0, 0), (pad_top, pad_bottom), (pad_left, pad_right)))
    # Convert (C, M, kH, kW) transposed weights into flipped conv weights of
    # layout (M, C, kH, kW).
    conv_weight = np.flip(np.flip(weight, axis=2), axis=3).transpose(1, 0, 2, 3)
    return conv2d(expanded, conv_weight, stride=1, padding=0)


def transposed_conv3d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int | Tuple[int, int, int] = 1,
    padding: int | Tuple[int, int, int] = 0,
    output_padding: int | Tuple[int, int, int] = 0,
) -> np.ndarray:
    """Direct scatter-add 3-D transposed convolution reference (3D-GAN).

    ``output_padding`` extends the far side of each spatial axis, as in
    :func:`transposed_conv2d`.
    """
    if x.ndim != 4:
        raise ShapeError(f"transposed_conv3d expects (C, D, H, W), got {x.shape}")
    if weight.ndim != 5:
        raise ShapeError(
            f"transposed_conv3d expects weight (C, M, kD, kH, kW), got {weight.shape}"
        )
    c = x.shape[0]
    wc, m = weight.shape[0], weight.shape[1]
    if wc != c:
        raise ShapeError(f"channel mismatch: input has {c}, weight expects {wc}")
    if isinstance(stride, int):
        stride = (stride, stride, stride)
    if isinstance(padding, int):
        padding = (padding, padding, padding)
    if isinstance(output_padding, int):
        output_padding = (output_padding, output_padding, output_padding)
    kd, kh, kw = weight.shape[2:]
    d, h, w = x.shape[1:]
    out_d = (d - 1) * stride[0] - 2 * padding[0] + kd + output_padding[0]
    out_h = (h - 1) * stride[1] - 2 * padding[1] + kh + output_padding[1]
    out_w = (w - 1) * stride[2] - 2 * padding[2] + kw + output_padding[2]
    if out_d <= 0 or out_h <= 0 or out_w <= 0:
        raise ShapeError("transposed convolution output has non-positive extent")
    full = np.zeros(
        (m, out_d + 2 * padding[0], out_h + 2 * padding[1], out_w + 2 * padding[2]),
        dtype=np.result_type(x, weight),
    )
    for iz in range(d):
        for iy in range(h):
            for ix in range(w):
                contrib = np.tensordot(x[:, iz, iy, ix], weight, axes=([0], [0]))
                full[
                    :,
                    iz * stride[0] : iz * stride[0] + kd,
                    iy * stride[1] : iy * stride[1] + kh,
                    ix * stride[2] : ix * stride[2] + kw,
                ] += contrib
    return full[
        :,
        padding[0] : padding[0] + out_d,
        padding[1] : padding[1] + out_h,
        padding[2] : padding[2] + out_w,
    ]


# ----------------------------------------------------------------------
# Misc reference ops
# ----------------------------------------------------------------------
def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.2) -> np.ndarray:
    """Leaky ReLU with the slope used by DCGAN-style discriminators."""
    return np.where(x >= 0, x, negative_slope * x)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent, the canonical generator output activation."""
    return np.tanh(x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, the canonical discriminator output activation."""
    return 1.0 / (1.0 + np.exp(-x))
