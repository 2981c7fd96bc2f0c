"""Forward and backward passes for every layer kind the models need.

All image tensors are rank-4 (N, C, H, W), row-major. Functions preserve
the dtype of their inputs: training runs float32, verification (finite
differences, adjointness) can pass float64 and gets float64 math.

Convolutions go through im2col so the heavy lifting is one matmul;
col2im is its exact adjoint, which is also what makes conv2d_transpose
the exact adjoint of conv2d for identical hyperparameters. Both walk the
kernel taps with strided slices: im2col copies each patch once into one
buffer, col2im adds each tap back.

Max pooling reads the four strided quarter-slices of its input (one per
window position) and caches its input and output, not an index array;
the backward pass finds each window's first maximum again by comparison.
The results are bit for bit those of an argmax over each window, ties
and NaNs included; tests/oracles.py keeps that argmax kernel as the
reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "tanh")
LEAKY_SLOPE = 0.2


def _require_rank4(x: np.ndarray, who: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{who}: expected rank-4 (N,C,H,W) input, got rank {x.ndim}")


def conv_out_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output extent of a strided convolution."""
    span = extent + 2 * padding - kernel
    if span < 0:
        raise ShapeError(
            f"kernel {kernel} exceeds padded extent {extent + 2 * padding}"
        )
    return span // stride + 1


def conv_transpose_out_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output extent of a transposed convolution."""
    out = (extent - 1) * stride - 2 * padding + kernel
    if out < 1:
        raise ShapeError(
            f"transposed conv collapses extent {extent} to {out} (kernel {kernel}, "
            f"stride {stride}, padding {padding})"
        )
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Unfold (N,C,H,W) into (N, C*kh*kw, out_h*out_w) patch columns.

    One strided slice copy per kernel tap into a single buffer; the result
    is a reshape view of that buffer, so every patch is copied exactly once.
    """
    n, c, h, w = x.shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int):
    """Adjoint of _im2col: scatter-add patch columns back onto the image."""
    n, c, h, w = x_shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[
                :, :, i, j
            ]
    if padding:
        out = out[:, :, padding : padding + h, padding : padding + w]
    return out


# ---------------------------------------------------------------------------
# conv2d


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, padding: int = 0):
    """Strided 2-D convolution (cross-correlation), weights (OutC, InC, Kh, Kw).

    Returns (y, cache); y has shape (N, OutC, out_h, out_w).
    """
    _require_rank4(x, "conv2d")
    out_c, in_c, kh, kw = w.shape
    if x.shape[1] != in_c:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, weights expect {in_c}")
    if stride < 1 or padding < 0 or kh < 1 or kw < 1:
        raise ValueError("conv2d: kernel/stride must be >= 1 and padding >= 0")
    cols, oh, ow = _im2col(x, kh, kw, stride, padding)
    wmat = w.reshape(out_c, in_c * kh * kw)
    y = np.matmul(wmat, cols)  # (N, OutC, oh*ow)
    y += b.reshape(1, out_c, 1)
    y = y.reshape(x.shape[0], out_c, oh, ow)
    cache = (cols, x.shape, w.shape, stride, padding)
    return y, cache


def conv2d_backward(dy: np.ndarray, w: np.ndarray, cache):
    """Gradients of conv2d; returns (dx, dw, db)."""
    cols, x_shape, w_shape, stride, padding = cache
    out_c, in_c, kh, kw = w_shape
    n = x_shape[0]
    dy_mat = dy.reshape(n, out_c, -1)
    db = dy_mat.sum(axis=(0, 2))
    wmat = w.reshape(out_c, -1)
    dw = np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
    dcols = np.matmul(wmat.T, dy_mat)
    dx = _col2im(dcols, x_shape, kh, kw, stride, padding)
    return dx, dw, db


# ---------------------------------------------------------------------------
# conv2d_transpose


def conv2d_transpose(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, padding: int = 0
):
    """Transposed convolution, the adjoint of conv2d as a linear map.

    Weights are (InC, OutC, Kh, Kw): the same array that maps OutC -> InC
    under conv2d maps InC -> OutC here. Output spatial extent is
    (H - 1) * stride - 2 * padding + K.
    """
    _require_rank4(x, "conv2d_transpose")
    in_c, out_c, kh, kw = w.shape
    if x.shape[1] != in_c:
        raise ShapeError(
            f"conv2d_transpose: input has {x.shape[1]} channels, weights expect {in_c}"
        )
    n, _, h, ww_ = x.shape
    oh = conv_transpose_out_extent(h, kh, stride, padding)
    ow = conv_transpose_out_extent(ww_, kw, stride, padding)
    wmat = w.reshape(in_c, out_c * kh * kw)
    cols = np.matmul(wmat.T, x.reshape(n, in_c, h * ww_))
    y = _col2im(cols, (n, out_c, oh, ow), kh, kw, stride, padding)
    y += b.reshape(1, out_c, 1, 1)
    cache = (x, w.shape, (n, out_c, oh, ow), stride, padding)
    return y, cache


def conv2d_transpose_backward(dy: np.ndarray, w: np.ndarray, cache):
    """Gradients of conv2d_transpose; returns (dx, dw, db)."""
    x, w_shape, y_shape, stride, padding = cache
    in_c, out_c, kh, kw = w_shape
    n, _, h, ww_ = x.shape
    db = dy.sum(axis=(0, 2, 3))
    dcols, _, _ = _im2col(dy, kh, kw, stride, padding)  # (N, out_c*kh*kw, h*w)
    x_mat = x.reshape(n, in_c, h * ww_)
    dw = np.matmul(x_mat, dcols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
    wmat = w.reshape(in_c, out_c * kh * kw)
    dx = np.matmul(wmat, dcols).reshape(x.shape)
    return dx, dw, db


# ---------------------------------------------------------------------------
# maxpool2d (fixed 2x2 window, stride 2)


def _quarters(x: np.ndarray, oh: int, ow: int) -> list[np.ndarray]:
    """The four strided views x[:, :, di::2, dj::2] of the pooled region, in
    the window's row-major order (0,0), (0,1), (1,0), (1,1)."""
    return [x[:, :, di : 2 * oh : 2, dj : 2 * ow : 2] for di in (0, 1) for dj in (0, 1)]


def _first_max(quarters: list[np.ndarray], y: np.ndarray) -> list[np.ndarray]:
    """One mask per quarter, true where that quarter holds its window's
    first element equal to the window maximum y (the first NaN where y is
    NaN). Every window is true in exactly one mask."""
    y_nan = np.isnan(y)
    any_nan = y_nan.any()
    free = np.ones(y.shape, dtype=bool)  # windows whose first maximum is still ahead
    masks = []
    for q in quarters[:-1]:
        hit = q == y
        if any_nan:
            hit |= y_nan & np.isnan(q)
        hit &= free
        np.greater(free, hit, out=free)  # free &= ~hit
        masks.append(hit)
    masks.append(free)
    return masks


def _has_negative_zero(x: np.ndarray) -> bool:
    bits = np.array(-0.0, dtype=x.dtype).view(f"u{x.itemsize}")
    return bool((x.view(bits.dtype) == bits).any())


def maxpool2d(x: np.ndarray, allow_odd: bool = False):
    """2x2/stride-2 max pooling. Odd extents error unless allow_odd, which
    floors the output extent (the trailing row/column is not pooled).

    Each output is its window's first maximum in row-major order, the
    element `argmax` picks: the earliest of tied values and the first NaN
    if the window has one. Values that compare equal have equal bits except
    -0.0/+0.0 and NaNs, so np.maximum over the four quarter-slices is that
    element unless x holds a -0.0 or a NaN (np.maximum passes NaNs on, so
    y shows one); then the first maximum is selected by mask.
    """
    _require_rank4(x, "maxpool2d")
    h, w = x.shape[2:]
    if (h % 2 or w % 2) and not allow_odd:
        raise ShapeError(f"maxpool2d: odd extent {h}x{w}; pass allow_odd to floor")
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d: extent {h}x{w} smaller than 2x2 window")
    quarters = _quarters(x, h // 2, w // 2)
    y = np.maximum(quarters[0], quarters[1])
    np.maximum(y, quarters[2], out=y)
    np.maximum(y, quarters[3], out=y)
    if np.isnan(y).any() or _has_negative_zero(x):
        for q, hit in zip(quarters, _first_max(quarters, y)):
            np.copyto(y, q, where=hit)
    return y, (x, y)


def maxpool2d_backward(dy: np.ndarray, cache):
    """Route each output gradient to its window's first maximum, the
    element maxpool2d took; every other element of dx is +0.0."""
    x, y = cache
    oh, ow = x.shape[2] // 2, x.shape[3] // 2
    dx = np.zeros(x.shape, dtype=dy.dtype)
    bits = f"u{dy.itemsize}"
    for dq, hit in zip(_quarters(dx, oh, ow), _first_max(_quarters(x, oh, ow), y)):
        # dy's bit pattern times 0 or 1: an exact copy of dy (NaN, inf and
        # -0.0 included) where hit, +0.0 elsewhere
        np.multiply(dy.view(bits), hit, out=dq.view(bits))
    return dx


# ---------------------------------------------------------------------------
# dense


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map on (N, D) inputs with weights (U, D): out = b + x @ w.T."""
    if x.ndim != 2:
        raise ShapeError(f"dense: expected (N,D) input, got rank {x.ndim}")
    u, d = w.shape
    if x.shape[1] != d:
        raise ShapeError(f"dense: input width {x.shape[1]} != weight columns {d}")
    y = x @ w.T + b
    return y, x


def dense_backward(dy: np.ndarray, w: np.ndarray, cache):
    x = cache
    db = dy.sum(axis=0)
    dw = dy.T @ x
    dx = dy @ w
    return dx, dw, db


# ---------------------------------------------------------------------------
# activations


def activate(x: np.ndarray, name: str):
    """Element-wise activation; returns (y, cache) for the backward pass."""
    if name == "relu":
        y = np.maximum(x, 0)
    elif name == "leaky_relu":
        y = np.where(x > 0, x, LEAKY_SLOPE * x)
    elif name == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-x))
    elif name == "tanh":
        y = np.tanh(x)
    else:
        raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")
    return y, (name, x, y)


def activate_backward(dy: np.ndarray, cache):
    name, x, y = cache
    if name == "relu":
        return dy * (x > 0)
    if name == "leaky_relu":
        return dy * np.where(x > 0, 1.0, LEAKY_SLOPE)
    if name == "sigmoid":
        return dy * y * (1.0 - y)
    return dy * (1.0 - y * y)  # tanh


# ---------------------------------------------------------------------------
# batchnorm (per channel over N, H, W)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str = "train",
):
    """Channel-wise normalization. Train mode uses batch statistics and
    updates the running buffers in place; eval mode uses the buffers."""
    _require_rank4(x, "batchnorm")
    n, c, h, w = x.shape
    g = gamma.reshape(1, c, 1, 1)
    bt = beta.reshape(1, c, 1, 1)
    if mode == "train":
        if n < 2:
            raise ShapeError("batchnorm: train mode needs batch size >= 2")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    elif mode == "eval":
        mean, var = running_mean, running_var
    else:
        raise ValueError(f"batchnorm: mode must be 'train' or 'eval', got {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    y = g * xhat + bt
    cache = (xhat, inv_std, gamma, mode)
    return y, cache


def batchnorm_backward(dy: np.ndarray, cache):
    """Gradients of batchnorm; dx flows through the batch statistics in
    train mode and treats them as constants in eval mode."""
    xhat, inv_std, gamma, mode = cache
    c = xhat.shape[1]
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    g = (gamma * inv_std).reshape(1, c, 1, 1)
    if mode == "eval":
        return dy * g, dgamma, dbeta
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dy_mean = dy.mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
    proj = (dy * xhat).mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
    dx = g * (dy - dy_mean - xhat * proj)
    return dx, dgamma, dbeta
