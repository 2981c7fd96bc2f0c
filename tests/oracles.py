"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way — explicit nested loops,
scalar accumulation — so the fast vectorized code has something honest to
be checked against. It also keeps earlier vectorized kernels that their
replacements must reproduce bit for bit. Nothing in src/ imports this
module.
"""

from __future__ import annotations

import numpy as np

from anomdet.errors import ShapeError


def conv2d_naive(x, w, b, stride=1, padding=0):
    n, in_c, h, ww = x.shape
    out_c, _, kh, kw = w.shape
    if padding:
        xp = np.zeros((n, in_c, h + 2 * padding, ww + 2 * padding), dtype=x.dtype)
        xp[:, :, padding : padding + h, padding : padding + ww] = x
    else:
        xp = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    y = np.zeros((n, out_c, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oc in range(out_c):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ic in range(in_c):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += (
                                    xp[ni, ic, i * stride + a, j * stride + bb]
                                    * w[oc, ic, a, bb]
                                )
                    y[ni, oc, i, j] = acc + b[oc]
    return y


def conv2d_transpose_naive(x, w, b, stride=1, padding=0):
    """Scatter form: every input pixel stamps a kernel onto the output."""
    n, in_c, h, ww = x.shape
    _, out_c, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (ww - 1) * stride - 2 * padding + kw
    full = np.zeros((n, out_c, oh + 2 * padding, ow + 2 * padding), dtype=np.float64)
    for ni in range(n):
        for ic in range(in_c):
            for i in range(h):
                for j in range(ww):
                    v = x[ni, ic, i, j]
                    for oc in range(out_c):
                        for a in range(kh):
                            for bb in range(kw):
                                full[ni, oc, i * stride + a, j * stride + bb] += (
                                    v * w[ic, oc, a, bb]
                                )
    y = full[:, :, padding : padding + oh, padding : padding + ow]
    return y + b.reshape(1, out_c, 1, 1)


def maxpool2d_naive(x):
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    y = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    y[ni, ci, i, j] = max(
                        x[ni, ci, 2 * i, 2 * j],
                        x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j],
                        x[ni, ci, 2 * i + 1, 2 * j + 1],
                    )
    return y


# Earlier vectorized kernels, kept verbatim: the slice kernels in
# anomdet.nn.functional must reproduce them bit for bit.


def im2col_strided(x, kh, kw, stride, padding):
    """Unfold (N,C,H,W) into (N, C*kh*kw, out_h*out_w) patch columns."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, oh * ow).copy(), oh, ow


def maxpool2d_argmax(x, allow_odd=False):
    """2x2/stride-2 max pooling through a transposed window copy and argmax."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expected rank-4 (N,C,H,W) input, got rank {x.ndim}")
    n, c, h, w = x.shape
    if (h % 2 or w % 2) and not allow_odd:
        raise ShapeError(f"maxpool2d: odd extent {h}x{w}; pass allow_odd to floor")
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d: extent {h}x{w} smaller than 2x2 window")
    oh, ow = h // 2, w // 2
    windows = x[:, :, : 2 * oh, : 2 * ow].reshape(n, c, oh, 2, ow, 2)
    windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
    idx = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    cache = (idx, x.shape)
    return y, cache


def maxpool2d_argmax_backward(dy, cache):
    idx, x_shape = cache
    n, c, h, w = x_shape
    oh, ow = h // 2, w // 2
    dwin = np.zeros((n, c, oh, ow, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    dx[:, :, : 2 * oh, : 2 * ow] = (
        dwin.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * oh, 2 * ow)
    )
    return dx


# The two-pass CAE scoring that score_batch replaced, kept verbatim:
# score_batch must reproduce its errors and latents bit for bit.


def two_pass_scores(model, x, batch_size=16):
    """(errors, latents): a full forward per batch for the mean squared
    reconstruction errors, then a second pass through the encoder
    (forward_to the bottleneck) for the flattened latent codes."""
    errors = np.empty(x.shape[0], dtype=np.float64)
    for i in range(0, x.shape[0], batch_size):
        xb = x[i : i + batch_size]
        recon = model.forward(xb, mode="eval")
        diff = recon.astype(np.float64) - xb.astype(np.float64)
        errors[i : i + xb.shape[0]] = np.mean(diff * diff, axis=(1, 2, 3))
    if model.bottleneck is None:
        return errors, None
    chunks = []
    for i in range(0, x.shape[0], batch_size):
        z = model.forward_to(model.bottleneck, x[i : i + batch_size], mode="eval")
        chunks.append(z.reshape(z.shape[0], -1))
    return errors, np.concatenate(chunks, axis=0)


def dense_naive(x, w, b):
    n, d = x.shape
    u = w.shape[0]
    y = np.zeros((n, u), dtype=np.float64)
    for ni in range(n):
        for ui in range(u):
            acc = 0.0
            for di in range(d):
                acc += w[ui, di] * x[ni, di]
            y[ni, ui] = acc + b[ui]
    return y


def mse_naive(pred, target):
    acc = 0.0
    for p, t in zip(pred.ravel().tolist(), target.ravel().tolist()):
        acc += (p - t) ** 2
    return acc / pred.size


def bce_naive(pred, target, eps=1e-7):
    import math

    acc = 0.0
    for p, t in zip(pred.ravel().tolist(), target.ravel().tolist()):
        p = min(max(p, eps), 1.0 - eps)
        acc += t * math.log(p) + (1.0 - t) * math.log(1.0 - p)
    return -acc / pred.size


def inner(a, b):
    return float(np.sum(a.astype(np.float64) * b.astype(np.float64)))


def fd_gradient(f, x, h=1e-4):
    """Central-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
