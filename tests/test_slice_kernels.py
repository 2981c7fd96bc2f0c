"""The slice kernels (_im2col, maxpool2d, maxpool2d_backward), the
channel-block scatter of conv2d_backward and conv2d_transpose, and the
output-only activation cache reproduce the earlier kernels kept in
oracles.py bit for bit.

Inputs are drawn as raw bit patterns, so every float value can occur:
signed zeros, NaNs with any sign and payload, infinities, subnormals.
Equality is checked on the bit patterns, which tells -0.0 from +0.0 and
one NaN from another (the scatter's NaN + NaN sums excepted, see
assert_equal_but_colliding_nans).
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from anomdet.gan import build_discriminator, build_generator
from anomdet.nn import functional as F
from anomdet.pipelines import (
    build_cnn,
    build_kd_cae,
    build_ni_cae,
)

DTYPES = (np.float32, np.float64)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(f"u{a.itemsize}")


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray, what: str = "") -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, what
    np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=what)


def _special_bits(dtype) -> list[int]:
    """Bit patterns of values that tie or misbehave under comparison."""
    dtype = np.dtype(dtype)
    plain = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan, -np.nan], dtype)
    width, nmant = 8 * dtype.itemsize, np.finfo(dtype).nmant
    sign = 1 << (width - 1)
    exponent = (sign - 1) & ~((1 << nmant) - 1)  # all exponent bits set
    quiet = 1 << (nmant - 1)
    nans = [
        exponent | quiet | 1,  # quiet NaN with a payload
        sign | exponent | quiet | 2,  # negative, another payload
        exponent | 1,  # signalling NaN
    ]
    return [int(b) for b in _bits(plain)] + nans


@st.composite
def float_arrays(draw, dtype, shape, special_only=False):
    """Arrays drawn as bit patterns: mostly special values (so windows tie),
    the rest any pattern of the dtype's width."""
    width = 8 * np.dtype(dtype).itemsize
    special = st.sampled_from(_special_bits(dtype))
    elements = special if special_only else st.one_of(
        special, special, st.integers(0, (1 << width) - 1)
    )
    return draw(hnp.arrays(np.dtype(f"u{width // 8}"), shape, elements=elements)).view(dtype)


# --------------------------------------------------------------- im2col


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(DTYPES), n=st.integers(1, 2),
       c=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
       kh=st.integers(1, 4), kw=st.integers(1, 4), stride=st.integers(1, 3),
       padding=st.integers(0, 2))
def test_im2col_matches_strided_reference(data, dtype, n, c, h, w, kh, kw, stride, padding):
    if h + 2 * padding < kh or w + 2 * padding < kw:
        return  # no output; both refuse the shape
    x = data.draw(float_arrays(dtype, (n, c, h, w)))
    cols, oh, ow = F._im2col(x, kh, kw, stride, padding)
    want, want_oh, want_ow = oracles.im2col_strided(x, kh, kw, stride, padding)
    assert (oh, ow) == (want_oh, want_ow)
    assert_bitwise_equal(cols, want)


# ------------------------------------------------------------- maxpool2d


def _check_maxpool(x: np.ndarray, dy: np.ndarray, allow_odd: bool) -> None:
    y, cache = F.maxpool2d(x, allow_odd=allow_odd)
    want_y, want_cache = oracles.maxpool2d_argmax(x, allow_odd=allow_odd)
    assert_bitwise_equal(y, want_y)
    assert_bitwise_equal(
        F.maxpool2d_backward(dy, cache), oracles.maxpool2d_argmax_backward(dy, want_cache)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(DTYPES), n=st.integers(1, 2),
       c=st.integers(1, 3), oh=st.integers(1, 5), ow=st.integers(1, 5),
       odd_h=st.booleans(), odd_w=st.booleans(), special_only=st.booleans())
def test_maxpool_matches_argmax_reference(data, dtype, n, c, oh, ow, odd_h, odd_w,
                                          special_only):
    shape = (n, c, 2 * oh + odd_h, 2 * ow + odd_w)
    x = data.draw(float_arrays(dtype, shape, special_only))
    dy = data.draw(float_arrays(data.draw(st.sampled_from(DTYPES)), (n, c, oh, ow)))
    _check_maxpool(x, dy, allow_odd=odd_h or odd_w or data.draw(st.booleans()))


def _window(values, dtype):
    """One 2x2 window (row-major values) as an (N=1, C=1, 2, 2) image."""
    return np.array(values, dtype=dtype).reshape(1, 1, 2, 2)


NAN_PAYLOAD = {np.float32: np.array(0x7FC00001, np.uint32).view(np.float32),
               np.float64: np.array(0x7FF8000000000001, np.uint64).view(np.float64)}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("values", [
    [0.0, 0.0, 0.0, 0.0],  # an all-zero ReLU window
    [-0.0, 0.0, 0.0, -0.0],
    [0.0, -0.0, -0.0, 0.0],
    [-1.0, -0.0, 0.0, -2.0],
    [-1.0, -2.0, -3.0, -0.0],
    [2.0, 2.0, 1.0, 2.0],
    [1.0, np.nan, 3.0, -np.nan],
    [np.inf, 1.0, "payload", np.nan],
    [-np.inf, -np.inf, -np.inf, -np.inf],
    [1.0, 2.0, 3.0, np.inf],
])
def test_maxpool_tied_and_nan_windows(values, dtype):
    vals = [NAN_PAYLOAD[dtype] if v == "payload" else v for v in values]
    x = _window(vals, dtype)
    dy = np.array([-0.0], dtype=dtype).reshape(1, 1, 1, 1)
    _check_maxpool(x, dy, allow_odd=False)
    _check_maxpool(x, -dy, allow_odd=False)


def test_maxpool_first_zero_keeps_its_sign():
    y, cache = F.maxpool2d(_window([-0.0, 0.0, -1.0, -0.0], np.float32))
    assert np.signbit(y[0, 0, 0, 0])
    dx = F.maxpool2d_backward(np.ones((1, 1, 1, 1), np.float32), cache)
    np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_odd_extent_leaves_trailing_row_and_column_out():
    x = np.full((1, 1, 3, 3), -5.0)
    x[0, 0, 2, :] = x[0, 0, :, 2] = 9.0  # trailing maxima must not be pooled
    y, cache = F.maxpool2d(x, allow_odd=True)
    assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == -5.0
    dx = F.maxpool2d_backward(np.ones((1, 1, 1, 1)), cache)
    assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0


# ------------------------------------------------------- conv scatter


def assert_equal_but_colliding_nans(got, want, terms, what=""):
    """Bitwise equality, except where both are NaN and two or more
    non-finite terms were summed into the element. a + b and b + a have
    the same bits for any non-NaN a, b, but NaN + NaN keeps one operand or
    the other by operand order, which BLAS kernels for different row counts
    and numpy's add on different operand layouts set differently. The
    col2im reference itself turns a row of equal addends into 0x7fc00000
    in some elements and 0xffc00000 in others."""
    free = (terms >= 2) & np.isnan(got) & np.isnan(want)
    assert_bitwise_equal(np.where(free, 0, got).astype(got.dtype),
                         np.where(free, 0, want).astype(want.dtype), what)


def _nonfinite_terms(a, b, shape, kh, kw, stride, padding):
    """How many non-finite terms the GEMM a @ b (a (M, K), b (N, K, P)) and
    col2im onto `shape` sum into each element; a product of two NaNs
    counts twice, since it too keeps one NaN by operand order."""
    dtype = np.result_type(a, b)
    a, b = a.astype(dtype)[None, :, :, None], b.astype(dtype)[:, None, :, :]
    with np.errstate(all="ignore"):
        terms = np.maximum(~np.isfinite(a * b), np.isnan(a) + np.isnan(b).astype(int))
    return oracles.col2im(terms.sum(axis=2).astype(np.float64), shape, kh, kw, stride, padding)


# up to 20 channels: with the smallest blocks (BLOCK_BYTES 0), more than
# one GEMM block for every kernel but 1x1; with the default, one block
channels = st.one_of(st.integers(1, 3), st.integers(4, 20))
conv_dims = dict(block_bytes=st.sampled_from((0, F.BLOCK_BYTES)),
                 n=st.integers(1, 2), in_c=channels, out_c=channels,
                 h=st.integers(1, 9), w=st.integers(1, 9), kh=st.integers(1, 4),
                 kw=st.integers(1, 4), stride=st.integers(1, 3), padding=st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(DTYPES), dy_dtype=st.sampled_from(DTYPES),
       **conv_dims)
def test_conv2d_backward_matches_col2im_reference(data, dtype, dy_dtype, block_bytes, n, in_c,
                                                  out_c, h, w, kh, kw, stride, padding):
    if h + 2 * padding < kh or w + 2 * padding < kw:
        return  # no output; conv2d refuses the shape
    x = data.draw(float_arrays(dtype, (n, in_c, h, w)))
    wt = data.draw(float_arrays(dtype, (out_c, in_c, kh, kw)))
    _, cache = F.conv2d(x, wt, np.zeros(out_c, dtype), stride, padding)
    oh, ow = (F.conv_out_extent(e, k, stride, padding) for e, k in ((h, kh), (w, kw)))
    dy = data.draw(float_arrays(dy_dtype, (n, out_c, oh, ow)))
    with np.errstate(all="ignore"), patch.object(F, "BLOCK_BYTES", block_bytes):
        got = F.conv2d_backward(dy, wt, cache)
        want = oracles.conv2d_backward_cols(dy, wt, cache)
    terms = _nonfinite_terms(wt.reshape(out_c, -1).T, dy.reshape(n, out_c, -1), x.shape,
                             kh, kw, stride, padding)
    assert_equal_but_colliding_nans(got[0], want[0], terms, "dx")
    assert_bitwise_equal(got[1], want[1], "dw")
    assert_bitwise_equal(got[2], want[2], "db")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(DTYPES), **conv_dims)
def test_conv2d_transpose_matches_col2im_reference(data, dtype, block_bytes, n, in_c, out_c, h,
                                                   w, kh, kw, stride, padding):
    if min((h - 1) * stride + kh, (w - 1) * stride + kw) - 2 * padding < 1:
        return  # the output collapses; both refuse the shape
    x = data.draw(float_arrays(dtype, (n, in_c, h, w)))
    wt = data.draw(float_arrays(dtype, (in_c, out_c, kh, kw)))
    b = data.draw(float_arrays(dtype, (out_c,)))
    with np.errstate(all="ignore"), patch.object(F, "BLOCK_BYTES", block_bytes):
        y, cache = F.conv2d_transpose(x, wt, b, stride, padding)
        want, want_cache = oracles.conv2d_transpose_cols(x, wt, b, stride, padding)
    terms = _nonfinite_terms(wt.reshape(in_c, -1).T, x.reshape(n, in_c, h * w), y.shape,
                             kh, kw, stride, padding)
    terms += ~np.isfinite(b).reshape(1, out_c, 1, 1)
    assert_equal_but_colliding_nans(y, want, terms)
    assert cache[1:] == want_cache[1:] and cache[0] is x


# ----------------------------------------------------------- activations


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(DTYPES), dy_dtype=st.sampled_from(DTYPES),
       name=st.sampled_from(F.ACTIVATIONS), shape=hnp.array_shapes(min_dims=1, max_dims=4,
                                                                   max_side=5))
def test_output_only_activation_cache_matches_reference(data, dtype, dy_dtype, name, shape):
    x = data.draw(float_arrays(dtype, shape))
    dy = data.draw(float_arrays(dy_dtype, shape))
    with np.errstate(all="ignore"):
        y, cache = F.activate(x, name)
        want_y, want_cache = oracles.activate_input_cached(x, name)
        assert_bitwise_equal(y, want_y)
        assert len(cache) == 2 and cache[1] is y  # the input is not kept
        assert_bitwise_equal(F.activate_backward(dy, cache),
                             oracles.activate_input_cached_backward(dy, want_cache))


# --------------------------------------------------------- whole graphs


def _gan(which: str):
    if which == "g":
        return build_generator((1, 32, 32), 16, 32, seed=3)
    return build_discriminator((1, 32, 32), 32, seed=3)


GRAPHS = {
    "cnn": lambda: build_cnn((1, 32, 32), seed=1),
    "kd-cae": lambda: build_kd_cae((1, 32, 32), seed=2),
    "kd-cae-128": lambda: build_kd_cae((1, 128, 128), seed=2),  # the CLI's default size
    "ni-cae": lambda: build_ni_cae((1, 32, 32), seed=3),
    "dcgan-generator": lambda: _gan("g"),
    "dcgan-discriminator": lambda: _gan("d"),
}


def _run_graph(name: str) -> dict:
    """Train-mode forward + backward, then an eval-mode forward, on a
    fresh model; returns every array the passes produce."""
    model = GRAPHS[name]()
    rng = np.random.default_rng(11)
    x = rng.random((4,) + model.input_shape, dtype=np.float32)
    if x.ndim == 4:
        x[:, :, : x.shape[2] // 2] = 0.0  # a blank half: many tied windows
    caches: list = []
    out = model.forward(x, mode="train", caches=caches)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dx, grads = model.backward(dout, caches)
    result = {"out": out, "dx": dx, "eval": model.forward(x, mode="eval")}
    result.update({f"grad {k}": v for k, v in grads.items()})
    result.update({f"buffer {k}": v for k, v in model.buffers.items()})
    return result


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_matches_reference_kernels(name, monkeypatch):
    got = _run_graph(name)
    calls = {}

    def counted(kernel, ref):
        def run(*args, **kwargs):
            calls[kernel] = calls.get(kernel, 0) + 1
            return ref(*args, **kwargs)
        return run

    references = {
        "_im2col": oracles.im2col_strided,
        "maxpool2d": oracles.maxpool2d_argmax,
        "maxpool2d_backward": oracles.maxpool2d_argmax_backward,
        "conv2d_backward": oracles.conv2d_backward_cols,
        "conv2d_transpose": oracles.conv2d_transpose_cols,
        "activate": oracles.activate_input_cached,
        "activate_backward": oracles.activate_input_cached_backward,
    }
    for kernel, ref in references.items():
        monkeypatch.setattr(F, kernel, counted(kernel, ref))
    want = _run_graph(name)
    # the graph reached the patched kernels: two forwards and one backward
    # per layer of the kind
    kinds = [spec.kind for spec in GRAPHS[name]().specs]
    assert calls.get("_im2col", 0) > 0
    for kernel, kind in (("maxpool2d", "maxpool2d"), ("conv2d_transpose", "conv2d_transpose"),
                         ("activate", "activation")):
        assert calls.get(kernel, 0) == 2 * kinds.count(kind), kernel
    for kernel, kind in (("maxpool2d_backward", "maxpool2d"), ("conv2d_backward", "conv2d"),
                         ("activate_backward", "activation")):
        assert calls.get(kernel, 0) == kinds.count(kind), kernel
    assert got.keys() == want.keys()
    for key in want:
        assert_bitwise_equal(got[key], want[key], f"{name}: {key}")


def test_graphs_match_reference_kernels_on_haswell_blas():
    """The same graph checks in a child process on OpenBLAS's AVX2 (Haswell)
    kernels, which give other last bits than the default kernel set, with
    one BLAS thread. (The Haswell kernels' bits also depend on where a
    multi-threaded GEMM splits its rows, which differs between one GEMM
    over all rows and the scatter's blocks.)"""
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_graph_matches_reference_kernels"],
        env=env, capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert f"{len(GRAPHS)} passed" in proc.stdout
