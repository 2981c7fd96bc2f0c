"""The slice kernels (_im2col, maxpool2d, maxpool2d_backward) reproduce the
earlier strided/argmax kernels kept in oracles.py bit for bit.

Inputs are drawn as raw bit patterns, so every float value can occur:
signed zeros, NaNs with any sign and payload, infinities, subnormals.
Equality is checked on the bit patterns, which tells -0.0 from +0.0 and
one NaN from another.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from anomdet.gan import GanConfig, build_pair
from anomdet.nn import functional as F
from anomdet.pipelines import (
    CnnConfig,
    KdCaeConfig,
    NiCaeConfig,
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


# --------------------------------------------------------- whole graphs


def _gan(which: str):
    pair = build_pair(GanConfig(image_size=32, base_channels=32, z_dim=16, seed=3))
    return pair.generator if which == "g" else pair.discriminator


GRAPHS = {
    "cnn": lambda: build_cnn(CnnConfig(input_shape=(1, 32, 32)), seed=1),
    "kd-cae": lambda: build_kd_cae(KdCaeConfig(input_shape=(1, 32, 32)), seed=2),
    "ni-cae": lambda: build_ni_cae(NiCaeConfig(input_shape=(1, 32, 32)), seed=3),
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

    monkeypatch.setattr(F, "_im2col", counted("_im2col", oracles.im2col_strided))
    monkeypatch.setattr(F, "maxpool2d", counted("maxpool2d", oracles.maxpool2d_argmax))
    monkeypatch.setattr(F, "maxpool2d_backward",
                        counted("maxpool2d_backward", oracles.maxpool2d_argmax_backward))
    want = _run_graph(name)
    # the graph reached the patched kernels: two forwards and one backward
    # per pooling layer, and every graph has a conv or transposed conv
    pools = sum(spec.kind == "maxpool2d" for spec in GRAPHS[name]().specs)
    assert calls.get("_im2col", 0) > 0
    assert calls.get("maxpool2d", 0) == 2 * pools
    assert calls.get("maxpool2d_backward", 0) == pools
    assert got.keys() == want.keys()
    for key in want:
        assert_bitwise_equal(got[key], want[key], f"{name}: {key}")
