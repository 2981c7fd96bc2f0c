"""What backward returns: gradient dtypes, and the gradients it is asked for.

On float32 input every gradient of the built graphs (those of
test_slice_kernels: CNN, KD-CAE, NI-CAE and the DCGAN pair) has its
parameter's dtype and the input gradient the input's dtype, and the GAN
loss gradients come back in the probabilities' dtype. `params=False` and
`input_grad=False` return the remaining gradients bit for bit as a full
backward does, and the skipped ones are not computed.
"""

import numpy as np
import pytest
from test_slice_kernels import GRAPHS, assert_bitwise_equal

from anomdet.gan.losses import discriminator_loss_grads, generator_loss_grad
from anomdet.nn import functional as F


def _backward(name: str, **flags):
    """A fresh graph's train-mode forward and backward on a seeded float32
    batch; returns (input, dx, grads, the cache list after backward, model)."""
    model = GRAPHS[name]()
    rng = np.random.default_rng(7)
    x = rng.random((4,) + model.input_shape, dtype=np.float32)
    caches: list = []
    out = model.forward(x, mode="train", caches=caches)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dx, grads = model.backward(dout, caches, **flags)
    return x, dx, grads, caches, model


# ------------------------------------------------------------------ dtypes


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_float32_graph_gradients_keep_their_dtypes(name):
    x, dx, grads, _, model = _backward(name)
    assert dx.dtype == x.dtype
    assert grads.keys() == model.params.keys()
    for k, g in grads.items():
        assert g.dtype == model.params[k].dtype == np.float32, k


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_gan_loss_gradients_keep_the_probabilities_dtype(dtype):
    rng = np.random.default_rng(0)
    d_real = rng.random((8, 1)).astype(dtype)
    d_fake = rng.random((8, 1)).astype(dtype)
    _, g_r, g_f = discriminator_loss_grads(d_real, d_fake)
    _, g_g = generator_loss_grad(d_fake)
    assert g_r.dtype == g_f.dtype == g_g.dtype == dtype


def test_float32_gan_loss_gradients_round_the_float64_ones():
    rng = np.random.default_rng(1)
    d_real, d_fake = rng.random(8, dtype=np.float32), rng.random(8, dtype=np.float32)
    d_real[0] = 0.0  # the clamp is active: zero gradient
    got = discriminator_loss_grads(d_real, d_fake)[1:] + generator_loss_grad(d_fake)[1:]
    want = (discriminator_loss_grads(d_real.astype(np.float64), d_fake.astype(np.float64))[1:]
            + generator_loss_grad(d_fake.astype(np.float64))[1:])
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w.astype(np.float32))
    assert got[0][0] == 0.0


# ---------------------------------------------------------- kernel flags


def _kernel_case(kind: str):
    """(backward(dy, **flags), dy) for one weighted kind on seeded float32
    data."""
    rng = np.random.default_rng(5)

    def arr(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    if kind == "conv2d":
        w = arr(6, 3, 3, 3)
        y, cache = F.conv2d(arr(2, 3, 8, 8), w, arr(6), 2, 1)
        return lambda dy, **f: F.conv2d_backward(dy, w, cache, **f), arr(*y.shape)
    if kind == "conv2d_transpose":
        w = arr(3, 5, 4, 4)
        y, cache = F.conv2d_transpose(arr(2, 3, 4, 4), w, arr(5), 2, 1)
        return lambda dy, **f: F.conv2d_transpose_backward(dy, w, cache, **f), arr(*y.shape)
    if kind == "dense":
        w = arr(7, 12)
        y, cache = F.dense(arr(3, 12), w, arr(7))
        return lambda dy, **f: F.dense_backward(dy, w, cache, **f), arr(*y.shape)
    x = arr(3, 4, 5, 5)
    y, cache = F.batchnorm(x, arr(4), arr(4), np.zeros(4, np.float32),
                           np.ones(4, np.float32), mode="train")
    return lambda dy, **f: F.batchnorm_backward(dy, cache, **f), arr(*y.shape)


@pytest.mark.parametrize("kind", ("conv2d", "conv2d_transpose", "dense", "batchnorm"))
def test_kernel_flags_skip_and_keep_bits(kind):
    backward, dy = _kernel_case(kind)
    full = backward(dy)
    no_params = backward(dy, params=False)
    no_dx = backward(dy, input_grad=False)
    assert no_params[1:] == (None, None) and no_dx[0] is None
    assert_bitwise_equal(no_params[0], full[0], "dx")
    for got, want in zip(no_dx[1:], full[1:]):
        assert_bitwise_equal(got, want)


def test_conv2d_and_dense_skips_do_not_read_what_they_skip():
    """params=False never touches the cached forward input (the dw GEMM's
    operand), so it runs with that operand gone."""
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    y, (cols, *rest) = F.conv2d(rng.random((2, 2, 6, 6), dtype=np.float32), w,
                                np.zeros(4, np.float32), 1, 1)
    dy = np.ones_like(y)
    dx, dw, db = F.conv2d_backward(dy, w, (None, *rest), params=False)
    assert_bitwise_equal(dx, F.conv2d_backward(dy, w, (cols, *rest))[0])
    wd = rng.standard_normal((3, 5)).astype(np.float32)
    dx, _, _ = F.dense_backward(np.ones((2, 3), np.float32), wd, None, params=False)
    assert dx.shape == (2, 5)


# ----------------------------------------------------------- graph flags


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_flags_keep_bits_and_consume_caches(name):
    _, dx, grads, _, _ = _backward(name)
    _, dx_only, no_grads, caches_a, _ = _backward(name, params=False)
    _, no_dx, grads_only, caches_b, _ = _backward(name, input_grad=False)
    assert caches_a == [] and caches_b == []
    assert no_grads == {} and no_dx is None
    assert_bitwise_equal(dx_only, dx, f"{name}: dx")
    assert grads_only.keys() == grads.keys()
    for k in grads:
        assert_bitwise_equal(grads_only[k], grads[k], f"{name}: {k}")


def test_graph_asked_for_nothing_runs_no_layer(monkeypatch):
    calls = []
    monkeypatch.setattr(F, "conv2d_backward", lambda *a, **k: calls.append(a))
    _, dx, grads, caches, _ = _backward("dcgan-discriminator", params=False, input_grad=False)
    assert (dx, grads, caches, calls) == (None, {}, [], [])


@pytest.mark.parametrize("flags,scatters", [({}, 3), ({"params": False}, 3),
                                            ({"input_grad": False}, 2)])
def test_discriminator_layer0_input_gradient_is_never_scattered(monkeypatch, flags, scatters):
    """The discriminator has three conv2d layers; without an input gradient
    the lowest one runs no scatter."""
    calls = []
    scatter = F._scatter_rows

    def counted(*args):
        calls.append(args[2])
        return scatter(*args)

    monkeypatch.setattr(F, "_scatter_rows", counted)
    _backward("dcgan-discriminator", **flags)
    assert len(calls) == scatters
