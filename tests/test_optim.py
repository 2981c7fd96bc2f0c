"""Optimizer update rules."""

import numpy as np
import pytest

from anomdet.errors import ConfigError
from anomdet.nn import RmsProp, Sgd


def test_sgd_single_step():
    p = {"w": np.array([1.0])}
    Sgd(lr=0.1).step(p, {"w": np.array([1.0])})
    np.testing.assert_allclose(p["w"], [0.9])


def test_zero_gradient_leaves_params_unchanged():
    p = {"w": np.array([1.0, -2.0])}
    before = p["w"].copy()
    Sgd(lr=0.5).step(p, {"w": np.zeros(2)})
    np.testing.assert_array_equal(p["w"], before)
    opt = RmsProp(lr=0.5)
    opt.step(p, {"w": np.zeros(2)})
    np.testing.assert_array_equal(p["w"], before)


def test_rmsprop_quadratic_converges():
    """Minimize f(p) = p^2 from p=1 with lr 0.01: |p| ends below 0.05.

    The loss decreases strictly every step until it underflows (observed:
    monotone down to ~4e-42 at step 169). Past that point the accumulator
    drops below eps and the iterate oscillates around zero at scales
    < 1e-8, so monotonicity is asserted only until the loss first crosses
    1e-30 — a latch, since the oscillating tail re-crosses that level."""
    p = {"p": np.array([1.0])}
    opt = RmsProp(lr=0.01)
    prev = float(p["p"][0] ** 2)
    armed = True
    for _ in range(200):
        g = {"p": 2.0 * p["p"]}
        opt.step(p, g)
        cur = float(p["p"][0] ** 2)
        if armed and cur < 1e-30:
            armed = False
        if armed:
            assert cur < prev
        prev = cur
    assert abs(p["p"][0]) < 0.05


def test_rmsprop_matches_reference_recurrence():
    rng = np.random.default_rng(0)
    p = {"w": rng.standard_normal(7)}
    ref_p = p["w"].copy()
    ref_acc = np.zeros(7)
    opt = RmsProp(lr=0.02, rho=0.8, eps=1e-8)
    for step in range(10):
        g = rng.standard_normal(7)
        opt.step(p, {"w": g.copy()})
        ref_acc = 0.8 * ref_acc + 0.2 * g * g
        ref_p = ref_p - 0.02 * g / np.sqrt(ref_acc + 1e-8)
        np.testing.assert_allclose(p["w"], ref_p, rtol=1e-12)


def test_rmsprop_accumulators_nonnegative():
    rng = np.random.default_rng(1)
    p = {"w": rng.standard_normal(5)}
    opt = RmsProp(lr=0.01)
    for _ in range(20):
        opt.step(p, {"w": rng.standard_normal(5)})
    assert np.all(opt.acc["w"] >= 0)


@pytest.mark.parametrize("lr", [0.0, -0.1])
def test_non_positive_learning_rate_rejected(lr):
    with pytest.raises(ConfigError, match="learning rate"):
        Sgd(lr=lr)
    with pytest.raises(ConfigError, match="learning rate"):
        RmsProp(lr=lr)


def test_sgd_preserves_float32():
    p = {"w": np.ones(3, dtype=np.float32)}
    Sgd(lr=0.1).step(p, {"w": np.ones(3, dtype=np.float64)})
    assert p["w"].dtype == np.float32
