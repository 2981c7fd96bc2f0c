"""Kernel density scoring against closed forms, a naive evaluator, and quadrature."""

import math
import warnings

import numpy as np
import pytest

from anomdet.errors import DataError, ShapeError
from anomdet.pipelines import (
    KDE_LOG_FLOOR,
    KdeModel,
    fit_kde,
    kde_log_densities,
)


def naive_log_density(latents, h, q):
    """Direct kernel sum with scalar loops; the slow reference."""
    n, d = latents.shape
    total = 0.0
    for i in range(n):
        sq = 0.0
        for j in range(d):
            diff = float(q[j]) - float(latents[i, j])
            sq += diff * diff
        total += math.exp(-sq / (2.0 * h * h))
    if total == 0.0:
        return KDE_LOG_FLOOR
    return math.log(total) - math.log(n) - (d / 2.0) * math.log(2.0 * math.pi * h * h)


def test_single_point_at_origin_closed_form():
    kde = KdeModel(np.zeros((1, 3)), bandwidth=1.0)
    got = kde_log_densities(kde, np.zeros(3)[None])[0]
    assert abs(got - (-1.5 * math.log(2 * math.pi))) < 1e-12


def test_two_symmetric_points_closed_form():
    pts = np.array([[-1.0], [1.0]])
    kde = KdeModel(pts, bandwidth=0.5)
    # at the midpoint both kernels contribute exp(-1/(2h^2)) equally
    h = 0.5
    expect = math.log(2 * math.exp(-1 / (2 * h * h))) - math.log(2) - 0.5 * math.log(
        2 * math.pi * h * h
    )
    assert abs(kde_log_densities(kde, np.zeros(1)[None])[0] - expect) < 1e-12


def test_matches_naive_double_loop():
    rng = np.random.default_rng(0)
    latents = rng.normal(0, 1, (40, 5))
    kde = KdeModel(latents, bandwidth=0.7)
    queries = rng.normal(0, 1.5, (10, 5))
    got = kde_log_densities(kde, queries)
    for i in range(10):
        assert abs(got[i] - naive_log_density(latents, 0.7, queries[i])) < 1e-9


def test_density_integrates_to_one_1d():
    rng = np.random.default_rng(1)
    latents = rng.normal(0, 1, (25, 1))
    kde = KdeModel(latents, bandwidth=0.4)
    xs = np.linspace(-8, 8, 4001)
    vals = np.exp(kde_log_densities(kde, xs[:, None]))
    mass = np.trapezoid(vals, xs)
    assert abs(mass - 1.0) < 1e-3


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    latents = rng.normal(0, 1, (30, 4))
    q = rng.normal(0, 1, (6, 4))
    a = kde_log_densities(KdeModel(latents, 0.9), q)
    perm = rng.permutation(30)
    b = kde_log_densities(KdeModel(latents[perm], 0.9), q)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    latents = rng.normal(0, 1, (20, 3))
    q = rng.normal(0, 1, (5, 3))
    shift = np.array([10.0, -4.0, 2.5])
    a = kde_log_densities(KdeModel(latents, 0.8), q)
    b = kde_log_densities(KdeModel(latents + shift, 0.8), q + shift)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_far_query_hits_floor():
    kde = KdeModel(np.zeros((4, 2)), bandwidth=0.1)
    got = kde_log_densities(kde, np.full(2, 1e6)[None])[0]
    assert got == KDE_LOG_FLOOR


def test_scott_bandwidth_value():
    rng = np.random.default_rng(4)
    latents = rng.normal(0, 2.0, (100, 6)).astype(np.float64)
    kde = fit_kde(latents)
    expect = latents.std(axis=0).mean() * 100 ** (-1.0 / (6 + 4))
    np.testing.assert_allclose(kde.bandwidth, expect, rtol=1e-12)


def test_constant_latents_warn_and_floor():
    latents = np.ones((10, 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kde = fit_kde(latents)
    assert kde.bandwidth == 1e-3
    assert any("variance" in str(w.message) for w in caught)
    # still scoreable: the training points themselves get finite density
    assert kde_log_densities(kde, np.ones(4)[None])[0] > KDE_LOG_FLOOR


def test_fit_rejects_empty_and_bad_bandwidth():
    with pytest.raises(DataError, match="empty"):
        fit_kde(np.zeros((0, 3)))


def test_query_dimension_mismatch_rejected():
    kde = KdeModel(np.zeros((5, 3)), bandwidth=1.0)
    with pytest.raises(ShapeError, match="dimension"):
        kde_log_densities(kde, np.zeros(4)[None])[0]
