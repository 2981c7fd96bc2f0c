"""Closed-form 1-D density pairs and the optimal-discriminator identity.

For densities p (data) and q (model) the discriminator that maximizes the
two-player objective is D*(x) = p(x) / (p(x) + q(x)), which collapses to
1/2 wherever the densities agree. A small net fit on samples from both
sides should land near D* on a grid; that comparison is the verification
hook for the adversarial loss plumbing (criterion A5). Only the test suite
uses this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from anomdet.errors import ConfigError, DataError
from anomdet.nn import LayerSpec, ModelGraph
from anomdet.pipelines import train
from anomdet.rng import stream

__all__ = [
    "GaussianMixture1D",
    "ToyDensityPair",
    "optimal_discriminator_oracle",
    "fit_toy_discriminator",
]


@dataclass(frozen=True)
class GaussianMixture1D:
    """Weights/means/stds of a finite univariate Gaussian mixture."""

    means: tuple
    stds: tuple
    weights: tuple

    def __post_init__(self):
        k = len(self.means)
        if k == 0 or len(self.stds) != k or len(self.weights) != k:
            raise ConfigError("means, stds, weights must be equal-length and non-empty")
        if any(s <= 0 for s in self.stds):
            raise ConfigError("component stds must be positive")
        if any(w < 0 for w in self.weights):
            raise ConfigError("component weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ConfigError(f"weights must sum to 1, got {sum(self.weights)}")

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x, dtype=np.float64)
        for w, mu, s in zip(self.weights, self.means, self.stds):
            out += w * np.exp(-((x - mu) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        return out

    def sample(self, n: int, rng) -> np.ndarray:
        comp = rng.choice(len(self.means), size=n, p=np.asarray(self.weights, dtype=np.float64))
        mu = np.asarray(self.means, dtype=np.float64)[comp]
        s = np.asarray(self.stds, dtype=np.float64)[comp]
        return rng.normal(mu, s)

    def quadrature_mass(self, lo: float = -12.0, hi: float = 12.0, n: int = 4001) -> float:
        xs = np.linspace(lo, hi, n)
        return float(np.trapezoid(self.pdf(xs), xs))


@dataclass(frozen=True)
class ToyDensityPair:
    """A data density and a model density, both evaluable anywhere."""

    p_data: GaussianMixture1D
    p_model: GaussianMixture1D


def optimal_discriminator_oracle(toy: ToyDensityPair, x):
    """D*(x) = p_data / (p_data + p_model), defined as 1/2 where both vanish."""
    p = toy.p_data.pdf(x)
    q = toy.p_model.pdf(x)
    denom = p + q
    out = np.where(denom > 0.0, p / np.where(denom > 0.0, denom, 1.0), 0.5)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


def fit_toy_discriminator(
    toy: ToyDensityPair,
    n_per_side: int = 100_000,
    *,
    hidden: tuple = (16,),
    epochs: int = 4,
    batch_size: int = 256,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> ModelGraph:
    """Train a scalar-input classifier on samples from both densities.

    Labels are 1 for p_data draws, 0 for p_model draws; with enough
    capacity and data the sigmoid output estimates D*. `hidden=()` gives a
    plain logistic regressor.
    """
    if n_per_side < 1:
        raise DataError(f"need at least one sample per side, got {n_per_side}")
    specs = []
    for units in hidden:
        specs.append(LayerSpec("dense", units=units))
        specs.append(LayerSpec("activation", activation="relu"))
    specs.append(LayerSpec("dense", units=1))
    specs.append(LayerSpec("activation", activation="sigmoid"))
    model = ModelGraph(specs, (1,), rng_seed=seed, model_kind="toy-discriminator")

    xs_p = toy.p_data.sample(n_per_side, stream(seed, "toy/data"))
    xs_q = toy.p_model.sample(n_per_side, stream(seed, "toy/model"))
    x = np.concatenate([xs_p, xs_q]).astype(np.float32)[:, None]
    t = np.concatenate(
        [np.ones(n_per_side, dtype=np.float32), np.zeros(n_per_side, dtype=np.float32)]
    )[:, None]

    train(
        model, x, t,
        epochs=epochs, batch_size=batch_size, loss_kind="bce",
        learning_rate=learning_rate, seed=seed,
    )
    return model
