"""Parameter update rules. Optimizers mutate param arrays in place and keep
any per-parameter state keyed by the same names as the param dict."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class Sgd:
    """Plain gradient descent: p <- p - lr * g."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            p -= (self.lr * g).astype(p.dtype, copy=False)


class RmsProp:
    """Running-mean-square scaling: acc <- rho*acc + (1-rho)*g^2,
    p <- p - lr * g / sqrt(acc + eps)."""

    def __init__(self, lr: float = 1e-3, rho: float = 0.9, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rmsprop decay must be in (0,1), got {rho}")
        self.lr = float(lr)
        self.rho = float(rho)
        self.eps = float(eps)
        self.acc: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            acc = self.acc.get(name)
            if acc is None:
                acc = np.zeros_like(p, dtype=np.float64)
                self.acc[name] = acc
            acc *= self.rho
            acc += (1.0 - self.rho) * np.square(g, dtype=np.float64)
            p -= (self.lr * g / np.sqrt(acc + self.eps)).astype(p.dtype, copy=False)
