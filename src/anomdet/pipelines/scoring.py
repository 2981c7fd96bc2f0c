"""Anomaly scoring: reconstruction error, latent kernel density, threshold
calibration, and the combined decision rule."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..config import COMBINE_RULES
from ..errors import ConfigError, DataError, ShapeError
from ..nn import ModelGraph

KDE_LOG_FLOOR = -1e12
SCORE_BATCH = 16  # images per eval forward pass


def score_batch(
    model: ModelGraph, x: np.ndarray, recon: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample mean squared reconstruction error, float64, shape (N,),
    and the flattened bottleneck activations, shape (N, d), from one
    forward pass per batch. Latents are None when the model has no
    designated bottleneck layer. An array passed as `recon`, of k <= N
    images, receives the reconstructions of the first k."""
    if x.ndim != 4:
        raise ShapeError(f"expected (N,C,H,W) batch, got rank {x.ndim}")
    errors = np.empty(x.shape[0], dtype=np.float64)
    latent = None if model.bottleneck is None else []
    keep = 0 if recon is None else len(recon)
    for i in range(0, x.shape[0], SCORE_BATCH):
        xb = x[i : i + SCORE_BATCH]
        out = model.forward(xb, mode="eval", latent=latent)
        if out.shape != xb.shape:
            raise ShapeError(
                f"reconstruction shape {out.shape} does not match input {xb.shape}"
            )
        if i < keep:
            recon[i : i + SCORE_BATCH] = out[: keep - i]
        diff = out.astype(np.float64) - xb.astype(np.float64)
        errors[i : i + xb.shape[0]] = np.mean(diff * diff, axis=(1, 2, 3))
    latents = None if latent is None else np.concatenate([z.reshape(len(z), -1) for z in latent])
    return errors, latents


def encode_latent(model: ModelGraph, x: np.ndarray) -> np.ndarray:
    """Flattened bottleneck activations, shape (N, d)."""
    if model.bottleneck is None:
        raise ConfigError(f"model kind {model.model_kind!r} has no designated bottleneck layer")
    if x.ndim != 4:
        raise ShapeError(f"expected (N,C,H,W) batch, got rank {x.ndim}")
    chunks = []
    for i in range(0, x.shape[0], SCORE_BATCH):
        z = model.forward_to(model.bottleneck, x[i : i + SCORE_BATCH], mode="eval")
        chunks.append(z.reshape(z.shape[0], -1))
    return np.concatenate(chunks, axis=0)


# ----------------------------------------------------------------- kde


@dataclass(frozen=True)
class KdeModel:
    latents: np.ndarray  # (n, d) float64
    bandwidth: float

    @property
    def d(self) -> int:
        return self.latents.shape[1]

    @property
    def n(self) -> int:
        return self.latents.shape[0]


def fit_kde(latents: np.ndarray) -> KdeModel:
    """Isotropic Gaussian KDE over stored latents.

    The bandwidth is Scott's rule, h = sigma_bar * n^(-1/(d+4)) with
    sigma_bar the mean per-dimension standard deviation, floored at 1e-3.
    Zero-variance latents fall back to the floor with a warning.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[0] < 1 or latents.shape[1] < 1:
        raise DataError(f"latents must be a non-empty (n,d) matrix, got {latents.shape}")
    n, d = latents.shape
    sigma_bar = float(np.mean(np.std(latents, axis=0)))
    if sigma_bar == 0.0:
        warnings.warn("zero-variance latents; KDE bandwidth floored at 1e-3")
    h = max(sigma_bar * n ** (-1.0 / (d + 4)), 1e-3)
    return KdeModel(latents.copy(), h)


def kde_log_densities(kde: KdeModel, z: np.ndarray) -> np.ndarray:
    """Log density at each query row: logsumexp over stored kernels minus
    log n and the Gaussian normalizer, floored at -1e12."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != kde.d:
        raise ShapeError(f"query dimension {z.shape[-1]} != latent dimension {kde.d}")
    h2 = kde.bandwidth**2
    # pairwise squared distances, (m, n), in float64 via the expansion trick
    zz = np.sum(z * z, axis=1, keepdims=True)
    ll = np.sum(kde.latents * kde.latents, axis=1)[None, :]
    d2 = np.maximum(zz + ll - 2.0 * (z @ kde.latents.T), 0.0)
    expo = -d2 / (2.0 * h2)
    peak = expo.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.sum(np.exp(expo - peak), axis=1))
    out = lse - np.log(kde.n) - 0.5 * kde.d * np.log(2.0 * np.pi * h2)
    out = np.maximum(out, KDE_LOG_FLOOR)
    return out


# ------------------------------------------------------------- thresholds


@dataclass(frozen=True)
class ThresholdSet:
    recon_threshold: float | None
    kde_threshold: float | None
    combine_rule: str = "or"

    def __post_init__(self):
        if self.combine_rule not in COMBINE_RULES:
            raise ConfigError(
                f"combine rule must be one of {COMBINE_RULES}, got {self.combine_rule!r}"
            )
        needs_recon = self.combine_rule in ("recon_only", "or", "and")
        needs_kde = self.combine_rule in ("kde_only", "or", "and")
        if needs_recon and self.recon_threshold is None:
            raise ConfigError(f"rule {self.combine_rule!r} needs a reconstruction threshold")
        if needs_kde and self.kde_threshold is None:
            raise ConfigError(f"rule {self.combine_rule!r} needs a KDE threshold")


def decide_anomaly(
    recon_error: float | None,
    kde_log_dens: float | None,
    thresholds: ThresholdSet,
) -> str:
    """Strict-inequality flags combined per rule; at-threshold scores stay
    good. Returns 'good' or 'defect'."""
    rule = thresholds.combine_rule
    recon_flag = None
    if thresholds.recon_threshold is not None and recon_error is not None:
        recon_flag = recon_error > thresholds.recon_threshold
    kde_flag = None
    if thresholds.kde_threshold is not None and kde_log_dens is not None:
        kde_flag = kde_log_dens < thresholds.kde_threshold
    if rule == "recon_only":
        flag = recon_flag
    elif rule == "kde_only":
        flag = kde_flag
    elif rule == "or":
        flag = bool(recon_flag) or bool(kde_flag)
    else:  # and
        flag = bool(recon_flag) and bool(kde_flag)
    if flag is None:
        raise ConfigError(f"rule {rule!r} needs the matching score, got None")
    return "defect" if flag else "good"


def calibrate_thresholds(
    model: ModelGraph,
    val_x: np.ndarray,
    kde: KdeModel | None = None,
    percentile: float = 95.0,
    combine_rule: str | None = None,
) -> ThresholdSet:
    """Set thresholds from a good-only validation batch: the p-th
    percentile of reconstruction errors, and (when a KDE is given) the
    (100-p)-th percentile of log densities."""
    if val_x.shape[0] == 0:
        raise DataError("cannot calibrate on an empty validation set")
    if not 0.0 <= percentile <= 100.0:
        raise ConfigError(f"percentile must be in [0,100], got {percentile}")
    errors, latents = score_batch(model, val_x)
    tau_re = float(np.percentile(errors, percentile))
    tau_kd = None
    if kde is not None:
        dens = kde_log_densities(kde, latents)
        tau_kd = float(np.percentile(dens, 100.0 - percentile))
    if combine_rule is None:
        combine_rule = "or" if kde is not None else "recon_only"
    return ThresholdSet(tau_re, tau_kd, combine_rule)


def classify_supervised(model: ModelGraph, x: np.ndarray, cutoff: float = 0.5):
    """CNN decisions for a batch, from one forward pass: (list of 'defect' |
    'good', probabilities of shape (N,)); defect iff the sigmoid output is
    >= cutoff (inclusive boundary)."""
    probs = model.forward(x, mode="eval")[:, 0]
    return ["defect" if p >= cutoff else "good" for p in probs], probs
