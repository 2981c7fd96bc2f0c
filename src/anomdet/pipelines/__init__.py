"""Detector pipelines: model builders, training loop, anomaly scoring,
thresholding, and SSIM diagnostics."""

from .builders import (
    NI_CAE_FILTERS,
    CnnConfig,
    KdCaeConfig,
    NiCaeConfig,
    build_cnn,
    build_kd_cae,
    build_ni_cae,
)
from .scoring import (
    KDE_LOG_FLOOR,
    KdeModel,
    ThresholdSet,
    calibrate_thresholds,
    classify_supervised,
    decide_anomaly,
    encode_latent,
    fit_kde,
    kde_log_densities,
    kde_log_density,
    score_batch,
)
from .ssim import ssim, ssim_diff_image
from .training import EarlyStopper, EpochRecord, TrainHistory, train

__all__ = [
    "KDE_LOG_FLOOR",
    "CnnConfig",
    "KdCaeConfig",
    "NiCaeConfig",
    "NI_CAE_FILTERS",
    "build_cnn",
    "build_kd_cae",
    "build_ni_cae",
    "KdeModel",
    "ThresholdSet",
    "calibrate_thresholds",
    "classify_supervised",
    "decide_anomaly",
    "encode_latent",
    "fit_kde",
    "kde_log_densities",
    "kde_log_density",
    "score_batch",
    "ssim",
    "ssim_diff_image",
    "EarlyStopper",
    "EpochRecord",
    "TrainHistory",
    "train",
]
