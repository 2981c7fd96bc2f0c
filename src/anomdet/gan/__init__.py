"""DCGAN pair, alternating training, sampling."""

from .models import (
    GanConfig,
    GanHistory,
    GanPair,
    GanStepRecord,
    build_discriminator,
    build_generator,
    build_pair,
)
from .sampling import contact_sheet, generate_samples
from .training import from_gan_range, to_gan_range, train_gan

__all__ = [
    "GanConfig",
    "GanHistory",
    "GanPair",
    "GanStepRecord",
    "build_generator",
    "build_discriminator",
    "build_pair",
    "train_gan",
    "to_gan_range",
    "from_gan_range",
    "generate_samples",
    "contact_sheet",
]
