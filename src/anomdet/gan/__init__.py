"""DCGAN pair, alternating training, sampling."""

from .models import (
    GanHistory,
    GanPair,
    GanStepRecord,
    build_discriminator,
    build_generator,
)
from .sampling import contact_sheet, generate_samples
from .training import from_gan_range, to_gan_range, train_gan

__all__ = [
    "GanHistory",
    "GanPair",
    "GanStepRecord",
    "build_generator",
    "build_discriminator",
    "train_gan",
    "to_gan_range",
    "from_gan_range",
    "generate_samples",
    "contact_sheet",
]
