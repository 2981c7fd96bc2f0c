"""Image ingestion, codecs, preprocessing, noise injection, and the
synthetic benchmark dataset."""

from .codec import read_image, read_pgm, read_ppm, write_pgm, write_ppm
from .dataset import (
    Dataset,
    ImageSample,
    NoisePlan,
    inject_gaussian_noise,
    load_image_dir,
    save_dataset,
    split_validation,
)
from .synthetic import Rendered, render_sample, generate_synthetic_set

__all__ = [
    "read_image",
    "read_pgm",
    "read_ppm",
    "write_pgm",
    "write_ppm",
    "Dataset",
    "ImageSample",
    "NoisePlan",
    "inject_gaussian_noise",
    "load_image_dir",
    "save_dataset",
    "split_validation",
    "Rendered",
    "render_sample",
    "generate_synthetic_set",
]
