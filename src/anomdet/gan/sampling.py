"""Drawing images from a trained generator and writing them to disk."""

import math
from pathlib import Path

import numpy as np

from ..data.codec import write_pgm, write_ppm
from ..errors import ConfigError
from ..nn import ModelGraph
from ..rng import stream
from .training import from_gan_range

__all__ = ["generate_samples", "contact_sheet"]


def generate_samples(
    generator: ModelGraph, n: int, seed: int, batch_size: int, out_dir=None
) -> np.ndarray:
    """Sample n images from the frozen generator, mapped to [0,1].

    The image shape is the generator's output shape and the latent width
    its input shape. With `out_dir` set, each image is written as
    sample_XXX.pgm/.ppm under `out_dir`/samples plus one contact sheet at
    `out_dir`/sheet. n=0 yields an empty batch and writes nothing; a
    negative n is a ConfigError. The latents are drawn in one go and
    forwarded `batch_size` at a time, so memory does not grow with n.
    """
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    shape = (n, *generator.shapes[-1])
    if n == 0:
        return np.zeros(shape, dtype=np.float32)
    z = stream(seed, "gan-sample").standard_normal((n, *generator.input_shape)).astype(np.float32)
    imgs = np.empty(shape, dtype=np.float32)
    for i in range(0, n, batch_size):
        imgs[i : i + batch_size] = from_gan_range(
            generator.forward(z[i : i + batch_size], mode="eval"))
    if out_dir is not None:
        out = Path(out_dir)
        sub = out / "samples"
        sub.mkdir(parents=True, exist_ok=True)
        color = shape[1] == 3
        suffix = ".ppm" if color else ".pgm"
        for i in range(n):
            arr = _quantize(imgs[i].transpose(1, 2, 0) if color else imgs[i, 0])
            writer = write_ppm if color else write_pgm
            writer(sub / f"sample_{i:03d}{suffix}", arr)
        sheet = contact_sheet(imgs)
        if color:
            write_ppm(out / "sheet.ppm", _quantize(sheet.transpose(1, 2, 0)))
        else:
            write_pgm(out / "sheet.pgm", _quantize(sheet[0]))
    return imgs


def _quantize(f: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(f * 255.0), 0, 255).astype(np.uint8)


def contact_sheet(imgs: np.ndarray, pad: int = 2) -> np.ndarray:
    """Tile a (N,C,H,W) batch into one (C, rows*H+, cols*W+) image with a
    mid-gray border between tiles."""
    n, c, h, w = imgs.shape
    cols = max(1, math.ceil(math.sqrt(n)))
    rows = math.ceil(n / cols)
    sheet = np.full(
        (c, rows * h + pad * (rows + 1), cols * w + pad * (cols + 1)), 0.5, dtype=np.float32
    )
    for i in range(n):
        r, col = divmod(i, cols)
        y = pad + r * (h + pad)
        x = pad + col * (w + pad)
        sheet[:, y : y + h, x : x + w] = imgs[i]
    return sheet
