"""Dataset container, directory ingestion, preprocessing, noise injection,
and validation splitting.

Pixels are float32 in [0,1], shaped (1, C, H, W) per sample with C of 1
or 3. Directory layout follows the industrial-inspection convention:

    <root>/<class>/train/good/*.pgm
    <root>/<class>/test/good/*.pgm
    <root>/<class>/test/<defect_kind>/*.pgm

Test images under any folder other than `good` count as defects; the
folder name is kept as the defect kind. All defect kinds collapse into
one binary label downstream.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..rng import stream
from .codec import read_image, write_pgm, write_ppm

LUMA_WEIGHTS = (0.299, 0.587, 0.114)
IMAGE_SUFFIXES = (".pgm", ".ppm", ".png")


@dataclass
class ImageSample:
    pixels: np.ndarray  # (1, C, H, W) float32 in [0,1]
    label: str  # good | defect
    defect_kind: str  # "" for good samples
    split: str  # train | test
    source_path: str

    def __post_init__(self):
        if self.pixels.ndim != 4 or self.pixels.shape[0] != 1:
            raise DataError(f"sample pixels must be (1,C,H,W), got {self.pixels.shape}")
        if self.pixels.shape[1] not in (1, 3):
            raise DataError(f"sample must have 1 or 3 channels, got {self.pixels.shape[1]}")
        if self.label not in ("good", "defect"):
            raise DataError(f"label must be good|defect, got {self.label!r}")


@dataclass
class Dataset:
    class_name: str
    samples: list[ImageSample]
    seed: int
    skipped: int = 0  # undecodable files encountered during loading

    def split_samples(self, split: str) -> list[ImageSample]:
        return [s for s in self.samples if s.split == split]

    def stack(self, split: str | None = None) -> np.ndarray:
        """(N, C, H, W) array of all (or one split's) samples."""
        chosen = self.samples if split is None else self.split_samples(split)
        if not chosen:
            raise DataError(f"no samples in split {split!r}")
        return np.concatenate([s.pixels for s in chosen], axis=0)

    def labels(self, split: str | None = None) -> list[str]:
        chosen = self.samples if split is None else self.split_samples(split)
        return [s.label for s in chosen]


@dataclass(frozen=True)
class NoisePlan:
    selected_indices: tuple[int, ...]  # indices into Dataset.samples
    mean: float
    variance: float
    fraction: float
    target_split: str


def _to_unit_float(u8: np.ndarray) -> np.ndarray:
    """uint8 (H,W) or (H,W,3) -> float32 (1,C,H,W) in [0,1]."""
    f = u8.astype(np.float32) / 255.0
    if f.ndim == 2:
        return f[None, None]
    return f.transpose(2, 0, 1)[None]


def load_image_dir(
    root: str | Path,
    class_name: str,
    allow_png: bool = False,
    seed: int = 0,
    split: str | None = None,
) -> Dataset:
    """Ingest one class directory in the layout above.

    Files are visited in lexicographic order (subfolders, then names) so
    sample order is stable across filesystems. Undecodable files warn and
    increment `skipped`; the run continues. With `split` ("train" or
    "test") only that split's folders are read; the samples are the ones
    a full load holds for that split, in the same order.
    """
    if split not in (None, "train", "test"):
        raise DataError(f"split must be 'train' or 'test', got {split!r}")
    base = Path(root) / class_name
    if not base.is_dir():
        raise DataError(f"class directory not found: {base}")
    samples: list[ImageSample] = []
    skipped = 0

    def ingest(directory: Path, label: str, defect_kind: str, sample_split: str):
        nonlocal skipped
        for f in sorted(directory.iterdir()):
            if not f.is_file() or f.suffix.lower() not in IMAGE_SUFFIXES:
                continue
            try:
                u8 = read_image(f, allow_png=allow_png)
            except DataError as e:
                warnings.warn(f"skipping undecodable image: {e}")
                skipped += 1
                continue
            samples.append(
                ImageSample(_to_unit_float(u8), label, defect_kind, sample_split, str(f))
            )

    if split in (None, "train"):
        train_good = base / "train" / "good"
        if not train_good.is_dir():
            raise DataError(f"missing train/good directory under {base}")
        ingest(train_good, "good", "", "train")
        if not samples:
            raise DataError(f"no training images under {train_good}")

    test_dir = base / "test"
    if split in (None, "test") and test_dir.is_dir():
        for sub in sorted(p for p in test_dir.iterdir() if p.is_dir()):
            if sub.name == "good":
                ingest(sub, "good", "", "test")
            else:
                ingest(sub, "defect", sub.name, "test")
    return Dataset(class_name, samples, seed=seed, skipped=skipped)


# ----------------------------------------------------------- preprocessing


def _center_crop_square(img: np.ndarray) -> np.ndarray:
    _, c, h, w = img.shape
    if h == w:
        return img
    side = min(h, w)
    top = (h - side) // 2
    left = (w - side) // 2
    return img[:, :, top : top + side, left : left + side]


def _block_mean(img: np.ndarray, factor: int) -> np.ndarray:
    _, c, h, w = img.shape
    out = img.reshape(1, c, h // factor, factor, w // factor, factor)
    return out.mean(axis=(3, 5), dtype=np.float32)


def _bilinear(img: np.ndarray, target: int) -> np.ndarray:
    """Half-pixel-centered bilinear resample to target x target."""
    _, c, h, w = img.shape
    ys = (np.arange(target, dtype=np.float64) + 0.5) * (h / target) - 0.5
    xs = (np.arange(target, dtype=np.float64) + 0.5) * (w / target) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).reshape(-1, 1)
    wx = np.clip(xs - x0, 0.0, 1.0).reshape(1, -1)
    p = img.astype(np.float64)
    top = p[:, :, y0][:, :, :, x0] * (1 - wx) + p[:, :, y0][:, :, :, x1] * wx
    bot = p[:, :, y1][:, :, :, x0] * (1 - wx) + p[:, :, y1][:, :, :, x1] * wx
    out = top * (1 - wy) + bot * wy
    return out.astype(np.float32)


def preprocess(dataset: Dataset, target_size: int, grayscale: bool) -> Dataset:
    """Luminance conversion, center-crop to square, downsample to target.

    Downsampling uses exact block averaging when the source is an integer
    multiple of the target, bilinear otherwise. Upscaling is refused.
    Idempotent: output at target size passes through unchanged.
    """
    if target_size < 1:
        raise DataError(f"target size must be positive, got {target_size}")
    out_samples = []
    for s in dataset.samples:
        img = s.pixels
        if grayscale and img.shape[1] == 3:
            w = np.asarray(LUMA_WEIGHTS, dtype=np.float32).reshape(1, 3, 1, 1)
            img = np.sum(img * w, axis=1, keepdims=True, dtype=np.float32)
        img = _center_crop_square(img)
        side = img.shape[2]
        if side < target_size:
            raise DataError(
                f"{s.source_path}: source {side}px smaller than target "
                f"{target_size}px; upscaling refused"
            )
        if side != target_size:
            if side % target_size == 0:
                img = _block_mean(img, side // target_size)
            else:
                img = _bilinear(img, target_size)
        img = np.clip(img, 0.0, 1.0)
        out_samples.append(replace(s, pixels=img))
    return Dataset(dataset.class_name, out_samples, dataset.seed, dataset.skipped)


# --------------------------------------------------------- noise injection


def inject_gaussian_noise(
    dataset: Dataset,
    fraction: float = 0.10,
    mean: float = 0.0,
    variance: float = 0.001,
    seed: int = 0,
    target_split: str = "train",
) -> tuple[Dataset, NoisePlan]:
    """Perturb exactly floor(fraction * K) distinct samples of the target
    split with i.i.d. Gaussian noise, clamped back to [0,1]. K counts the
    targeted samples; untouched samples share their original arrays, so
    they stay bitwise identical."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"noise fraction must be in [0,1], got {fraction}")
    if variance < 0:
        raise DataError(f"noise variance must be non-negative, got {variance}")
    if target_split == "all":
        targeted = list(range(len(dataset.samples)))
    else:
        targeted = [i for i, s in enumerate(dataset.samples) if s.split == target_split]
    count = int(fraction * len(targeted))
    rng = stream(seed, "noise")
    chosen = sorted(rng.permutation(len(targeted))[:count].tolist())
    selected = tuple(targeted[i] for i in chosen)
    sigma = float(np.sqrt(variance))
    out_samples = list(dataset.samples)
    for idx in selected:
        s = out_samples[idx]
        noise = rng.normal(mean, sigma, size=s.pixels.shape).astype(np.float32)
        noisy = np.clip(s.pixels + noise, 0.0, 1.0)
        out_samples[idx] = replace(s, pixels=noisy)
    plan = NoisePlan(selected, mean, variance, fraction, target_split)
    return Dataset(dataset.class_name, out_samples, dataset.seed, dataset.skipped), plan


# ------------------------------------------------------------------ splits


def split_validation(dataset: Dataset, fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Shuffle-then-split into (train, validation); disjoint, exhaustive,
    deterministic per seed."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"validation fraction must be in (0,1), got {fraction}")
    n = len(dataset.samples)
    if n < 2:
        raise DataError(f"need at least 2 samples to split, have {n}")
    n_val = max(1, int(fraction * n))
    if n_val >= n:
        n_val = n - 1
    perm = stream(seed, "shuffle").permutation(n)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    mk = lambda idx: Dataset(
        dataset.class_name, [dataset.samples[i] for i in idx], dataset.seed, dataset.skipped
    )
    return mk(train_idx), mk(val_idx)


# ------------------------------------------------------------------ caching


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write samples as 8-bit netpbm files plus a manifest CSV
    (`path,label,defect_kind,split`). Returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, s in enumerate(dataset.samples):
        u8 = np.clip(np.rint(s.pixels[0] * 255.0), 0, 255).astype(np.uint8)
        if s.pixels.shape[1] == 1:
            name = f"{i:05d}.pgm"
            write_pgm(directory / name, u8[0])
        else:
            name = f"{i:05d}.ppm"
            write_ppm(directory / name, u8.transpose(1, 2, 0))
        rows.append((name, s.label, s.defect_kind, s.split))
    manifest = directory / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "label", "defect_kind", "split"])
        w.writerows(rows)
    return manifest


def load_dataset(directory: str | Path, class_name: str = "", seed: int = 0) -> Dataset:
    """Rebuild a dataset from a directory written by save_dataset."""
    directory = Path(directory)
    manifest = directory / "manifest.csv"
    if not manifest.is_file():
        raise DataError(f"no manifest.csv under {directory}")
    samples = []
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["path", "label", "defect_kind", "split"]:
            raise DataError(f"{manifest}: unexpected manifest columns {reader.fieldnames}")
        for row in reader:
            path = directory / row["path"]
            u8 = read_image(path)
            samples.append(
                ImageSample(
                    _to_unit_float(u8), row["label"], row["defect_kind"], row["split"], str(path)
                )
            )
    return Dataset(class_name or directory.name, samples, seed=seed)
