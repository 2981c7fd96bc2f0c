"""Seeded renderer for the benchmark's directory datasets.

The benchmark draws its own images instead of calling
`anomdet.data.synthetic`, so a change to the program's synthetic source
cannot change the inputs the benchmark measures on. Each image is an 8-bit
PGM of HEIGHT x WIDTH pixels: a bright elliptical part with faint concentric
texture on a dark shaded background. The frame is not square and larger
than the model input, so `anomdet` ingestion crops and resizes every file.

Defects are drawn on top of a good image:
  scratch  a bright 4 px line at a random angle through the part
  spot     a dark disk of radius 6-9 px inside the part

Layout written under `<root>/<class_name>/`:
  train/good/*.pgm, test/good/*.pgm, test/scratch/*.pgm, test/spot/*.pgm
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HEIGHT, WIDTH = 72, 90
DEFECT_KINDS = ("scratch", "spot")


def _rng(seed: int, split: str, index: int) -> np.random.Generator:
    code = {"train": 1, "test": 2}[split]
    return np.random.default_rng(np.random.SeedSequence([seed, code, index]))


def render(rng: np.random.Generator, defect: str) -> np.ndarray:
    """One image as uint8 (HEIGHT, WIDTH); `defect` is "" or a DEFECT_KINDS name."""
    yy, xx = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float64)
    cy = (HEIGHT - 1) / 2 + rng.uniform(-1.0, 1.0)
    cx = (WIDTH - 1) / 2 + rng.uniform(-1.0, 1.0)
    ry = HEIGHT * rng.uniform(0.30, 0.32)
    rx = HEIGHT * rng.uniform(0.34, 0.36)
    r2 = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
    part = r2 <= 1.0
    img = 0.10 + 0.04 * xx / WIDTH
    img = np.where(part, 0.68 + 0.04 * np.cos(6.0 * np.sqrt(r2)), img)
    if defect == "scratch":
        theta = rng.uniform(0.0, np.pi)
        oy, ox = cy + rng.uniform(-4, 4), cx + rng.uniform(-4, 4)
        dist = np.abs(-(yy - oy) * np.sin(theta) + (xx - ox) * np.cos(theta))
        img = np.where((dist <= 2.0) & (r2 <= 1.3), 0.98, img)
    elif defect == "spot":
        rho = rng.uniform(6.0, 9.0)
        sy = cy + rng.uniform(-0.4, 0.4) * (ry - rho)
        sx = cx + rng.uniform(-0.4, 0.4) * (rx - rho)
        img = np.where((yy - sy) ** 2 + (xx - sx) ** 2 <= rho * rho, 0.08, img)
    elif defect:
        raise ValueError(f"unknown defect kind {defect!r}")
    img = img + rng.normal(0.0, 0.015, img.shape)
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def write_dataset(root: Path, class_name: str, seed: int, n_train: int,
                  n_test_good: int, n_test_defect: int) -> dict:
    """Write one class directory; returns {relative folder: file count}.

    Test defects alternate between the DEFECT_KINDS, so each kind gets
    half of `n_test_defect` (the first kind takes the odd one).
    """
    base = Path(root) / class_name
    plan = [("train", "good", "", i) for i in range(n_train)]
    plan += [("test", "good", "", i) for i in range(n_test_good)]
    plan += [("test", DEFECT_KINDS[i % 2], DEFECT_KINDS[i % 2], n_test_good + i)
             for i in range(n_test_defect)]
    counts: dict = {}
    for split, folder, defect, index in plan:
        d = base / split / folder
        d.mkdir(parents=True, exist_ok=True)
        write_pgm(d / f"{index:04d}.pgm", render(_rng(seed, split, index), defect))
        key = f"{split}/{folder}"
        counts[key] = counts.get(key, 0) + 1
    return counts
