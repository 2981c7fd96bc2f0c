"""Deterministic synthetic defect dataset: bright filled shapes on a dark
background, with scratch or hole defects. Desk-scale stand-in for real
inspection data in tests and benchmarks.

Rendering is split across two derived rng streams per image — one for the
base shape, one for the defect — so a defect sample and its clean
counterpart share identical base pixels and differ only inside the defect
bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..rng import stream
from .dataset import Dataset, ImageSample

SHAPE_KINDS = ("disk", "rect", "mix")


@dataclass(frozen=True)
class Rendered:
    pixels: np.ndarray  # (1, 1, H, W) float32 in [0,1]
    defect_kind: str  # "" | "scratch" | "hole"
    defect_bbox: tuple[int, int, int, int] | None  # (y0, y1, x0, x1), half-open


def _clip01(v):
    return float(np.clip(v, 0.0, 1.0))


def render_sample(
    seed: int, index: int, size: int, shape_kind: str = "disk", defect: bool = False
) -> Rendered:
    """Render one image. Identical (seed, index, size, shape_kind) with
    defect on/off yields the same base pixels, defect region aside."""
    if shape_kind not in SHAPE_KINDS:
        raise DataError(f"shape kind must be one of {SHAPE_KINDS}, got {shape_kind!r}")
    if size < 16:
        raise DataError(f"image size {size} too small to render shapes")
    rng = stream(seed, f"synth/{index}")
    bg = _clip01(rng.normal(0.08, 0.02))
    fg = _clip01(rng.normal(0.75, 0.03))
    kind = shape_kind if shape_kind != "mix" else ("disk", "rect")[index % 2]
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if kind == "disk":
        radius = size * rng.uniform(0.26, 0.34)
        mask = (yy - c) ** 2 + (xx - c) ** 2 <= radius**2
        min_half_extent = radius
    else:
        half_w = size * rng.uniform(0.24, 0.34)
        half_h = size * rng.uniform(0.24, 0.34)
        mask = (np.abs(yy - c) <= half_h) & (np.abs(xx - c) <= half_w)
        min_half_extent = min(half_w, half_h)
    img = np.where(mask, fg, bg)
    img = img + rng.normal(0.0, 0.01, (size, size))
    img = np.clip(img, 0.0, 1.0)

    defect_kind = ""
    bbox = None
    if defect:
        drng = stream(seed, f"synth/{index}/defect")
        defect_kind = ("scratch", "hole")[int(drng.integers(0, 2))]
        dark = _clip01(drng.normal(0.10, 0.02))
        if defect_kind == "scratch":
            width = max(3.0, round(size * 0.06))
            if width >= 2 * min_half_extent:
                raise DataError(
                    f"scratch width {width}px too large for object half-extent "
                    f"{min_half_extent:.1f}px"
                )
            theta = drng.uniform(0.0, np.pi)
            # line through a point near the object center
            oy = c + drng.uniform(-0.3, 0.3) * min_half_extent
            ox = c + drng.uniform(-0.3, 0.3) * min_half_extent
            # signed distance to the line with direction (cos t, sin t)
            dist = np.abs(-(yy - oy) * np.sin(theta) + (xx - ox) * np.cos(theta))
            dmask = (dist <= width / 2.0) & mask
        else:
            max_rho = min(6.0, min_half_extent - 2.0)
            if max_rho < 3.0:
                raise DataError(
                    f"hole radius 3px too large for object half-extent "
                    f"{min_half_extent:.1f}px"
                )
            rho = drng.uniform(3.0, max_rho)
            reach = min_half_extent - rho - 1.0
            hy = c + drng.uniform(-reach, reach) * 0.7
            hx = c + drng.uniform(-reach, reach) * 0.7
            dmask = (yy - hy) ** 2 + (xx - hx) ** 2 <= rho**2
        if not dmask.any():
            raise DataError("defect mask empty; object too small")
        img = np.where(dmask, dark, img)
        ys, xs = np.nonzero(dmask)
        bbox = (int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1)

    pixels = img.astype(np.float32)[None, None]
    return Rendered(pixels, defect_kind, bbox)


def generate_synthetic_set(
    shape_kind: str,
    n_train: int,
    n_test: int,
    defect_rate: float,
    image_size: int,
    seed: int,
    train_defect_rate: float = 0.0,
) -> Dataset:
    """Deterministic labeled dataset: n_train train images (good unless
    train_defect_rate > 0, for supervised runs) and n_test test images
    with floor(defect_rate * n_test) defects."""
    if n_train < 1 or n_test < 1:
        raise DataError(f"need n_train, n_test >= 1, got {n_train}, {n_test}")
    if not 0.0 <= defect_rate <= 1.0:
        raise DataError(f"defect rate must be in [0,1], got {defect_rate}")
    if not 0.0 <= train_defect_rate <= 1.0:
        raise DataError(f"train defect rate must be in [0,1], got {train_defect_rate}")

    assign = stream(seed, "synth/assign")
    n_train_defect = int(train_defect_rate * n_train)
    n_test_defect = int(defect_rate * n_test)
    train_flags = np.zeros(n_train, dtype=bool)
    train_flags[assign.permutation(n_train)[:n_train_defect]] = True
    test_flags = np.zeros(n_test, dtype=bool)
    test_flags[assign.permutation(n_test)[:n_test_defect]] = True

    class_name = f"synthetic-{shape_kind}"
    samples = []
    for i in range(n_train):
        r = render_sample(seed, i, image_size, shape_kind, defect=bool(train_flags[i]))
        samples.append(
            ImageSample(
                r.pixels,
                "defect" if train_flags[i] else "good",
                r.defect_kind,
                "train",
                f"synthetic://{class_name}/train/{i:05d}",
            )
        )
    for j in range(n_test):
        idx = n_train + j
        r = render_sample(seed, idx, image_size, shape_kind, defect=bool(test_flags[j]))
        samples.append(
            ImageSample(
                r.pixels,
                "defect" if test_flags[j] else "good",
                r.defect_kind,
                "test",
                f"synthetic://{class_name}/test/{j:05d}",
            )
        )
    return Dataset(class_name, samples)
