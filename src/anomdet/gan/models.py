"""DCGAN generator/discriminator construction.

Both nets are plain ``ModelGraph`` stacks. The generator projects the latent
vector to a 4x4 seed map and doubles the extent with stride-2 transposed
convolutions (batchnorm + relu between, tanh at the output); the
discriminator halves with stride-2 convolutions (leaky relu throughout,
batchnorm on all but the first block) down to 4x4, then a single dense
logit through a sigmoid. No pooling anywhere, and no hidden dense layers
in the generator beyond the z projection. `GanPair` holds both players and
the per-step `GanHistory` that training appends to.
"""

import csv
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..nn import LayerSpec, ModelGraph

__all__ = [
    "GanStepRecord", "GanHistory", "GanPair", "build_generator", "build_discriminator",
]


def _n_doublings(image_shape: tuple[int, int, int], base_channels: int) -> int:
    """Number of stride-2 stages between a 4x4 seed map and the image; a
    shape or width the pair cannot take is a ConfigError."""
    c, h, w = image_shape
    if c not in (1, 3):
        raise ConfigError(f"channels must be 1 or 3, got {c}")
    if h != w:
        raise ConfigError(f"dcgan images must be square, got {h}x{w}")
    if h < 32:
        raise ConfigError(f"image size must be >= 32, got {h}")
    n = 0
    s = 4
    while s < h:
        s *= 2
        n += 1
    if s != h:
        raise ConfigError(f"image size must be a power of two, got {h}")
    if base_channels < 1 or base_channels % (1 << (n - 1)) != 0:
        raise ConfigError(
            f"base_channels {base_channels} not a positive number divisible by "
            f"2^{n - 1} (needed to halve down to the output stage)"
        )
    return n


def build_generator(
    image_shape: tuple[int, int, int], z_dim: int, base_channels: int, seed: int
) -> ModelGraph:
    """z (z_dim,) -> dense projection -> (base,4,4) -> transpose-conv
    doublings -> tanh image in [-1,1]."""
    if z_dim < 1:
        raise ConfigError(f"z_dim must be >= 1, got {z_dim}")
    n_up = _n_doublings(image_shape, base_channels)
    specs = [
        LayerSpec("dense", units=base_channels * 16),
        LayerSpec("reshape", target_shape=(base_channels, 4, 4)),
        LayerSpec("batchnorm"),
        LayerSpec("activation", activation="relu"),
    ]
    ch = base_channels
    for _ in range(n_up - 1):
        ch //= 2
        specs.append(LayerSpec("conv2d_transpose", filters=ch, kernel=4, stride=2, padding=1))
        specs.append(LayerSpec("batchnorm"))
        specs.append(LayerSpec("activation", activation="relu"))
    specs.append(
        LayerSpec("conv2d_transpose", filters=image_shape[0], kernel=4, stride=2, padding=1)
    )
    specs.append(LayerSpec("activation", activation="tanh"))
    return ModelGraph(specs, (z_dim,), rng_seed=seed, model_kind="dcgan-generator")


def build_discriminator(
    image_shape: tuple[int, int, int], base_channels: int, seed: int
) -> ModelGraph:
    """Image -> stride-2 conv halvings (leaky relu, batchnorm after the
    first block) -> dense logit -> sigmoid probability. Its init draws
    come from `seed + 1`, so the two players of one seed draw apart."""
    n_up = _n_doublings(image_shape, base_channels)
    ch = base_channels >> (n_up - 1)  # mirror of the generator walk, reversed
    specs = [
        LayerSpec("conv2d", filters=ch, kernel=4, stride=2, padding=1),
        LayerSpec("activation", activation="leaky_relu"),
    ]
    for _ in range(n_up - 1):
        ch *= 2
        specs.append(LayerSpec("conv2d", filters=ch, kernel=4, stride=2, padding=1))
        specs.append(LayerSpec("batchnorm"))
        specs.append(LayerSpec("activation", activation="leaky_relu"))
    specs.append(LayerSpec("flatten"))
    specs.append(LayerSpec("dense", units=1))
    specs.append(LayerSpec("activation", activation="sigmoid"))
    return ModelGraph(
        specs, image_shape, rng_seed=seed + 1, model_kind="dcgan-discriminator"
    )


@dataclass(frozen=True)
class GanStepRecord:
    step: int
    j_d: float
    j_g: float
    mean_d_real: float
    mean_d_fake: float


@dataclass
class GanHistory:
    records: list = field(default_factory=list)
    aborted_at: Optional[int] = None

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["step", "j_d", "j_g", "mean_d_real", "mean_d_fake"])
            for r in self.records:
                w.writerow(
                    [r.step, f"{r.j_d:.6f}", f"{r.j_g:.6f}",
                     f"{r.mean_d_real:.6f}", f"{r.mean_d_fake:.6f}"]
                )


@dataclass
class GanPair:
    """Both players plus the per-step training history."""

    generator: ModelGraph
    discriminator: ModelGraph
    history: GanHistory = field(default_factory=GanHistory)

