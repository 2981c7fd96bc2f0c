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
    "GanConfig", "GanStepRecord", "GanHistory", "GanPair",
    "build_generator", "build_discriminator", "build_pair",
]


def _n_doublings(size: int) -> int:
    """Number of stride-2 stages between a 4x4 seed map and `size`."""
    n = 0
    s = 4
    while s < size:
        s *= 2
        n += 1
    if s != size:
        raise ConfigError(f"image size must be a power of two, got {size}")
    return n


@dataclass(frozen=True)
class GanConfig:
    """Hyperparameters shared by both players."""

    image_size: int = 32
    channels: int = 1
    z_dim: int = 100
    base_channels: int = 64
    k_disc_steps: int = 1
    lr_generator: float = 2e-4
    lr_discriminator: float = 2e-4
    batch_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.z_dim < 1:
            raise ConfigError(f"z_dim must be >= 1, got {self.z_dim}")
        if self.k_disc_steps < 1:
            raise ConfigError(f"k_disc_steps must be >= 1, got {self.k_disc_steps}")
        if self.image_size < 32:
            raise ConfigError(f"image size must be >= 32, got {self.image_size}")
        n_up = _n_doublings(self.image_size)
        if self.base_channels % (1 << (n_up - 1)) != 0:
            raise ConfigError(
                f"base_channels {self.base_channels} not divisible by "
                f"2^{n_up - 1} (needed to halve down to the output stage)"
            )
        if self.channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3, got {self.channels}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batchnorm needs it)")
        if self.lr_generator <= 0 or self.lr_discriminator <= 0:
            raise ConfigError("learning rates must be positive")


def build_generator(config: GanConfig) -> ModelGraph:
    """z (z_dim,) -> dense projection -> (base,4,4) -> transpose-conv
    doublings -> tanh image in [-1,1]."""
    config.validate()
    n_up = _n_doublings(config.image_size)
    base = config.base_channels
    specs = [
        LayerSpec("dense", units=base * 16),
        LayerSpec("reshape", target_shape=(base, 4, 4)),
        LayerSpec("batchnorm"),
        LayerSpec("activation", activation="relu"),
    ]
    ch = base
    for i in range(n_up - 1):
        ch //= 2
        specs.append(LayerSpec("conv2d_transpose", filters=ch, kernel=4, stride=2, padding=1))
        specs.append(LayerSpec("batchnorm"))
        specs.append(LayerSpec("activation", activation="relu"))
    specs.append(
        LayerSpec("conv2d_transpose", filters=config.channels, kernel=4, stride=2, padding=1)
    )
    specs.append(LayerSpec("activation", activation="tanh"))
    return ModelGraph(
        specs, (config.z_dim,), rng_seed=config.seed, model_kind="dcgan-generator"
    )


def build_discriminator(config: GanConfig) -> ModelGraph:
    """Image -> stride-2 conv halvings (leaky relu, batchnorm after the
    first block) -> dense logit -> sigmoid probability."""
    config.validate()
    n_up = _n_doublings(config.image_size)
    base = config.base_channels
    ch = base >> (n_up - 1)  # mirror of the generator walk, reversed
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
        specs,
        (config.channels, config.image_size, config.image_size),
        rng_seed=config.seed + 1,
        model_kind="dcgan-discriminator",
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
    config: GanConfig
    history: GanHistory = field(default_factory=GanHistory)


def build_pair(config: GanConfig) -> GanPair:
    return GanPair(build_generator(config), build_discriminator(config), config)
