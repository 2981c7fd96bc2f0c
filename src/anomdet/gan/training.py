"""Alternating GAN training: k discriminator updates, then one generator
update on the non-saturating objective."""

import numpy as np

from ..errors import ConfigError, DataError, ShapeError
from ..nn.optim import RmsProp
from ..rng import stream
from .losses import discriminator_loss_grads, generator_loss_grad
from .models import GanPair, GanStepRecord

__all__ = ["train_gan", "to_gan_range", "from_gan_range"]

SNAPSHOT_EVERY = 100  # steps between the snapshots a non-finite loss rolls back to


def to_gan_range(x01: np.ndarray) -> np.ndarray:
    """Map [0,1] pixels to the tanh range [-1,1]."""
    return (np.asarray(x01, dtype=np.float32) * 2.0 - 1.0).astype(np.float32)


def from_gan_range(x11: np.ndarray) -> np.ndarray:
    """Map generator output back to [0,1], clipping float fuzz."""
    return np.clip((np.asarray(x11, dtype=np.float32) + 1.0) / 2.0, 0.0, 1.0)


class _BatchCycler:
    """Walk a shuffled index pool in fixed-size slices, reshuffling when
    fewer than a full batch remains."""

    def __init__(self, n: int, batch: int, rng):
        self.n, self.batch, self.rng = n, batch, rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self) -> np.ndarray:
        if self.pos + self.batch > self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        out = self.order[self.pos : self.pos + self.batch]
        self.pos += self.batch
        return out


def train_gan(pair: GanPair, images: np.ndarray, steps: int, *, batch_size: int,
              k_disc_steps: int = 1, lr_generator: float = 2e-4,
              lr_discriminator: float = 2e-4, seed: int = 0) -> GanPair:
    """Run `steps` alternating updates on `images` (already in [-1,1]).

    Each step takes `k_disc_steps` discriminator updates followed by one
    generator update, each on `batch_size` images or latents; both players
    use rmsprop at their own rates. The image shape is the discriminator's
    input shape and the latent width the generator's. History is appended
    per step. A non-finite loss aborts the run, restores the last snapshot
    (taken every `SNAPSHOT_EVERY` steps), and stamps `history.aborted_at`.
    """
    if k_disc_steps < 1:
        raise ConfigError(f"k_disc_steps must be >= 1, got {k_disc_steps}")
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2 (batchnorm needs it)")
    gen, disc = pair.generator, pair.discriminator
    x = np.asarray(images, dtype=np.float32)
    expect = disc.input_shape
    if x.ndim != 4 or x.shape[1:] != expect:
        raise ShapeError(f"images must be (N,{expect[0]},{expect[1]},{expect[2]}), got {x.shape}")
    if x.shape[0] < batch_size:
        raise DataError(f"need at least one batch of {batch_size} images, got {x.shape[0]}")
    if float(x.min()) < -1.0 or float(x.max()) > 1.0:
        raise DataError("images must be rescaled to [-1,1] before GAN training")
    if steps == 0:
        return pair

    z_rng = stream(seed, "gan-z")
    cycler = _BatchCycler(x.shape[0], batch_size, stream(seed, "gan-batch"))
    opt_g = RmsProp(lr=lr_generator)
    opt_d = RmsProp(lr=lr_discriminator)
    z_shape = (batch_size, *gen.input_shape)

    good = (gen.snapshot(), disc.snapshot())
    start = len(pair.history.records)
    for s in range(start + 1, start + steps + 1):
        j_d = mean_real = 0.0
        for _ in range(k_disc_steps):
            real = x[cycler.take()]
            z = z_rng.standard_normal(z_shape).astype(np.float32)
            fake = gen.forward(z, mode="train")
            caches_r: list = []
            caches_f: list = []
            d_real = disc.forward(real, mode="train", caches=caches_r)
            d_fake = disc.forward(fake, mode="train", caches=caches_f)
            j_d, g_r, g_f = discriminator_loss_grads(d_real, d_fake)
            _, grads_r = disc.backward(g_r.reshape(d_real.shape), caches_r, input_grad=False)
            _, grads_f = disc.backward(g_f.reshape(d_fake.shape), caches_f, input_grad=False)
            for k in grads_r:
                grads_r[k] += grads_f[k]
            opt_d.step(disc.params, grads_r)
            mean_real = float(d_real.mean())

        z = z_rng.standard_normal(z_shape).astype(np.float32)
        caches_g: list = []
        caches_d: list = []
        fake = gen.forward(z, mode="train", caches=caches_g)
        d_out = disc.forward(fake, mode="train", caches=caches_d)
        j_g, g_fake = generator_loss_grad(d_out)
        d_in_grad, _ = disc.backward(g_fake.reshape(d_out.shape), caches_d, params=False)
        _, grads_g = gen.backward(d_in_grad, caches_g, input_grad=False)
        opt_g.step(gen.params, grads_g)

        if not (np.isfinite(j_d) and np.isfinite(j_g)):
            gen.restore(good[0])
            disc.restore(good[1])
            pair.history.aborted_at = s
            break

        pair.history.records.append(
            GanStepRecord(s, j_d, j_g, mean_real, float(d_out.mean()))
        )
        if s % SNAPSHOT_EVERY == 0:
            good = (gen.snapshot(), disc.snapshot())
    return pair
