#!/usr/bin/env python3
"""DCGAN smoke run on synthetic disks: train, report equilibrium, sample.

Trains the 32x32 generator/discriminator pair, prints the discriminator's
mean output over the last tenth of training (near 0.5 when neither player
dominates), and writes a contact sheet of generated samples:

    python scripts/run_gan_smoke.py --steps 2000 --out gan-smoke
"""

import argparse
import sys

import numpy as np

from anomdet.data import generate_synthetic_set
from anomdet.gan import (
    GanPair,
    build_discriminator,
    build_generator,
    generate_samples,
    to_gan_range,
    train_gan,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gan-smoke")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--n-train", type=int, default=100)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--base-channels", type=int, default=64)
    ap.add_argument("--lr-generator", type=float, default=2e-4)
    ap.add_argument("--lr-discriminator", type=float, default=3e-5)
    ap.add_argument("--data-seed", type=int, default=41)
    ap.add_argument("--seed", type=int, default=606)
    ap.add_argument("--samples", type=int, default=16)
    ns = ap.parse_args()

    ds = generate_synthetic_set("disk", ns.n_train, 2, 0.5, 32, seed=ns.data_seed)
    x = to_gan_range(np.stack([s.pixels[0] for s in ds.split_samples("train")
                               if s.label == "good"]))
    shape = (1, 32, 32)
    pair = GanPair(build_generator(shape, 100, ns.base_channels, ns.seed),
                   build_discriminator(shape, ns.base_channels, ns.seed))
    train_gan(pair, x, ns.steps, batch_size=ns.batch_size, lr_generator=ns.lr_generator,
              lr_discriminator=ns.lr_discriminator, seed=ns.seed)
    if pair.history.aborted_at is not None:
        print(f"training aborted at step {pair.history.aborted_at}", file=sys.stderr)
        return 3

    tail = pair.history.records[-max(1, ns.steps // 10):]
    d_real = float(np.mean([r.mean_d_real for r in tail]))
    d_fake = float(np.mean([r.mean_d_fake for r in tail]))
    print(f"tail of training: D(real)={d_real:.3f} D(fake)={d_fake:.3f} "
          f"pooled={0.5 * (d_real + d_fake):.3f}")

    imgs = generate_samples(pair.generator, ns.samples, ns.seed, ns.batch_size,
                            out_dir=ns.out)
    print(f"sample pixel std {float(imgs.std()):.4f}")
    pair.history.save_csv(f"{ns.out}/history.csv")
    print(f"wrote {ns.samples} samples and history under {ns.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
