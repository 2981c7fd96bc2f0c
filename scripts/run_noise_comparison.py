#!/usr/bin/env python3
"""NI-CAE robustness table: F1 on clean vs noise-injected test images.

For each seed, trains an NI-CAE (noise injected into 10% of the train
split), calibrates a reconstruction threshold, then scores the test split
twice — once as-is and once with the same Gaussian noise applied to 10% of
the test images. Prints one row per seed plus the mean drop:

    python scripts/run_noise_comparison.py --seeds 0 1 2 --epochs 40
"""

import argparse
import sys

import numpy as np

from anomdet.data import Dataset, generate_synthetic_set, inject_gaussian_noise, split_validation
from anomdet.metrics import confusion_counts, f1_score
from anomdet.pipelines import (
    NiCaeConfig,
    build_ni_cae,
    calibrate_thresholds,
    decide_anomaly,
    score_batch,
    train,
)


def test_f1(model, ds, thresholds) -> float:
    samples = ds.split_samples("test")
    errs = score_batch(model, ds.stack("test"))[0]
    decisions = [decide_anomaly(float(e), None, thresholds) for e in errs]
    return f1_score(confusion_counts([s.label for s in samples], decisions))


def one_seed(ns, seed) -> tuple[float, float]:
    ds = generate_synthetic_set(ns.shape, ns.n_train, ns.n_test, 0.5,
                                ns.image_size, seed=seed)
    ds, _ = inject_gaussian_noise(ds, ns.fraction, ns.mean, ns.variance,
                                  seed=seed, target_split="train")
    good = [s for s in ds.split_samples("train") if s.label == "good"]
    tr, va = split_validation(Dataset(ds.class_name, good, ds.seed), 0.1, seed=seed)
    x, vx = tr.stack(), va.stack()
    model = build_ni_cae(NiCaeConfig(input_shape=(1, ns.image_size, ns.image_size)),
                         seed=seed)
    train(model, x, x, epochs=ns.epochs, batch_size=ns.batch_size, loss_kind="mse",
          learning_rate=1e-3, val_x=vx, val_t=vx, patience=5, seed=seed)
    thresholds = calibrate_thresholds(model, vx, percentile=95.0,
                                      combine_rule="recon_only")
    clean = test_f1(model, ds, thresholds)
    noisy_ds, _ = inject_gaussian_noise(ds, ns.fraction, ns.mean, ns.variance,
                                        seed=seed + 1, target_split="test")
    noisy = test_f1(model, noisy_ds, thresholds)
    return clean, noisy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--shape", default="disk", choices=("disk", "rect"))
    ap.add_argument("--image-size", type=int, default=64)
    ap.add_argument("--n-train", type=int, default=100)
    ap.add_argument("--n-test", type=int, default=40)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--fraction", type=float, default=0.10)
    ap.add_argument("--mean", type=float, default=0.0)
    ap.add_argument("--variance", type=float, default=0.001)
    ns = ap.parse_args()

    print(f"{'seed':>4}  {'f1 clean':>9}  {'f1 noisy':>9}  {'drop':>8}")
    drops = []
    for seed in ns.seeds:
        clean, noisy = one_seed(ns, seed)
        drops.append(clean - noisy)
        print(f"{seed:>4}  {clean:>9.4f}  {noisy:>9.4f}  {clean - noisy:>+8.4f}")
    print(f"mean drop {np.mean(drops):+.4f} over {len(ns.seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
