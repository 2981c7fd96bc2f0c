"""Command-line front end: train / eval / generate / synth / report.

One run = one self-describing directory: the resolved config, checkpoints,
history, and (after eval) the report all live together, so any completed
run can be re-evaluated from its directory alone. Exit codes: 0 success,
1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import csv
import os
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import RunConfig, parse_config
from .data import (
    Dataset,
    generate_synthetic_set,
    inject_gaussian_noise,
    load_image_dir,
    preprocess,
    save_dataset,
)
from .data.codec import write_pgm
from .errors import ConfigError, DataError, NumericError, ShapeError
from .gan import (
    GanConfig,
    GanPair,
    build_pair,
    generate_samples,
    to_gan_range,
    train_gan,
)
from .metrics import EvalReport, save_histogram
from .nn import load_model, save_model
from .pipelines import (
    CnnConfig,
    KdCaeConfig,
    NiCaeConfig,
    ThresholdSet,
    build_cnn,
    build_kd_cae,
    build_ni_cae,
    calibrate_thresholds,
    decide_anomaly,
    encode_latent,
    fit_kde,
    kde_log_densities,
    score_batch,
    ssim,
    ssim_diff_image,
    train,
)
from .pipelines.scoring import KdeModel


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on usage errors; that code belongs to data
    errors here, so route usage problems through the config-error path."""

    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="config file (key = value lines)")
    for name in config_mod._FIELDS:
        flag = "--" + name.replace("_", "-")
        if name == "out_dir":
            sub.add_argument("--out", "--out-dir", dest=name, default=None)
        else:
            sub.add_argument(flag, dest=name, default=None, metavar="V")


def _collect_overrides(ns: argparse.Namespace) -> dict:
    return {
        k: getattr(ns, k)
        for k in config_mod._FIELDS
        if getattr(ns, k, None) is not None
    }


def build_parser() -> _Parser:
    p = _Parser(prog="anomdet", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    t = subs.add_parser("train", help="train a model into a run directory")
    _add_config_flags(t)

    e = subs.add_parser("eval", help="evaluate a trained run directory")
    e.add_argument("--run", required=True, help="run directory produced by train")
    e.add_argument("--split", choices=("test", "train"), default="test")
    e.add_argument("--diagnostics", type=int, default=4,
                   help="how many test images get input/recon/ssim images")

    g = subs.add_parser("generate", help="sample images from a dcgan run")
    g.add_argument("--run", required=True)
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="defaults to <run>/generated")

    s = subs.add_parser("synth", help="write a synthetic dataset to disk")
    _add_config_flags(s)

    r = subs.add_parser("report", help="merge run reports into one table")
    r.add_argument("runs", nargs="+", help="run directories (after eval)")
    r.add_argument("--out", default=".", help="where comparison.csv goes")
    return p


# ------------------------------------------------------------ data loading


def _load_dataset(cfg: RunConfig, split: str | None = None) -> Dataset:
    """The configured dataset. On directory data, `split` limits ingestion
    to that split; synthetic sets are always generated whole, because both
    splits come from one seeded stream."""
    if cfg.data_root.startswith("synthetic:"):
        shape = cfg.data_root.split(":", 1)[1]
        return generate_synthetic_set(
            shape, cfg.n_train, cfg.n_test, cfg.defect_rate, cfg.image_size,
            seed=cfg.seed, train_defect_rate=cfg.train_defect_rate,
        )
    if cfg.data_root == "":
        env = os.environ.get("ANOMALY_DATA_ROOT", "")
        if not env:
            raise ConfigError(
                "data_root is empty and ANOMALY_DATA_ROOT is not set; "
                "point one of them at the dataset root"
            )
        root = Path(env)
    else:
        root = Path(cfg.data_root)
    ds = load_image_dir(
        root, cfg.class_name, allow_png=cfg.allow_png, seed=cfg.seed, split=split
    )
    return preprocess(ds, cfg.image_size, cfg.grayscale)


def _subset(ds: Dataset, samples) -> Dataset:
    return Dataset(ds.class_name, list(samples), ds.seed, ds.skipped)


def _good_split(ds: Dataset, split: str) -> Dataset:
    good = [s for s in ds.split_samples(split) if s.label == "good"]
    if not good:
        raise DataError(f"no good samples in split {split!r} to train on")
    return _subset(ds, good)


def _lr(cfg: RunConfig, fallback: float) -> float:
    return cfg.learning_rate if cfg.learning_rate > 0 else fallback


def _input_shape(cfg: RunConfig) -> tuple:
    return (1 if cfg.grayscale else 3, cfg.image_size, cfg.image_size)


# ----------------------------------------------------------------- train


def _write_history(history, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epoch", "train_loss", "val_loss"])
        for r in history.records:
            val = "" if r.val_loss is None else f"{r.val_loss:.6f}"
            w.writerow([r.epoch, f"{r.train_loss:.6f}", val])
        w.writerow([])
        w.writerow(["best_epoch", history.best_epoch, ""])
        w.writerow(["stopped_early", "yes" if history.stopped_early else "no", ""])


def _write_noise_plan(plan, ds: Dataset, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index", "source_path"])
        for i in plan.selected_indices:
            w.writerow([i, ds.samples[i].source_path])
        w.writerow([])
        w.writerow(["fraction", plan.fraction])
        w.writerow(["mean", plan.mean])
        w.writerow(["variance", plan.variance])
        w.writerow(["target_split", plan.target_split])


def _train_val_arrays(ds: Dataset, cfg: RunConfig, labeled: bool):
    """Split the train samples into train/val arrays (and targets when
    labeled). Validation is skipped when there are too few samples."""
    from .data import split_validation

    pool = _subset(ds, ds.split_samples("train")) if labeled else _good_split(ds, "train")
    if len(pool.samples) >= 4:
        tr, va = split_validation(pool, cfg.val_fraction, seed=cfg.seed)
    else:
        tr, va = pool, None
    x = tr.stack()
    t = None
    vx = va.stack() if va is not None else None
    vt = None
    if labeled:
        t = np.array([[1.0 if s.label == "defect" else 0.0] for s in tr.samples],
                     dtype=np.float32)
        if va is not None:
            vt = np.array([[1.0 if s.label == "defect" else 0.0] for s in va.samples],
                          dtype=np.float32)
    return x, t, vx, vt, va


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = parse_config(ns.config, _collect_overrides(ns))
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    # training reads only the train split; on directory data those samples
    # come first either way, so the noise plan's indices do not move
    ds = _load_dataset(cfg, "train")
    if cfg.noise_train:
        ds, plan = inject_gaussian_noise(
            ds, cfg.noise_fraction, cfg.noise_mean, cfg.noise_variance,
            seed=cfg.seed, target_split="train",
        )
        _write_noise_plan(plan, ds, out / "noise_plan.csv")
        print(f"noise plan: {len(plan.selected_indices)} train samples perturbed")

    if cfg.model == "dcgan":
        cfg = _train_dcgan(cfg, ds, out)
    elif cfg.model == "cnn":
        cfg = _train_cnn(cfg, ds, out)
    else:
        cfg = _train_cae(cfg, ds, out)

    (out / "config.cfg").write_text(cfg.to_text())
    print(f"run directory: {out}")
    return 0


def _train_cnn(cfg: RunConfig, ds: Dataset, out: Path) -> RunConfig:
    x, t, vx, vt, _ = _train_val_arrays(ds, cfg, labeled=True)
    if float(t.max()) == float(t.min()):
        raise DataError("cnn training needs both classes in the train split")
    model = build_cnn(CnnConfig(input_shape=_input_shape(cfg)), seed=cfg.seed)
    history = train(
        model, x, t, epochs=cfg.epochs, batch_size=cfg.batch_size, loss_kind="bce",
        learning_rate=_lr(cfg, 1e-3), val_x=vx, val_t=vt,
        patience=cfg.patience or None, seed=cfg.seed,
    )
    save_model(model, out / "checkpoint.anom")
    _write_history(history, out / "history.csv")
    print(f"cnn trained: {history.epochs_run} epochs, best {history.best_epoch}")
    return cfg


def _train_cae(cfg: RunConfig, ds: Dataset, out: Path) -> RunConfig:
    x, _, vx, _, _ = _train_val_arrays(ds, cfg, labeled=False)
    shape = _input_shape(cfg)
    if cfg.model == "kd-cae":
        model = build_kd_cae(KdCaeConfig(input_shape=shape), seed=cfg.seed)
    else:
        model = build_ni_cae(NiCaeConfig(input_shape=shape), seed=cfg.seed)
    history = train(
        model, x, x, epochs=cfg.epochs, batch_size=cfg.batch_size, loss_kind="mse",
        learning_rate=_lr(cfg, 1e-3), val_x=vx, val_t=vx,
        patience=cfg.patience or None, seed=cfg.seed,
    )
    save_model(model, out / "checkpoint.anom")
    _write_history(history, out / "history.csv")
    print(f"{cfg.model} trained: {history.epochs_run} epochs, best {history.best_epoch}")

    kde = None
    if cfg.model == "kd-cae":
        latents = encode_latent(model, x)
        kde = fit_kde(latents)
        np.savez(out / "kde.npz", latents=kde.latents, bandwidth=kde.bandwidth)

    p = cfg.calibration_percentile()
    if p is not None:
        rule = cfg.combine_rule if cfg.model == "kd-cae" else "recon_only"
        calib_x = vx if vx is not None else x
        ts = calibrate_thresholds(model, calib_x, kde=kde, percentile=p, combine_rule=rule)
        cfg = dataclasses.replace(
            cfg, thresholds="fixed", combine_rule=rule,
            recon_threshold=ts.recon_threshold, kde_threshold=ts.kde_threshold,
        )
        print(f"calibrated thresholds (p={p}): recon {ts.recon_threshold:.6g}"
              + (f", kde {ts.kde_threshold:.6g}" if ts.kde_threshold is not None else ""))
    return cfg


def _gan_config(cfg: RunConfig) -> GanConfig:
    return GanConfig(
        image_size=cfg.image_size,
        channels=1 if cfg.grayscale else 3,
        z_dim=cfg.z_dim,
        base_channels=cfg.base_channels,
        k_disc_steps=cfg.k_disc_steps,
        lr_generator=_lr(cfg, 2e-4),
        lr_discriminator=_lr(cfg, 2e-4),
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )


def _train_dcgan(cfg: RunConfig, ds: Dataset, out: Path) -> RunConfig:
    gcfg = _gan_config(cfg)
    x = to_gan_range(_good_split(ds, "train").stack())
    pair = build_pair(gcfg)
    train_gan(pair, x, cfg.steps, gcfg)
    save_model(pair.generator, out / "generator.anom")
    save_model(pair.discriminator, out / "discriminator.anom")
    pair.history.save_csv(out / "history.csv")
    n = len(pair.history.records)
    if pair.history.aborted_at is not None:
        print(f"dcgan aborted at step {pair.history.aborted_at}; snapshot restored")
    tail = pair.history.records[-max(1, n // 10):] if n else []
    if tail:
        mean_d = float(np.mean([(r.mean_d_real + r.mean_d_fake) / 2 for r in tail]))
        print(f"dcgan trained: {n} steps, tail mean D {mean_d:.3f}")
    return cfg


# ------------------------------------------------------------------ eval


def _load_run_config(run_dir: Path) -> RunConfig:
    path = run_dir / "config.cfg"
    if not path.is_file():
        raise DataError(f"{run_dir} has no config.cfg; is it a run directory?")
    return parse_config(path)


def _expect_kind(model, expected: str) -> None:
    if model.model_kind != expected:
        raise ConfigError(
            f"checkpoint holds a {model.model_kind!r} model, config says {expected!r}"
        )


def cmd_eval(ns: argparse.Namespace) -> int:
    run_dir = Path(ns.run)
    cfg = _load_run_config(run_dir)
    if cfg.model == "dcgan":
        raise ConfigError("dcgan runs have no detection metrics; use `generate`")
    split = ns.split
    # the test-split noise selection counts test samples only, so loading
    # just the scored split perturbs the same images with the same draws
    ds = _load_dataset(cfg, split)
    if cfg.noise_test:
        ds, _ = inject_gaussian_noise(
            ds, cfg.noise_fraction, cfg.noise_mean, cfg.noise_variance,
            seed=cfg.seed + 1, target_split="test",
        )
    model = load_model(run_dir / "checkpoint.anom")
    _expect_kind(model, cfg.model)

    samples = ds.split_samples(split)
    if not samples:
        raise DataError(f"no samples in split {split!r}")
    x = ds.stack(split)
    labels = [s.label for s in samples]
    paths = [s.source_path for s in samples]

    if cfg.model == "cnn":
        probs = model.forward(x, mode="eval")[:, 0]
        rows = [
            {"path": p, "label": lab, "score": float(pr),
             "decision": "defect" if pr >= cfg.cutoff else "good"}
            for p, lab, pr in zip(paths, labels, probs)
        ]
        threshold_info = {"rule": "cutoff", "cutoff": cfg.cutoff}
        groups = _score_groups(rows)
        save_histogram(groups, run_dir, stem="probability")
    else:
        rows, threshold_info = _score_cae(cfg, run_dir, model, x, paths, labels)

    report = EvalReport.from_rows(rows, ds.class_name, cfg.seed, threshold_info)
    report.save(run_dir)
    if cfg.model != "cnn" and ns.diagnostics > 0:
        _write_diagnostics(model, x, run_dir / "diagnostics", ns.diagnostics)
    auc = f"{report.roc_auc:.4f}" if np.isfinite(report.roc_auc) else "n/a (single class)"
    print(f"eval[{split}] {cfg.model}/{ds.class_name}: f1={report.f1:.4f} auc={auc}")
    print(f"counts: {report.confusion}")
    return 0


def _load_kde(path: Path, model) -> KdeModel:
    """The kd-cae training latents and bandwidth. A read or format failure,
    or latents not as wide as the model's bottleneck, is a data error."""
    if not path.is_file():
        raise DataError(f"{path.parent} is missing kde.npz from training")
    try:
        with np.load(path) as blob:
            kde = KdeModel(blob["latents"], float(blob["bandwidth"]))
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as e:
        detail = " ".join(str(e).split())
        raise DataError(f"{path} is unreadable: {type(e).__name__}: {detail}") from None
    width = int(np.prod(model.shapes[model.bottleneck + 1]))
    if kde.latents.ndim != 2 or kde.latents.shape[1] != width:
        raise DataError(f"{path} holds latents of shape {kde.latents.shape}, "
                        f"not (n, {width}) as the model's bottleneck gives")
    return kde


def _score_cae(cfg: RunConfig, run_dir: Path, model, x, paths, labels):
    if cfg.thresholds != "fixed":
        raise ConfigError(
            "run has no calibrated thresholds; train writes them into config.cfg"
        )
    kde = _load_kde(run_dir / "kde.npz", model) if cfg.model == "kd-cae" else None
    errs, latents = score_batch(model, x)
    kde_vals = None if kde is None else kde_log_densities(kde, latents)
    ts = ThresholdSet(cfg.recon_threshold, cfg.kde_threshold, cfg.combine_rule)
    rows = []
    for i, (p, lab) in enumerate(zip(paths, labels)):
        kd = None if kde_vals is None else float(kde_vals[i])
        decision = decide_anomaly(float(errs[i]), kd, ts)
        score = -kd if cfg.combine_rule == "kde_only" else float(errs[i])
        row = {"path": p, "label": lab, "score": score, "decision": decision,
               "recon_error": float(errs[i])}
        if kd is not None:
            row["kde_log_density"] = kd
        rows.append(row)
    threshold_info = {
        "rule": cfg.combine_rule,
        "recon_threshold": cfg.recon_threshold,
        "kde_threshold": cfg.kde_threshold,
    }
    save_histogram(_score_groups(rows), run_dir, stem="recon_error")
    if kde_vals is not None:
        save_histogram(_score_groups(rows, "kde_log_density"), run_dir, stem="kde_log_density")
    return rows, threshold_info


def _score_groups(rows, key: str = "score") -> dict:
    groups: dict = {}
    for row in rows:
        groups.setdefault(row["label"], []).append(row[key])
    return groups


def _write_diagnostics(model, x, directory: Path, count: int) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    recon = model.forward(x[:count], mode="eval")
    for i in range(min(count, x.shape[0])):
        if x.shape[1] != 1:
            continue  # ssim map is defined on grayscale
        _, smap = ssim(x[i, 0], recon[i, 0])
        diff = ssim_diff_image(smap)
        for name, img in (("input", x[i, 0]), ("recon", recon[i, 0])):
            u8 = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
            write_pgm(directory / f"{i:03d}_{name}.pgm", u8)
        u8 = np.clip(np.rint(diff * 255.0), 0, 255).astype(np.uint8)
        write_pgm(directory / f"{i:03d}_ssim_diff.pgm", u8)


# -------------------------------------------------------------- generate


def cmd_generate(ns: argparse.Namespace) -> int:
    run_dir = Path(ns.run)
    cfg = _load_run_config(run_dir)
    if cfg.model != "dcgan":
        raise ConfigError(f"run holds a {cfg.model!r} model; generate needs dcgan")
    gen = load_model(run_dir / "generator.anom")
    _expect_kind(gen, "dcgan-generator")
    gcfg = _gan_config(cfg)
    disc_file = run_dir / "discriminator.anom"
    if disc_file.is_file():
        disc = load_model(disc_file)
    else:  # sampling never touches it; a fresh one keeps the pair total
        from .gan import build_discriminator

        disc = build_discriminator(gcfg)
    pair = GanPair(gen, disc, gcfg)
    out = Path(ns.out) if ns.out else run_dir / "generated"
    imgs = generate_samples(pair, ns.n, seed=ns.seed, out_dir=out)
    print(f"wrote {imgs.shape[0]} samples under {out}")
    return 0


# ------------------------------------------------------------------ synth


def cmd_synth(ns: argparse.Namespace) -> int:
    overrides = _collect_overrides(ns)
    overrides.setdefault("model", "kd-cae")  # synth doesn't train; any valid kind
    cfg = parse_config(ns.config, overrides)
    if not cfg.data_root.startswith("synthetic:"):
        raise ConfigError("synth needs a synthetic:<shape> data_root")
    ds = _load_dataset(cfg)
    out = cfg.resolved_out_dir() / "dataset"
    manifest = save_dataset(ds, out)
    n_train = len(ds.split_samples("train"))
    n_test = len(ds.split_samples("test"))
    print(f"wrote {n_train} train / {n_test} test images; manifest {manifest}")
    return 0


# ----------------------------------------------------------------- report


REPORT_COLUMNS = [
    "run", "model", "class", "f1", "roc_auc", "tp", "fp", "tn", "fn",
    "rule", "recon_threshold", "kde_threshold", "noise_train", "noise_test",
]


def cmd_report(ns: argparse.Namespace) -> int:
    rows = []
    for run in ns.runs:
        run_dir = Path(run)
        try:
            cfg = _load_run_config(run_dir)
            rep = EvalReport.load(run_dir)
        except (DataError, ConfigError) as e:
            warnings.warn(f"skipping {run}: {e}")
            continue
        info = rep.threshold_info
        rows.append({
            "run": str(run_dir),
            "model": cfg.model,
            "class": rep.dataset_name,
            "f1": f"{rep.f1:.6f}",
            "roc_auc": f"{rep.roc_auc:.6f}",
            "tp": rep.confusion.tp, "fp": rep.confusion.fp,
            "tn": rep.confusion.tn, "fn": rep.confusion.fn,
            "rule": info.get("rule", ""),
            "recon_threshold": _fmt_opt(info.get("recon_threshold")),
            "kde_threshold": _fmt_opt(info.get("kde_threshold")),
            "noise_train": "on" if cfg.noise_train else "off",
            "noise_test": "on" if cfg.noise_test else "off",
        })
    if not rows:
        raise DataError("no completed runs to report on")
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "comparison.csv"
    with open(path, "w", newline="\n") as fh:
        w = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    for row in rows:
        print(f"{row['model']:>7} {row['class']:<18} f1={row['f1']} auc={row['roc_auc']}")
    print(f"table: {path}")
    return 0


def _fmt_opt(v) -> str:
    return "" if v is None else f"{v:.6g}"


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        handler = {
            "train": cmd_train,
            "eval": cmd_eval,
            "generate": cmd_generate,
            "synth": cmd_synth,
            "report": cmd_report,
        }[ns.command]
        return handler(ns)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, ShapeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
