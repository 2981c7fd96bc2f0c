"""Command-line front end: train / eval / generate / synth / report.

One run = one self-describing directory: the resolved config, checkpoints,
history, and (after eval) the report all live together, so any completed
run can be re-evaluated from its directory alone. Exit codes: 0 success,
1 config error, 2 data error or a file that cannot be read or written
(disk full, read-only directory), 3 numeric failure.
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

from . import atomic
from . import config as config_mod
from .config import RunConfig, parse_config
from .data import (
    Dataset,
    generate_synthetic_set,
    inject_gaussian_noise,
    load_image_dir,
    save_dataset,
)
from .data.codec import write_pgm
from .errors import ConfigError, DataError, NumericError, ShapeError
from .gan import (
    GanPair,
    build_discriminator,
    build_generator,
    generate_samples,
    to_gan_range,
    train_gan,
)
from .metrics import EvalReport, save_histogram
from .nn import load_model, save_model
from .pipelines import (
    ThresholdSet,
    build_cnn,
    build_kd_cae,
    build_ni_cae,
    calibrate_thresholds,
    classify_supervised,
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


def _read_dataset(cfg: RunConfig, split: str | None = None) -> Dataset:
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
    return load_image_dir(root, cfg.class_name, allow_png=cfg.allow_png, split=split,
                          image_size=cfg.image_size, grayscale=cfg.grayscale)


def _subset(ds: Dataset, samples) -> Dataset:
    return Dataset(ds.class_name, list(samples), ds.skipped)


def _good_split(ds: Dataset, split: str) -> Dataset:
    good = [s for s in ds.split_samples(split) if s.label == "good"]
    if not good:
        raise DataError(f"no good samples in split {split!r} to train on")
    return _subset(ds, good)


def _lr(cfg: RunConfig, fallback: float) -> float:
    return cfg.learning_rate if cfg.learning_rate > 0 else fallback


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
    """Split the train samples into (x, t, val x, val t) arrays; the
    targets are the labels when `labeled`, else the inputs themselves.
    Validation is skipped (None) when there are too few samples."""
    from .data import split_validation

    pool = _subset(ds, ds.split_samples("train")) if labeled else _good_split(ds, "train")
    if len(pool.samples) >= 4:
        tr, va = split_validation(pool, cfg.val_fraction, seed=cfg.seed)
    else:
        tr, va = pool, None
    x = tr.stack()
    vx = va.stack() if va is not None else None
    if not labeled:
        return x, x, vx, vx

    def targets(part: Dataset) -> np.ndarray:
        return np.array([[1.0 if s.label == "defect" else 0.0] for s in part.samples],
                        dtype=np.float32)

    return x, targets(tr), vx, targets(va) if va is not None else None


# the untrained model of each `model` value, from the (C, H, W) input shape
# and the config
_BUILDERS = {
    "cnn": lambda shape, cfg: build_cnn(shape, cfg.seed),
    "kd-cae": lambda shape, cfg: build_kd_cae(shape, cfg.seed),
    "ni-cae": lambda shape, cfg: build_ni_cae(shape, cfg.seed),
    "dcgan": lambda shape, cfg: GanPair(
        build_generator(shape, cfg.z_dim, cfg.base_channels, cfg.seed),
        build_discriminator(shape, cfg.base_channels, cfg.seed),
    ),
}


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = parse_config(ns.config, _collect_overrides(ns))
    # built first: a shape the model cannot take fails before any image is read
    shape = (1 if cfg.grayscale else 3, cfg.image_size, cfg.image_size)
    model = _BUILDERS[cfg.model](shape, cfg)
    # training reads only the train split; on directory data those samples
    # come first either way, so the noise plan's indices do not move
    ds = _read_dataset(cfg, "train")
    plan = None
    if cfg.noise_train:
        ds, plan = inject_gaussian_noise(
            ds, cfg.noise_fraction, cfg.noise_mean, cfg.noise_variance,
            seed=cfg.seed, target_split="train",
        )
        print(f"noise plan: {len(plan.selected_indices)} train samples perturbed")

    # each writes its files only after training has succeeded, so a failed
    # run makes no directory and leaves an existing one as it was
    out = cfg.resolved_out_dir()
    train_run = _train_dcgan if cfg.model == "dcgan" else _train_detector
    cfg = train_run(cfg, model, ds, out)
    if plan is not None:
        _write_noise_plan(plan, ds, out / "noise_plan.csv")
    atomic.write_bytes(out / "config.cfg", cfg.to_text().encode("utf-8"))
    print(f"run directory: {out}")
    return 0


def _train_detector(cfg: RunConfig, model, ds: Dataset, out: Path) -> RunConfig:
    """Train a detector and write its files. The CNN fits the labels by bce
    and keeps the configured cutoff; an autoencoder fits its inputs by mse,
    and the returned config holds its calibrated thresholds."""
    cnn = cfg.model == "cnn"
    x, t, vx, vt = _train_val_arrays(ds, cfg, labeled=cnn)
    if cnn and float(t.max()) == float(t.min()):
        raise DataError("cnn training needs both classes in the train split")
    history = train(
        model, x, t, epochs=cfg.epochs, batch_size=cfg.batch_size,
        loss_kind="bce" if cnn else "mse", learning_rate=_lr(cfg, 1e-3),
        val_x=vx, val_t=vt, patience=cfg.patience or None, seed=cfg.seed,
    )
    print(f"{cfg.model} trained: {history.epochs_run} epochs, best {history.best_epoch}")
    kde = fit_kde(encode_latent(model, x)) if cfg.model == "kd-cae" else None

    p = cfg.calibration_percentile()
    if p is not None and not cnn:
        rule = cfg.combine_rule if cfg.model == "kd-cae" else "recon_only"
        calib_x = vx if vx is not None else x
        ts = calibrate_thresholds(model, calib_x, kde=kde, percentile=p, combine_rule=rule)
        cfg = dataclasses.replace(
            cfg, thresholds="fixed", combine_rule=rule,
            recon_threshold=ts.recon_threshold, kde_threshold=ts.kde_threshold,
        )
        print(f"calibrated thresholds (p={p}): recon {ts.recon_threshold:.6g}"
              + (f", kde {ts.kde_threshold:.6g}" if ts.kde_threshold is not None else ""))

    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "checkpoint.anom")
    _write_history(history, out / "history.csv")
    if kde is not None:
        with atomic.replacing(out / "kde.npz") as fh:
            np.savez(fh, latents=kde.latents, bandwidth=kde.bandwidth)
    return cfg


def _train_dcgan(cfg: RunConfig, pair: GanPair, ds: Dataset, out: Path) -> RunConfig:
    x = to_gan_range(_good_split(ds, "train").stack())
    lr = _lr(cfg, 2e-4)
    train_gan(pair, x, cfg.steps, batch_size=cfg.batch_size, k_disc_steps=cfg.k_disc_steps,
              lr_generator=lr, lr_discriminator=lr, seed=cfg.seed)
    out.mkdir(parents=True, exist_ok=True)
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
    ds = _read_dataset(cfg, split)
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
        decisions, probs = classify_supervised(model, x, cfg.cutoff)
        rows = [
            {"path": p, "label": lab, "score": float(pr), "decision": dec}
            for p, lab, pr, dec in zip(paths, labels, probs, decisions)
        ]
        threshold_info = {"rule": "cutoff", "cutoff": cfg.cutoff}
        groups = _score_groups(rows)
        save_histogram(groups, run_dir, stem="probability")
    else:
        # the scoring pass hands over the first reconstructions for diagnostics
        recon = np.empty((min(max(ns.diagnostics, 0), len(x)), *x.shape[1:]), dtype=x.dtype)
        rows, threshold_info = _score_cae(cfg, run_dir, model, x, paths, labels, recon)

    report = EvalReport.from_rows(rows, ds.class_name, cfg.seed, threshold_info)
    report.save(run_dir)
    if cfg.model != "cnn" and ns.diagnostics > 0:
        _write_diagnostics(x, recon, run_dir / "diagnostics")
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


def _score_cae(cfg: RunConfig, run_dir: Path, model, x, paths, labels, recon):
    if cfg.thresholds != "fixed":
        raise ConfigError(
            "run has no calibrated thresholds; train writes them into config.cfg"
        )
    kde = _load_kde(run_dir / "kde.npz", model) if cfg.model == "kd-cae" else None
    errs, latents = score_batch(model, x, recon=recon)
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


def _write_diagnostics(x, recon, directory: Path) -> None:
    """Input, reconstruction and SSIM-difference images of the first
    len(recon) inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(len(recon)):
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
    out = Path(ns.out) if ns.out else run_dir / "generated"
    imgs = generate_samples(gen, ns.n, ns.seed, cfg.batch_size, out_dir=out)
    print(f"wrote {imgs.shape[0]} samples under {out}")
    return 0


# ------------------------------------------------------------------ synth


def cmd_synth(ns: argparse.Namespace) -> int:
    overrides = _collect_overrides(ns)
    overrides.setdefault("model", "kd-cae")  # synth doesn't train; any valid kind
    cfg = parse_config(ns.config, overrides)
    if not cfg.data_root.startswith("synthetic:"):
        raise ConfigError("synth needs a synthetic:<shape> data_root")
    if cfg.train_defect_rate > 0:
        raise ConfigError("synth writes train/good only; train_defect_rate must be 0")
    ds = _read_dataset(cfg)
    root = cfg.resolved_out_dir() / "dataset"
    base = save_dataset(ds, root)
    n_train = len(ds.split_samples("train"))
    n_test = len(ds.split_samples("test"))
    print(f"wrote {n_train} train / {n_test} test images under {base}; "
          f"train on them with --data-root {root} --class-name {ds.class_name}")
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
    except OSError as e:
        print(f"i/o error: {e.filename2 or e.filename}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
