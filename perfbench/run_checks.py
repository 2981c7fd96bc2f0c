"""Correctness checks on `anomdet` run directories.

Every check recomputes its expectation from the run directory and from what
the benchmark itself wrote, never from stored reference output, and raises
CheckError naming the first violation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_config(run_dir: Path) -> dict:
    """`key = value` lines of config.cfg, values as strings."""
    cfg = {}
    for line in (Path(run_dir) / "config.cfg").read_text().splitlines():
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key] = value
    return cfg


def check_fresh(paths, since: float) -> None:
    """Run directories are reused, so every file a check reads must have
    been written after `since`, the start of the round being checked."""
    for p in paths:
        _require(Path(p).stat().st_mtime >= since, f"{p} was not rewritten by this round")


def _reject_constant(name):
    raise CheckError(f"report.json holds {name}, which is not strict JSON")


def load_report(run_dir: Path) -> dict:
    text = (Path(run_dir) / "report.json").read_text()
    return json.loads(text, parse_constant=_reject_constant)


def pairwise_auc(scores, labels) -> float:
    """Share of (defect, good) pairs where the defect scores higher, ties half."""
    s = np.asarray(scores, dtype=np.float64)
    pos = s[np.asarray(labels) == "defect"]
    neg = s[np.asarray(labels) == "good"]
    _require(pos.size > 0 and neg.size > 0, "AUC needs both classes among the rows")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def check_report(report: dict, expected_labels: dict, auc_above_chance: bool) -> None:
    """Rows cover exactly the expected paths with their labels; confusion
    counts, F1 and AUC match a recomputation from the rows."""
    rows = report["rows"]
    got = {r["path"]: r["label"] for r in rows}
    _require(len(got) == len(rows), "report rows repeat a path")
    _require(set(got) == set(expected_labels),
             f"report has {len(got)} rows, expected {len(expected_labels)} scored images")
    for path, label in got.items():
        _require(label == expected_labels[path],
                 f"{path}: report label {label!r}, written as {expected_labels[path]!r}")
    conf = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for r in rows:
        _require(r["decision"] in ("good", "defect"), f"bad decision {r['decision']!r}")
        hit = r["decision"] == "defect"
        key = ("tp" if hit else "fn") if r["label"] == "defect" else ("fp" if hit else "tn")
        conf[key] += 1
    _require(report["confusion"] == conf,
             f"confusion {report['confusion']} != recomputed {conf}")
    denom = conf["tp"] + 0.5 * (conf["fp"] + conf["fn"])
    f1 = conf["tp"] / denom if denom else 0.0
    _require(abs(report["f1"] - f1) <= 1e-12, f"f1 {report['f1']} != recomputed {f1}")
    auc = pairwise_auc([r["score"] for r in rows], [r["label"] for r in rows])
    _require(abs(report["roc_auc"] - auc) <= 1e-12,
             f"roc_auc {report['roc_auc']} != pairwise count {auc}")
    if auc_above_chance:
        _require(auc > 0.5, f"roc_auc {auc} does not rank defects above chance")


def check_decisions(report: dict, cfg: dict) -> None:
    """Each decision follows the thresholds echoed into config.cfg."""
    model = cfg["model"]
    for r in report["rows"]:
        if model == "cnn":
            cutoff = float(cfg["cutoff"])
            want = r["score"] >= cutoff
        else:
            recon = r["recon_error"]
            _require(0.0 <= recon <= 1.0, f"{r['path']}: recon_error {recon} outside [0,1]")
            over = recon > float(cfg["recon_threshold"])
            rule = cfg["combine_rule"]
            if rule == "recon_only":
                want = over
            else:
                _require(rule == "or", f"benchmark runs use rule or/recon_only, got {rule!r}")
                want = over or r["kde_log_density"] < float(cfg["kde_threshold"])
        _require((r["decision"] == "defect") == want,
                 f"{r['path']}: decision {r['decision']!r} disagrees with the thresholds")


def scott_bandwidth(latents: np.ndarray) -> float:
    n, d = latents.shape
    return max(float(np.mean(np.std(latents, axis=0))) * n ** (-1.0 / (d + 4)), 1e-3)


def check_kde(run_dir: Path, report: dict) -> None:
    """Bandwidth is Scott's rule over the stored latents, and no log-density
    exceeds the peak of a single Gaussian kernel, -(d/2) log(2 pi h^2)."""
    blob = np.load(Path(run_dir) / "kde.npz")
    latents, h = blob["latents"], float(blob["bandwidth"])
    want = scott_bandwidth(latents)
    _require(math.isclose(h, want, rel_tol=1e-9),
             f"kde bandwidth {h} != Scott's rule {want}")
    d = latents.shape[1]
    peak = -0.5 * d * math.log(2.0 * math.pi * h * h)
    for r in report["rows"]:
        v = r["kde_log_density"]
        _require(v <= peak + 1e-9 * abs(peak),
                 f"{r['path']}: log-density {v} above the kernel peak {peak}")


def check_history(run_dir: Path, epochs: int) -> None:
    """history.csv has one row per epoch of the budget, and training lowered
    the train loss from the first epoch to the last."""
    with open(Path(run_dir) / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    epoch_rows = [r for r in rows if r and r[0].isdigit()]
    _require([int(r[0]) for r in epoch_rows] == list(range(1, epochs + 1)),
             f"history.csv covers {len(epoch_rows)} epochs, budget is {epochs}")
    _require(any(r[:2] == ["stopped_early", "no"] for r in rows),
             "history.csv lacks its stopped_early=no footer")
    first, last = float(epoch_rows[0][1]), float(epoch_rows[-1][1])
    _require(last < first, f"train loss rose from {first} to {last}")


def check_noise_plan(run_dir: Path, k_train: int, fraction: float = 0.1) -> None:
    """noise_plan.csv lists exactly floor(fraction * K) distinct train images."""
    with open(Path(run_dir) / "noise_plan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    listed = []
    for r in rows[1:]:
        if not r:
            break
        listed.append(int(r[0]))
    want = math.floor(fraction * k_train)
    _require(len(listed) == want and len(set(listed)) == want,
             f"noise plan lists {len(listed)} images, expected floor({fraction}*{k_train}) = {want}")
    _require(all(0 <= i < k_train for i in listed), "noise plan names a non-train image")


def check_gan_history(run_dir: Path, steps: int, train_log: str) -> None:
    """One row per step, no abort, and Jensen's bound on every row:
    j_d >= -1/2 log(mean_d_real) and j_g >= -1/2 log(mean_d_fake)."""
    _require("aborted" not in train_log, "dcgan training aborted")
    with open(Path(run_dir) / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require([int(r["step"]) for r in rows] == list(range(1, steps + 1)),
             f"dcgan history has {len(rows)} steps, budget is {steps}")
    slack = 1e-6  # the csv holds 6 decimals
    for r in rows:
        for j, mean in (("j_d", "mean_d_real"), ("j_g", "mean_d_fake")):
            bound = -0.5 * math.log(float(r[mean]) + slack)
            _require(float(r[j]) + slack >= bound,
                     f"step {r['step']}: {j} {r[j]} below the Jensen bound {bound:.6f}")


def read_pgm(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, w, h, maxval = raw.split(maxsplit=4)[:4]
    _require(magic == b"P5" and int(maxval) == 255, f"{path}: not an 8-bit PGM")
    data = raw[len(raw) - int(w) * int(h):]
    return np.frombuffer(data, dtype=np.uint8).reshape(int(h), int(w))


def check_samples(sample_dir: Path, n: int, size: int) -> None:
    """n generated images of size x size in [0,1], not collapsed to one value."""
    files = sorted(Path(sample_dir).glob("sample_*.pgm"))
    _require(len(files) == n, f"{len(files)} samples written, asked for {n}")
    pixels = np.stack([read_pgm(f) for f in files]).astype(np.float64) / 255.0
    _require(pixels.shape[1:] == (size, size), f"samples are {pixels.shape[1:]}, not {size}px")
    _require(pixels.min() >= 0.0 and pixels.max() <= 1.0, "sample pixels outside [0,1]")
    std = float(pixels.std())
    _require(std > 0.01, f"sample pixel std {std:.4f} <= 0.01")
