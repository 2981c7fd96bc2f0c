"""The benchmark's correctness checks accept a real run directory and reject
deliberately corrupted copies of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest_checks.py

The file name does not match pytest's `test_*.py` pattern, so the
repository-wide pytest run does not collect it; name it on the command line.
"""

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anomdet.cli import main  # noqa: E402

import render_parts  # noqa: E402
import run_checks  # noqa: E402
from run_checks import CheckError  # noqa: E402

EPOCHS = 3
GAN_STEPS = 4


@pytest.fixture(scope="module")
def kd_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("kd")
    render_parts.write_dataset(base / "data", "part", seed=5, n_train=12,
                               n_test_good=4, n_test_defect=4)
    run = base / "run"
    assert main(["train", "--model", "kd-cae", "--data-root", str(base / "data"),
                 "--class-name", "part", "--image-size", "32", "--epochs", str(EPOCHS),
                 "--patience", "0", "--batch-size", "4", "--seed", "5",
                 "--out", str(run)]) == 0
    assert main(["eval", "--run", str(run), "--diagnostics", "0"]) == 0
    labels = {str(f): "good" if f.parent.name == "good" else "defect"
              for f in (base / "data" / "part" / "test").glob("*/*.pgm")}
    return run, labels


@pytest.fixture(scope="module")
def gan_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("gan") / "run"
    assert main(["train", "--model", "dcgan", "--data-root", "synthetic:disk",
                 "--image-size", "32", "--n-train", "8", "--n-test", "1",
                 "--steps", str(GAN_STEPS), "--batch-size", "4", "--base-channels", "8",
                 "--z-dim", "16", "--seed", "7", "--out", str(run)]) == 0
    return run


def _copy(run: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(run, tmp_path / "copy"))


def _check_detector(run: Path, labels: dict) -> None:
    report = run_checks.load_report(run)
    run_checks.check_history(run, EPOCHS)
    run_checks.check_report(report, labels, auc_above_chance=False)
    run_checks.check_decisions(report, run_checks.read_config(run))
    run_checks.check_kde(run, report)


def _edit_report(run: Path, edit) -> None:
    path = run / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_real_runs_pass(kd_run, gan_run):
    _check_detector(*kd_run)
    run_checks.check_gan_history(gan_run, GAN_STEPS, train_log="")


def test_flipped_decision_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)

    def flip(report):
        row = report["rows"][0]
        row["decision"] = "good" if row["decision"] == "defect" else "defect"

    _edit_report(run, flip)
    report = run_checks.load_report(run)
    with pytest.raises(CheckError, match="disagrees with the thresholds"):
        run_checks.check_decisions(report, run_checks.read_config(run))
    with pytest.raises(CheckError, match="confusion"):
        run_checks.check_report(report, kd_run[1], auc_above_chance=False)


def test_edited_auc_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)
    _edit_report(run, lambda r: r.update(
        roc_auc=r["roc_auc"] + 0.125 if r["roc_auc"] < 0.5 else r["roc_auc"] - 0.125))
    with pytest.raises(CheckError, match="roc_auc"):
        run_checks.check_report(run_checks.load_report(run), kd_run[1], auc_above_chance=False)


def test_log_density_above_kernel_peak_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)
    blob = np.load(run / "kde.npz")
    h, d = float(blob["bandwidth"]), blob["latents"].shape[1]
    peak = -0.5 * d * math.log(2.0 * math.pi * h * h)
    _edit_report(run, lambda r: r["rows"][0].update(kde_log_density=peak + 1.0))
    with pytest.raises(CheckError, match="kernel peak"):
        run_checks.check_kde(run, run_checks.load_report(run))


def test_wrong_bandwidth_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)
    blob = np.load(run / "kde.npz")
    np.savez(run / "kde.npz", latents=blob["latents"], bandwidth=2.0 * blob["bandwidth"])
    with pytest.raises(CheckError, match="Scott"):
        run_checks.check_kde(run, run_checks.load_report(run))


def test_label_against_folder_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)
    _edit_report(run, lambda r: r["rows"][0].update(
        label="good" if r["rows"][0]["label"] == "defect" else "defect"))
    with pytest.raises(CheckError, match="written as"):
        run_checks.check_report(run_checks.load_report(run), kd_run[1], auc_above_chance=False)


def test_bare_nan_in_report_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)
    path = run / "report.json"
    path.write_text(path.read_text().replace('"roc_auc": ', '"roc_auc": NaN, "was": ', 1))
    with pytest.raises(CheckError, match="strict JSON"):
        run_checks.load_report(run)


def test_truncated_history_is_rejected(kd_run, tmp_path):
    run = _copy(kd_run[0], tmp_path)
    lines = (run / "history.csv").read_text().splitlines(keepends=True)
    (run / "history.csv").write_text("".join(lines[:EPOCHS]))  # header + all but the last epoch
    with pytest.raises(CheckError, match="covers"):
        run_checks.check_history(run, EPOCHS)


def test_gan_row_below_jensen_bound_is_rejected(gan_run, tmp_path):
    run = _copy(gan_run, tmp_path)
    with open(run / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][1] = "0.000000"  # j_d of step 2: below -1/2 log(mean_d_real) for any D < 1
    with open(run / "history.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with pytest.raises(CheckError, match="Jensen"):
        run_checks.check_gan_history(run, GAN_STEPS, train_log="")


def test_gan_abort_is_rejected(gan_run):
    with pytest.raises(CheckError, match="aborted"):
        run_checks.check_gan_history(gan_run, GAN_STEPS,
                                     train_log="dcgan aborted at step 3; snapshot restored")


def test_pairwise_auc_counts_ties_as_half():
    assert run_checks.pairwise_auc([0.9, 0.5, 0.5, 0.1], ["defect", "defect", "good", "good"]) \
        == pytest.approx((2 + 1 + 0.5) / 4)


def test_file_older_than_the_round_is_rejected(kd_run):
    report = kd_run[0] / "report.json"
    run_checks.check_fresh([report], since=report.stat().st_mtime)
    with pytest.raises(CheckError, match="not rewritten"):
        run_checks.check_fresh([report], since=report.stat().st_mtime + 1.0)
