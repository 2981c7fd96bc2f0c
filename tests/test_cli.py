"""End-to-end CLI flows, run in process through main(argv).

A trained run directory is self-describing: everything eval needs (config,
checkpoint, kde state, thresholds) lives inside it, so re-evaluating the
same directory must reproduce the report byte for byte.
"""

import json
import math

import numpy as np
import pytest

from anomdet.cli import main
from anomdet.data.codec import write_pgm
from anomdet.metrics import EvalReport


KD_ARGS = [
    "--model", "kd-cae", "--data-root", "synthetic:disk",
    "--image-size", "32", "--n-train", "10", "--n-test", "6",
    "--epochs", "2", "--batch-size", "4", "--seed", "3",
]


@pytest.fixture(scope="module")
def kd_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("kd") / "run"
    assert main(["train", *KD_ARGS, "--out", str(out)]) == 0
    assert main(["eval", "--run", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def gan_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gan") / "run"
    rc = main([
        "train", "--model", "dcgan", "--data-root", "synthetic:disk",
        "--image-size", "32", "--n-train", "8", "--n-test", "2",
        "--steps", "4", "--batch-size", "4", "--base-channels", "8",
        "--z-dim", "16", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    return out


def test_train_writes_self_describing_run_dir(kd_run):
    for name in ("config.cfg", "checkpoint.anom", "history.csv", "kde.npz"):
        assert (kd_run / name).is_file(), name
    text = (kd_run / "config.cfg").read_text()
    assert "model = kd-cae" in text
    # calibration happened at train time; the echo pins the numbers
    assert "thresholds = fixed" in text
    recon = [l for l in text.splitlines() if l.startswith("recon_threshold = ")]
    kde = [l for l in text.splitlines() if l.startswith("kde_threshold = ")]
    assert float(recon[0].split("=")[1]) > 0
    assert kde[0].split("=")[1].strip() != ""


def test_same_seed_training_is_bitwise(kd_run, tmp_path):
    out = tmp_path / "again"
    assert main(["train", *KD_ARGS, "--out", str(out)]) == 0
    assert (out / "checkpoint.anom").read_bytes() == (kd_run / "checkpoint.anom").read_bytes()
    a, b = np.load(out / "kde.npz"), np.load(kd_run / "kde.npz")
    assert np.array_equal(a["latents"], b["latents"])
    assert float(a["bandwidth"]) == float(b["bandwidth"])


def test_eval_writes_report_files(kd_run):
    for name in ("report.json", "summary.csv", "detail.csv",
                 "recon_error_histogram.csv", "kde_log_density_histogram.csv"):
        assert (kd_run / name).is_file(), name
    rep = json.loads((kd_run / "report.json").read_text())
    assert 0.0 <= rep["f1"] <= 1.0
    assert set(rep["confusion"]) == {"tp", "fp", "tn", "fn"}
    assert sum(rep["confusion"].values()) == 6
    assert all("recon_error" in r and "kde_log_density" in r for r in rep["rows"])
    assert rep["threshold_info"]["rule"] == "or"
    # diagnostics for the first few test images
    assert (kd_run / "diagnostics" / "000_input.pgm").is_file()
    assert (kd_run / "diagnostics" / "000_recon.pgm").is_file()
    assert (kd_run / "diagnostics" / "000_ssim_diff.pgm").is_file()


def test_eval_rerun_reproduces_report(kd_run):
    before = (kd_run / "report.json").read_bytes()
    assert main(["eval", "--run", str(kd_run)]) == 0
    assert (kd_run / "report.json").read_bytes() == before


def test_eval_train_split_single_class_gets_nan_auc(kd_run, tmp_path):
    assert main(["eval", "--run", str(kd_run), "--split", "train"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = json.loads((kd_run / "report.json").read_text(), parse_constant=refuse)
    assert rep["roc_auc"] is None
    assert {r["label"] for r in rep["rows"]} == {"good"}
    assert math.isnan(EvalReport.load(kd_run).roc_auc)
    assert main(["report", str(kd_run), "--out", str(tmp_path)]) == 0
    row = (tmp_path / "comparison.csv").read_text().splitlines()[1].split(",")
    assert row[4] == "nan"
    # put the test-split report back for later tests
    assert main(["eval", "--run", str(kd_run)]) == 0


def _write_widget_dir(root, size=32):
    rng = np.random.default_rng(0)
    for rel, n in {"train/good": 6, "test/good": 4, "test/scratch": 4}.items():
        d = root / "widget" / rel
        d.mkdir(parents=True)
        for i in range(n):
            write_pgm(d / f"{i:03d}.pgm", rng.integers(0, 256, (size, size), dtype=np.uint8))


def test_eval_ingests_only_the_scored_split(tmp_path, monkeypatch):
    import anomdet.cli as cli

    _write_widget_dir(tmp_path / "data")
    out = tmp_path / "run"
    assert main([
        "train", "--model", "ni-cae", "--data-root", str(tmp_path / "data"),
        "--class-name", "widget", "--image-size", "32", "--epochs", "1",
        "--batch-size", "4", "--noise-test", "on", "--noise-fraction", "0.5",
        "--out", str(out),
    ]) == 0

    whole = cli.load_image_dir
    loaded = []

    def recording(*args, **kwargs):
        ds = whole(*args, **kwargs)
        loaded.append({s.split for s in ds.samples})
        return ds

    for split in ("test", "train"):
        monkeypatch.setattr(cli, "load_image_dir", recording)
        assert main(["eval", "--run", str(out), "--split", split]) == 0
        assert loaded == [{split}]
        loaded.clear()
        scored = (out / "report.json").read_bytes()
        # the same report as from the whole dataset, noise selection included
        monkeypatch.setattr(cli, "load_image_dir",
                            lambda *a, split=None, **k: whole(*a, **k))
        assert main(["eval", "--run", str(out), "--split", split]) == 0
        assert (out / "report.json").read_bytes() == scored


def test_train_ingests_only_the_train_split(tmp_path, monkeypatch, capsys):
    import anomdet.cli as cli

    _write_widget_dir(tmp_path / "data")
    out = tmp_path / "run"
    args = [
        "train", "--model", "kd-cae", "--data-root", str(tmp_path / "data"),
        "--class-name", "widget", "--image-size", "32", "--epochs", "1",
        "--batch-size", "4", "--noise-train", "on", "--noise-fraction", "0.5",
        "--out", str(out),
    ]
    whole = cli.load_image_dir
    loaded = []

    def recording(*args, **kwargs):
        ds = whole(*args, **kwargs)
        loaded.append({s.split for s in ds.samples})
        return ds

    def written():
        return {name: (out / name).read_bytes()
                for name in ("checkpoint.anom", "kde.npz", "noise_plan.csv", "config.cfg")}

    monkeypatch.setattr(cli, "load_image_dir", recording)
    assert main(args) == 0
    assert loaded == [{"train"}]
    trained = written()
    # the same run directory as from the whole dataset, noise plan included
    monkeypatch.setattr(cli, "load_image_dir", lambda *a, split=None, **k: whole(*a, **k))
    assert main(args) == 0
    assert written() == trained

    cnn = ["train", "--model", "cnn", *args[3:-2], "--out", str(tmp_path / "cnn")]
    capsys.readouterr()
    assert main(cnn) == 2  # directory data holds no train defects either way
    assert "cnn training needs both classes in the train split" in capsys.readouterr().err


def test_cnn_train_eval_roundtrip(tmp_path):
    out = tmp_path / "cnn"
    rc = main([
        "train", "--model", "cnn", "--data-root", "synthetic:disk",
        "--image-size", "32", "--n-train", "12", "--n-test", "6",
        "--train-defect-rate", "0.5", "--epochs", "2", "--batch-size", "4",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    assert main(["eval", "--run", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["threshold_info"] == {"rule": "cutoff", "cutoff": 0.5}
    assert (out / "probability_histogram.csv").is_file()
    assert not (out / "diagnostics").exists()  # reconstruction images are cae-only


def test_cnn_needs_both_classes(tmp_path):
    rc = main([
        "train", "--model", "cnn", "--data-root", "synthetic:disk",
        "--image-size", "32", "--n-train", "8", "--n-test", "4",
        "--epochs", "1", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2  # all-good train split is a data error


def test_dcgan_run_dir(gan_run):
    for name in ("config.cfg", "generator.anom", "discriminator.anom", "history.csv"):
        assert (gan_run / name).is_file(), name
    lines = (gan_run / "history.csv").read_text().splitlines()
    assert lines[0] == "step,j_d,j_g,mean_d_real,mean_d_fake"
    assert len(lines) == 1 + 4


def test_generate_from_run(gan_run, tmp_path):
    assert main(["generate", "--run", str(gan_run), "--n", "4", "--seed", "2"]) == 0
    gen = gan_run / "generated"
    names = sorted(p.name for p in (gen / "samples").iterdir())
    assert names == [f"sample_{i:03d}.pgm" for i in range(4)]
    assert (gen / "sheet.pgm").is_file()

    other = tmp_path / "elsewhere"
    assert main(["generate", "--run", str(gan_run), "--n", "4", "--seed", "2",
                 "--out", str(other)]) == 0
    for i in range(4):
        a = (gen / "samples" / f"sample_{i:03d}.pgm").read_bytes()
        b = (other / "samples" / f"sample_{i:03d}.pgm").read_bytes()
        assert a == b


def test_generate_zero_writes_nothing(gan_run, tmp_path):
    out = tmp_path / "none"
    assert main(["generate", "--run", str(gan_run), "--n", "0", "--out", str(out)]) == 0
    assert not (out / "samples").exists()


def test_eval_on_dcgan_run_is_config_error(gan_run):
    assert main(["eval", "--run", str(gan_run)]) == 1


def test_generate_on_cae_run_is_config_error(kd_run):
    assert main(["generate", "--run", str(kd_run), "--n", "1"]) == 1


def test_model_kind_mismatch_is_config_error(kd_run, tmp_path):
    clone = tmp_path / "forged"
    clone.mkdir()
    for name in ("config.cfg", "checkpoint.anom", "kde.npz"):
        (clone / name).write_bytes((kd_run / name).read_bytes())
    text = (clone / "config.cfg").read_text()
    (clone / "config.cfg").write_text(text.replace("model = kd-cae", "model = ni-cae"))
    assert main(["eval", "--run", str(clone)]) == 1


@pytest.mark.parametrize("damage", ["truncated", "missing_key", "wrong_dim"])
def test_corrupt_kde_state_is_data_error(kd_run, tmp_path, monkeypatch, capsys, damage):
    import anomdet.cli as cli

    clone = tmp_path / "damaged"
    clone.mkdir()
    for name in ("config.cfg", "checkpoint.anom", "kde.npz"):
        (clone / name).write_bytes((kd_run / name).read_bytes())
    kde_file = clone / "kde.npz"
    if damage == "truncated":
        kde_file.write_bytes(kde_file.read_bytes()[:200])
    elif damage == "missing_key":
        np.savez(kde_file, bandwidth=1.0)
    else:
        np.savez(kde_file, latents=np.zeros((3, 5)), bandwidth=1.0)

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before the kde state was checked")

    monkeypatch.setattr(cli, "score_batch", no_scoring)
    capsys.readouterr()
    assert main(["eval", "--run", str(clone)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(kde_file) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_noise_train_writes_plan(tmp_path):
    out = tmp_path / "noisy"
    rc = main([
        "train", "--model", "ni-cae", "--data-root", "synthetic:disk",
        "--image-size", "32", "--n-train", "20", "--n-test", "4",
        "--epochs", "1", "--batch-size", "4", "--noise-train", "on",
        "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "noise_plan.csv").read_text().splitlines()
    assert lines[0] == "index,source_path"
    body = lines[1:lines.index("")]
    assert len(body) == 2  # floor(0.10 * 20)
    assert "fraction,0.1" in lines
    cfg = (out / "config.cfg").read_text()
    assert "combine_rule = recon_only" in cfg  # ni-cae scores by recon alone


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "synthout"
    rc = main([
        "synth", "--data-root", "synthetic:rect", "--image-size", "32",
        "--n-train", "4", "--n-test", "4", "--out", str(out),
    ])
    assert rc == 0
    manifest = out / "dataset" / "manifest.csv"
    rows = manifest.read_text().splitlines()
    assert rows[0] == "path,label,defect_kind,split"
    assert len(rows) == 1 + 8


def test_report_merges_and_skips(kd_run, tmp_path):
    stub = tmp_path / "incomplete"
    stub.mkdir()
    (stub / "config.cfg").write_bytes((kd_run / "config.cfg").read_bytes())
    out = tmp_path / "tbl"
    with pytest.warns(UserWarning, match="skipping"):
        rc = main(["report", str(kd_run), str(stub), "--out", str(out)])
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("run,model,class,f1,roc_auc,tp,")
    assert len(lines) == 2  # the stub was skipped
    rep = json.loads((kd_run / "report.json").read_text())
    cells = lines[1].split(",")
    assert cells[1] == "kd-cae"
    assert cells[5:9] == [str(rep["confusion"][k]) for k in ("tp", "fp", "tn", "fn")]


def test_report_with_no_runs_is_data_error(tmp_path):
    empty = tmp_path / "void"
    empty.mkdir()
    with pytest.warns(UserWarning):
        assert main(["report", str(empty), "--out", str(tmp_path)]) == 2


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("model = kd-cae\ndata_root = synthetic:disk\nimage_size = 32\n"
                   "n_train = 8\nn_test = 4\nepochs = 3\nbatch_size = 4\n")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--epochs", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "history.csv").read_text().splitlines()
    body = lines[1:lines.index("")]
    assert len(body) == 1  # one epoch, not three


def test_env_data_root_fallback(tmp_path, monkeypatch):
    root = tmp_path / "data"
    rng = np.random.default_rng(0)
    layout = {
        "train/good": 6,
        "test/good": 2,
        "test/scratch": 2,
    }
    for rel, n in layout.items():
        d = root / "widget" / rel
        d.mkdir(parents=True)
        for i in range(n):
            write_pgm(d / f"{i:03d}.pgm", rng.integers(0, 256, (32, 32), dtype=np.uint8))

    out = tmp_path / "run"
    args = ["train", "--model", "kd-cae", "--class-name", "widget",
            "--data-root", "", "--image-size", "32", "--epochs", "1",
            "--batch-size", "4", "--out", str(out)]
    monkeypatch.delenv("ANOMALY_DATA_ROOT", raising=False)
    assert main(args) == 1  # nothing points at the data

    monkeypatch.setenv("ANOMALY_DATA_ROOT", str(root))
    assert main(args) == 0
    assert main(["eval", "--run", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["dataset_name"] == "widget"
    assert len(rep["rows"]) == 4


def test_usage_errors_exit_1():
    assert main(["train", "--no-such-flag", "1"]) == 1
    assert main(["eval"]) == 1  # --run is required
    assert main(["train"]) == 1  # no model anywhere
