"""Config file parsing, overrides, validation, and the bundled class files."""

import importlib.resources as resources
import warnings

import pytest

from anomdet.config import RunConfig, parse_config
from anomdet.errors import ConfigError


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_empty_file_plus_model_override_gives_defaults(tmp_path):
    p = write(tmp_path, "")
    cfg = parse_config(p, {"model": "kd-cae"})
    assert cfg.model == "kd-cae"
    assert cfg.image_size == 64
    assert cfg.thresholds == "calibrate:95"
    assert cfg.noise_fraction == 0.10
    assert cfg.noise_variance == 0.001


def test_sections_and_comments_ignored(tmp_path):
    p = write(tmp_path, "[model]\n# a comment\n; another\nmodel = cnn\n[data]\nn_train = 7\n")
    cfg = parse_config(p)
    assert cfg.model == "cnn" and cfg.n_train == 7


def test_duplicate_key_last_wins_with_warning(tmp_path):
    p = write(tmp_path, "model = cnn\nepochs = 3\nepochs = 9\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = parse_config(p)
    assert cfg.epochs == 9
    assert any("duplicate" in str(w.message) for w in caught)


def test_unknown_key_rejected(tmp_path):
    p = write(tmp_path, "model = cnn\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(p)
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(overrides={"model": "cnn", "momentum": "0.9"})


def test_unparsable_value_rejected(tmp_path):
    p = write(tmp_path, "model = cnn\nepochs = three\n")
    with pytest.raises(ConfigError, match="unparsable"):
        parse_config(p)


def test_missing_model_rejected(tmp_path):
    p = write(tmp_path, "epochs = 3\n")
    with pytest.raises(ConfigError, match="model"):
        parse_config(p)


def test_cli_override_beats_file(tmp_path):
    p = write(tmp_path, "model = cnn\nepochs = 50\n")
    cfg = parse_config(p, {"epochs": "2", "seed": "11"})
    assert cfg.epochs == 2 and cfg.seed == 11


def test_bool_words(tmp_path):
    for word, want in [("on", True), ("TRUE", True), ("yes", True),
                       ("off", False), ("False", False), ("0", False)]:
        cfg = parse_config(write(tmp_path, f"model = cnn\nnoise_train = {word}\n"))
        assert cfg.noise_train is want
    with pytest.raises(ConfigError, match="unparsable"):
        parse_config(write(tmp_path, "model = cnn\nnoise_train = maybe\n"))


def test_threshold_key_forms():
    assert parse_config(overrides={"model": "kd-cae"}).calibration_percentile() == 95.0
    cfg = parse_config(overrides={"model": "kd-cae", "thresholds": "calibrate:90"})
    assert cfg.calibration_percentile() == 90.0
    fixed = parse_config(overrides={"model": "kd-cae", "thresholds": "fixed"})
    assert fixed.calibration_percentile() is None
    for bad in ("calibrate:x", "calibrate:0", "calibrate:101", "auto"):
        with pytest.raises(ConfigError):
            parse_config(overrides={"model": "kd-cae", "thresholds": bad})


def test_validation_errors():
    with pytest.raises(ConfigError, match="model must be one of"):
        parse_config(overrides={"model": "vae"})
    with pytest.raises(ConfigError, match="synthetic spec"):
        parse_config(overrides={"model": "cnn", "data_root": "synthetic:blob"})
    with pytest.raises(ConfigError, match="combine_rule"):
        parse_config(overrides={"model": "kd-cae", "combine_rule": "xor"})
    with pytest.raises(ConfigError, match="noise_fraction"):
        parse_config(overrides={"model": "cnn", "noise_fraction": "1.5"})
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(overrides={"model": "cnn", "learning_rate": "-0.5"})
    with pytest.raises(ConfigError, match="patience"):
        parse_config(overrides={"model": "kd-cae", "patience": "-1"})
    # 0 keeps its meaning: the per-model default rate, no early stopping
    cfg = parse_config(overrides={"model": "cnn", "learning_rate": "0", "patience": "0"})
    assert cfg.learning_rate == 0.0 and cfg.patience == 0



def test_synthetic_data_needs_grayscale():
    for shape in ("disk", "rect"):
        with pytest.raises(ConfigError, match="grayscale only"):
            parse_config(overrides={"model": "kd-cae", "data_root": f"synthetic:{shape}",
                                    "grayscale": "off"})
    colour = parse_config(overrides={"model": "kd-cae", "data_root": "some/dir",
                                     "grayscale": "off"})
    assert colour.grayscale is False  # directory data may be RGB

def test_echo_round_trips(tmp_path):
    cfg = parse_config(overrides={
        "model": "ni-cae", "image_size": "96", "noise_train": "on",
        "recon_threshold": "0.004", "thresholds": "fixed", "combine_rule": "recon_only",
    })
    p = write(tmp_path, cfg.to_text())
    assert parse_config(p) == cfg


def test_default_out_dir_is_self_describing():
    cfg = parse_config(overrides={"model": "cnn", "seed": "3"})
    assert str(cfg.resolved_out_dir()) == "runs/cnn-synthetic-disk-seed3"
    explicit = parse_config(overrides={"model": "cnn", "out_dir": "here"})
    assert str(explicit.resolved_out_dir()) == "here"


def test_synthetic_run_takes_its_shape_class_name(tmp_path):
    rect = parse_config(overrides={"model": "kd-cae", "data_root": "synthetic:rect"})
    assert rect.class_name == "synthetic-rect"
    assert str(rect.resolved_out_dir()) == "runs/kd-cae-synthetic-rect-seed0"
    from_file = parse_config(write(tmp_path, "model = cnn\ndata_root = synthetic:rect\n"))
    assert from_file.class_name == "synthetic-rect"
    named = parse_config(overrides={"model": "kd-cae", "data_root": "synthetic:rect",
                                    "class_name": "mine"})
    assert named.class_name == "mine"
    directory = parse_config(overrides={"model": "kd-cae", "data_root": "some/dir"})
    assert directory.class_name == "synthetic-disk"  # the dataclass default


BUNDLED = {
    "toothbrush": (0.005, 5630.0),
    "bottle": (0.004, 5600.0),
    "screw": (0.004, 5625.0),
    "leather": (0.003, 5651.0),
    "transistor": (0.0055, 5350.0),
}


def test_bundled_configs_reference_values():
    for name, (recon, kde) in BUNDLED.items():
        path = resources.files("anomdet") / "configs" / f"{name}.cfg"
        cfg = parse_config(str(path))
        assert cfg.model == "kd-cae"
        assert cfg.class_name == name
        assert cfg.image_size == 128
        assert cfg.thresholds == "fixed"
        assert cfg.recon_threshold == recon
        assert cfg.kde_threshold == kde
        assert cfg.data_root == ""  # points at the user's data root


def test_optional_float_empty_means_none(tmp_path):
    p = write(tmp_path, "model = kd-cae\nrecon_threshold =\nkde_threshold = none\n")
    cfg = parse_config(p)
    assert cfg.recon_threshold is None and cfg.kde_threshold is None
