"""Line-oriented run configuration: `key = value` with cosmetic `[section]`
headers, every key defaulted, unknown keys rejected, CLI overrides on top."""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError

MODELS = ("cnn", "kd-cae", "ni-cae", "dcgan")
COMBINE_RULES = ("recon_only", "kde_only", "or", "and")


@dataclass(frozen=True)
class RunConfig:
    """One experiment, fully specified. `model` is the only key without a
    usable default; everything else can be left alone."""

    model: str = ""
    class_name: str = "synthetic-disk"  # parse_config: synthetic-<shape> on synthetic data
    data_root: str = "synthetic:disk"  # synthetic:<shape>, a path, or "" (env root)
    image_size: int = 64
    grayscale: bool = True
    epochs: int = 50
    steps: int = 2000  # dcgan budget
    batch_size: int = 16
    seed: int = 0
    learning_rate: float = 0.0  # 0 = per-model default
    patience: int = 5  # 0 disables early stopping
    val_fraction: float = 0.1
    thresholds: str = "calibrate:95"  # or "fixed"
    recon_threshold: Optional[float] = None
    kde_threshold: Optional[float] = None
    combine_rule: str = "or"
    cutoff: float = 0.5  # cnn decision boundary
    noise_train: bool = False
    noise_test: bool = False
    noise_fraction: float = 0.10
    noise_mean: float = 0.0
    noise_variance: float = 0.001
    n_train: int = 100  # synthetic sizing
    n_test: int = 40
    defect_rate: float = 0.5
    train_defect_rate: float = 0.0
    z_dim: int = 100  # dcgan knobs
    base_channels: int = 64
    k_disc_steps: int = 1
    allow_png: bool = False
    out_dir: str = ""  # "" -> runs/<model>-<class>-seed<seed>

    def validate(self) -> "RunConfig":
        if not self.model:
            raise ConfigError("config is missing the required key 'model'")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")
        if self.epochs < 0 or self.steps < 0:
            raise ConfigError("epochs and steps must be non-negative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0 (0 = per-model default), "
                              f"got {self.learning_rate}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0 (0 = no early stopping), "
                              f"got {self.patience}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        if self.combine_rule not in COMBINE_RULES:
            raise ConfigError(
                f"combine_rule must be one of {COMBINE_RULES}, got {self.combine_rule!r}"
            )
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ConfigError(f"noise_fraction must be in [0,1], got {self.noise_fraction}")
        if self.noise_variance < 0:
            raise ConfigError(f"noise_variance must be >= 0, got {self.noise_variance}")
        if not 0.0 <= self.defect_rate <= 1.0 or not 0.0 <= self.train_defect_rate <= 1.0:
            raise ConfigError("defect rates must be in [0,1]")
        if not 0.0 <= self.cutoff <= 1.0:
            raise ConfigError(f"cutoff must be in [0,1], got {self.cutoff}")
        self.calibration_percentile()  # validates the thresholds key shape
        if self.data_root.startswith("synthetic:"):
            shape = self.data_root.split(":", 1)[1]
            if shape not in ("disk", "rect"):
                raise ConfigError(f"synthetic spec must be synthetic:disk|rect, got {self.data_root!r}")
            if not self.grayscale:
                raise ConfigError("synthetic data is grayscale only; set grayscale = on")
        return self

    def calibration_percentile(self) -> Optional[float]:
        """The p of `calibrate:p`, or None when thresholds are fixed."""
        if self.thresholds == "fixed":
            return None
        if self.thresholds.startswith("calibrate:"):
            raw = self.thresholds.split(":", 1)[1]
            try:
                p = float(raw)
            except ValueError:
                raise ConfigError(f"bad calibration percentile {raw!r}") from None
            if not 0.0 < p <= 100.0:
                raise ConfigError(f"calibration percentile must be in (0,100], got {p}")
            return p
        raise ConfigError(
            f"thresholds must be 'fixed' or 'calibrate:<percentile>', got {self.thresholds!r}"
        )

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        return Path("runs") / f"{self.model}-{self.class_name}-seed{self.seed}"

    def to_text(self) -> str:
        lines = ["[run]"]
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


# every known key, with its parser
_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}

_BOOL_WORDS = {
    "on": True, "true": True, "yes": True, "1": True,
    "off": False, "false": False, "no": False, "0": False,
}


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "Optional[float]":
            if raw == "" or raw.lower() == "none":
                return None
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: unparsable value {raw!r} ({e})") from None


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "on" if v else "off"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_config(path=None, overrides: Optional[dict] = None) -> RunConfig:
    """Resolve file values then CLI overrides into a validated RunConfig.

    `overrides` maps key -> raw string (as typed on the command line).
    Duplicate file keys keep the last occurrence and warn; unknown keys in
    either source are rejected.
    """
    values: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        seen: set = set()
        for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            text = line.strip()
            if not text or text.startswith("#") or text.startswith(";"):
                continue
            if text.startswith("[") and text.endswith("]"):
                continue  # sections are organizational only
            if "=" not in text:
                raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"{p}:{lineno}: unknown config key {key!r}")
            if key in seen:
                warnings.warn(f"{p}:{lineno}: duplicate key {key!r}; last value wins")
            seen.add(key)
            values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = raw if not isinstance(raw, str) else _parse_value(key, raw)
    root = values.get("data_root", RunConfig.data_root)
    if "class_name" not in values and root.startswith("synthetic:"):
        values["class_name"] = "synthetic-" + root.split(":", 1)[1]  # the set's own name
    return RunConfig(**values).validate()
