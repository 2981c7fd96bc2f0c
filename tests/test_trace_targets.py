"""The benchmark tracer's targets exist.

`perfbench/span_trace.py` wraps each `(span, module, attribute)` entry of
its TARGETS list. A plain function the program no longer has reads 0, so a
rename silently zeroes a per-layer metric; for a "Class.method" entry the
tracer looks the class up with no default, so a renamed or deleted class
crashes every traced run. These tests read the list and check that each
plain function (bar the known stale entries) and each class is still in
its module, and run one short traced DCGAN train, whose discriminator
steps ask backward for no input gradient.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _span_trace():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import span_trace
    finally:
        sys.path.remove(str(PERFBENCH))
    return span_trace


# entries whose function is gone from the program; each reads 0 until the
# benchmark's TARGETS list is updated
STALE = {
    ("anomdet.cli", "preprocess"),
    ("anomdet.cli", "reconstruction_errors"),
    ("anomdet.pipelines.scoring", "reconstruction_errors"),
}


def _function_targets():
    return sorted({(mod, attr) for _, mod, attr in _span_trace().TARGETS if "." not in attr})


def _class_targets():
    return sorted({(mod, attr.split(".")[0]) for _, mod, attr in _span_trace().TARGETS
                   if "." in attr})


@pytest.mark.parametrize("module,owner", _class_targets())
def test_traced_class_exists(module, owner):
    assert isinstance(getattr(importlib.import_module(module), owner, None), type)


def test_stale_targets_are_listed_in_the_tracer():
    assert STALE <= set(_function_targets())


@pytest.mark.parametrize("module,name", [t for t in _function_targets() if t not in STALE])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_traced_dcgan_train_records_backward_without_input_gradient(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "span_trace.py"), str(spans_path), "train",
         "--model", "dcgan", "--steps", "1", "--image-size", "32", "--batch-size", "4",
         "--base-channels", "8", "--z-dim", "8", "--n-train", "8", "--n-test", "1",
         "--out", str(tmp_path / "run")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    spans = json.loads(spans_path.read_text())["spans"]
    d_backward = [a["dx_bytes"] for name, _, _, _, a in spans
                  if name == "model.backward" and a["kind"] == "dcgan-discriminator"]
    # one step: the real and the fake pass of the D-step, then the G-step's
    assert d_backward[:2] == [0, 0] and len(d_backward) == 3 and d_backward[2] > 0
    span_trace = _span_trace()
    metrics = span_trace.summarize([(1.0, spans)], 0)
    assert metrics["gan.d_backward_per_step"] == 3
    assert span_trace.layer_table([spans])
    assert metrics["model.dcgan-discriminator.bwd_dx_mb"] == d_backward[2] / 1e6
