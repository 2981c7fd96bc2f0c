"""Traced launcher for one `anomdet` command, and the per-layer summary.

Run as a script, it wraps the public functions of each `anomdet` module
where their callers look them up, runs `anomdet.cli.main(argv)` and writes
the spans it recorded to a JSON file:

    python3 perfbench/span_trace.py SPANS_JSON train --model kd-cae ...

Spans are held in memory while the command runs; each is
`[name, start_ns, end_ns, parent_index, attrs]`. Wrapping happens from
outside the program: `anomdet.cli` and `anomdet.pipelines.training` import
their functions by name, so a function is patched in every namespace its
callers read it from. A name the program no longer has is skipped and
listed under "missing", so its metrics read 0 instead of failing the run.

`summarize` turns the spans of one round of commands into the per-layer
metrics; `layer_table` gives the per-graph table, one row per
(model kind, layer kind, input shape).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" patches a class attribute.
# The same span name may be patched in several namespaces.
TARGETS = [
    *[(f"functional.{n}", "anomdet.nn.functional", n) for n in (
        "conv2d", "conv2d_backward", "conv2d_transpose", "conv2d_transpose_backward",
        "maxpool2d", "maxpool2d_backward", "dense", "dense_backward",
        "activate", "activate_backward", "batchnorm", "batchnorm_backward")],
    ("model.forward", "anomdet.nn.model", "ModelGraph.forward"),
    ("model.forward", "anomdet.nn.model", "ModelGraph.forward_to"),
    ("model.backward", "anomdet.nn.model", "ModelGraph.backward"),
    ("losses", "anomdet.pipelines.training", "loss_eval"),
    ("losses", "anomdet.gan.training", "discriminator_loss_grads"),
    ("losses", "anomdet.gan.training", "generator_loss_grad"),
    ("optim.step", "anomdet.nn.optim", "RmsProp.step"),
    ("optim.step", "anomdet.nn.optim", "Sgd.step"),
    ("serialize.save", "anomdet.cli", "save_model"),
    ("serialize.load", "anomdet.cli", "load_model"),
    ("data.load", "anomdet.cli", "load_image_dir"),
    ("data.load", "anomdet.cli", "generate_synthetic_set"),
    ("data.preprocess", "anomdet.cli", "preprocess"),
    ("data.noise", "anomdet.cli", "inject_gaussian_noise"),
    ("training.train", "anomdet.cli", "train"),
    *[(f"scoring.{n}", mod, n)
      for mod in ("anomdet.cli", "anomdet.pipelines.scoring")
      for n in ("reconstruction_errors", "encode_latent", "kde_log_densities")],
    ("scoring.fit_kde", "anomdet.cli", "fit_kde"),
    ("scoring.calibrate_thresholds", "anomdet.cli", "calibrate_thresholds"),
    ("ssim", "anomdet.cli", "ssim"),
    ("ssim", "anomdet.cli", "ssim_diff_image"),
    ("gan.train", "anomdet.cli", "train_gan"),
    ("sampling", "anomdet.cli", "generate_samples"),
    ("metrics", "anomdet.cli", "EvalReport.from_rows"),
    ("metrics", "anomdet.cli", "EvalReport.save"),
    ("metrics", "anomdet.cli", "save_histogram"),
    ("cli.train", "anomdet.cli", "cmd_train"),
    ("cli.eval", "anomdet.cli", "cmd_eval"),
    ("cli.generate", "anomdet.cli", "cmd_generate"),
]

MODEL_KINDS = ("cnn", "kd-cae", "ni-cae", "dcgan-generator", "dcgan-discriminator")
FUNCTIONAL_TIMED = ("conv2d", "conv2d_transpose", "maxpool2d", "batchnorm", "dense", "activate")


def _shape(a):
    return list(a.shape) if hasattr(a, "shape") else None


def _attrs(name, args, out):
    """Small facts about one call, read from its arguments and result."""
    if name.startswith("functional."):
        first = out[0] if isinstance(out, tuple) else out
        if name.endswith("_backward"):  # first = dx, shaped like the forward's input
            attrs = {"x": _shape(first), "y": _shape(args[0])}
        else:
            attrs = {"x": _shape(args[0]), "y": _shape(first), "y_bytes": int(first.nbytes),
                     "itemsize": int(args[0].itemsize)}
        if name.split(".")[1].split("_backward")[0] in ("conv2d", "conv2d_transpose", "dense"):
            attrs["w"] = _shape(args[1])
        return attrs
    if name == "model.forward":
        # forward(self, x, ...) or forward_to(self, stop, x, ...)
        x = args[2] if isinstance(args[1], int) else args[1]
        return {"kind": args[0].model_kind, "n": int(x.shape[0])}
    if name == "model.backward":
        dx = out[0]
        return {"kind": args[0].model_kind,
                "dx_bytes": int(dx.nbytes) if hasattr(dx, "nbytes") else 0}
    if name == "data.load":
        return {"images": len(out.samples)}
    if name == "serialize.save":
        return {"bytes": os.path.getsize(args[1])}
    if name == "training.train":
        return {"epochs": out.epochs_run}
    if name == "gan.train":
        return {"steps": len(out.history.records)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.missing: list = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[1] = t0
                stack.pop()
            rec[4] = _attrs(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, mod_name, attr in TARGETS:
            mod = importlib.import_module(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__.get(member) if owner_name else getattr(mod, member, None)
            if raw is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            setattr(owner, member, patched)


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from anomdet import cli

    rc = cli.main(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return rc


# ------------------------------------------------------------------ summary


def _gemm_flops(kind, a):
    """GEMM FLOPs of one forward call of `kind`, from the shapes of its input
    x, output y and weights w. Backward runs two GEMMs of the same size."""
    if kind == "conv2d":  # (OutC, InC*kh*kw) @ (InC*kh*kw, oh*ow) per image
        n, oc, oh, ow = a["y"]
        _, ic, kh, kw = a["w"]
        return 2 * n * oc * ic * kh * kw * oh * ow
    if kind == "conv2d_transpose":  # (OutC*kh*kw, InC) @ (InC, h*w) per image
        n, ic, h, w = a["x"]
        _, oc, kh, kw = a["w"]
        return 2 * n * oc * kh * kw * ic * h * w
    if kind == "dense":
        return 2 * a["y"][0] * a["w"][0] * a["w"][1]
    return 0


def _functional_calls(ix):
    """(span index, model kind, layer kind, is_backward, attrs) of each
    functional span. A backward that returned no input gradient takes its
    input shape from the forward with the same output shape."""
    seen_output = {}
    for i, (name, _, _, _, a) in enumerate(ix.spans):
        if not name.startswith("functional."):
            continue
        kind = name.split(".", 1)[1]
        backward = kind.endswith("_backward")
        kind = kind.split("_backward")[0]
        model = ix.model_kind(i)
        if not backward:
            seen_output[(model, kind, tuple(a["y"]))] = a["x"]
        elif a["x"] is None:
            a = dict(a, x=seen_output.get((model, kind, tuple(a["y"]))))
            if a["x"] is None:
                continue
        yield i, model, kind, backward, a


class _SpanIndex:
    """Indexes the spans of one command for self-time and ancestry queries."""

    def __init__(self, spans):
        self.spans = spans
        self.child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                self.child_ns[s[3]] += s[2] - s[1]

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_ns(self, i):
        return self.dur(i) - self.child_ns[i]

    def model_kind(self, i):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0].startswith("model."):
                return self.spans[p][4]["kind"]
            p = self.spans[p][3]
        return "-"

    def inside(self, i, name):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def summarize(commands, images_scored):
    """Per-layer metrics of one round.

    `commands` is a list of (wall_ms, spans) per process, in order; the
    round's eval (if any) scored `images_scored` images.
    """
    ms = defaultdict(float)
    count = defaultdict(float)
    wall_ms = 0.0
    for wall, spans in commands:
        wall_ms += wall
        ix = _SpanIndex(spans)
        for i, (name, t0, t1, _, a) in enumerate(spans):
            d = (t1 - t0) / 1e6
            ms[name] += d
            count[name] += 1
            if name.startswith("functional."):
                continue
            if name.startswith("model."):
                kind = a["kind"]
                ms[f"{name}.{kind}"] += d
                ms["model.dispatch"] += ix.self_ns(i) / 1e6
                if name == "model.backward":
                    count[f"model.{kind}.dx_bytes"] += a["dx_bytes"]
                    if kind == "dcgan-discriminator" and ix.inside(i, "gan.train"):
                        count["gan.d_backward"] += 1
                elif ix.inside(i, "cli.eval"):
                    count["eval.sample_passes"] += a["n"]
            elif name == "data.load":
                count["data.images"] += a["images"]
            elif name == "serialize.save":
                count["serialize.bytes"] += a["bytes"]
            elif name == "training.train":
                count["training.epochs"] += a["epochs"]
                ms["training.self"] += ix.self_ns(i) / 1e6
            elif name == "gan.train":
                count["gan.steps"] += a["steps"]
                ms["gan.self"] += ix.self_ns(i) / 1e6
            elif name.startswith("cli."):
                ms["cli.self"] += ix.self_ns(i) / 1e6
                ms["cli.covered"] += (ix.dur(i) - ix.self_ns(i)) / 1e6
                ms["cli.startup"] += wall - ix.dur(i) / 1e6
        for _, _, kind, backward, a in _functional_calls(ix):
            flops = _gemm_flops(kind, a)
            count[f"functional.{kind}.flops"] += 2 * flops if backward else flops
            if kind == "conv2d" and not backward:  # the im2col buffer
                n, oc, oh, ow = a["y"]
                _, ic, kh, kw = a["w"]
                count["functional.conv2d.cols_bytes"] += n * ic * kh * kw * oh * ow * a["itemsize"]

    out = {
        "data.ingest_ms": ms["data.load"] + ms["data.preprocess"] + ms["data.noise"],
        "data.images_ingested": count["data.images"],
    }
    for kind in FUNCTIONAL_TIMED:
        out[f"functional.{kind}.fwd_ms"] = ms[f"functional.{kind}"]
        out[f"functional.{kind}.bwd_ms"] = ms[f"functional.{kind}_backward"]
        if kind in ("conv2d", "conv2d_transpose", "maxpool2d", "batchnorm"):
            out[f"functional.{kind}.calls"] = count[f"functional.{kind}"]
        if kind in ("conv2d", "conv2d_transpose"):
            out[f"functional.{kind}.gflop"] = count[f"functional.{kind}.flops"] / 1e9
    out["functional.conv2d.cols_mb"] = count["functional.conv2d.cols_bytes"] / 1e6
    for kind in MODEL_KINDS:
        out[f"model.{kind}.fwd_ms"] = ms[f"model.forward.{kind}"]
        out[f"model.{kind}.bwd_ms"] = ms[f"model.backward.{kind}"]
        out[f"model.{kind}.bwd_dx_mb"] = count[f"model.{kind}.dx_bytes"] / 1e6
    out["model.dispatch_ms"] = ms["model.dispatch"]
    out["losses.ms"] = ms["losses"]
    out["optim.step_ms"] = ms["optim.step"]
    out["optim.steps"] = count["optim.step"]
    out["serialize.save_ms"] = ms["serialize.save"]
    out["serialize.load_ms"] = ms["serialize.load"]
    out["serialize.checkpoint_mb"] = count["serialize.bytes"] / 1e6
    epochs = count["training.epochs"]
    out["training.epoch_ms"] = ms["training.train"] / epochs if epochs else 0.0
    out["training.self_ms"] = ms["training.self"]
    out["scoring.recon_ms"] = ms["scoring.reconstruction_errors"]
    out["scoring.latent_ms"] = ms["scoring.encode_latent"]
    out["scoring.kde_ms"] = ms["scoring.kde_log_densities"] + ms["scoring.fit_kde"]
    out["scoring.calibrate_ms"] = ms["scoring.calibrate_thresholds"]
    out["scoring.passes_per_img"] = (
        count["eval.sample_passes"] / images_scored if images_scored else 0.0)
    out["ssim.ms"] = ms["ssim"]
    steps = count["gan.steps"]
    out["gan.step_ms"] = ms["gan.train"] / steps if steps else 0.0
    out["gan.d_backward_per_step"] = count["gan.d_backward"] / steps if steps else 0.0
    out["gan.self_ms"] = ms["gan.self"]
    out["sampling.ms"] = ms["sampling"]
    out["metrics.report_ms"] = ms["metrics"]
    for cmd in ("train", "eval", "generate"):
        out[f"cli.{cmd}.ms"] = ms[f"cli.{cmd}"]
    out["cli.self_ms"] = ms["cli.self"]
    out["cli.startup_ms"] = ms["cli.startup"]
    out["trace.round_ms"] = wall_ms
    out["trace.span_cover_pct"] = 100.0 * ms["cli.covered"] / wall_ms if wall_ms else 0.0
    return out


def layer_table(spans_by_command):
    """Rows of (model kind, layer kind, input shape) with fwd/bwd ms and
    calls, output bytes per call and GEMM GFLOP, summed over the commands."""
    rows = {}
    for spans in spans_by_command:
        for i, model, kind, backward, a in _functional_calls(_SpanIndex(spans)):
            row = rows.setdefault((model, kind, tuple(a["x"])), {
                "model_kind": model, "layer_kind": kind,
                "input_shape": "x".join(map(str, a["x"])), "output_shape": "",
                "fwd_calls": 0, "fwd_ms": 0.0, "bwd_calls": 0, "bwd_ms": 0.0,
                "output_bytes": 0, "gflop": 0.0})
            d = (spans[i][2] - spans[i][1]) / 1e6
            flops = _gemm_flops(kind, a) / 1e9
            if backward:
                row["bwd_calls"] += 1
                row["bwd_ms"] += d
                row["gflop"] += 2 * flops
            else:
                row["fwd_calls"] += 1
                row["fwd_ms"] += d
                row["gflop"] += flops
                row["output_shape"] = "x".join(map(str, a["y"]))
                row["output_bytes"] = a["y_bytes"]
    return sorted(rows.values(), key=lambda row: -(row["fwd_ms"] + row["bwd_ms"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
