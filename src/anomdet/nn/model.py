"""Layer specifications and the sequential model graph.

A ModelGraph is an ordered list of LayerSpecs plus the parameter arrays
they own. Shapes are inferred once at build time (per-sample, without the
batch axis: (C, H, W) for image layers, (D,) after flatten), so incompatible
stacks fail at construction with the layer index in the message rather than
mid-training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..rng import stream
from . import functional as F

LAYER_KINDS = (
    "conv2d",
    "conv2d_transpose",
    "maxpool2d",
    "dense",
    "activation",
    "batchnorm",
    "flatten",
    "reshape",
)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a sequential model. Only the fields that apply to the
    kind are meaningful; the rest stay at their defaults."""

    kind: str
    filters: int = 0  # conv2d / conv2d_transpose output channels
    units: int = 0  # dense output width
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    activation: str = ""  # kind == "activation"
    target_shape: tuple[int, ...] = ()  # kind == "reshape": (C, H, W)
    allow_odd: bool = False  # kind == "maxpool2d": floor odd extents

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv2d", "conv2d_transpose"):
            if self.kernel < 1 or self.stride < 1 or self.padding < 0 or self.filters < 1:
                raise ShapeError(
                    f"{self.kind}: need kernel/stride/filters >= 1 and padding >= 0"
                )
        if self.kind == "dense" and self.units < 1:
            raise ShapeError("dense: units must be >= 1")
        if self.kind == "activation" and self.activation not in F.ACTIVATIONS:
            raise ShapeError(
                f"activation {self.activation!r} not in {F.ACTIVATIONS}"
            )
        if self.kind == "reshape" and len(self.target_shape) != 3:
            raise ShapeError("reshape: target_shape must be (C, H, W)")


def _infer_one(spec: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Output feature shape of `spec` applied to per-sample `shape`."""
    if spec.kind == "conv2d":
        if len(shape) != 3:
            raise ShapeError(f"conv2d expects (C,H,W) input, got {shape}")
        c, h, w = shape
        oh = F.conv_out_extent(h, spec.kernel, spec.stride, spec.padding)
        ow = F.conv_out_extent(w, spec.kernel, spec.stride, spec.padding)
        return (spec.filters, oh, ow)
    if spec.kind == "conv2d_transpose":
        if len(shape) != 3:
            raise ShapeError(f"conv2d_transpose expects (C,H,W) input, got {shape}")
        c, h, w = shape
        oh = F.conv_transpose_out_extent(h, spec.kernel, spec.stride, spec.padding)
        ow = F.conv_transpose_out_extent(w, spec.kernel, spec.stride, spec.padding)
        return (spec.filters, oh, ow)
    if spec.kind == "maxpool2d":
        if len(shape) != 3:
            raise ShapeError(f"maxpool2d expects (C,H,W) input, got {shape}")
        c, h, w = shape
        if (h % 2 or w % 2) and not spec.allow_odd:
            raise ShapeError(f"maxpool2d: odd extent {h}x{w} without allow_odd")
        if h < 2 or w < 2:
            raise ShapeError(f"maxpool2d: extent {h}x{w} smaller than window")
        return (c, h // 2, w // 2)
    if spec.kind == "dense":
        if len(shape) != 1:
            raise ShapeError(f"dense expects flattened (D,) input, got {shape}")
        return (spec.units,)
    if spec.kind == "flatten":
        return (int(np.prod(shape)),)
    if spec.kind == "reshape":
        want = int(np.prod(spec.target_shape))
        have = int(np.prod(shape))
        if want != have:
            raise ShapeError(
                f"reshape to {spec.target_shape} needs {want} values, have {have}"
            )
        return tuple(spec.target_shape)
    # activation / batchnorm are shape-preserving
    if spec.kind == "batchnorm" and len(shape) != 3:
        raise ShapeError(f"batchnorm expects (C,H,W) input, got {shape}")
    return shape


def _next_activation(specs: list[LayerSpec], i: int) -> str:
    """Name of the first activation after layer i, skipping shape-moving
    layers; '' if another parametric layer (or the end) comes first."""
    for spec in specs[i + 1 :]:
        if spec.kind == "activation":
            return spec.activation
        if spec.kind in ("conv2d", "conv2d_transpose", "dense"):
            return ""
    return ""


class ModelGraph:
    """Sequential stack of layers with owned parameters and buffers.

    Parameters live in `params` keyed `"{layer_index}.{name}"`; batchnorm
    running statistics live in `buffers` under the same scheme. The
    `bottleneck` index (when set) marks the layer whose output is the
    model's latent code.
    """

    def __init__(
        self,
        specs: list[LayerSpec],
        input_shape: tuple[int, int, int],
        rng_seed: int,
        model_kind: str = "generic",
        bottleneck: int | None = None,
    ):
        self.specs = list(specs)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.rng_seed = int(rng_seed)
        self.model_kind = model_kind
        self.bottleneck = bottleneck
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.shapes = self._infer_shapes()
        self._init_params()

    # -- construction -------------------------------------------------

    def _infer_shapes(self) -> list[tuple[int, ...]]:
        shapes = [self.input_shape]
        shape: tuple[int, ...] = self.input_shape
        for i, spec in enumerate(self.specs):
            try:
                shape = _infer_one(spec, shape)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({spec.kind}): {e}") from None
            shapes.append(shape)
        return shapes

    def _init_params(self) -> None:
        for i, spec in enumerate(self.specs):
            in_shape = self.shapes[i]
            rng = stream(self.rng_seed, f"init/{i}")
            act = _next_activation(self.specs, i)
            he = act in ("relu", "leaky_relu")
            if spec.kind == "conv2d":
                in_c = in_shape[0]
                fan_in = in_c * spec.kernel * spec.kernel
                fan_out = spec.filters * spec.kernel * spec.kernel
                limit = np.sqrt(6.0 / fan_in) if he else np.sqrt(6.0 / (fan_in + fan_out))
                w = rng.uniform(-limit, limit, (spec.filters, in_c, spec.kernel, spec.kernel))
                self.params[f"{i}.w"] = w.astype(np.float32)
                self.params[f"{i}.b"] = np.zeros(spec.filters, dtype=np.float32)
            elif spec.kind == "conv2d_transpose":
                in_c = in_shape[0]
                fan_in = in_c * spec.kernel * spec.kernel
                fan_out = spec.filters * spec.kernel * spec.kernel
                limit = np.sqrt(6.0 / fan_in) if he else np.sqrt(6.0 / (fan_in + fan_out))
                w = rng.uniform(-limit, limit, (in_c, spec.filters, spec.kernel, spec.kernel))
                self.params[f"{i}.w"] = w.astype(np.float32)
                self.params[f"{i}.b"] = np.zeros(spec.filters, dtype=np.float32)
            elif spec.kind == "dense":
                fan_in = in_shape[0]
                fan_out = spec.units
                limit = np.sqrt(6.0 / fan_in) if he else np.sqrt(6.0 / (fan_in + fan_out))
                w = rng.uniform(-limit, limit, (spec.units, fan_in))
                self.params[f"{i}.w"] = w.astype(np.float32)
                self.params[f"{i}.b"] = np.zeros(spec.units, dtype=np.float32)
            elif spec.kind == "batchnorm":
                c = in_shape[0]
                self.params[f"{i}.gamma"] = np.ones(c, dtype=np.float32)
                self.params[f"{i}.beta"] = np.zeros(c, dtype=np.float32)
                self.buffers[f"{i}.mean"] = np.zeros(c, dtype=np.float32)
                self.buffers[f"{i}.var"] = np.ones(c, dtype=np.float32)

    # -- execution ----------------------------------------------------

    def forward(self, x: np.ndarray, mode: str = "eval", caches: list | None = None,
                latent: list | None = None):
        """Run the stack. Pass a list for `caches` to retain what backward
        needs; without it the pass is inference-only. A list passed as
        `latent` gets the output of layer `bottleneck` appended."""
        want_rank = len(self.input_shape) + 1
        if x.ndim != want_rank:
            raise ShapeError(
                f"model input must be rank-{want_rank} (batch plus {self.input_shape}), "
                f"got rank {x.ndim}"
            )
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"model input shape {tuple(x.shape[1:])} != expected {self.input_shape}"
            )
        out: np.ndarray = x
        for i, spec in enumerate(self.specs):
            try:
                out, cache = self._forward_layer(i, spec, out, mode)
            except (ShapeError, ValueError) as e:
                raise ShapeError(f"layer {i} ({spec.kind}): {e}") from None
            if caches is not None:
                caches.append(cache)
            if latent is not None and i == self.bottleneck:
                latent.append(out)
        return out

    def _forward_layer(self, i: int, spec: LayerSpec, x: np.ndarray, mode: str):
        if spec.kind == "conv2d":
            return F.conv2d(x, self.params[f"{i}.w"], self.params[f"{i}.b"], spec.stride, spec.padding)
        if spec.kind == "conv2d_transpose":
            return F.conv2d_transpose(
                x, self.params[f"{i}.w"], self.params[f"{i}.b"], spec.stride, spec.padding
            )
        if spec.kind == "maxpool2d":
            return F.maxpool2d(x, allow_odd=spec.allow_odd)
        if spec.kind == "dense":
            return F.dense(x, self.params[f"{i}.w"], self.params[f"{i}.b"])
        if spec.kind == "activation":
            return F.activate(x, spec.activation)
        if spec.kind == "batchnorm":
            return F.batchnorm(
                x,
                self.params[f"{i}.gamma"],
                self.params[f"{i}.beta"],
                self.buffers[f"{i}.mean"],
                self.buffers[f"{i}.var"],
                mode=mode,
            )
        if spec.kind == "flatten":
            n = x.shape[0]
            return x.reshape(n, -1), x.shape
        if spec.kind == "reshape":
            n = x.shape[0]
            return x.reshape((n,) + spec.target_shape), x.shape
        raise ShapeError(f"unknown layer kind {spec.kind!r}")

    def backward(self, dout: np.ndarray, caches: list):
        """Backpropagate. Returns (input gradient, grads dict keyed like
        params)."""
        if len(caches) != len(self.specs):
            raise ShapeError(
                f"cache list has {len(caches)} entries for {len(self.specs)} layers; "
                "run forward with caches first"
            )
        grads: dict[str, np.ndarray] = {}
        d = dout
        for i in range(len(self.specs) - 1, -1, -1):
            spec = self.specs[i]
            cache = caches[i]
            if spec.kind == "conv2d":
                d, dw, db = F.conv2d_backward(d, self.params[f"{i}.w"], cache)
                grads[f"{i}.w"], grads[f"{i}.b"] = dw, db
            elif spec.kind == "conv2d_transpose":
                d, dw, db = F.conv2d_transpose_backward(d, self.params[f"{i}.w"], cache)
                grads[f"{i}.w"], grads[f"{i}.b"] = dw, db
            elif spec.kind == "maxpool2d":
                d = F.maxpool2d_backward(d, cache)
            elif spec.kind == "dense":
                d, dw, db = F.dense_backward(d, self.params[f"{i}.w"], cache)
                grads[f"{i}.w"], grads[f"{i}.b"] = dw, db
            elif spec.kind == "activation":
                d = F.activate_backward(d, cache)
            elif spec.kind == "batchnorm":
                d, dg, dbt = F.batchnorm_backward(d, cache)
                grads[f"{i}.gamma"], grads[f"{i}.beta"] = dg, dbt
            elif spec.kind in ("flatten", "reshape"):
                d = d.reshape(cache)
        return d, grads

    def forward_to(self, stop: int, x: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Output of layer `stop` (inclusive), e.g. the bottleneck code."""
        if not 0 <= stop < len(self.specs):
            raise ShapeError(f"layer index {stop} out of range 0..{len(self.specs) - 1}")
        out = x
        for i, spec in enumerate(self.specs[: stop + 1]):
            out, _ = self._forward_layer(i, spec, out, mode)
        return out
