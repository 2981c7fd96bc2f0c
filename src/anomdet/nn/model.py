"""Layer specifications and the sequential model graph.

A layer kind is one entry of `LAYERS`: its field checks, its shape rule,
its weight layout, the names of the arrays it owns, and its forward and
backward passes. The graph itself holds no per-kind code.

A ModelGraph is an ordered list of LayerSpecs plus the parameter arrays
they own. Shapes are inferred once at build time (per-sample, without the
batch axis: (C, H, W) for image layers, (D,) after flatten), so incompatible
stacks fail at construction with the layer index in the message rather than
mid-training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..rng import stream
from . import functional as F


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
        if self.kind not in LAYERS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        LAYERS[self.kind].check(self)


class _Layer:
    """One layer kind.

    `forward(spec, x, arrays, mode)` returns (y, cache), `arrays` being the
    layer's params then buffers in declared order, and `backward(spec, dy,
    params, cache, **want)` returns (dx, *param grads). `want` holds the
    `params` and `input_grad` flags of `ModelGraph.backward`: a kind with
    params passes them on to its kernel, which returns None for what it
    skips, and the other kinds ignore them. Both look their kernel
    up on `F` when called, so a patched or wrapped `functional` name reaches
    every graph. `shape(spec, input shape)` gives the output shape and
    `check(spec)` raises ShapeError on fields the kind cannot use. A kind
    with `weight(spec, input shape) -> (w shape, fan_in, fan_out)` owns `w`
    and a zero bias `b`, with He init before a ReLU and Glorot otherwise;
    `fill` holds the start values of any other per-channel params and
    buffers. `activates` marks the kind that applies `spec.activation`.
    """

    def __init__(self, forward, backward, shape=lambda s, shape: shape, check=lambda s: None,
                 weight=None, params=(), buffers=(), fill=(), activates=False):
        self.forward, self.backward, self.shape, self.check = forward, backward, shape, check
        self.weight, self.params, self.buffers = weight, params, buffers
        self.fill, self.activates = fill, activates


def _image(s: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) != 3:
        raise ShapeError(f"{s.kind} expects (C,H,W) input, got {shape}")
    return shape


def _check_conv(s: LayerSpec) -> None:
    if s.kernel < 1 or s.stride < 1 or s.padding < 0 or s.filters < 1:
        raise ShapeError(f"{s.kind}: need kernel/stride/filters >= 1 and padding >= 0")


def _conv_shape(s: LayerSpec, shape: tuple[int, ...], extent) -> tuple[int, ...]:
    _, h, w = _image(s, shape)
    return (s.filters, *(extent(n, s.kernel, s.stride, s.padding) for n in (h, w)))


def _conv_weight(s: LayerSpec, shape: tuple[int, ...], transposed: bool = False):
    k2 = s.kernel * s.kernel
    io = (shape[0], s.filters) if transposed else (s.filters, shape[0])
    return io + (s.kernel, s.kernel), shape[0] * k2, s.filters * k2


def _maxpool2d_shape(s: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    c, h, w = _image(s, shape)
    if (h % 2 or w % 2) and not s.allow_odd:
        raise ShapeError(f"maxpool2d: odd extent {h}x{w} without allow_odd")
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d: extent {h}x{w} smaller than window")
    return (c, h // 2, w // 2)


def _check_dense(s: LayerSpec) -> None:
    if s.units < 1:
        raise ShapeError("dense: units must be >= 1")


def _dense_shape(s: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) != 1:
        raise ShapeError(f"dense expects flattened (D,) input, got {shape}")
    return (s.units,)


def _check_activation(s: LayerSpec) -> None:
    if s.activation not in F.ACTIVATIONS:
        raise ShapeError(f"activation {s.activation!r} not in {F.ACTIVATIONS}")


def _check_reshape(s: LayerSpec) -> None:
    if len(s.target_shape) != 3:
        raise ShapeError("reshape: target_shape must be (C, H, W)")


def _reshape_shape(s: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    want = int(np.prod(s.target_shape))
    have = int(np.prod(shape))
    if want != have:
        raise ShapeError(f"reshape to {s.target_shape} needs {want} values, have {have}")
    return tuple(s.target_shape)


def _unshape(s, dy, a, cache, **_):  # flatten / reshape backward: restore the input shape
    return (dy.reshape(cache),)


# The order gives each kind its code in model files: append, never reorder.
LAYERS: dict[str, _Layer] = {
    "conv2d": _Layer(
        lambda s, x, a, mode: F.conv2d(x, a[0], a[1], s.stride, s.padding),
        lambda s, dy, a, cache, **want: F.conv2d_backward(dy, a[0], cache, **want),
        shape=lambda s, shape: _conv_shape(s, shape, F.conv_out_extent),
        check=_check_conv, weight=_conv_weight, params=("w", "b")),
    "conv2d_transpose": _Layer(
        lambda s, x, a, mode: F.conv2d_transpose(x, a[0], a[1], s.stride, s.padding),
        lambda s, dy, a, cache, **want: F.conv2d_transpose_backward(dy, a[0], cache, **want),
        shape=lambda s, shape: _conv_shape(s, shape, F.conv_transpose_out_extent),
        check=_check_conv, weight=lambda s, shape: _conv_weight(s, shape, transposed=True),
        params=("w", "b")),
    "maxpool2d": _Layer(
        lambda s, x, a, mode: F.maxpool2d(x, allow_odd=s.allow_odd),
        lambda s, dy, a, cache, **_: (F.maxpool2d_backward(dy, cache),),
        shape=_maxpool2d_shape),
    "dense": _Layer(
        lambda s, x, a, mode: F.dense(x, a[0], a[1]),
        lambda s, dy, a, cache, **want: F.dense_backward(dy, a[0], cache, **want),
        shape=_dense_shape, check=_check_dense, params=("w", "b"),
        weight=lambda s, shape: ((s.units, shape[0]), shape[0], s.units)),
    "activation": _Layer(
        lambda s, x, a, mode: F.activate(x, s.activation),
        lambda s, dy, a, cache, **_: (F.activate_backward(dy, cache),),
        check=_check_activation, activates=True),
    "batchnorm": _Layer(
        lambda s, x, a, mode: F.batchnorm(x, *a, mode=mode),
        lambda s, dy, a, cache, **want: F.batchnorm_backward(dy, cache, **want),
        shape=_image, params=("gamma", "beta"), buffers=("mean", "var"),
        fill=(1.0, 0.0, 0.0, 1.0)),
    "flatten": _Layer(
        lambda s, x, a, mode: (x.reshape(x.shape[0], -1), x.shape),
        _unshape, shape=lambda s, shape: (int(np.prod(shape)),)),
    "reshape": _Layer(
        lambda s, x, a, mode: (x.reshape((x.shape[0],) + s.target_shape), x.shape),
        _unshape, shape=_reshape_shape, check=_check_reshape),
}
LAYER_KINDS = tuple(LAYERS)


def _next_activation(specs: list[LayerSpec], i: int) -> str:
    """Name of the first activation after layer i, skipping shape-moving
    layers; '' if another weighted layer (or the end) comes first."""
    for spec in specs[i + 1 :]:
        kind = LAYERS[spec.kind]
        if kind.activates:
            return spec.activation
        if kind.weight is not None:
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
        self._layers = []  # (spec, kind, param keys, buffer keys) per layer
        for i, spec in enumerate(self.specs):
            kind = LAYERS[spec.kind]
            keys = [[f"{i}.{n}" for n in names] for names in (kind.params, kind.buffers)]
            self._layers.append((spec, kind, *keys))

    # -- construction -------------------------------------------------

    def _infer_shapes(self) -> list[tuple[int, ...]]:
        shapes = [self.input_shape]
        for i, spec in enumerate(self.specs):
            try:
                shapes.append(LAYERS[spec.kind].shape(spec, shapes[-1]))
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({spec.kind}): {e}") from None
        return shapes

    def _init_params(self) -> None:
        for i, spec in enumerate(self.specs):
            kind = LAYERS[spec.kind]
            if kind.weight is not None:  # Glorot uniform, He before a ReLU
                shape, fan_in, fan_out = kind.weight(spec, self.shapes[i])
                he = _next_activation(self.specs, i) in ("relu", "leaky_relu")
                limit = np.sqrt(6.0 / fan_in) if he else np.sqrt(6.0 / (fan_in + fan_out))
                w = stream(self.rng_seed, f"init/{i}").uniform(-limit, limit, shape)
                self.params[f"{i}.w"] = w.astype(np.float32)
                self.params[f"{i}.b"] = np.zeros(spec.filters or spec.units, dtype=np.float32)
                continue
            stores = [self.params] * len(kind.params) + [self.buffers] * len(kind.buffers)
            for store, name, value in zip(stores, kind.params + kind.buffers, kind.fill):
                store[f"{i}.{name}"] = np.full(self.shapes[i][0], value, dtype=np.float32)

    # -- execution ----------------------------------------------------

    def forward(self, x: np.ndarray, mode: str = "eval", caches: list | None = None,
                latent: list | None = None):
        """Run the stack. Pass a list for `caches` to retain what backward
        needs; without it the pass is inference-only. A list passed as
        `latent` gets the output of layer `bottleneck` appended."""
        return self._run(x, len(self.specs), mode, caches, latent)

    def forward_to(self, stop: int, x: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Output of layer `stop` (inclusive), e.g. the bottleneck code."""
        if not 0 <= stop < len(self.specs):
            raise ShapeError(f"layer index {stop} out of range 0..{len(self.specs) - 1}")
        return self._run(x, stop + 1, mode, None, None)

    def _run(self, x: np.ndarray, end: int, mode: str, caches: list | None,
             latent: list | None) -> np.ndarray:
        """Layers 0..end-1 on a checked input batch."""
        want_rank = len(self.input_shape) + 1
        if x.ndim != want_rank:
            raise ShapeError(f"model input must be rank-{want_rank} (batch plus "
                             f"{self.input_shape}), got rank {x.ndim}")
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(f"model input shape {tuple(x.shape[1:])} != expected "
                             f"{self.input_shape}")
        out: np.ndarray = x
        params, buffers = self.params, self.buffers
        for i, (spec, kind, param_keys, buffer_keys) in enumerate(self._layers[:end]):
            arrays = [*map(params.__getitem__, param_keys), *map(buffers.__getitem__, buffer_keys)]
            try:
                out, cache = kind.forward(spec, out, arrays, mode)
            except (ShapeError, ValueError) as e:
                raise ShapeError(f"layer {i} ({spec.kind}): {e}") from None
            if caches is not None:
                caches.append(cache)
            if latent is not None and i == self.bottleneck:
                latent.append(out)
        return out

    def backward(self, dout: np.ndarray, caches: list, *, params: bool = True,
                 input_grad: bool = True):
        """Backpropagate. Returns (input gradient, grads dict keyed like
        params). Pops each layer's cache off `caches`, freeing it before the
        layer below runs, so the list ends empty: run forward anew to reuse.

        `params=False` computes no parameter gradient (the dict comes back
        empty) and `input_grad=False` no input gradient (None comes back);
        the layers below the lowest one with params then do not run at all.
        A skipped gradient is never computed, and every gradient that is
        has the bits of a full backward."""
        if len(caches) != len(self.specs):
            raise ShapeError(f"cache list has {len(caches)} entries for {len(self.specs)} "
                             "layers; run forward with caches first")
        stop = 0  # the lowest layer that runs
        if not input_grad:
            owners = [i for i, layer in enumerate(self._layers) if layer[2]]
            stop = owners[0] if params and owners else len(self._layers)
        grads: dict[str, np.ndarray] = {}
        d = dout
        store = self.params
        for i in range(len(self._layers) - 1, stop - 1, -1):
            spec, kind, param_keys, _ = self._layers[i]
            d, *layer_grads = kind.backward(spec, d, [store[k] for k in param_keys],
                                            caches.pop(), params=params,
                                            input_grad=input_grad or i > stop)
            if params:
                grads.update(zip(param_keys, layer_grads))
        caches.clear()
        return (d if input_grad else None), grads

    # -- snapshots ----------------------------------------------------

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of every param and buffer, keyed as in `params`/`buffers`."""
        return {k: v.copy() for store in (self.params, self.buffers) for k, v in store.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Copy a `snapshot` back into the existing param and buffer arrays."""
        for store in (self.params, self.buffers):
            for k, v in store.items():
                v[...] = snapshot[k]
