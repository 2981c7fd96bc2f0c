"""Versioned binary model files.

Layout (all integers little-endian):

    magic   6 bytes  b"ANOMF1"
    version u32      currently 1
    seed    u64      rng seed the graph was built with
    kind    str      model_kind (u16 length + utf-8)
    input   3 * u32  (C, H, W)
    bneck   i32      bottleneck layer index, -1 when unset
    layers  u32 count, then per layer:
                kind u8 (index into LAYER_KINDS), filters/units/kernel/
                stride/padding u32 each, allow_odd u8, activation str,
                target_shape u8 count + u32 each
    arrays  u32 count, then per array:
                name str, role u8 (0 param / 1 buffer), ndim u8,
                dims u32 each, raw float32 data

Round-trips are bitwise exact: raw float32 bytes in, the same bytes out.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .. import atomic
from ..errors import DataError
from .model import LAYER_KINDS, LayerSpec, ModelGraph

MAGIC = b"ANOMF1"
VERSION = 1


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise DataError(f"{self.path}: model file truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        n = struct.unpack("<H", self.take(2))[0]
        return self.take(n).decode("utf-8")


def save_model(model: ModelGraph, path: str | Path) -> None:
    """Write the graph structure plus every param and buffer array, through
    a temp file renamed over `path`."""
    parts = [MAGIC, struct.pack("<IQ", VERSION, model.rng_seed & (2**64 - 1))]
    parts.append(_pack_str(model.model_kind))
    # three u32 slots; flat (D,) inputs ride as (0, 0, D) since a real
    # image shape never has zero channels
    if len(model.input_shape) == 1:
        parts.append(struct.pack("<3I", 0, 0, model.input_shape[0]))
    else:
        parts.append(struct.pack("<3I", *model.input_shape))
    bneck = -1 if model.bottleneck is None else model.bottleneck
    parts.append(struct.pack("<i", bneck))
    parts.append(struct.pack("<I", len(model.specs)))
    for spec in model.specs:
        parts.append(
            struct.pack(
                "<B5IB",
                LAYER_KINDS.index(spec.kind),
                spec.filters,
                spec.units,
                spec.kernel,
                spec.stride,
                spec.padding,
                int(spec.allow_odd),
            )
        )
        parts.append(_pack_str(spec.activation))
        parts.append(struct.pack("<B", len(spec.target_shape)))
        for v in spec.target_shape:
            parts.append(struct.pack("<I", v))
    arrays = [(name, 0, arr) for name, arr in model.params.items()]
    arrays += [(name, 1, arr) for name, arr in model.buffers.items()]
    parts.append(struct.pack("<I", len(arrays)))
    for name, role, arr in arrays:
        if arr.dtype != np.float32:
            raise DataError(f"array {name!r} is {arr.dtype}, model files hold float32")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BB", role, arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    atomic.write_bytes(path, b"".join(parts))


def load_model(path: str | Path) -> ModelGraph:
    """Rebuild a ModelGraph from a file written by save_model."""
    try:
        r = _Reader(Path(path).read_bytes(), path)
    except OSError as e:
        raise DataError(f"{path}: cannot read model file: {e.strerror or e}") from None
    if r.take(6) != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise DataError(f"{path}: unsupported model file version {version}")
    seed = r.u64()
    model_kind = r.string()
    input_shape = (r.u32(), r.u32(), r.u32())
    if input_shape[0] == 0:
        input_shape = (input_shape[2],)
    bneck = r.i32()
    specs = []
    for _ in range(r.u32()):
        kind_idx = r.u8()
        if kind_idx >= len(LAYER_KINDS):
            raise DataError(f"{path}: unknown layer kind code {kind_idx}")
        filters, units, kernel, stride, padding = (r.u32() for _ in range(5))
        allow_odd = bool(r.u8())
        activation = r.string()
        target_shape = tuple(r.u32() for _ in range(r.u8()))
        specs.append(
            LayerSpec(
                kind=LAYER_KINDS[kind_idx],
                filters=filters,
                units=units,
                kernel=kernel,
                stride=stride,
                padding=padding,
                activation=activation,
                target_shape=target_shape,
                allow_odd=allow_odd,
            )
        )
    model = ModelGraph(
        specs,
        input_shape,
        rng_seed=seed,
        model_kind=model_kind,
        bottleneck=None if bneck < 0 else bneck,
    )
    for _ in range(r.u32()):
        name = r.string()
        role = r.u8()
        dims = tuple(r.u32() for _ in range(r.u8()))
        count = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(dims)
        arr = np.asarray(arr, dtype=np.float32).copy()
        target = model.params if role == 0 else model.buffers
        if name not in target:
            raise DataError(f"{path}: array {name!r} does not belong to this graph")
        if target[name].shape != arr.shape:
            raise DataError(
                f"{path}: array {name!r} has shape {arr.shape}, graph expects "
                f"{target[name].shape}"
            )
        target[name] = arr
    return model
