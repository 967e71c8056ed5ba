"""Binary checkpoint format for full and structurally compressed models.

Layout (all integers little-endian, documented bit-exactly in docs/formats.md):

    magic   b"LSHR"
    version u32 (currently 1)
    meta_len u32, meta_json bytes (canonical JSON: sorted keys, compact separators)
    n_tensors u32
    table: per tensor, sorted by name:
        name_len u16, name utf-8 bytes
        dtype u8 (0 = float64)
        ndim u8, dims u32 each
        offset u64 (absolute file offset of the payload)
    payloads: raw little-endian float64, concatenated in table order

Meta carries the model config, per-block head counts and MLP widths (these
differ from the config after compression), and free-form ``extra`` data such
as the producing stage and compression provenance. Save -> load -> save is
byte-identical because tensor order and meta encoding are canonical, and a
load accepts no other order, encoding or meta fields.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .artifacts import canonical_json, parse_json, write_atomic
from .errors import ConfigError, FormatError
from .model import LoraModel, ModelConfig, parameter_shapes
from .tensor import Tensor

MAGIC = b"LSHR"
VERSION = 1
_DTYPE_F64 = 0
_MAX_DIMS = 64  # the most dims a numpy array may have


def model_meta(model: LoraModel, extra: dict | None = None) -> dict:
    cfg = model.config
    return {
        "config": asdict(cfg),
        "blocks": [
            {"n_heads": b.n_heads, "head_dim": b.head_dim, "mlp_dim": b.mlp_dim}
            for b in model.blocks
        ],
        "extra": extra or {},
    }


def save_checkpoint(model: LoraModel, path: str | Path, extra: dict | None = None) -> None:
    params = model.parameters()
    names = sorted(params)
    meta = canonical_json(model_meta(model, extra))

    header = bytearray()
    header += MAGIC
    header += struct.pack("<I", VERSION)
    header += struct.pack("<I", len(meta))
    header += meta
    header += struct.pack("<I", len(names))

    entries = []
    for name in names:
        shape = params[name].data.shape
        enc = name.encode("utf-8")
        entries.append((name, enc, shape))
    table_size = sum(2 + len(enc) + 1 + 1 + 4 * len(shape) + 8 for _, enc, shape in entries)

    offset = len(header) + table_size
    table = bytearray()
    for name, enc, shape in entries:
        table += struct.pack("<H", len(enc))
        table += enc
        table += struct.pack("<BB", _DTYPE_F64, len(shape))
        for d in shape:
            table += struct.pack("<I", d)
        table += struct.pack("<Q", offset)
        offset += math.prod(shape) * 8

    payloads = [params[name].data.astype("<f8").tobytes() for name in names]
    write_atomic(path, b"".join([header, table, *payloads]))


class _Reader:
    def __init__(self, f, path):
        self.f = f
        self.path = path

    def take(self, n: int) -> bytes:
        out = self.f.read(n)
        if len(out) < n:
            raise FormatError(f"{self.path}: checkpoint truncated")
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _read_meta(r: _Reader) -> dict:
    """Magic, version and the meta block: everything before the tensor table."""
    path = r.path
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    raw = r.take(r.u32())
    meta = parse_json(raw, f"{path}: meta block", FormatError)
    if raw != canonical_json(meta):
        raise FormatError(f"{path}: meta block is not canonical JSON (sorted keys, no whitespace)")
    return meta


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Raw read: (meta, tensors). Validates magic, version, canonical meta
    bytes, at most 64 dims per tensor, bounds (sizes are exact Python ints,
    so no product of dims wraps), unique tensor names in sorted order,
    finite payloads, and the payload layout: each payload starts where the
    table or the previous payload ends, and the last one ends the file."""
    blob = Path(path).read_bytes()
    r = _Reader(io.BytesIO(blob), path)
    meta = _read_meta(r)
    n_tensors = r.u32()
    tensors: dict[str, np.ndarray] = {}
    entries: dict[str, tuple[tuple[int, ...], int]] = {}
    for _ in range(n_tensors):
        try:
            name = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: corrupt tensor name: {e}") from e
        dtype = r.u8()
        if dtype != _DTYPE_F64:
            raise FormatError(f"{path}: unknown dtype code {dtype} for tensor {name}")
        shape = tuple(r.u32() for _ in range(r.u8()))
        if len(shape) > _MAX_DIMS:
            raise FormatError(f"{path}: tensor {name} has {len(shape)} dims, more than {_MAX_DIMS}")
        offset = r.u64()
        if name in entries:
            raise FormatError(f"{path}: duplicate tensor {name}")
        entries[name] = (shape, offset)
    if list(entries) != sorted(entries):
        raise FormatError(f"{path}: tensor table is not sorted by name")
    expected = r.f.tell()
    for name, (shape, offset) in entries.items():
        nbytes = math.prod(shape) * 8
        if offset != expected:
            raise FormatError(f"{path}: payload for tensor {name} starts at byte {offset}, not {expected}")
        if offset + nbytes > len(blob):
            raise FormatError(f"{path}: payload for tensor {name} out of bounds")
        expected += nbytes
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name} holds non-finite values")
        tensors[name] = arr.astype(np.float64)  # writable copy
    if expected != len(blob):
        raise FormatError(f"{path}: {len(blob) - expected} trailing byte(s) after the last payload")
    return meta, tensors


def load_checkpoint(path: str | Path) -> LoraModel:
    meta, tensors = read_checkpoint(path)
    try:
        config = ModelConfig(**{f.name: meta["config"][f.name] for f in fields(ModelConfig)})
        block_dims = [(bm["n_heads"], bm["head_dim"], bm["mlp_dim"]) for bm in meta["blocks"]]
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: meta missing field {e}") from e
    except ConfigError as e:
        raise FormatError(f"{path}: invalid config meta: {e}") from e
    for i, dims in enumerate(block_dims):
        if not all(type(d) is int and d >= 0 for d in dims):
            raise FormatError(f"{path}: block {i} meta has invalid dims {list(dims)}")

    if len(block_dims) != config.n_layers:
        raise FormatError(
            f"{path}: meta lists {len(block_dims)} blocks, config n_layers is {config.n_layers}"
        )

    shapes = parameter_shapes(config, block_dims)
    for name, shape in shapes.items():
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name}")
        if tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, the meta implies {shape}"
            )
    # named before any extra tensor: a block of 0 heads lists no attention tensors to match
    for i, (_, head_dim, _) in enumerate(block_dims):
        if head_dim != config.head_dim:
            raise FormatError(
                f"{path}: block {i} head_dim {head_dim} is not config dim / n_heads = {config.head_dim}"
            )
    unknown = sorted(set(tensors) - set(shapes))
    if unknown:
        raise FormatError(f"{path}: tensor {unknown[0]} has no slot in the model the meta describes")
    model = LoraModel(config, {name: Tensor(tensors[name]) for name in shapes})
    if model_meta(model, meta.get("extra")) != meta:
        raise FormatError(f"{path}: meta holds fields other than the ones save writes for this model")
    model.set_trainable("none")
    return model


def checkpoint_extra(path: str | Path) -> dict:
    """The ``extra`` meta of a checkpoint, read from its header alone."""
    with open(path, "rb") as f:
        return _read_meta(_Reader(f, path)).get("extra", {})
