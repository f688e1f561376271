"""File formats: named-tensor files, model checkpoints, and run reports.

Tensor files carry a small text manifest (one line per tensor: name, element
type, shape) followed by the concatenated row-major little-endian payloads.
Checkpoints are versioned binary: magic, version, a hash of the canonical
config JSON, then named float64 tensors. Reports are sorted-key JSON so a
deterministic run writes byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import StructuralError

__all__ = [
    "write_tensors",
    "read_tensors",
    "write_checkpoint",
    "read_checkpoint",
    "config_hash",
    "write_json_report",
    "write_csv",
]

_TENSOR_HEADER = "apranking-tensors 1"
_DTYPES = {"f32": "<f4", "f64": "<f8"}
_CKPT_MAGIC = b"APRKCKPT"
_CKPT_VERSION = 1


def write_tensors(path, tensors: dict) -> None:
    """Write named float arrays; dtype is preserved for float32/float64 and
    everything else is stored as float64."""
    lines = [_TENSOR_HEADER]
    payloads = []
    for name, arr in tensors.items():
        if any(ch.isspace() for ch in name) or not name:
            raise StructuralError(f"tensor name {name!r} must be non-empty without spaces")
        arr = np.asarray(arr)
        code = "f32" if arr.dtype == np.float32 else "f64"
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        shape = ",".join(str(s) for s in arr.shape) or "1"
        if arr.ndim == 0:
            arr = arr.reshape(1)
        lines.append(f"{name} {code} {shape}")
        payloads.append(arr.tobytes())
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for blob in payloads:
            fh.write(blob)


def _tensor_at(path, raw: bytes, offset: int, dtype: np.dtype, shape: tuple, name: str):
    """The tensor ``name`` stored at ``offset`` of a file's bytes, and the
    offset after it. One copy out of the bytes, so the result owns writable
    memory."""
    count = math.prod(shape)
    if count * dtype.itemsize > len(raw) - offset:
        raise StructuralError(f"{path}: payload truncated for tensor {name!r}")
    try:
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
    except ValueError as exc:  # a zero extent beside extents too large to address
        raise StructuralError(f"{path}: tensor {name!r} has shape {shape}") from exc
    return arr.copy(), offset + count * dtype.itemsize


def read_tensors(path) -> dict:
    """Inverse of :func:`write_tensors`; round-trips bit-exactly."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\nend\n")
    if end < 0:
        raise StructuralError(f"{path}: missing manifest terminator")
    try:
        lines = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{path}: manifest is not ASCII") from exc
    if not lines or lines[0] != _TENSOR_HEADER:
        raise StructuralError(f"{path}: not an apranking tensor file")
    out = {}
    offset = end + len(b"\nend\n")
    for line in lines[1:]:
        try:
            name, code, shape_s = line.split(" ")
            shape = tuple(int(s) for s in shape_s.split(","))
            dtype = np.dtype(_DTYPES[code])
            if min(shape) < 0:
                raise ValueError("negative extent")
        except (ValueError, KeyError) as exc:
            raise StructuralError(f"{path}: bad manifest line {line!r}") from exc
        out[name], offset = _tensor_at(path, raw, offset, dtype, shape, name)
    if offset != len(raw):
        raise StructuralError(f"{path}: {len(raw) - offset} trailing payload bytes")
    return out


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_checkpoint(path, tensors: dict, config: dict) -> None:
    """Versioned binary checkpoint of float64 parameter tensors."""
    digest = bytes.fromhex(config_hash(config))
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(digest)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            # np.ascontiguousarray would promote 0-d parameters to 1-d
            arr = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def read_checkpoint(path) -> tuple[dict, str]:
    """Returns (tensors, config_hash_hex). A file cut short, or with bytes
    after its last tensor, raises StructuralError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _CKPT_MAGIC:
        raise StructuralError(f"{path}: not an apranking checkpoint")
    offset = 8

    def unpack(fmt: str) -> tuple:
        nonlocal offset
        size = struct.calcsize(fmt)
        if size > len(raw) - offset:
            raise StructuralError(f"{path}: truncated at byte {len(raw)}")
        offset += size
        return struct.unpack_from(fmt, raw, offset - size)

    (version,) = unpack("<I")
    if version != _CKPT_VERSION:
        raise StructuralError(f"{path}: unsupported checkpoint version {version}")
    digest, count = unpack("<32sI")
    tensors = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = unpack(f"<{name_len}s")[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StructuralError(f"{path}: tensor name is not UTF-8") from exc
        (ndim,) = unpack("<I")
        shape = unpack(f"<{ndim}Q")
        tensors[name], offset = _tensor_at(path, raw, offset, np.dtype("<f8"), shape, name)
    if offset != len(raw):
        raise StructuralError(f"{path}: {len(raw) - offset} trailing bytes after the last tensor")
    return tensors, digest.hex()


def write_json_report(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: list, rows) -> None:
    """Plain CSV with shortest-round-trip float formatting."""

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row.get(col)) for col in header) + "\n")
