"""File formats: named-tensor files and run reports.

A tensor file carries a small text manifest (a header line, one line per
tensor: name, element type, shape, then ``end``) followed by the
concatenated row-major little-endian payloads. A model checkpoint is a
tensor file of float64 parameters. Reports are sorted-key JSON so a
deterministic run writes byte-identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import StructuralError

__all__ = [
    "write_tensors",
    "read_tensors",
    "write_json_report",
    "write_csv",
]

_TENSOR_HEADER = b"apranking-tensors 1\n"
_DTYPES = {"f32": "<f4", "f64": "<f8"}
# bytes read at a time while looking for the end of a tensor manifest
_MANIFEST_CHUNK = 1 << 16


def write_tensors(path, tensors: dict) -> None:
    """Write named float arrays, 0-d ones included; dtype is preserved for
    float32/float64 and everything else is stored as float64."""
    lines = []
    payloads = []
    for name, arr in tensors.items():
        if any(ch.isspace() for ch in name) or not name:
            raise StructuralError(f"tensor name {name!r} must be non-empty without spaces")
        arr = np.asarray(arr)
        code = "f32" if arr.dtype == np.float32 else "f64"
        # np.ascontiguousarray would promote a 0-d array to 1-d
        arr = np.asarray(arr, dtype=_DTYPES[code], order="C")
        lines.append(f"{name} {code} {','.join(str(s) for s in arr.shape) or '()'}")
        payloads.append(arr.tobytes())
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_HEADER + ("\n".join(lines) + "\n").encode("ascii"))
        for blob in payloads:
            fh.write(blob)


def read_tensors(path) -> dict:
    """Inverse of :func:`write_tensors`; round-trips bit-exactly, shape
    included. A file whose first bytes are not the header is rejected
    before the rest is read, and each payload is read straight into its own
    array, so no copy of the file is held."""
    with open(path, "rb") as fh:
        head = bytearray()
        end = -1
        while end < 0:
            chunk = fh.read(_MANIFEST_CHUNK)
            if not chunk:
                raise StructuralError(f"{path}: missing manifest terminator")
            head += chunk
            if head[: len(_TENSOR_HEADER)] != _TENSOR_HEADER[: len(head)]:
                raise StructuralError(f"{path}: not an apranking tensor file")
            end = head.find(b"\nend\n", max(len(head) - len(chunk) - 4, 0))
        try:
            lines = head[:end].decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            raise StructuralError(f"{path}: manifest is not ASCII") from exc
        size = os.fstat(fh.fileno()).st_size
        offset = fh.seek(end + len(b"\nend\n"))
        out = {}
        for line in lines[1:]:
            try:
                name, code, shape_s = line.split(" ")
                shape = () if shape_s == "()" else tuple(int(s) for s in shape_s.split(","))
                dtype = np.dtype(_DTYPES[code])
                if any(s < 0 for s in shape):
                    raise ValueError("negative extent")
            except (ValueError, KeyError) as exc:
                raise StructuralError(f"{path}: bad manifest line {line!r}") from exc
            if name in out:
                raise StructuralError(f"{path}: tensor {name!r} named twice")
            nbytes = math.prod(shape) * dtype.itemsize
            if nbytes > size - offset:
                raise StructuralError(f"{path}: payload truncated for tensor {name!r}")
            try:
                arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:  # a zero extent beside extents too large to address
                raise StructuralError(f"{path}: tensor {name!r} has shape {shape}") from exc
            if fh.readinto(arr) != nbytes:
                raise StructuralError(f"{path}: payload truncated for tensor {name!r}")
            out[name] = arr
            offset += nbytes
    if offset != size:
        raise StructuralError(f"{path}: {size - offset} trailing payload bytes")
    return out


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
