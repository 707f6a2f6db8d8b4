"""Binary checkpoint format.

Layout: magic "RDCK", u32 format version, u64 manifest length, JSON
manifest (tensor name -> shape/dtype/offset, plus free-form metadata),
then raw little-endian float32 payloads.  Offsets are relative to the end
of the manifest.  Loading a saved file reproduces the arrays bit for bit;
the encoder fingerprint pins the frozen encoder across fine-tuning.  A save
replaces the target only once the whole file is written, and every
malformed file raises CheckpointError.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"RDCK"
VERSION = 1
HEADER = struct.Struct("<IQ")  # format version, manifest length


class CheckpointError(RuntimeError):
    pass


def encoder_fingerprint(params: dict[str, Tensor] | dict[str, np.ndarray]) -> str:
    """SHA-256 over the encoder tensors (names and little-endian f32 bytes)."""
    arrays = _as_arrays(params)
    h = hashlib.sha256()
    for name in sorted(n for n in arrays if n.startswith("enc.")):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())
    return h.hexdigest()


def _as_arrays(params: dict[str, Tensor] | dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {n: (p.data if isinstance(p, Tensor) else p) for n, p in params.items()}


def save_checkpoint(path: Path, params: dict, meta: dict | None = None) -> None:
    arrays = _as_arrays(params)
    manifest: dict = {"tensors": {}, "meta": dict(meta or {})}
    manifest["meta"].setdefault("encoder_fingerprint", encoder_fingerprint(arrays))
    offset = 0
    payloads = []  # the arrays themselves where they are C-contiguous <f4 already, not byte copies
    for name in sorted(arrays):
        payloads.append(np.ascontiguousarray(arrays[name], dtype="<f4"))
        manifest["tensors"][name] = {"shape": list(payloads[-1].shape), "dtype": "f4", "offset": offset}
        offset += payloads[-1].nbytes
    blob = json.dumps(manifest, sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(HEADER.pack(VERSION, len(blob)))
            fh.write(blob)
            for arr in payloads:
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    """(arrays, metadata) of a checkpoint; the arrays are read-only views of the file's bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:  # missing, a directory, unreadable
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc.strerror or exc})") from None
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    body = 4 + HEADER.size
    if len(raw) < body:
        raise CheckpointError(f"{path}: truncated header")
    version, manifest_len = HEADER.unpack_from(raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint format version {version}")
    if body + manifest_len > len(raw):
        raise CheckpointError(f"{path}: manifest runs past the end of the file")
    try:
        manifest = json.loads(raw[body:body + manifest_len])
        tensors, meta = manifest["tensors"], manifest["meta"]
    except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8/JSON, missing key, not an object
        raise CheckpointError(f"{path}: unreadable manifest ({exc!r})") from None
    if not isinstance(tensors, dict) or not isinstance(meta, dict):
        raise CheckpointError(f"{path}: manifest tensors and meta must be objects")
    base = body + manifest_len  # payload offsets count from here
    arrays: dict[str, np.ndarray] = {}
    spans = []
    for name, entry in tensors.items():
        if not (isinstance(entry, dict) and entry.get("dtype") == "f4"
                and isinstance(entry.get("shape"), list) and type(entry.get("offset")) is int
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise CheckpointError(f"{path}: malformed manifest entry for tensor {name}")
        shape = tuple(entry["shape"])
        start, count = entry["offset"], math.prod(shape)
        end = start + count * 4
        if start < 0 or base + end > len(raw):
            raise CheckpointError(f"{path}: tensor {name} payload out of bounds")
        spans.append((start, end, name))
        arrays[name] = np.frombuffer(raw, "<f4", count, base + start).reshape(shape)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CheckpointError(f"{path}: overlapping payloads for {n0} and {n1}")
    return arrays, meta


def params_from_arrays(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Frozen (no-grad) float32 tensors, each a writeable copy of its array."""
    return {name: Tensor(arr.astype(np.float32)) for name, arr in arrays.items()}
