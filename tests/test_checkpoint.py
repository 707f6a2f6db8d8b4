import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refvae import checkpoint
from refvae.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    encoder_fingerprint,
    load_checkpoint,
    params_from_arrays,
    save_checkpoint,
)
from refvae.vae import VaeConfig, init_vae_params


@pytest.fixture(scope="module")
def params():
    return init_vae_params(VaeConfig(), np.random.default_rng(0))


def test_roundtrip_bit_exact(params, tmp_path):
    path = tmp_path / "model.ckpt"
    empty = {"zz.empty": np.zeros((0, 3), np.float32)}  # sorts last: its offset is the payload's end
    save_checkpoint(path, {**params, **empty}, {"kind": "baseline", "config_hash": "abc"})
    arrays, meta = load_checkpoint(path)
    assert meta["kind"] == "baseline"
    assert sorted(arrays) == sorted(params) + ["zz.empty"]
    assert arrays["zz.empty"].shape == (0, 3)
    for name in params:
        assert np.array_equal(arrays[name], params[name].data)


def test_save_is_byte_deterministic(params, tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params, {"kind": "baseline"})
    save_checkpoint(b, params, {"kind": "baseline"})
    assert a.read_bytes() == b.read_bytes()


def test_save_writes_magic_header_manifest_then_sorted_payloads(tmp_path):
    path = tmp_path / "small.ckpt"
    arrays = {"b.w": np.arange(6, dtype=np.float32).reshape(2, 3),
              "a.b": np.array([0.5, -2.0]),  # float64: saved as <f4
              "c.t": np.array([[1, 2], [3, 4]], np.float32).T}  # not C-contiguous: saved in C order
    save_checkpoint(path, arrays, {"kind": "baseline", "encoder_fingerprint": "pinned"})
    manifest = (b'{"meta": {"encoder_fingerprint": "pinned", "kind": "baseline"}, "tensors": '
                b'{"a.b": {"dtype": "f4", "offset": 0, "shape": [2]}, '
                b'"b.w": {"dtype": "f4", "offset": 8, "shape": [2, 3]}, '
                b'"c.t": {"dtype": "f4", "offset": 32, "shape": [2, 2]}}}')
    payloads = np.array([0.5, -2.0, 0, 1, 2, 3, 4, 5, 1, 3, 2, 4], "<f4").tobytes()
    assert path.read_bytes() == b"RDCK" + struct.pack("<IQ", 1, len(manifest)) + manifest + payloads


def test_version_mismatch_fails_loudly(params, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump version field
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_fingerprint_tracks_encoder_only(params):
    arrays = {n: p.data for n, p in params.items()}
    fp = encoder_fingerprint(arrays)
    poked_dec = dict(arrays)
    poked_dec["dec.in.w"] = arrays["dec.in.w"] + 1.0
    assert encoder_fingerprint(poked_dec) == fp
    poked_enc = dict(arrays)
    poked_enc["enc.in.w"] = arrays["enc.in.w"] + 1.0
    assert encoder_fingerprint(poked_enc) != fp


def test_fingerprint_in_meta_by_default(params, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    _, meta = load_checkpoint(path)
    assert meta["encoder_fingerprint"] == encoder_fingerprint(
        {n: p.data for n, p in params.items()})


def test_params_from_arrays_copies(params):
    arrays = {n: p.data for n, p in params.items()}
    restored = params_from_arrays(arrays)
    restored["dec.in.w"].data[...] = 0.0
    assert np.any(arrays["dec.in.w"] != 0.0)
    assert not restored["dec.in.w"].requires_grad


def test_loaded_arrays_are_read_only_and_params_from_arrays_copies_them(params, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    arrays, _ = load_checkpoint(path)
    assert not any(a.flags.writeable for a in arrays.values())  # views of the file's bytes
    with pytest.raises(ValueError, match="read-only"):
        arrays["dec.in.w"][...] = 0.0
    restored = params_from_arrays(arrays)
    assert all(t.data.flags.writeable and not np.shares_memory(t.data, arrays[n])
               for n, t in restored.items())
    restored["dec.in.w"].data[...] = 0.0
    assert np.array_equal(arrays["dec.in.w"], params["dec.in.w"].data)


def _manifest_file(manifest, payload: bytes = b"", manifest_len: int | None = None) -> bytes:
    blob = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    size = len(blob) if manifest_len is None else manifest_len
    return MAGIC + struct.pack("<IQ", VERSION, size) + blob + payload


def _entry(**overrides) -> dict:
    return {"tensors": {"a": {"shape": [2], "dtype": "f4", "offset": 0, **overrides}}, "meta": {}}


@pytest.mark.parametrize("raw", [
    pytest.param(MAGIC + b"\x01\x00\x00", id="short-header"),
    pytest.param(_manifest_file({"tensors": {}, "meta": {}}, manifest_len=1 << 40), id="manifest-past-eof"),
    pytest.param(_manifest_file(b"{not json"), id="bad-json"),
    pytest.param(_manifest_file(b"\xff\xfe"), id="bad-utf8"),
    pytest.param(_manifest_file([1, 2]), id="manifest-not-object"),
    pytest.param(_manifest_file({"meta": {}}), id="no-tensors"),
    pytest.param(_manifest_file({"tensors": {}}), id="no-meta"),
    pytest.param(_manifest_file({"tensors": [], "meta": {}}), id="tensors-not-object"),
    pytest.param(_manifest_file(_entry(shape=2), bytes(8)), id="shape-not-list"),
    pytest.param(_manifest_file(_entry(shape=[2.0]), bytes(8)), id="shape-not-int"),
    pytest.param(_manifest_file(_entry(shape=[-2]), bytes(8)), id="shape-negative"),
    pytest.param(_manifest_file(_entry(offset="0"), bytes(8)), id="offset-not-int"),
    pytest.param(_manifest_file(_entry(offset=4), bytes(8)), id="offset-out-of-bounds"),
    pytest.param(_manifest_file(_entry(dtype="f8"), bytes(8)), id="unknown-dtype"),
    pytest.param(_manifest_file({"tensors": {"a": {"shape": [2], "dtype": "f4", "offset": 0},
                                             "b": {"shape": [2], "dtype": "f4", "offset": 4}}, "meta": {}},
                                bytes(12)), id="overlapping-payloads"),
])
def test_malformed_file_raises_checkpoint_error(raw, tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


_SMALL = {"enc.a": np.arange(6, dtype=np.float32).reshape(2, 3), "dec.b": np.ones(4, np.float32)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupted_file_loads_cleanly_or_raises_checkpoint_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(path, _SMALL, {"kind": "baseline"})
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(raw))
    try:
        arrays, meta = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(meta, dict)
    assert all(a.dtype == np.float32 for a in arrays.values())


class _FailingFile:
    """File stand-in whose writes fail once the header is out."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 3:
            raise OSError("disk full")
        return self.fh.write(data)


def test_failed_save_keeps_previous_checkpoint(params, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, {"kind": "baseline"})
    before = path.read_bytes()
    bumped = {n: p.data + 1.0 for n, p in params.items()}
    monkeypatch.setattr(checkpoint, "open", lambda p, mode: _FailingFile(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, bumped, {"kind": "baseline"})
    assert path.read_bytes() == before
    arrays, meta = load_checkpoint(path)
    assert meta["kind"] == "baseline"
    assert np.array_equal(arrays["dec.in.w"], params["dec.in.w"].data)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_unreadable_path_raises_checkpoint_error(tmp_path, kind):
    path = tmp_path / "x.ckpt"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(path)
