"""Tensor files, checkpoints, and report writers."""

import numpy as np
import pytest

from apranking.errors import StructuralError
from apranking.tensorio import (
    config_hash,
    read_checkpoint,
    read_tensors,
    write_checkpoint,
    write_csv,
    write_tensors,
)


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "scores": rng.standard_normal((3, 5)),
            "labels": rng.integers(0, 2, size=(3, 5)).astype(np.float64),
            "single": np.float32(rng.standard_normal((2, 2, 2))),
        }
        path = tmp_path / "t.tensors"
        write_tensors(path, tensors)
        loaded = read_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].dtype == np.asarray(tensors[name]).dtype
            assert np.array_equal(loaded[name], np.asarray(tensors[name]))

    def test_double_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"x": rng.standard_normal((4, 4))}
        p1, p2 = tmp_path / "a.tensors", tmp_path / "b.tensors"
        write_tensors(p1, tensors)
        write_tensors(p2, read_tensors(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.tensors"
        write_tensors(path, {"x": np.zeros(4)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(StructuralError):
            read_tensors(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tensors"
        path.write_bytes(b"not a tensor file\nend\n")
        with pytest.raises(StructuralError):
            read_tensors(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw.replace(b"\nend\n", b"\n"), "missing manifest terminator"),
            (lambda raw: raw[:-8], "payload truncated for tensor 'x'"),
            (lambda raw: raw + b"\0" * 3, "3 trailing payload bytes"),
            (lambda raw: raw.replace(b"x f64 4", b"x f64 -1,-4"), "bad manifest line 'x f64 -1,-4'"),
            (lambda raw: raw.replace(b"x f64", b"\xff f64"), "manifest is not ASCII"),
            # 2^32 x 2^32 elements overflow an int64 product to 0
            (lambda raw: raw.replace(b"x f64 4", b"x f64 4294967296,4294967296"), "payload truncated"),
            (lambda raw: raw.replace(b"x f64 4", b"x f64 0,4611686018427387904"), r"shape \(0, 4611686018427387904\)"),
        ],
        ids=["terminator", "truncated", "trailing", "negative extent", "non-ascii", "overflow", "unaddressable"],
    )
    def test_rejection_messages(self, tmp_path, edit, message):
        path = tmp_path / "t.tensors"
        write_tensors(path, {"x": np.zeros(4)})
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(StructuralError, match=message):
            read_tensors(path)

    def test_rejects_bad_name(self, tmp_path):
        with pytest.raises(StructuralError):
            write_tensors(tmp_path / "x", {"a b": np.zeros(1)})


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {"weight": rng.standard_normal((6, 6)), "bias": np.asarray(0.25)}
        config = {"alpha": 1, "nested": {"b": [1, 2]}}
        path = tmp_path / "ckpt.bin"
        write_checkpoint(path, tensors, config)
        loaded, digest = read_checkpoint(path)
        assert digest == config_hash(config)
        for name in tensors:
            assert np.array_equal(loaded[name], np.asarray(tensors[name], dtype=np.float64))

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(StructuralError):
            read_checkpoint(path)

    def test_every_proper_prefix_rejected(self, tmp_path):
        path, cut = tmp_path / "ckpt.bin", tmp_path / "cut.bin"
        write_checkpoint(path, {"weight": np.eye(2), "bias": np.asarray(0.5)}, {})
        raw = path.read_bytes()
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(StructuralError):
                read_checkpoint(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        write_checkpoint(path, {"weight": np.eye(2)}, {})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(StructuralError, match="1 trailing bytes after the last tensor"):
            read_checkpoint(path)

    def test_config_hash_is_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestCsv:
    def test_shortest_float_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["a", "b"], [{"a": 0.1, "b": None}, {"a": 2, "b": 1 / 3}])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "0.1" in text and repr(1 / 3) in text
        assert text.splitlines()[1] == "0.1,"
