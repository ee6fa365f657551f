import hashlib
import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from guided_attention.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from guided_attention.corpus import build_vocab
from guided_attention.errors import CheckpointError
from guided_attention.model import evaluate, train
from test_model import TINY, toy_separable


@pytest.fixture(scope="module")
def trained():
    data = toy_separable(20)
    return train(TINY, data, data), data


class TestCheckpointFile:
    def test_round_trip_fields(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.class_names == ckpt.class_names
        assert loaded.vocab.doc_freq == ckpt.vocab.doc_freq
        assert loaded.metadata == ckpt.metadata
        assert list(loaded.params) == list(ckpt.params)
        for name in ckpt.params:
            npt.assert_array_equal(loaded.params[name], ckpt.params[name])

    def test_round_trip_metrics_bit_identical(self, trained, tmp_path):
        ckpt, data = trained
        before = evaluate(ckpt, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        after = evaluate(load_checkpoint(path), data)
        assert before == after

    def test_save_is_byte_stable(self, trained, tmp_path):
        ckpt, _ = trained
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, a)
        save_checkpoint(ckpt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_header(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        assert path.read_bytes()[:8] == MAGIC

    def test_corruption_detected(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_header_key_rejected(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        body = path.read_bytes()[:-32]
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack_from("<Q", body, len(MAGIC))
        header = json.loads(body[start : start + header_len])
        del header["class_names"]
        header_bytes = json.dumps(header).encode("utf-8")
        body = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body[start + header_len :]
        path.write_bytes(body + hashlib.sha256(body).digest())  # re-signed: the checksum holds
        with pytest.raises(CheckpointError, match="class_names"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_swapped_vocabulary_refused(self, trained, tmp_path):
        ckpt, _ = trained
        original = ckpt.vocab
        path = tmp_path / "model.ckpt"
        try:
            ckpt.vocab = build_vocab(toy_separable(5, seed=99))
            save_checkpoint(ckpt, path)
            with pytest.raises(CheckpointError, match="vocabulary hash"):
                load_checkpoint(path)
        finally:
            ckpt.vocab = original

    def test_little_endian_float64_blocks(self, trained, tmp_path):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        first = ckpt.params["embed.token"]
        expected = np.ascontiguousarray(first, dtype="<f8").tobytes()
        assert expected in blob
