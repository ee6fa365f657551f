import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guided_attention.checkpoint import MAGIC, MAGIC_V1, load_checkpoint, save_checkpoint
from guided_attention.cli import main
from guided_attention.corpus import build_vocab, load_corpus
from guided_attention.errors import CheckpointError
from guided_attention.model import EvalMetrics, evaluate, train
from test_model import TINY, toy_separable

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
# Loads each checkpoint named on the command line under a 1.5 GB address-space cap, printing each
# CheckpointError; any other exception, MemoryError included, ends the process with a traceback.
CAPPED_LOAD = """
import resource, sys
cap = 1536 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from guided_attention.checkpoint import load_checkpoint
from guided_attention.errors import CheckpointError
for path in sys.argv[1:]:
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        print(exc)
"""


def resign(path, edit):
    """Rewrite a checkpoint's header as ``edit(header)`` and re-sign it, so the checksum holds."""
    body = path.read_bytes()[:-32]
    start = len(MAGIC) + 8
    (header_len,) = struct.unpack_from("<Q", body, len(MAGIC))
    header_bytes = json.dumps(edit(json.loads(body[start : start + header_len]))).encode("utf-8")
    body = body[: len(MAGIC)] + struct.pack("<Q", len(header_bytes)) + header_bytes + body[start + header_len :]
    path.write_bytes(body + hashlib.sha256(body).digest())


def edit_entry(target, changes):
    """A ``resign`` edit that updates the manifest entry of parameter ``target`` with ``changes``."""
    def edit(header):
        for entry in header["params"]:
            if entry["name"] == target:
                entry.update(changes)
        return header

    return edit


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

    # The one file is rewritten in full by every example, so sharing tmp_path is safe.
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corruption_detected(self, trained, tmp_path, data):
        """XOR-ing any one byte with any value from 1 to 255 makes the load fail."""
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(blob) - 1), label="byte")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(blob))
        # A flipped magic byte may be refused as a bad magic before the checksum is read.
        with pytest.raises(CheckpointError, match="checksum" if at >= len(MAGIC) else None):
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
        resign(path, lambda header: {k: v for k, v in header.items() if k != "class_names"})
        with pytest.raises(CheckpointError, match="class_names"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda header: [], "header is list"),
            (lambda header: {**header, "vocab": []}, "'vocab' is list"),
            (lambda header: {**header, "vocab": {**header["vocab"], "doc_freq": {"a": "1"}}}, "'a' is str"),
            (lambda header: {**header, "vocab": {**header["vocab"], "total_docs": 0}}, "at least one document"),
        ],
        ids=["header-list", "vocab-list", "doc-freq-str", "total-docs-zero"],
    )
    def test_wrongly_shaped_header_rejected(self, trained, tmp_path, edit, field):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        resign(path, edit)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic") as excinfo:
            load_checkpoint(path)
        assert "GDATTN02" in str(excinfo.value) and "GDATTN01" in str(excinfo.value)

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


class TestManifest:
    """A checksum-valid file loads only with a valid config and exactly the parameters it implies."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (edit_entry("layer0.attn.wk", {"name": "layer0.attn.wx"}), "lacks parameter 'layer0.attn.wk'"),
            (edit_entry("layer0.attn.wk", {"shape": [4, 16]}),
             "'layer0.attn.wk' has shape \\[4, 16\\], expected \\[8, 8\\]"),
            (lambda header: {**header, "params": [*header["params"], {"name": "layer0.attn.extra", "shape": [0]}]},
             "unexpected parameter 'layer0.attn.extra'"),
            (lambda header: {**header, "config": {**header["config"], "d_model": 9}},
             "header 'config' is invalid: d_model 9 not divisible by 2 heads"),
            (lambda header: {**header, "config": {**header["config"], "d_model": 8.0}},
             "header 'config' is invalid: config key 'd_model' expects int, got 8.0"),
        ],
        ids=["renamed", "misshaped", "extra", "indivisible-heads", "float-d-model"],
    )
    def test_bad_manifest_rejected(self, trained, tmp_path, edit, message):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        resign(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_a_forged_layer_count_is_refused_before_its_parameters_are_listed(self, trained, tmp_path):
        """Re-signed headers claiming 10**6 or 10**9 layers, in the packed format and in GDATTN01, are refused by
        their count. The loads run in a child process whose address space is capped, so a regression fails here
        with a MemoryError instead of exhausting the machine."""
        ckpt, _ = trained
        packed = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, packed)
        paths, expected = [], []
        for source, heads in ((packed, None), (FIXTURES / "gdattn01.ckpt", 6)):  # the fixture has 6 heads
            for layers in (10**6, 10**9):
                path = tmp_path / f"{source.stem}-{layers}.ckpt"
                path.write_bytes(source.read_bytes())
                resign(path, lambda header: {**header, "config": {**header["config"], "layers": layers}})
                paths.append(str(path))
                expected.append(f"header 'config' implies at least {layers * (heads or 1)} parameters")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_LOAD, *paths], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(expected) and all(line.startswith(want) for line, want in zip(lines, expected))

    def test_eval_on_renamed_entry_is_one_error_line(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        resign(path, edit_entry("layer0.attn.wk", {"name": "layer0.attn.wx"}))
        assert main(["eval", "--ckpt", str(path), "--data", str(FIXTURES / "twenty.conllu")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: checkpoint lacks parameter 'layer0.attn.wk'"


class TestPerHeadCheckpoint:
    """``gdattn01.ckpt`` was written by the per-head format: 1 layer, 6 heads, d_model 12,
    1 epoch on ``twenty.conllu`` (train and dev), seed 0."""

    FIXTURE = FIXTURES / "gdattn01.ckpt"
    # evaluate(load_checkpoint(FIXTURE), twenty.conllu) when the fixture was written.
    RECORDED = EvalMetrics(accuracy=50.0, loss=0.7610905231126909, correct=10, total=20)

    def test_fixture_evaluates_to_recorded_metrics(self):
        assert self.FIXTURE.read_bytes()[:8] == MAGIC_V1
        ckpt = load_checkpoint(self.FIXTURE)
        assert [name for name in ckpt.params if name.startswith("layer0.attn.")] == [
            "layer0.attn.wq", "layer0.attn.wk", "layer0.attn.wv", "layer0.attn.wo",
        ]
        assert not any(".head" in name for name in ckpt.params)
        assert ckpt.params["layer0.attn.wq"].shape == (12, 12)
        assert evaluate(ckpt, load_corpus(FIXTURES / "twenty.conllu")) == self.RECORDED

    def test_resave_writes_packed_format(self, tmp_path):
        ckpt = load_checkpoint(self.FIXTURE)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        assert path.read_bytes()[:8] == MAGIC == b"GDATTN02"
        again = load_checkpoint(path)
        assert list(again.params) == list(ckpt.params)
        for name in ckpt.params:
            npt.assert_array_equal(again.params[name], ckpt.params[name])

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"name": "layer0.head3.wx"}, "lacks parameter 'layer0.head3.wk'"),
            ({"shape": [6, 4]}, "'layer0.head3.wk' has shape \\[6, 4\\]"),
        ],
        ids=["missing", "misshaped"],
    )
    def test_bad_head_entry_rejected(self, tmp_path, changes, message):
        path = tmp_path / "old.ckpt"
        path.write_bytes(self.FIXTURE.read_bytes())
        resign(path, edit_entry("layer0.head3.wk", changes))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
