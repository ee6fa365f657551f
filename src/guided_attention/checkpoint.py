"""Single-file checkpoint container.

Layout: an 8-byte magic/version tag, a length-prefixed JSON header (config,
vocabulary, class names, metadata, parameter manifest, vocabulary hash),
then one little-endian float64 block per parameter in manifest order, and a
trailing SHA-256 checksum over everything before it. Files are byte-stable:
saving the same checkpoint twice produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .corpus import Vocabulary, vocabulary_hash
from .errors import CheckpointError
from .model import Checkpoint, ModelConfig

MAGIC = b"GDATTN01"
_LEN = struct.Struct("<Q")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    names = list(ckpt.params)
    header = {
        "config": ckpt.config.to_dict(),
        "vocab": {"total_docs": ckpt.vocab.total_docs, "doc_freq": ckpt.vocab.doc_freq},
        "class_names": ckpt.class_names,
        "metadata": ckpt.metadata,
        "params": [{"name": n, "shape": list(ckpt.params[n].shape)} for n in names],
    }
    header_bytes = _canonical_json(header)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in (MAGIC, _LEN.pack(len(header_bytes)), header_bytes):
            fh.write(chunk)
            digest.update(chunk)
        for name in names:
            block = np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes()
            fh.write(block)
            digest.update(block)
        fh.write(digest.digest())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + _LEN.size + 32:
        raise CheckpointError("file too short to be a checkpoint")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:len(MAGIC)]!r}; expected {MAGIC!r}")
    body, stored_digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != stored_digest:
        raise CheckpointError("integrity checksum mismatch; file corrupt or truncated")

    offset = len(MAGIC)
    (header_len,) = _LEN.unpack_from(body, offset)
    offset += _LEN.size
    try:
        header = json.loads(body[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc
    offset += header_len

    try:
        vocab = Vocabulary(header["vocab"]["doc_freq"], header["vocab"]["total_docs"])
        recorded = header["metadata"].get("vocab_hash")
        if recorded is not None and vocabulary_hash(vocab) != recorded:
            raise CheckpointError(
                "vocabulary hash mismatch; embedded vocabulary differs from the one used at training"
            )

        params: dict[str, np.ndarray] = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            nbytes = count * 8
            if offset + nbytes > len(body):
                raise CheckpointError(f"parameter block {entry['name']!r} truncated")
            params[entry["name"]] = (
                np.frombuffer(body, dtype="<f8", count=count, offset=offset)
                .astype(np.float64)
                .reshape(shape)
            )
            offset += nbytes
        if offset != len(body):
            raise CheckpointError(f"{len(body) - offset} trailing bytes after parameter blocks")

        return Checkpoint(
            config=ModelConfig.from_dict(header["config"]),
            params=params,
            vocab=vocab,
            class_names=list(header["class_names"]),
            metadata=header["metadata"],
        )
    except KeyError as exc:
        raise CheckpointError(f"header lacks key {exc.args[0]!r}") from None
