"""Single-file checkpoint container.

Layout: an 8-byte magic/version tag, a length-prefixed JSON header (config,
vocabulary, class names, metadata, parameter manifest, vocabulary hash),
then one little-endian float64 block per parameter in manifest order, and a
trailing SHA-256 checksum over everything before it. Files are byte-stable:
saving the same checkpoint twice produces identical bytes. A file loads only
if its config is valid and its parameters are exactly the names and shapes
that config and its vocabulary imply (:func:`model.param_shapes`).

Version ``GDATTN02`` stores each layer's attention projections packed, as
``layer{i}.attn.w{q,k,v}``. Files of the older ``GDATTN01``, which stored them
head by head, are still read: :func:`_pack_v1_heads` converts them on load.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .corpus import Vocabulary, vocabulary_hash
from .errors import CheckpointError, ConfigError, ShapeMismatchError
from .model import Checkpoint, ModelConfig, param_shapes

MAGIC = b"GDATTN02"
MAGIC_V1 = b"GDATTN01"
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
    magic = blob[: len(MAGIC)]
    if magic not in (MAGIC, MAGIC_V1):
        raise CheckpointError(f"bad magic {magic!r}; expected {MAGIC!r} or the older {MAGIC_V1!r}")
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

    vocab_fields = _field(header, "vocab", dict)
    doc_freq = _field(vocab_fields, "doc_freq", dict, "header 'vocab'")
    for form in doc_freq:
        _field(doc_freq, form, int, "header 'vocab.doc_freq'")
    try:
        vocab = Vocabulary(doc_freq, _field(vocab_fields, "total_docs", int, "header 'vocab'"))
    except ShapeMismatchError as exc:
        raise CheckpointError(f"header 'vocab' is invalid: {exc}") from exc
    metadata = _field(header, "metadata", dict)
    recorded = metadata.get("vocab_hash")
    if recorded is not None and vocabulary_hash(vocab) != recorded:
        raise CheckpointError(
            "vocabulary hash mismatch; embedded vocabulary differs from the one used at training"
        )

    params: dict[str, np.ndarray] = {}
    for entry in _field(header, "params", list):
        name = _field(entry, "name", str, "parameter entry")
        shape = tuple(_field(entry, "shape", list, f"parameter {name!r}"))
        if not all(isinstance(d, int) and d >= 0 for d in shape):
            raise CheckpointError(f"parameter {name!r} has shape {list(shape)}, not a list of sizes")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise CheckpointError(f"parameter block {name!r} truncated")
        params[name] = (
            np.frombuffer(body, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{len(body) - offset} trailing bytes after parameter blocks")

    try:
        config = ModelConfig.from_dict(_field(header, "config", dict))
        config.validate()
    except (ConfigError, TypeError) as exc:
        raise CheckpointError(f"header 'config' is invalid: {exc}") from exc
    entries = config.layers * (config.heads if magic == MAGIC_V1 else 1)  # each with entries of its own
    if entries > len(params):  # a forged count would otherwise have param_shapes list them all
        raise CheckpointError(f"header 'config' implies at least {entries} parameters, the file lists {len(params)}")
    if magic == MAGIC_V1:
        params = _pack_v1_heads(params, config)
    _check_manifest(params, param_shapes(config, len(vocab)))
    return Checkpoint(
        config=config,
        params=params,
        vocab=vocab,
        class_names=list(_field(header, "class_names", list)),
        metadata=metadata,
    )


def _pack_v1_heads(params: dict[str, np.ndarray], cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Convert ``GDATTN01`` parameters to the packed layout of ``GDATTN02``.

    ``GDATTN01`` stored head ``h``'s projections as ``layer{i}.head{h}.w{q,k,v}``,
    each (d_model, d_k). They are concatenated in head order along the last
    axis into ``layer{i}.attn.w{q,k,v}``, which take the place of the first
    head's entries; every other parameter is kept as it is.
    """
    shape = (cfg.d_model, cfg.d_model // cfg.heads)
    projections = ("wq", "wk", "wv")
    per_head = [
        f"layer{i}.head{h}.{w}" for i in range(cfg.layers) for h in range(cfg.heads) for w in projections
    ]
    for name in per_head:
        if name not in params:
            raise CheckpointError(f"GDATTN01 checkpoint lacks parameter {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(
                f"GDATTN01 parameter {name!r} has shape {list(params[name].shape)}, expected {list(shape)}"
            )
    packed = {}
    for name, value in params.items():
        if name not in per_head:
            packed[name] = value
        elif name.endswith(".head0.wq"):
            layer = name.partition(".")[0]
            for w in projections:
                heads = [params[f"{layer}.head{h}.{w}"] for h in range(cfg.heads)]
                packed[f"{layer}.attn.{w}"] = np.concatenate(heads, axis=-1)
    return packed


def _check_manifest(params: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    """The parameters must be exactly those the config and vocabulary imply, with their shapes."""
    for name, shape in expected.items():
        if name not in params:
            raise CheckpointError(f"checkpoint lacks parameter {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {list(params[name].shape)}, expected {list(shape)}"
            )
    for name in params:
        if name not in expected:
            raise CheckpointError(f"unexpected parameter {name!r}")


def _field(obj, key: str, kind: type, where: str = "header"):
    """``obj[key]`` of JSON type ``kind``; a missing or mistyped field is a CheckpointError."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} is {type(obj).__name__}, expected dict")
    if key not in obj:
        raise CheckpointError(f"{where} lacks key {key!r}")
    if not isinstance(obj[key], kind):
        raise CheckpointError(f"{where} field {key!r} is {type(obj[key]).__name__}, expected {kind.__name__}")
    return obj[key]
