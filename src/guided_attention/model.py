"""Encoder-classifier: embeddings, guided-attention layers, pooling, training.

The encoder is a stack of post-norm layers (guided multi-head attention,
add & norm, position-wise feed-forward, add & norm) over learned token
embeddings plus fixed sinusoidal position encodings. Every stage but
attention computes on the batch's valid tokens only, packed as rows.
Classification pools each sentence's rows with a mean and applies an affine
map. Training is plain Adam with a fixed learning rate; everything
is deterministic under a fixed seed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .attention import multi_head
from .autodiff import Tensor
from .corpus import (
    Batch,
    Sentence,
    Vocabulary,
    build_vocab,
    label_index,
    make_batches,
    vocabulary_hash,
)
from .errors import ConfigError, DegenerateRowError, MissingGradientError, TrainingDivergedError
from .masks import GUIDED_ROLES, ROLE_PADDING

DEFAULT_LAYER_GRID = (2, 4, 6, 8)
DEFAULT_EXTRA_HEAD_GRID = (1, 3)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; ``guided_roles`` lists the role of each guided head."""

    layers: int = 2
    guided_roles: tuple[str, ...] = GUIDED_ROLES
    extra_regular_heads: int = 1
    d_model: int = 48
    ff_width: int = 96
    dropout: float = 0.1
    learning_rate: float = 1e-3
    epochs: int = 10
    seed: int = 0
    max_len: int = 32
    num_classes: int = 2
    batch_size: int = 32

    @property
    def heads(self) -> int:
        return len(self.guided_roles) + self.extra_regular_heads

    @property
    def guided_heads(self) -> int:
        return len(self.guided_roles)

    def validate(self) -> None:
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.extra_regular_heads < 0:
            raise ConfigError(f"extra_regular_heads must be >= 0, got {self.extra_regular_heads}")
        if self.heads < 1:
            raise ConfigError("model needs at least one attention head")
        if self.d_model < 1:
            raise ConfigError(f"d_model must be >= 1, got {self.d_model}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by {self.heads} heads")
        guided = [r for r in self.guided_roles if r != ROLE_PADDING]
        if len(set(guided)) != len(guided):
            raise ConfigError(f"duplicate roles in guided_roles {self.guided_roles}")
        for role in guided:
            if role not in GUIDED_ROLES:
                raise ConfigError(f"unknown role {role!r}; expected one of {GUIDED_ROLES}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.ff_width < 0:
            raise ConfigError(f"ff_width must be >= 0, got {self.ff_width}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_len < 1 or self.num_classes < 2 or self.batch_size < 1:
            raise ConfigError("max_len, num_classes and batch_size must be positive (classes >= 2)")

    def mask_roles(self) -> tuple[str, ...]:
        """Distinct roles whose blocks a batch must carry; a ``padding`` head reads the valid keys' row instead."""
        return tuple(dict.fromkeys(r for r in self.guided_roles if r != ROLE_PADDING))

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["guided_roles"] = list(self.guided_roles)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            value, kind = d.get(f.name), _KINDS.get(f.type)
            if f.name in d and kind and (isinstance(value, bool) or not isinstance(value, (int, kind))):
                raise ConfigError(f"config key {f.name!r} expects {f.type}, got {value!r}")
        kwargs = dict(d)
        if "guided_roles" in kwargs:
            kwargs["guided_roles"] = tuple(kwargs["guided_roles"])
        return cls(**kwargs)


# Field annotation -> the type of its value; an int also serves as a float.
_KINDS = {"int": int, "float": float}
_FIELDS = {f.name: f for f in fields(ModelConfig)}


def parse_config(text: str, overrides: Iterable[tuple[str, str]] | None = None) -> ModelConfig:
    """Parse the ``key = value`` config format (``#`` starts a comment), then apply ``overrides``.

    Each value is converted as it is read: first the lines of ``text``, then
    the ``(key, value)`` string pairs of ``overrides`` in order, the last
    value of a key winning. A bad value fails even when a later one replaces it.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = _typed(key.strip(), value.strip())
    for key, value in overrides or ():
        values[key] = _typed(key, value)
    return ModelConfig(**values)


def _typed(key: str, value: str):
    """The config value that the string ``value`` of ``key`` stands for."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    if key == "guided_roles":
        return tuple(r.strip() for r in value.split(",") if r.strip())
    kind = _KINDS[_FIELDS[key].type]
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects {kind.__name__}, got {value!r}") from None


# ---------------------------------------------------------------------------
# Parameters and forward pass
# ---------------------------------------------------------------------------


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(2.0 / (fan_in + fan_out)), size=(fan_in, fan_out))


def param_shapes(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in the order :func:`init_params` creates them.

    A layer's ``attn.wq``, ``attn.wk`` and ``attn.wv`` are (d_model, H·d_k),
    head h in columns ``h·d_k:(h+1)·d_k``.
    """
    d, f = cfg.d_model, cfg.ff_width
    hd = cfg.heads * (d // cfg.heads)
    shapes = {"embed.token": (vocab_size, d)}
    for i in range(cfg.layers):
        layer = {
            "attn.wq": (d, hd), "attn.wk": (d, hd), "attn.wv": (d, hd), "attn.wo": (hd, d),
            "norm1.gain": (d,), "norm1.bias": (d,),
            "ff.w1": (d, f), "ff.b1": (f,), "ff.w2": (f, d), "ff.b2": (d,),
            "norm2.gain": (d,), "norm2.bias": (d,),
        }
        shapes.update({f"layer{i}.{name}": shape for name, shape in layer.items()})
    shapes["classifier.w"] = (d, cfg.num_classes)
    shapes["classifier.b"] = (cfg.num_classes,)
    return shapes


def init_params(cfg: ModelConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """Named parameter tensors of :func:`param_shapes`, in its order (fixed RNG consumption).

    Weight matrices are Xavier-normal, gains ones and biases zeros. A layer's
    (d_model, d_k) head projections are drawn head after head, each head's q,
    k, v in turn, and packed side by side into ``attn.wq``, ``attn.wk`` and
    ``attn.wv``.
    """
    d, dk = cfg.d_model, cfg.d_model // cfg.heads
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg, vocab_size).items():
        kind = name.rpartition(".")[2]
        if kind == "token":
            data = rng.normal(0.0, 1.0 / math.sqrt(d), size=shape)
        elif kind == "wq":  # draws the layer's wk and wv too
            heads = [[_xavier(rng, d, dk) for _ in range(3)] for _ in range(cfg.heads)]
            packed = {w: np.concatenate(ws, axis=-1) for w, ws in zip(("wq", "wk", "wv"), zip(*heads))}
            data = packed[kind]
        elif kind in ("wk", "wv"):
            data = packed[kind]
        elif kind == "gain":
            data = np.ones(shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            data = _xavier(rng, *shape)
        params[name] = ad.parameter(data, name)
    return params


@functools.cache
def sinusoidal_encoding(n: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position encoding: sin on even dims, cos on odd dims.

    Computed once per ``(n, d_model)`` and shared: the array is read-only.
    """
    positions = np.arange(n)[:, None]
    dims = np.arange(d_model)[None, :]
    angles = positions / np.power(10000.0, (2 * (dims // 2)) / d_model)
    enc = np.empty((n, d_model))
    enc[:, 0::2] = np.sin(angles[:, 0::2])
    enc[:, 1::2] = np.cos(angles[:, 1::2])
    enc.flags.writeable = False
    return enc


def embed(batch: Batch, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Scaled token embeddings plus sinusoidal position encodings, as packed rows.

    One (T, d_model) row per valid token, T = ``lengths.sum()``, sentence after sentence."""
    n = int(batch.lengths.max())
    rows, positions = np.nonzero(np.arange(n) < batch.lengths[:, None])
    tok = ad.embedding(params["embed.token"], batch.token_ids[rows, positions])
    scaled = ad.mul(tok, math.sqrt(cfg.d_model))
    return ad.add(scaled, Tensor(sinusoidal_encoding(n, cfg.d_model)[positions]))


def classify(encoded: Tensor, lengths: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Mean of each sentence's packed rows, then affine map to class scores."""
    pooled = ad.packed_mean(encoded, lengths)
    return ad.add(ad.matmul(pooled, params["classifier.w"]), params["classifier.b"])


def forward_stages(
    batch: Batch,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    keeps: Sequence[tuple[Sequence[np.ndarray], np.ndarray]] | None = None,
    *,
    training: bool = False,
) -> Iterator[tuple[str, Tensor]]:
    """Run the forward pass, yielding ``(stage, output)`` as each stage finishes.

    Stages: ``embed.output``; per layer ``i``, ``layer{i}.attention.output``,
    ``.norm1.output``, ``.ff.output`` and ``.norm2.output``; ``classifier.logits``.

    Outputs but the logits are packed rows, one per valid token (see
    :func:`embed`). A guided head reads its role's boolean block, shared by
    every head of the role; padding and regular heads share one ``(B, 1, n)``
    row of valid keys. One ``autodiff.Plan`` of the rows, built once per pass
    from ``batch.lengths``, ``batch.tiers`` and these blocks, holds the heads'
    additive masks, and every layer's attention reads it. A ``training`` pass under dropout
    multiplies each layer's attention weights and feed-forward units by that
    layer's pair of ``keeps``, the batch's multipliers from :func:`_draw_keeps`:
    one attention block per tier, and the feed-forward units' valid rows.
    Any other pass ignores ``keeps``.
    """
    for role in cfg.mask_roles():
        if role not in batch.allowed:
            raise ConfigError(f"batch carries no mask for guided role {role!r}")
    if not (training and cfg.dropout > 0.0):
        keeps = [(None, None)] * cfg.layers
    elif keeps is None or len(keeps) != cfg.layers:
        raise ConfigError(
            f"a training pass under dropout needs a pair of multipliers for each of {cfg.layers} layers"
        )
    key_row = (np.arange(int(batch.lengths.max())) < batch.lengths[:, None])[:, None, :]
    allowed = [key_row if role == ROLE_PADDING else batch.allowed[role] for role in cfg.guided_roles]
    plan = ad.Plan.build(batch.lengths, batch.tiers, allowed + [key_row] * cfg.extra_regular_heads)
    x = embed(batch, params, cfg)
    yield "embed.output", x
    for i, (attn_keep, ff_keep) in enumerate(keeps):
        projections = (params[f"layer{i}.attn.{w}"] for w in ("wq", "wk", "wv", "wo"))
        attn_out, _ = multi_head(x, *projections, plan, attn_keep)
        yield f"layer{i}.attention.output", attn_out
        x = ad.layer_norm(
            ad.add(x, attn_out), params[f"layer{i}.norm1.gain"], params[f"layer{i}.norm1.bias"]
        )
        yield f"layer{i}.norm1.output", x
        hidden = ad.relu(ad.add(ad.matmul(x, params[f"layer{i}.ff.w1"]), params[f"layer{i}.ff.b1"]))
        if ff_keep is not None:
            hidden = ad.mul(hidden, ff_keep)
        ff_out = ad.add(ad.matmul(hidden, params[f"layer{i}.ff.w2"]), params[f"layer{i}.ff.b2"])
        yield f"layer{i}.ff.output", ff_out
        x = ad.layer_norm(
            ad.add(x, ff_out), params[f"layer{i}.norm2.gain"], params[f"layer{i}.norm2.bias"]
        )
        yield f"layer{i}.norm2.output", x
    yield "classifier.logits", classify(x, batch.lengths, params)


def forward_batch(
    batch: Batch,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    keeps: Sequence[tuple[Sequence[np.ndarray], np.ndarray]] | None = None,
    *,
    training: bool = False,
) -> Tensor:
    """Class scores of a batch: the last output of :func:`forward_stages`. ``training`` is keyword-only:
    ``perfbench/run.py`` reads it by name to take its memory samples outside the training steps it times."""
    for _, logits in forward_stages(batch, params, cfg, keeps, training=training):
        pass
    return logits


def _draw_keeps(
    batch: Batch, cfg: ModelConfig, rng: np.random.Generator
) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """The inverted-dropout multipliers (0 or ``1 / (1 - dropout)``) of a training pass over ``batch``.

    Per layer, in this order, ``rng`` draws the uniforms of an ``(H, B, n, n)``
    block for the attention weights, head after head, then of a
    ``(B, n, ff_width)`` block for the feed-forward units, as a pass over
    padded (B, n, ·) activations would draw them. Only the cells the packed
    pass reads become multipliers: for attention, one (H, count, width, width)
    block per tier of ``batch.tiers``, its rows at their ``[:width, :width]``
    pairs; for the feed-forward units, the valid rows. :func:`train` calls
    this in each step, before the forward pass, so ``rng`` is read in the
    order of the steps.
    """
    n = int(batch.lengths.max())
    valid = np.arange(n) < batch.lengths[:, None]
    tiers = [(rows, int(batch.lengths[rows].max())) for rows in batch.tiers]

    def keep(uniforms):
        return (uniforms >= cfg.dropout) / (1.0 - cfg.dropout)

    keeps = []
    for _ in range(cfg.layers):
        attn = rng.random((cfg.heads, *valid.shape, n))
        cuts = [attn] if len(tiers) == 1 else [attn[:, rows, :width, :width] for rows, width in tiers]
        keeps.append(([keep(cut) for cut in cuts], keep(rng.random((*valid.shape, cfg.ff_width))[valid])))
    return keeps


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


class Adam:
    """Adam with a fixed learning rate and bias correction, over one flat buffer.

    The parameters, and the moments ``m`` and ``v``, each live in one
    contiguous float64 buffer: every parameter's ``.data`` becomes a view
    into ``self.flat``, in the order of ``params``. A step gathers the
    gradients with one concatenate and updates the three buffers with a
    fixed number of whole-buffer operations, however many tensors there are.
    Each element is computed as the per-tensor update would compute it, so
    the results are the same bit for bit.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.flat = np.concatenate([p.data.ravel() for p in params.values()])
        for p, view in zip(params.values(), self.views(self.flat).values()):
            p.data = view
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)
        self._scratch = np.empty_like(self.flat)

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of a buffer laid out like ``flat``, shaped and named like it."""
        out, start = {}, 0
        for name, p in self.params.items():
            out[name] = buffer[start : start + p.data.size].reshape(p.data.shape)
            start += p.data.size
        return out

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradientError(name)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g, tmp, m, v = self._grad, self._scratch, self.m, self.v
        np.concatenate([p.grad.ravel() for p in self.params.values()], out=g)
        m *= b1  # m = b1 * m + (1 - b1) * g
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        np.multiply(g, g, out=g)  # v = b2 * v + (1 - b2) * (g * g)
        g *= 1 - b2
        v *= b2
        v += g
        np.divide(m, 1 - b1**self.t, out=tmp)  # m_hat
        np.divide(v, 1 - b2**self.t, out=g)  # v_hat
        np.sqrt(g, out=g)
        g += self.eps
        tmp *= self.lr
        tmp /= g
        self.flat -= tmp


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Trained model state: config, named arrays, vocabulary, class names."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    vocab: Vocabulary
    class_names: list[str]
    metadata: dict = field(default_factory=dict)

    def param_tensors(self) -> dict[str, Tensor]:
        return {name: Tensor(data) for name, data in self.params.items()}


@dataclass
class EvalMetrics:
    accuracy: float  # percent
    loss: float
    correct: int
    total: int


def diagnose_nonfinite(batch: Batch, params: dict[str, Tensor], cfg: ModelConfig) -> str:
    """Name the first non-finite tensor: parameters, then the forward stages.

    The forward pass is re-run dropout-free, so a divergence that only
    materializes under a particular dropout draw falls through to the
    generic ``loss`` answer.
    """
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            return name
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            return f"grad({name})"

    attentions = 0
    try:
        for stage, output in forward_stages(batch, params, cfg):
            if not np.all(np.isfinite(output.data)):
                return stage
            attentions += stage.endswith(".attention.output")
    except DegenerateRowError:
        # Only the attention softmax raises this, in the layer after the last finished one.
        return f"layer{attentions}.attention.output"
    return "loss"


def train(
    cfg: ModelConfig,
    train_sentences: list[Sentence],
    dev_sentences: list[Sentence],
    vocab: Vocabulary | None = None,
) -> Checkpoint:
    """Train with Adam on cross-entropy; keep the best-dev-accuracy epoch.

    Fully deterministic under ``cfg.seed``: one RNG stream drives parameter
    initialization and dropout, a second (derived from the same seed) drives
    the batch shuffle. Under dropout, each step draws its batch's
    multipliers (see :func:`_draw_keeps`) before its forward pass. The dev
    batches are built once per call, from the dev split in length order (see
    :func:`_forward_only_batches`); they only pick the best epoch, so the
    order leaves the trained parameters unchanged.
    """
    cfg.validate()
    if not train_sentences or not dev_sentences:
        raise ConfigError("train and dev splits must be non-empty")
    if vocab is None:
        vocab = build_vocab(train_sentences)
    classes = label_index(train_sentences)
    if not classes:
        raise ConfigError("training data carries no labels")
    if any(s.label is None for s in train_sentences):
        raise ConfigError("every training sentence must carry a label")
    if len(classes) > cfg.num_classes:
        raise ConfigError(f"{len(classes)} labels exceed num_classes={cfg.num_classes}")
    for s in dev_sentences:
        if s.label is not None and s.label not in classes:
            raise ConfigError(f"dev label {s.label!r} unseen in training data")

    train_batches = make_batches(
        train_sentences, vocab, cfg.batch_size, cfg.max_len, cfg.mask_roles(),
        seed=cfg.seed, shuffle=True, labels=classes,
    )
    dev_batches = list(_forward_only_batches(dev_sentences, vocab, cfg, classes))

    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, len(vocab), rng)
    optimizer = Adam(params, cfg.learning_rate)

    history: list[dict] = []
    best_acc, best_epoch, best_flat = -1.0, -1, None
    for epoch in range(1, cfg.epochs + 1):
        total_loss, total_examples = 0.0, 0
        for batch in train_batches:
            ad.zero_grads(params)
            keeps = _draw_keeps(batch, cfg, rng) if cfg.dropout > 0.0 else None
            try:
                # training= stays a keyword: perfbench/run.py reads it to keep its samples out of timed steps
                logits = forward_batch(batch, params, cfg, keeps, training=True)
                loss = ad.cross_entropy(logits, batch.labels)
            except DegenerateRowError:
                # batch masks are feasible by construction, so this is numeric blow-up
                raise TrainingDivergedError(diagnose_nonfinite(batch, params, cfg)) from None
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(diagnose_nonfinite(batch, params, cfg))
            ad.backward(loss, params)
            optimizer.step()
            total_loss += loss.item() * batch.size
            total_examples += batch.size
        # Views of the live parameters without requires_grad: the dev pass records no tape.
        dev = _evaluate_batches(dev_batches, {name: Tensor(p.data) for name, p in params.items()}, cfg)
        history.append(
            {
                "epoch": epoch,
                "train_loss": total_loss / total_examples,
                "dev_loss": dev.loss,
                "dev_acc": dev.accuracy,
            }
        )
        if dev.accuracy > best_acc:
            best_acc, best_epoch = dev.accuracy, epoch
            best_flat = optimizer.flat.copy()

    class_names = [name for name, _ in sorted(classes.items(), key=lambda kv: kv[1])]
    return Checkpoint(
        config=cfg,
        params=optimizer.views(best_flat),
        vocab=vocab,
        class_names=class_names,
        metadata={
            "seed": cfg.seed,
            "best_epoch": best_epoch,
            "history": history,
            "vocab_hash": vocabulary_hash(vocab),
        },
    )


def _forward_only_batches(
    sentences: list[Sentence], vocab: Vocabulary, cfg: ModelConfig, labels: dict[str, int]
) -> Iterator[Batch]:
    """Batches of ``sentences`` for a pass without gradients, in length order, built one at a time.

    The stable sort by length puts sentences of similar length together, so
    each batch, computed at its longest sentence, carries little padding. A
    sentence's softmax rows are summed at its tier's width, which its
    batch-mates set, so its logits agree with those of any other batching to
    within rounding, not bit for bit. The metrics are sums over sentences, so
    an accuracy can change only where two class scores tie to the last bits.
    """
    ordered = sorted(sentences, key=len)
    for start in range(0, len(ordered), cfg.batch_size):
        yield from make_batches(
            ordered[start : start + cfg.batch_size], vocab, cfg.batch_size, cfg.max_len,
            cfg.mask_roles(), shuffle=False, labels=labels,
        )


def _evaluate_batches(batches: Iterable[Batch], params: dict[str, Tensor], cfg: ModelConfig) -> EvalMetrics:
    total_loss, correct, total = 0.0, 0, 0
    for batch in batches:
        logits = forward_batch(batch, params, cfg, training=False)
        labeled = batch.labels >= 0
        if not np.any(labeled):
            continue
        loss = ad.cross_entropy(Tensor(logits.data[labeled]), batch.labels[labeled])
        predictions = logits.data[labeled].argmax(axis=1)
        correct += int((predictions == batch.labels[labeled]).sum())
        count = int(labeled.sum())
        total += count
        total_loss += loss.item() * count
    if total == 0:
        raise ConfigError("evaluation data carries no labels")
    return EvalMetrics(accuracy=100.0 * correct / total, loss=total_loss / total, correct=correct, total=total)


def evaluate(ckpt: Checkpoint, sentences: list[Sentence]) -> EvalMetrics:
    """Accuracy (%) and mean loss of a checkpoint on labeled sentences.

    The sentences run in length order, and the batches are built and
    evaluated one at a time, so only one batch is held at once.
    """
    cfg = ckpt.config
    recorded = ckpt.metadata.get("vocab_hash")
    if recorded is not None and vocabulary_hash(ckpt.vocab) != recorded:
        raise ConfigError("vocabulary hash mismatch: checkpoint vocabulary differs from training")
    classes = {name: i for i, name in enumerate(ckpt.class_names)}
    for s in sentences:
        if s.label is not None and s.label not in classes:
            raise ConfigError(f"label {s.label!r} unknown to this checkpoint")
    batches = _forward_only_batches(sentences, ckpt.vocab, cfg, classes)
    return _evaluate_batches(batches, ckpt.param_tensors(), cfg)
