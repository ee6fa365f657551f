"""The three benchmark workloads: set-up, the timed operation, and output checks.

Each workload's ``setup`` makes every input from the benchmark seed and
returns a state; ``op`` is the unit the benchmark repeats and times, the
same work on the same inputs each time; ``batch_inputs`` names what the
batching probe feeds to ``make_batches``; ``fingerprint`` reduces one op's
outputs to bytes that must repeat exactly; ``checks`` returns named
pass/fail results on the outputs. See README.md for why each exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

# Program functions are called through their modules, so that the wrappers
# the tracer installs in those modules see the calls.
from guided_attention import checkpoint, corpus, harness, model, synthetic
from guided_attention.harness import DatasetSplits, ExperimentSpec
from guided_attention.masks import GUIDED_ROLES, ROLE_DEP_SYNTAX, ROLE_MAJOR_RELATIONS
from guided_attention.model import ModelConfig

from spans import INFO, NAME
from treebank import generate_treebank

# The acceptance-criterion-6 model (adjacent-bigram task, d_model 24, no
# dropout), trained on half the data for 6 of its 8 epochs so that several
# ablations fit in one run.
ABLATION_CONFIG = ModelConfig(
    layers=2, guided_roles=GUIDED_ROLES, extra_regular_heads=1, d_model=24, ff_width=48,
    dropout=0.0, learning_rate=2e-3, epochs=6, max_len=12, num_classes=2, batch_size=32,
)
# Default model (d_model 48, 6 heads, dropout 0.1, max_len 32), 2 epochs.
TREEBANK_CONFIG = ModelConfig(epochs=2)


def params_digest(params: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name, value in params.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return digest.hexdigest()


def _spans_named(op_spans, name):
    return [s[INFO] for s in op_spans if s[NAME] == name]


def _trained_digests(op_spans) -> list[str]:
    return [params_digest(ckpt.params) for _, ckpt in _spans_named(op_spans, "model.train")]


def _losses_finite(ckpt) -> bool:
    return all(
        math.isfinite(row["train_loss"]) and math.isfinite(row["dev_loss"])
        for row in ckpt.metadata["history"]
    )


def _eval_totals_match(op_spans) -> bool:
    infos = _spans_named(op_spans, "model.evaluate")
    return bool(infos) and all(m.total == labeled and m.correct <= m.total for _, labeled, m in infos)


def mask_violations(sentences, vocab, max_len: int, chunk: int = 256) -> list[str]:
    """Check every role mask of every sentence, batched as the model sees them.

    Each valid query row has an open valid key, every padded key column is
    closed, and ``depsyn``/``majrel`` are symmetric on the valid block.
    """
    problems = []
    for start in range(0, len(sentences), chunk):
        for batch in corpus.make_batches(sentences[start:start + chunk], vocab, chunk, max_len, GUIDED_ROLES, shuffle=False):
            positions = np.arange(max_len)
            valid = positions[None, :] < batch.lengths[:, None]  # (B, L)
            pair_valid = valid[:, :, None] & valid[:, None, :]
            for role, values in [*batch.role_masks.items(), ("pad", batch.pad_mask)]:
                allowed = values == 0.0
                if np.any(allowed & ~valid[:, None, :]):
                    problems.append(f"{role}: padded key column open")
                if np.any(valid & ~np.any(allowed & pair_valid, axis=-1)):
                    problems.append(f"{role}: valid row with no open valid key")
                if role in (ROLE_DEP_SYNTAX, ROLE_MAJOR_RELATIONS) and np.any(
                    pair_valid & (allowed != np.swapaxes(allowed, 1, 2))
                ):
                    problems.append(f"{role}: not symmetric")
    return sorted(set(problems))


def _majority_pct(sentences) -> float:
    labels = [s.label for s in sentences]
    return 100.0 * max(labels.count(label) for label in set(labels)) / len(labels)


class AblationSynthetic:
    name = "ablation-synthetic"
    step = "train"

    def __init__(self, n_train: int = 1000, n_held_out: int = 1000):
        self.n_train, self.n_held_out = n_train, n_held_out

    def setup(self, seed: int, out_dir):
        train_set, held_out = synthetic.generate_local_pattern_task(
            n_train=self.n_train, n_test=self.n_held_out, vocab_size=50, seq_len=12, seed=seed
        )
        dev_size = self.n_held_out // 5
        splits = DatasetSplits("synthetic", train_set, held_out[:dev_size], held_out[dev_size:])
        spec = ExperimentSpec(
            datasets=[splits], base_config=replace(ABLATION_CONFIG, seed=seed),
            layers_grid=(2,), extra_heads_grid=(1,), roles=GUIDED_ROLES, seeds=(seed,),
            ablate_roles=("relpos",), include_baseline=False, jobs=1,
        )
        return {"spec": spec, "splits": splits, "vocab": corpus.build_vocab(train_set), "checks": []}

    def op(self, state):
        return harness.run_ablation(state["spec"])

    def batch_inputs(self, state):
        return state["splits"].train, state["vocab"], ABLATION_CONFIG.max_len, ABLATION_CONFIG.mask_roles()

    def fingerprint(self, state, report, op_spans) -> bytes:
        runs = [(r.run_id, r.dev_acc, r.test_acc, r.error) for r in report.runs]
        return json.dumps([runs, _trained_digests(op_spans)]).encode()

    def quality(self, report) -> dict[str, float]:
        ((_, drop, _),) = report.per_role()
        return {"test_acc": report.full_accuracy, "relpos_drop_pp": drop}

    def checks(self, state, report, op_spans) -> list[tuple[str, bool]]:
        splits = state["splits"]
        quality = self.quality(report)
        trained = _spans_named(op_spans, "model.train")
        return [
            ("all runs succeeded", all(r.ok for r in report.runs)),
            ("losses finite", bool(trained) and all(_losses_finite(c) for _, c in trained)),
            ("evaluate totals equal labeled count", _eval_totals_match(op_spans)),
            # At this scale one seed's ablated model sometimes matches the
            # full one, so the relpos drop is reported, not checked.
            ("full model accuracy above majority class + 5pp", quality["test_acc"] > _majority_pct(splits.test) + 5.0),
            ("test masks valid", not mask_violations(splits.test, state["vocab"], ABLATION_CONFIG.max_len)),
        ]


def _treebank_splits(seed: int, sizes: dict[str, int], out_dir):
    """Generate, write as CoNLL-U and read back each split; return splits and round-trip checks."""
    splits, checks = {}, []
    for k, (split, n) in enumerate(sizes.items()):
        generated = generate_treebank(n, seed=[seed, k], prefix=split)
        path = out_dir / f"{split}.conllu"
        path.write_text(corpus.serialize_conllu(generated), encoding="utf-8")
        errors = []
        loaded = corpus.load_corpus(path, errors=errors)
        same = len(loaded) == n and all(
            (a.tokens, a.label, a.sent_id) == (b.tokens, b.label, b.sent_id) for a, b in zip(loaded, generated)
        )
        checks.append((f"{split} treebank re-parses with no ConlluError", not errors and same))
        splits[split] = loaded
    return splits, checks


def _roundtrip_ok(ckpt, path) -> bool:
    loaded = checkpoint.load_checkpoint(path)
    return (
        list(loaded.params) == list(ckpt.params)
        and all(loaded.params[k].tobytes() == ckpt.params[k].tobytes() for k in ckpt.params)
        and (loaded.config, loaded.class_names, loaded.metadata) == (ckpt.config, ckpt.class_names, ckpt.metadata)
        and (loaded.vocab.doc_freq, loaded.vocab.total_docs) == (ckpt.vocab.doc_freq, ckpt.vocab.total_docs)
    )


class TrainTreebank:
    name = "train-treebank"
    step = "train"

    def __init__(self, sizes: dict[str, int] | None = None):
        self.sizes = sizes or {"train": 1600, "dev": 200, "test": 600}

    def setup(self, seed: int, out_dir):
        splits, checks = _treebank_splits(seed, self.sizes, out_dir)
        vocab = corpus.build_vocab(splits["train"])
        config = replace(TREEBANK_CONFIG, seed=seed)
        return {**splits, "vocab": vocab, "config": config, "ckpt_path": out_dir / "model.ckpt", "checks": checks}

    def op(self, state):
        ckpt = model.train(state["config"], state["train"], state["dev"], state["vocab"])
        checkpoint.save_checkpoint(ckpt, state["ckpt_path"])
        return ckpt, model.evaluate(ckpt, state["test"])

    def batch_inputs(self, state):
        return state["train"], state["vocab"], TREEBANK_CONFIG.max_len, TREEBANK_CONFIG.mask_roles()

    def fingerprint(self, state, result, op_spans) -> bytes:
        ckpt, metrics = result
        saved = hashlib.sha256(state["ckpt_path"].read_bytes()).hexdigest()
        return json.dumps([params_digest(ckpt.params), saved, metrics.correct, metrics.loss]).encode()

    def quality(self, result) -> dict[str, float]:
        return {"test_acc": result[1].accuracy}

    def checks(self, state, result, op_spans) -> list[tuple[str, bool]]:
        ckpt, metrics = result
        return [
            ("losses finite", _losses_finite(ckpt) and math.isfinite(metrics.loss)),
            ("checkpoint round-trips bit-exactly", _roundtrip_ok(ckpt, state["ckpt_path"])),
            ("evaluate totals equal labeled count", _eval_totals_match(op_spans)),
            ("test accuracy above majority class + 5pp", metrics.accuracy > _majority_pct(state["test"]) + 5.0),
            ("test masks valid", not mask_violations(state["test"], state["vocab"], TREEBANK_CONFIG.max_len)),
        ]


TRAIN_SCRIPT = Path(__file__).resolve().parent / "train_checkpoint.py"
# Training the checkpoint takes a few seconds; a child that runs far longer
# is killed, and the set-up fails, well within the benchmark's time limit.
TRAIN_TIMEOUT_S = 60


class EvalTreebank:
    name = "eval-treebank"
    step = "eval"

    def __init__(self, sizes: dict[str, int] | None = None):
        self.sizes = sizes or {"train": 800, "dev": 200, "heldout": 2000}

    def setup(self, seed: int, out_dir):
        splits, checks = _treebank_splits(seed, self.sizes, out_dir)
        # A child process trains on the splits just written, so that this
        # process's peak_rss_mb is that of evaluation (see train_checkpoint.py).
        # subprocess.run waits for it, and kills it on a timeout or error.
        child = subprocess.run(
            [sys.executable, str(TRAIN_SCRIPT), str(out_dir)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=TRAIN_TIMEOUT_S,
        )
        ckpt = checkpoint.load_checkpoint(out_dir / "trained.ckpt")
        vocab = corpus.build_vocab(splits["train"])
        checks.append(("loaded checkpoint equals the trained one", params_digest(ckpt.params) == child.stdout.strip()))
        checks.append((
            "checkpoint vocabulary equals the train split's",
            (ckpt.vocab.doc_freq, ckpt.vocab.total_docs) == (vocab.doc_freq, vocab.total_docs),
        ))
        path = out_dir / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, path)
        return {"heldout": splits["heldout"], "ckpt": ckpt, "ckpt_path": path, "checks": checks}

    def op(self, state):
        ckpt = checkpoint.load_checkpoint(state["ckpt_path"])
        return ckpt, model.evaluate(ckpt, state["heldout"])

    def batch_inputs(self, state):
        config = state["ckpt"].config
        return state["heldout"], state["ckpt"].vocab, config.max_len, config.mask_roles()

    def fingerprint(self, state, result, op_spans) -> bytes:
        ckpt, metrics = result
        return json.dumps([params_digest(ckpt.params), metrics.correct, metrics.loss]).encode()

    def quality(self, result) -> dict[str, float]:
        return {"test_acc": result[1].accuracy}

    def checks(self, state, result, op_spans) -> list[tuple[str, bool]]:
        ckpt, metrics = result
        return [
            ("losses finite", _losses_finite(state["ckpt"]) and math.isfinite(metrics.loss)),
            ("checkpoint round-trips bit-exactly", _roundtrip_ok(state["ckpt"], state["ckpt_path"])),
            ("loaded parameters equal the trained ones", params_digest(ckpt.params) == params_digest(state["ckpt"].params)),
            ("evaluate totals equal labeled count", _eval_totals_match(op_spans)),
            ("held-out accuracy above majority class + 5pp", metrics.accuracy > _majority_pct(state["heldout"]) + 5.0),
            ("held-out masks valid", not mask_violations(state["heldout"], ckpt.vocab, ckpt.config.max_len)),
        ]


WORKLOADS = {w.name: w for w in (AblationSynthetic(), TrainTreebank(), EvalTreebank())}
