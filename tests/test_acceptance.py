"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import guided_attention.autodiff as ad
from guided_attention.autodiff import Tensor
from guided_attention.cli import main
from guided_attention.corpus import build_vocab, label_index, make_batches
from guided_attention.harness import DatasetSplits, ExperimentSpec, run_ablation
from guided_attention.masks import (
    GUIDED_ROLES,
    build_role_mask,
)
from guided_attention.model import ModelConfig, forward_batch, init_params
from guided_attention.synthetic import generate_local_pattern_task, write_plain_with_labels
from oracles import (
    attention_naive,
    columns_to_pairs,
    edge_pairs_bruteforce,
    finite_difference_grad,
    mask_zero_pairs,
    pairs_with_fallback,
    rare_columns_bruteforce,
    relative_error,
    separator_columns_bruteforce,
    tensor_sum,
    tridiagonal_pairs,
)
from test_model import TINY, sent, toy_separable

NEG_INF = float("-inf")
FIXTURE = str(Path(__file__).resolve().parent / "fixtures" / "twenty.conllu")


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {title}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number} {title}: PASS", flush=True)


@pytest.fixture(scope="module")
def synthetic_task():
    return generate_local_pattern_task(n_train=2000, n_test=500, vocab_size=50, seq_len=12, seed=0)


SYNTHETIC_CONFIG = ModelConfig(
    layers=2,
    guided_roles=GUIDED_ROLES,
    extra_regular_heads=1,
    d_model=24,
    ff_width=48,
    dropout=0.0,
    learning_rate=2e-3,
    epochs=8,  # well within the 50-epoch budget
    seed=0,
    max_len=12,
    num_classes=2,
    batch_size=32,
)


@pytest.fixture(scope="module")
def synthetic_report(synthetic_task):
    train_set, test_set = synthetic_task
    spec = ExperimentSpec(
        datasets=[DatasetSplits("synthetic", train_set, test_set[:200], test_set)],
        base_config=SYNTHETIC_CONFIG,
        layers_grid=(2,),
        extra_heads_grid=(1,),
        roles=GUIDED_ROLES,
        seeds=(0, 1, 2),
        ablate_roles=("relpos",),
        include_baseline=False,
    )
    return run_ablation(spec)


def test_criterion_1_mask_construction_suite(twenty, twenty_vocab):
    with criterion(1, "mask construction matches brute-force constructors"):
        started = time.perf_counter()
        major = {"nsubj", "dobj", "obj", "amod", "advmod"}
        for s in twenty:
            n = len(s)
            expected = {
                "rarew": columns_to_pairs(rare_columns_bruteforce(s, twenty_vocab), n),
                "seprat": columns_to_pairs(separator_columns_bruteforce(s), n),
                "depsyn": pairs_with_fallback(edge_pairs_bruteforce(s), n),
                "majrel": pairs_with_fallback(edge_pairs_bruteforce(s, major), n),
                "relpos": tridiagonal_pairs(n),
            }
            for role in GUIDED_ROLES:
                mask = build_role_mask(role, s, twenty_vocab)
                assert mask_zero_pairs(mask.values) == expected[role], (s.sent_id, role)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"mask suite took {elapsed:.3f}s"


def test_criterion_2_masked_attention_oracle():
    with criterion(2, "masked attention matches restricted-softmax oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            d_k = int(rng.integers(1, 5))
            q, k, v = (rng.normal(size=(n, d_k)) for _ in range(3))
            mask = np.where(rng.random((n, n)) < 0.5, 0.0, NEG_INF)
            for i in range(n):  # guarantee feasibility
                if not np.any(mask[i] == 0.0):
                    mask[i, i] = 0.0
            out, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), [mask])
            exp_out, exp_w = attention_naive(q, k, v, mask)
            npt.assert_allclose(out.data, exp_out, atol=1e-12)
            npt.assert_allclose(weights, exp_w, atol=1e-12)
            assert np.all(weights[mask == NEG_INF] == 0.0)
            npt.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle suite took {elapsed:.3f}s"


def test_criterion_3_gradient_suite():
    with criterion(3, "end-to-end gradients match central finite differences"):
        started = time.perf_counter()
        cfg = ModelConfig(
            layers=1, guided_roles=("relpos",), extra_regular_heads=1, d_model=8,
            ff_width=12, dropout=0.0, max_len=4, num_classes=2, batch_size=2, seed=11,
        )
        sentences = [sent(["u", "v", "w", "u"], "a"), sent(["w", "x"], "b")]
        vocab = build_vocab(sentences)
        classes = label_index(sentences)
        batch = make_batches(sentences, vocab, 2, 4, cfg.mask_roles(), shuffle=False, labels=classes)[0]
        params = init_params(cfg, len(vocab), np.random.default_rng(cfg.seed))

        loss = ad.cross_entropy(forward_batch(batch, params, cfg), batch.labels)
        ad.backward(loss, params)

        def loss_value():
            return ad.cross_entropy(forward_batch(batch, params, cfg), batch.labels).item()

        for name, p in params.items():
            (numeric,) = finite_difference_grad(loss_value, [p.data], h=1e-5)
            err = relative_error(p.grad, numeric)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"gradient suite took {elapsed:.3f}s"


def test_criterion_4_baseline_reduction_equivalence():
    with criterion(4, "zero-mask guided run is bit-identical to the unguided baseline"):
        from guided_attention.model import train

        data = toy_separable(32)
        base = dict(TINY.__dict__)
        base["epochs"] = 4
        base["dropout"] = 0.1  # equivalence must survive aligned dropout draws
        unguided = ModelConfig(**{**base, "guided_roles": (), "extra_regular_heads": 2})
        zero_masked = ModelConfig(
            **{**base, "guided_roles": ("padding", "padding"), "extra_regular_heads": 0}
        )
        a = train(unguided, data, data)
        b = train(zero_masked, data, data)
        assert a.metadata["history"] == b.metadata["history"]
        assert set(a.params) == set(b.params)
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])


def test_criterion_5_zero_influence_zero_gradient():
    with criterion(5, "masked positions have exactly zero influence and gradient"):
        rng = np.random.default_rng(5)
        n, d_k = 5, 3
        masked_key = 2
        mask = np.zeros((n, n))
        mask[:, masked_key] = NEG_INF

        q0, k0, v0 = (rng.normal(size=(n, d_k)) for _ in range(3))
        out0, _ = ad.attention(Tensor(q0), Tensor(k0), Tensor(v0), [mask])

        v1 = v0.copy()
        v1[masked_key] += rng.normal(size=d_k) * 1e3
        out_v, _ = ad.attention(Tensor(q0), Tensor(k0), Tensor(v1), [mask])
        npt.assert_array_equal(out0.data, out_v.data)  # exact, not approximate

        k1 = k0.copy()
        k1[masked_key] -= 7.5
        out_k, _ = ad.attention(Tensor(q0), Tensor(k1), Tensor(v0), [mask])
        npt.assert_array_equal(out0.data, out_k.data)

        q = Tensor(q0, requires_grad=True)
        k = Tensor(k0, requires_grad=True)
        v = Tensor(v0, requires_grad=True)
        out, _ = ad.attention(q, k, v, [mask])
        ad.backward(tensor_sum(ad.mul(out, Tensor(rng.normal(size=out.shape)))))
        npt.assert_array_equal(k.grad[masked_key], np.zeros(d_k))
        npt.assert_array_equal(v.grad[masked_key], np.zeros(d_k))
        assert np.any(k.grad[np.arange(n) != masked_key] != 0.0)
        assert np.any(v.grad[np.arange(n) != masked_key] != 0.0)


@pytest.mark.slow
def test_criterion_6_synthetic_directional_experiment(synthetic_report):
    with criterion(6, "RelPos-guided model learns the local-pattern task; its ablation hurts"):
        runs = {r.run_id: r for r in synthetic_report.runs}
        full = runs["synthetic-s0-full"]
        assert full.config.epochs <= 50
        assert full.test_acc >= 90.0, f"full model reached only {full.test_acc:.1f}%"
        assert full.wall_seconds < 300.0, f"training took {full.wall_seconds:.0f}s"

        ((role, mean_drop, _),) = synthetic_report.per_role()
        assert role == "relpos"
        seeds = {row.seed for row in synthetic_report.rows}
        assert len(seeds) >= 3
        assert mean_drop > 0.0, f"mean accuracy drop {mean_drop:.2f} not positive"


def test_criterion_7_ablation_harness_integrity(tmp_path):
    with criterion(7, "ablation differs only in the substituted mask; CSV complete"):
        data = toy_separable(36)
        splits = DatasetSplits("toy", data[:20], data[20:28], data[28:])
        spec = ExperimentSpec(
            datasets=[splits],
            base_config=ModelConfig(**{**TINY.__dict__, "guided_roles": GUIDED_ROLES,
                                       "extra_regular_heads": 1, "d_model": 12, "epochs": 2}),
            layers_grid=(1,),
            extra_heads_grid=(1,),
            roles=GUIDED_ROLES,
            seeds=(0, 1),
            include_baseline=False,
            out_dir=tmp_path,
        )
        report = run_ablation(spec)

        triples = [(r.role, r.dataset, r.seed) for r in report.rows]
        expected = [(role, "toy", seed) for seed in (0, 1) for role in GUIDED_ROLES]
        assert sorted(triples) == sorted(expected)
        assert len(triples) == len(set(triples)) == 5 * 1 * 2

        for seed in (0, 1):
            full = json.loads((tmp_path / f"toy-s{seed}-full.manifest.json").read_text())
            for role in GUIDED_ROLES:
                ablated = json.loads(
                    (tmp_path / f"toy-s{seed}-drop-{role}.manifest.json").read_text()
                )
                diff_keys = {
                    key for key in full["config"]
                    if full["config"][key] != ablated["config"][key]
                }
                assert diff_keys == {"guided_roles"}
                changed = [
                    (a, b)
                    for a, b in zip(full["config"]["guided_roles"], ablated["config"]["guided_roles"])
                    if a != b
                ]
                assert changed == [(role, "padding")]
                assert full["seed"] == ablated["seed"] == seed
                assert full["dataset"] == ablated["dataset"]


def test_criterion_8_cli_reproducibility(tmp_path, synthetic_task):
    with criterion(8, "repeated CLI commands produce byte-identical artifacts"):
        train_set, test_set = synthetic_task
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_plain_with_labels(train_set[:60], data_dir / "train.txt", data_dir / "train.tsv")
        write_plain_with_labels(test_set[:24], data_dir / "dev.txt", data_dir / "dev.tsv")
        write_plain_with_labels(test_set[24:48], data_dir / "test.txt", data_dir / "test.tsv")
        cfg_path = data_dir / "model.cfg"
        cfg_path.write_text(
            "layers = 1\nguided_roles = rarew, seprat, depsyn, majrel, relpos\n"
            "extra_regular_heads = 1\nd_model = 12\nff_width = 16\ndropout = 0.0\n"
            "learning_rate = 0.01\nepochs = 2\nseed = 0\nmax_len = 12\n"
            "num_classes = 2\nbatch_size = 16\n"
        )

        def run_all(out_root):
            assert main(["masks", "--data", FIXTURE, "--out", str(out_root / "masks")]) == 0
            assert main([
                "train", "--config", str(cfg_path),
                "--data", str(data_dir / "train.txt"), "--labels", str(data_dir / "train.tsv"),
                "--dev", str(data_dir / "dev.txt"), "--dev-labels", str(data_dir / "dev.tsv"),
                "--out", str(out_root / "train"),
            ]) == 0
            assert main([
                "eval", "--ckpt", str(out_root / "train" / "model.ckpt"),
                "--data", str(data_dir / "test.txt"), "--labels", str(data_dir / "test.tsv"),
                "--out", str(out_root / "eval"),
            ]) == 0
            assert main([
                "ablate", "--config", str(cfg_path),
                "--data", str(data_dir / "train.txt"), "--labels", str(data_dir / "train.tsv"),
                "--dev", str(data_dir / "dev.txt"), "--dev-labels", str(data_dir / "dev.tsv"),
                "--test", str(data_dir / "test.txt"), "--test-labels", str(data_dir / "test.tsv"),
                "--out", str(out_root / "ablate"), "--seeds", "0", "--ablate", "relpos",
                "--no-baseline",
            ]) == 0

        run_all(tmp_path / "first")
        run_all(tmp_path / "second")

        artifacts = [
            *(f"masks/masks_{role}.txt" for role in GUIDED_ROLES),
            "train/model.ckpt",
            "train/history.csv",
            "train/manifest.json",
            "eval/eval.csv",
            "ablate/ablation.csv",
            "ablate/ablation_summary.csv",
            "ablate/train-s0-full.manifest.json",
            "ablate/train-s0-drop-relpos.manifest.json",
        ]
        for rel in artifacts:
            first = (tmp_path / "first" / rel).read_bytes()
            second = (tmp_path / "second" / rel).read_bytes()
            assert first == second, f"{rel} differs between reruns"
