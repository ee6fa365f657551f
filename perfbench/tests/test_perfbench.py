"""Tests of the benchmark itself: generator, tracing transparency, exact counts, checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from guided_attention import masks
from guided_attention.corpus import parse_conllu, serialize_conllu
from guided_attention.masks import MAJOR_RELATIONS, SEPARATOR_FORMS
from metrics import per_layer
from spans import LAYERS, Tracer, install
from speed import REFERENCE_SECONDS, SpeedGauge
from treebank import MAX_TOKENS, generate_treebank
from workloads import AblationSynthetic, EvalTreebank, TrainTreebank, mask_violations

BENCH_DIR = Path(__file__).resolve().parent.parent
EXACT_COUNTS = (
    "corpus.pad_ratio", "masks.builds_per_distinct", "attention.score_elems",
    "attention.open_share", "autodiff.ops_per_step", "autodiff.matmul_flops_per_step",
)


def small_workloads():
    return [
        AblationSynthetic(n_train=96, n_held_out=96),
        TrainTreebank(sizes={"train": 96, "dev": 32, "test": 48}),
        EvalTreebank(sizes={"train": 96, "dev": 32, "heldout": 64}),
    ]


def traced_op(workload, out_dir, full=True):
    """One set-up and one operation in a fresh tracer; return (state, result, tracer, setups, ops)."""
    tracer = Tracer()
    restore = install(tracer, full=full)
    try:
        first = tracer.begin("bench.setup")
        state = workload.setup(3, out_dir)
        tracer.end(first)
        setups = [(first, len(tracer.spans))]
        first = tracer.begin("bench.op")
        result = workload.op(state)
        tracer.end(first)
        ops = [(first, len(tracer.spans))]
    finally:
        restore()
    return state, result, tracer, setups, ops


def test_treebank_round_trips_and_covers_the_mask_paths():
    sentences = generate_treebank(400, seed=[7, 0], prefix="t")
    errors = []
    parsed = parse_conllu(serialize_conllu(sentences), errors)
    assert errors == []
    assert [(s.tokens, s.label, s.sent_id) for s in parsed] == [(s.tokens, s.label, s.sent_id) for s in sentences]
    assert max(len(s) for s in sentences) <= MAX_TOKENS
    assert {s.label for s in sentences} == {"trans", "intr"}
    with_separator = sum(any(t.form in SEPARATOR_FORMS for t in s.tokens) for s in sentences)
    assert 0.5 * len(sentences) < with_separator < len(sentences)
    assert any(not any(t.deprel in MAJOR_RELATIONS for t in s.tokens) for s in sentences)
    again = generate_treebank(400, seed=[7, 0], prefix="t")
    assert [s.tokens for s in again] == [s.tokens for s in sentences]


@pytest.mark.parametrize("index", range(3))
def test_wrappers_leave_results_bit_identical(index, tmp_path):
    workload = small_workloads()[index]
    state = workload.setup(3, tmp_path)
    bare = workload.fingerprint(state, workload.op(state), [])
    _, result, _, _, _ = traced_op(workload, tmp_path, full=True)
    assert workload.fingerprint(state, result, []) == bare
    assert workload.fingerprint(state, workload.op(state), []) == bare


@pytest.mark.parametrize("index", range(3))
def test_exact_counts_repeat_and_self_times_add_up(index, tmp_path):
    workload = small_workloads()[index]
    runs = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        _, _, tracer, setups, ops = traced_op(workload, tmp_path / str(k))
        runs.append(per_layer(tracer.spans, setups, ops))
    for name in EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name
    metrics = runs[0]
    accounted = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS) + metrics["trace.uncovered_ms"]
    assert accounted == pytest.approx(metrics["trace.op_ms"], rel=1e-9)
    assert metrics["corpus.pad_ratio"] == (1.0 if index == 0 else pytest.approx(0.25, abs=0.1))


def test_workload_checks_pass(tmp_path):
    for k, workload in enumerate(small_workloads()):
        (tmp_path / str(k)).mkdir()
        state, result, tracer, _, ops = traced_op(workload, tmp_path / str(k), full=False)
        first, stop = ops[0]
        checks = [*state["checks"], *workload.checks(state, result, tracer.spans[first:stop])]
        # Tiny training sets need not learn, so the accuracy checks may fail here.
        failed = [name for name, ok in checks if not ok and "above majority" not in name]
        assert failed == [], workload.name


def test_mask_check_catches_a_missing_fallback(monkeypatch):
    sentences = generate_treebank(64, seed=[1, 0], prefix="t")
    vocab_sentences = generate_treebank(64, seed=[1, 1], prefix="v")
    from guided_attention.corpus import build_vocab

    vocab = build_vocab(vocab_sentences + sentences)
    assert mask_violations(sentences, vocab, MAX_TOKENS) == []
    monkeypatch.setattr(masks, "apply_fallback", lambda mask, n_valid: mask)
    assert any("no open valid key" in p for p in mask_violations(sentences, vocab, MAX_TOKENS))


def test_gauge_removes_its_samples_and_rescales():
    gauge = SpeedGauge()
    gauge.starts, gauge.ends = [0.0, 5.0, 10.0], [0.002, 5.005, 10.003]
    # One sample inside and within the window: its time is removed and its speed used.
    assert gauge.seconds(4.5, 6.0) == pytest.approx((1.5 - 0.005) * REFERENCE_SECONDS / 0.005)
    # No sample within the window: the closest one's speed.
    assert gauge.seconds(2.0, 2.5) == pytest.approx(0.5 * REFERENCE_SECONDS / 0.002)
    # Several: all removed, their median speed.
    assert gauge.seconds(-0.5, 10.5) == pytest.approx((11.0 - 0.010) * REFERENCE_SECONDS / 0.003)
    gauge.sample()
    assert gauge.ends[-1] > gauge.starts[-1] > 10.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "eval-treebank", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
