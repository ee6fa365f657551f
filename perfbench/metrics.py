"""Reduce recorded spans to the benchmark's end-to-end and per-layer metrics.

``ops`` are (first, stop) index ranges into the span list, one per timed
operation; the first span of each range is its ``bench.op`` root. Every
timing is a median or percentile over operations, passes or steps, or a
mean per call, so the number of operations a run fits in does not change
what a metric means.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, INFO, LAYERS, NAME, PARENT, START

ROLES = ("rarew", "seprat", "depsyn", "majrel", "relpos")
FORWARD_STAGES = {
    "embed": "model.embed",
    "attn": "attention.multi_head",
    "norm1": "autodiff.layer_norm.norm1",
    "ff": "model.fwd.ff",
    "norm2": "autodiff.layer_norm.norm2",
    "classifier": "model.classify",
}
# Mean inclusive time per call, over set-ups and operations: these functions
# do a workload's set-up work.
SETUP_PER_CALL_MS = {
    "corpus.parse_ms": "corpus.parse_conllu",
    "corpus.vocab_ms": "corpus.build_vocab",
    "checkpoint.save_ms": "checkpoint.save_checkpoint",
    "checkpoint.load_ms": "checkpoint.load_checkpoint",
    "synthetic.generate_ms": "synthetic.generate_local_pattern_task",
}
# Mean inclusive time per call, over operations only.
PER_CALL_MS = {
    "corpus.make_batches_ms": "corpus.make_batches",
    **{f"masks.build_ms.{role}": f"masks.build_role_mask.{role}" for role in ROLES},
    "masks.build_ms.padding": "masks.padding_mask",
    "masks.combine_ms": "masks.combine",
    "autodiff.backward_ms": "autodiff.backward",
    "model.adam_ms": "model.Adam.step",
}
NOT_AUTODIFF_OPS = frozenset({"autodiff.backward", "autodiff.zero_grads", "autodiff.parameter"})


def _duration(span) -> float:
    return span[END] - span[START]


def step_intervals(spans, first: int, stop: int, kind: str) -> list[tuple[float, float]]:
    """A training step runs from ``zero_grads`` to the end of ``Adam.step``; an eval step is one forward pass."""
    intervals, step_start = [], None
    for span in spans[first:stop]:
        if kind == "train" and span[NAME] == "autodiff.zero_grads":
            step_start = span[START]
        elif kind == "train" and span[NAME] == "model.Adam.step":
            intervals.append((step_start, span[END]))
        elif kind == "eval" and span[NAME] == "model.forward_batch":
            intervals.append((span[START], span[END]))
    return intervals


def _raw_seconds(start: float, end: float) -> float:
    return end - start


def op_rates(spans, first: int, stop: int, seconds=_raw_seconds) -> dict[str, float]:
    """Sentences per second inside train, evaluate and make_batches during one operation."""
    busy, sentences = defaultdict(float), defaultdict(int)
    for span in spans[first:stop]:
        if span[NAME] in ("model.train", "model.evaluate", "corpus.make_batches"):
            busy[span[NAME]] += seconds(span[START], span[END])
            sentences[span[NAME]] += span[INFO][0]
    return {name: sentences[name] / busy[name] for name in busy}


def _percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(spans, ops, probes, kind: str, seconds=_raw_seconds) -> tuple[dict[str, float], dict[str, int]]:
    """Timings of the operations, their steps and the batching probe, and the sample counts.

    ``seconds(start, end)`` converts an interval to the seconds it reports,
    the raw difference by default.
    """
    rates = [op_rates(spans, first, stop, seconds) for first, stop in ops]
    steps = [
        1e3 * seconds(start, end) for first, stop in ops for start, end in step_intervals(spans, first, stop, kind)
    ]
    batch_rates = [
        sum(s[INFO][0] for s in spans[first:stop] if s[NAME] == "corpus.make_batches")
        / seconds(spans[first][START], spans[first][END])
        for first, stop in probes
    ]
    main = "model.train" if kind == "train" else "model.evaluate"
    metrics = {
        "sents_per_s": statistics.median(r[main] for r in rates),
        "eval_sents_per_s": statistics.median(r["model.evaluate"] for r in rates),
        "batch_sents_per_s": statistics.median(batch_rates) if batch_rates else 0.0,
        "step_ms_p50": statistics.median(steps),
        "step_ms_p95": _percentile(steps, 95),
        "wall_s": statistics.median(seconds(spans[first][START], spans[first][END]) for first, _ in ops),
    }
    return metrics, {"steps": len(steps), "batching_passes": len(batch_rates), "operations": len(ops)}


def per_layer(spans, setups, ops) -> dict[str, float]:
    """Per-call times, per-operation self times and exact counts from a fully traced run."""
    def per_call_ms(ranges, name):
        durations = [_duration(s) for first, stop in ranges for s in spans[first:stop] if s[NAME] == name]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    out = {metric: per_call_ms([*setups, *ops], name) for metric, name in SETUP_PER_CALL_MS.items()}
    out.update({metric: per_call_ms(ops, name) for metric, name in PER_CALL_MS.items()})

    child = defaultdict(float)
    op_spans = [s for first, stop in ops for s in spans[first:stop]]
    for first, stop in ops:
        for span in spans[first + 1:stop]:
            child[span[PARENT]] += _duration(span)
    self_ms = defaultdict(float)
    for first, stop in ops:
        for index in range(first, stop):
            span = spans[index]
            self_ms[span[NAME].split(".", 1)[0]] += 1e3 * (_duration(span) - child[index])
    n_ops = len(ops)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer] / n_ops
    out["trace.uncovered_ms"] = self_ms["bench"] / n_ops
    out["trace.op_ms"] = 1e3 * sum(_duration(spans[first]) for first, _ in ops) / n_ops

    op_calls, op_info = defaultdict(int), defaultdict(list)
    for span in op_spans:
        op_calls[span[NAME]] += 1
        if span[INFO] is not None:
            op_info[span[NAME]].append(span[INFO])
    forwards = op_calls["model.forward_batch"]
    for stage, name in FORWARD_STAGES.items():
        out[f"model.fwd.{stage}_ms"] = 1e3 * sum(
            _duration(s) for s in op_spans if s[NAME] == name
        ) / forwards if forwards else 0.0

    batches = op_info["corpus.make_batches"]
    out["corpus.pad_ratio"] = sum(b[1] for b in batches) / sum(b[2] for b in batches)
    per_op = []
    for first, stop in ops:
        builds = [(s[NAME], s[INFO]) for s in spans[first:stop] if s[NAME].startswith("masks.build_role_mask.")]
        per_op.append(len(builds) / len(set(builds)) if builds else 0.0)
    out["masks.builds_per_distinct"] = statistics.median(per_op)
    attention = op_info["attention.masked_attention"]
    elems = sum(a[0] for a in attention)
    out["attention.score_elems"] = elems / forwards if forwards else 0.0
    out["attention.open_share"] = sum(a[1] for a in attention) / elems if elems else 0.0
    autodiff_ops = sum(
        n for name, n in op_calls.items() if name.startswith("autodiff.") and name not in NOT_AUTODIFF_OPS
    )
    out["autodiff.ops_per_step"] = autodiff_ops / forwards if forwards else 0.0
    out["autodiff.matmul_flops_per_step"] = sum(op_info["autodiff.matmul"]) / forwards if forwards else 0.0

    saved = [s[INFO] for first, stop in [*setups, *ops] for s in spans[first:stop]
             if s[NAME] in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")]
    out["checkpoint.bytes"] = float(saved[-1]) if saved else 0.0
    runs = op_info["harness.run_single"]
    out["harness.run_wall_s"] = per_call_ms(ops, "harness.run_single") / 1e3
    out["harness.runs_attempted"] = len(runs) / n_ops
    out["harness.runs_failed"] = sum(not r.ok for r in runs) / n_ops
    return out
