"""Benchmark of the guided_attention package: one workload per process.

    python3 perfbench/run.py --workload ablation-synthetic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``
directory. The run sets up the workload's inputs from ``--seed`` several
times (their median is ``setup_s``), then repeats the workload's operation
for ``--seconds``, one closed-loop client in this process, and checks the
outputs. With ``--trace 0`` it also times passes of ``make_batches`` over
the workload's sentences, one batch at a time, between operations, reports
every timing at the reference speed of ``speed.py``, and prints the
end-to-end metrics. With ``--trace 1`` it
repeats the operation untraced for half the time, then with every public
function of the traced layers wrapped, and prints the per-layer metrics in
raw time, including the tracing overhead. The last line of standard output
is the result as one JSON object; the exit code is 0 only when every
operation and check succeeded. Spans, checks and the environment are also
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ablation-synthetic", "train-treebank", "eval-treebank")
SETUP_REPEATS = 3
MIN_OPS = 2
MIN_SAMPLES = 200
# Share of the timed loop spent on batching passes, run between operations.
PROBE_SHARE = 0.1
BATCH_SIZE = 32
# End-to-end timings gated by BENCHMARK.json. eval_sents_per_s and
# step_ms_p95 spread by 11 to 16% between runs even at the reference speed,
# so they are reported, raw, by the traced run only.
GATED_TIMINGS = ("sents_per_s", "batch_sents_per_s", "step_ms_p50", "wall_s")
BLAS_THREADS = 1
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def unit_of(name: str) -> str:
    if name.endswith("sents_per_s"):
        return "sent/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_acc") or name.endswith("_pct"):
        return "%"
    if name.endswith("_pp"):
        return "pp"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy_version, "blas_threads": BLAS_THREADS, "commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


class Run:
    """Set-ups, timed operations, batching passes and checks of one workload, with their spans.

    With a ``gauge``, a speed sample is taken before and after every set-up,
    after every operation, between batches of a batching pass and, through
    the tracer's return hook, after training steps and evaluation forward
    passes.
    """

    def __init__(self, workload, seed: int, out_dir: Path, tracer, gauge=None):
        self.workload, self.seed, self.out_dir, self.tracer, self.gauge = workload, seed, out_dir, tracer, gauge
        self.state = None
        self.setup_intervals: list[tuple[float, float]] = []
        self.setup_ranges: list[tuple[int, int]] = []
        self.op_ranges: list[tuple[int, int]] = []
        self.probe_ranges: list[tuple[int, int]] = []
        self.results: list = []
        self.checks: list[tuple[str, bool]] = []
        self.failed_ops = 0
        if gauge is not None:
            tracer.on_return = self._between_steps

    def _between_steps(self, name, args, kwargs) -> None:
        if name == "model.Adam.step" or (name == "model.forward_batch" and not kwargs.get("training", False)):
            self._sample(due_only=True)

    def _sample(self, due_only: bool = False) -> None:
        if self.gauge is None:
            return
        if due_only:
            self.gauge.maybe_sample()
        else:
            self.gauge.sample()

    def setup(self) -> None:
        self._sample()
        first = self.tracer.begin("bench.setup")
        self.state = self.workload.setup(self.seed, self.out_dir)
        self.tracer.end(first)
        self._sample()
        span = self.tracer.spans[first]
        self.setup_intervals.append((span[1], span[2]))
        self.setup_ranges.append((first, len(self.tracer.spans)))
        self.checks.extend(self.state["checks"])

    def ops(self, seconds: float, min_ops: int, probe: bool = False) -> list[tuple[int, int]]:
        """Repeat the operation until ``seconds`` passed and the minimums are met; return its ranges."""
        from metrics import step_intervals

        ranges, steps, started, probing = [], 0, time.perf_counter(), 0.0
        while time.perf_counter() - started < seconds or len(ranges) < min_ops or steps < MIN_SAMPLES:
            gc.collect()  # garbage the last operation left is not this one's to collect
            first = self.tracer.begin("bench.op")
            try:
                result = self.workload.op(self.state)
            except Exception:  # one failed operation fails the run, reported, not raised
                self.tracer.end(first)
                traceback.print_exc()
                self.failed_ops += 1
                break
            self.tracer.end(first)
            self._sample()
            ranges.append((first, len(self.tracer.spans)))
            self.results.append((result, self.fingerprint(result, ranges[-1])))
            steps += len(step_intervals(self.tracer.spans, *ranges[-1], self.workload.step))
            while probe and probing < PROBE_SHARE * (time.perf_counter() - started):
                probing += self.batching_pass()
        self.op_ranges.extend(ranges)
        return ranges

    def batching_pass(self) -> float:
        """``make_batches`` over all the workload's sentences, one batch per call; return its seconds."""
        from guided_attention import corpus

        sentences, vocab, max_len, roles = self.workload.batch_inputs(self.state)
        gc.collect()
        first = self.tracer.begin("bench.batching")
        for start in range(0, len(sentences), BATCH_SIZE):
            corpus.make_batches(sentences[start:start + BATCH_SIZE], vocab, BATCH_SIZE, max_len, roles, shuffle=False)
            self._sample(due_only=True)
        self.tracer.end(first)
        self.probe_ranges.append((first, len(self.tracer.spans)))
        span = self.tracer.spans[first]
        return span[2] - span[1]

    def fingerprint(self, result, span_range) -> bytes:
        return self.workload.fingerprint(self.state, result, self.tracer.spans[slice(*span_range)])

    def check_outputs(self) -> None:
        if not self.results:
            return
        result, first_print = self.results[0]
        self.checks.append(
            ("repeated operations give identical outputs", all(p == first_print for _, p in self.results))
        )
        first, stop = self.op_ranges[0]
        self.checks.extend(self.workload.checks(self.state, result, self.tracer.spans[first:stop]))

    @property
    def attempted(self) -> int:
        return len(self.results) + self.failed_ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(not ok for _, ok in self.checks)


def measure(run, args, import_interval: tuple[float, float], notes: dict) -> dict[str, float]:
    """Untraced run: set-ups, timed operations with batching probes, checks; the end-to-end metrics."""
    from metrics import end_to_end
    from spans import install

    gauge = run.gauge
    gauge.sample()
    restore = install(run.tracer, full=False)
    try:
        for _ in range(SETUP_REPEATS):
            run.setup()
        run.ops(args.seconds, MIN_OPS, probe=True)
    finally:
        restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check_outputs()
    if not run.results:
        return {}
    timings, counts = end_to_end(run.tracer.spans, run.op_ranges, run.probe_ranges, run.workload.step, gauge.seconds)
    notes.update(counts)
    metrics = {name: timings[name] for name in GATED_TIMINGS}
    metrics["setup_s"] = gauge.seconds(*import_interval) + statistics.median(
        gauge.seconds(*interval) for interval in run.setup_intervals
    )
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["test_acc"] = run.workload.quality(run.results[0][0])["test_acc"]
    return metrics


def trace(run, args, out_dir: Path) -> dict[str, float]:
    """Traced run: a traced set-up, untraced then traced operations, checks; the per-layer metrics."""
    from metrics import end_to_end, per_layer
    from spans import END, START, install

    restore = install(run.tracer, full=True)
    try:
        run.setup()
    finally:
        restore()
    restore = install(run.tracer, full=False)
    try:
        plain = run.ops(args.seconds / 2, 1)
    finally:
        restore()
    restore = install(run.tracer, full=True)
    try:
        traced = run.ops(args.seconds / 2, 1)
    finally:
        restore()
    run.check_outputs()
    if not (plain and traced):
        return {}
    spans = run.tracer.spans
    metrics = per_layer(spans, run.setup_ranges, traced)
    raw, _ = end_to_end(spans, plain, [], run.workload.step)
    metrics.update({f"untraced.{name}": value for name, value in raw.items() if name != "batch_sents_per_s"})
    metrics["harness.relpos_drop_pp"] = run.workload.quality(run.results[0][0]).get("relpos_drop_pp", 0.0)
    wall = [statistics.median(spans[first][END] - spans[first][START] for first, _ in r) for r in (plain, traced)]
    metrics["trace.overhead_pct"] = 100.0 * (wall[1] / wall[0] - 1.0)
    run.tracer.write(out_dir / "spans.tsv")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "guided_attention" / "__init__.py").is_file():
        print(f"error: no guided_attention package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy

    import guided_attention
    from workloads import WORKLOADS
    import_interval = (started, time.perf_counter())
    if Path(guided_attention.__file__).resolve().parent != (src / "guided_attention").resolve():
        print(f"error: guided_attention imported from {guided_attention.__file__}, not {src}", file=sys.stderr)
        return 2

    from spans import Tracer
    from speed import SpeedGauge

    env = environment(args, numpy.__version__)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gauge = SpeedGauge() if args.trace == 0 else None
    run = Run(WORKLOADS[args.workload], args.seed, out_dir, Tracer(), gauge)
    notes: dict[str, int] = {}
    metrics: dict[str, float] = {}
    try:
        metrics = measure(run, args, import_interval, notes) if args.trace == 0 else trace(run, args, out_dir)
    except Exception:  # a failed set-up or check fails the run with a result, not a bare traceback
        traceback.print_exc()
        run.failed_ops += 1

    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    report = {"environment": env, "checks": run.checks, "samples": notes, "result": result}
    (out_dir / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    for name, ok in run.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    if notes:
        print(f"samples: {notes['operations']} operations, {notes['steps']} steps, "
              f"{notes['batching_passes']} batching passes")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
