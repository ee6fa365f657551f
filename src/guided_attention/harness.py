"""Experiment orchestration: configuration grids, drop-one-role ablations,
and CSV metric emission.

Every run is identified by a deterministic ``run_id`` and described by a run
manifest (the fully resolved config plus dataset and seed). An ablated run's
manifest differs from its full-model counterpart only in the single role
that was replaced by the padding mask, which makes comparability checkable
by diffing manifests.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Sentence
from .errors import ConfigError, GuidedAttentionError
from .masks import GUIDED_ROLES, ROLE_PADDING
from .model import (
    DEFAULT_EXTRA_HEAD_GRID,
    DEFAULT_LAYER_GRID,
    ModelConfig,
    evaluate,
    train,
)

RESULT_COLUMNS = (
    "run_id", "dataset", "layers", "heads", "guided_heads", "roles",
    "seed", "dev_acc", "test_acc", "epochs", "wall_seconds",
)
ABLATION_COLUMNS = ("role", "dataset", "seed", "full_acc", "ablated_acc", "drop")
SUMMARY_COLUMNS = ("role", "mean_drop", "std_drop")


@dataclass
class DatasetSplits:
    name: str
    train: list[Sentence]
    dev: list[Sentence]
    test: list[Sentence]


def reject_repeats(what: str, values) -> None:
    """Raise :class:`ConfigError` naming the first value that ``values`` repeats."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what}: {value!r} given twice")


def check_jobs(what: str, jobs: int) -> None:
    """Raise :class:`ConfigError` unless ``jobs``, the worker count ``what`` names, is at least 1."""
    if jobs < 1:
        raise ConfigError(f"{what} must be >= 1, got {jobs}")


@dataclass
class ExperimentSpec:
    datasets: list[DatasetSplits]
    base_config: ModelConfig
    layers_grid: tuple[int, ...] = DEFAULT_LAYER_GRID
    extra_heads_grid: tuple[int, ...] = DEFAULT_EXTRA_HEAD_GRID
    roles: tuple[str, ...] = GUIDED_ROLES
    seeds: tuple[int, ...] = (0,)
    ablate_roles: tuple[str, ...] | None = None  # None = every enabled role
    include_baseline: bool = True
    out_dir: Path | None = None
    jobs: int = 1

    def validate(self) -> None:
        if not self.datasets:
            raise ConfigError("experiment needs at least one dataset")
        if not self.layers_grid or not self.extra_heads_grid:
            raise ConfigError("configuration grid must be non-empty")
        if not self.seeds:
            raise ConfigError("at least one seed (repetition) is required")
        # A repeated grid value or seed trains a run twice; a repeated ablated role counts its drops twice.
        for name in ("layers_grid", "extra_heads_grid", "seeds", "ablate_roles"):
            reject_repeats(name, getattr(self, name) or ())
        check_jobs("jobs", self.jobs)
        for role in self.ablate_roles or ():
            if role not in self.roles:
                raise ConfigError(f"cannot ablate disabled role {role!r}")


@dataclass
class RunResult:
    run_id: str
    dataset: str
    config: ModelConfig
    seed: int
    dev_acc: float | None
    test_acc: float | None
    wall_seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class AblationRow:
    role: str
    dataset: str
    seed: int
    full_acc: float
    ablated_acc: float

    @property
    def drop(self) -> float:
        return self.full_acc - self.ablated_acc


@dataclass
class AblationReport:
    rows: list[AblationRow]
    full_accuracy: float
    baseline_accuracy: float | None = None
    runs: list[RunResult] = field(default_factory=list)

    def per_role(self) -> list[tuple[str, float, float]]:
        """(role, mean drop, std of drop) in first-appearance order."""
        order = list(dict.fromkeys(row.role for row in self.rows))
        out = []
        for role in order:
            drops = np.array([row.drop for row in self.rows if row.role == role])
            out.append((role, float(drops.mean()), float(drops.std())))
        return out


@dataclass
class GridReport:
    rows: list[RunResult]
    selected: dict[str, RunResult]  # dataset -> best-dev run


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


def run_manifest(run_id: str, dataset: str, config: ModelConfig, seed: int) -> dict:
    return {"run_id": run_id, "dataset": dataset, "seed": seed, "config": config.to_dict()}


def write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def run_single(
    run_id: str,
    config: ModelConfig,
    splits: DatasetSplits,
    out_dir: Path | None = None,
    save_ckpt: bool = False,
) -> RunResult:
    """Train one configuration and score it on the test split.

    Any exception ends only this run: it is returned as a failed result whose
    ``error`` is ``"<ExceptionType>: <message>"``, so a grid or ablation
    keeps its other runs. An exception that is not a ``GuidedAttentionError``
    also prints its traceback to stderr.
    """
    manifest = run_manifest(run_id, splits.name, config, config.seed)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_manifest(out_dir / f"{run_id}.manifest.json", manifest)
    started = time.perf_counter()
    try:
        ckpt = train(config, splits.train, splits.dev)
        dev_acc = max(row["dev_acc"] for row in ckpt.metadata["history"])
        test_acc = evaluate(ckpt, splits.test).accuracy
    except Exception as exc:
        if not isinstance(exc, GuidedAttentionError):
            traceback.print_exc()  # a program fault, not bad input: show where it happened
        return RunResult(
            run_id, splits.name, config, config.seed,
            dev_acc=None, test_acc=None,
            wall_seconds=time.perf_counter() - started, error=f"{type(exc).__name__}: {exc}",
        )
    wall = time.perf_counter() - started
    if save_ckpt and out_dir is not None:
        from .checkpoint import save_checkpoint

        save_checkpoint(ckpt, out_dir / f"{run_id}.ckpt")
    return RunResult(run_id, splits.name, config, config.seed, dev_acc, test_acc, wall)


def _run_job(args) -> RunResult:
    run_id, config, splits, out_dir, save_ckpt = args
    return run_single(run_id, config, splits, out_dir=out_dir, save_ckpt=save_ckpt)


# What BLAS libraries read their thread count from, once, when they load.
_BLAS_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _execute(jobs: list, n_workers: int) -> list[RunResult]:
    """Each job's result, in order; ``n_workers`` > 1 runs them in that many spawned processes.

    Each worker loads BLAS afresh, limited to one thread, so the workers do
    not share the cores among their BLAS threads as well. The limit is set in
    this process's environment while the pool runs and then restored.
    """
    n_workers = min(n_workers, len(jobs))  # no pool starts more workers than there are jobs
    if n_workers <= 1:
        return [_run_job(job) for job in jobs]
    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_run_job, jobs))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def run_grid(spec: ExperimentSpec, save_ckpts: bool = False) -> GridReport:
    """Train every (dataset x layers x extra-heads x seed) point; pick by dev."""
    spec.validate()
    jobs = []
    for splits in spec.datasets:
        for layers in spec.layers_grid:
            for extra in spec.extra_heads_grid:
                for seed in spec.seeds:
                    config = replace(
                        spec.base_config,
                        layers=layers,
                        extra_regular_heads=extra,
                        guided_roles=spec.roles,
                        seed=seed,
                    )
                    run_id = f"{splits.name}-L{layers}-E{extra}-s{seed}"
                    jobs.append((run_id, config, splits, spec.out_dir, save_ckpts))
    rows = _execute(jobs, spec.jobs)

    selected: dict[str, RunResult] = {}
    for row in rows:
        if not row.ok:
            continue
        current = selected.get(row.dataset)
        if current is None or row.dev_acc > current.dev_acc:
            selected[row.dataset] = row
    return GridReport(rows=rows, selected=selected)


# ---------------------------------------------------------------------------
# Drop-one-role ablation
# ---------------------------------------------------------------------------


def ablated_roles(roles: tuple[str, ...], dropped: str) -> tuple[str, ...]:
    """Replace one role with the padding pseudo-role, keeping head count."""
    if dropped not in roles:
        raise ConfigError(f"role {dropped!r} not among enabled roles {roles}")
    return tuple(ROLE_PADDING if r == dropped else r for r in roles)


def run_ablation(spec: ExperimentSpec) -> AblationReport:
    """Retrain with each enabled role's mask swapped for the padding mask.

    Full and ablated runs for a (dataset, seed) pair share everything -
    seed, data order, every config field - except the one substituted role.
    """
    spec.validate()
    to_ablate = spec.ablate_roles if spec.ablate_roles is not None else spec.roles
    base = replace(spec.base_config, guided_roles=spec.roles)

    jobs = []
    for splits in spec.datasets:
        for seed in spec.seeds:
            full_cfg = replace(base, seed=seed)
            jobs.append((f"{splits.name}-s{seed}-full", full_cfg, splits, spec.out_dir, False))
            for role in to_ablate:
                cfg = replace(full_cfg, guided_roles=ablated_roles(spec.roles, role))
                jobs.append((f"{splits.name}-s{seed}-drop-{role}", cfg, splits, spec.out_dir, False))
            if spec.include_baseline:
                cfg = replace(full_cfg, guided_roles=(), extra_regular_heads=full_cfg.heads)
                jobs.append((f"{splits.name}-s{seed}-baseline", cfg, splits, spec.out_dir, False))
    runs = _execute(jobs, spec.jobs)
    by_id = {run.run_id: run for run in runs}

    rows = []
    full_accs, baseline_accs = [], []
    for splits in spec.datasets:
        for seed in spec.seeds:
            full = by_id[f"{splits.name}-s{seed}-full"]
            if not full.ok:
                continue  # recorded in runs; no drops computable for this pair
            full_accs.append(full.test_acc)
            if spec.include_baseline:
                baseline = by_id[f"{splits.name}-s{seed}-baseline"]
                if baseline.ok:
                    baseline_accs.append(baseline.test_acc)
            for role in to_ablate:
                ablated = by_id[f"{splits.name}-s{seed}-drop-{role}"]
                if not ablated.ok:
                    continue
                rows.append(
                    AblationRow(
                        role=role, dataset=splits.name, seed=seed,
                        full_acc=full.test_acc, ablated_acc=ablated.test_acc,
                    )
                )
    if not full_accs:
        raise ConfigError(f"every full-model run failed: {[r.error for r in runs if not r.ok][:1]}")
    return AblationReport(
        rows=rows,
        full_accuracy=float(np.mean(full_accs)),
        baseline_accuracy=float(np.mean(baseline_accs)) if baseline_accs else None,
        runs=runs,
    )


# ---------------------------------------------------------------------------
# Metric emission
# ---------------------------------------------------------------------------


def fixed(value, places: int = 6) -> str:
    """``value`` with ``places`` decimals; None is the empty cell."""
    if value is None:
        return ""
    return f"{value:.{places}f}"


def csv_table(columns: tuple[str, ...], rows) -> str:
    """A header line of ``columns``, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def result_rows_csv(rows: list[RunResult]) -> str:
    return csv_table(RESULT_COLUMNS, (
        [
            r.run_id, r.dataset, r.config.layers, r.config.heads, r.config.guided_heads,
            "+".join(r.config.guided_roles), r.seed, fixed(r.dev_acc), fixed(r.test_acc),
            r.config.epochs, fixed(r.wall_seconds, 3),
        ]
        for r in rows
    ))


def ablation_rows_csv(rows: list[AblationRow]) -> str:
    return csv_table(
        ABLATION_COLUMNS,
        ([r.role, r.dataset, r.seed, fixed(r.full_acc), fixed(r.ablated_acc), fixed(r.drop)] for r in rows),
    )


def ablation_summary_csv(report: AblationReport) -> str:
    return csv_table(SUMMARY_COLUMNS, ([role, fixed(mean), fixed(std)] for role, mean, std in report.per_role()))


def emit_metrics(
    out_dir: Path,
    grid_rows: list[RunResult] | None = None,
    ablation: AblationReport | None = None,
) -> list[Path]:
    """Write result tables as CSV files; re-emission is byte-identical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {}
    if grid_rows is not None:
        tables["results.csv"] = result_rows_csv(grid_rows)
    if ablation is not None:
        tables["ablation.csv"] = ablation_rows_csv(ablation.rows)
        tables["ablation_summary.csv"] = ablation_summary_csv(ablation)
    for name, text in tables.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in tables]
