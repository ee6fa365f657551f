import json
import os

import numpy as np
import pytest

import guided_attention.harness as harness
from guided_attention.errors import ConfigError
from guided_attention.harness import (
    ABLATION_COLUMNS,
    RESULT_COLUMNS,
    DatasetSplits,
    ExperimentSpec,
    RunResult,
    ablated_roles,
    ablation_rows_csv,
    emit_metrics,
    result_rows_csv,
    run_ablation,
    run_grid,
    run_single,
)
from guided_attention.model import ModelConfig
from test_model import TINY, toy_separable


class BlasThreadsProbe:
    """Empty splits whose name is the BLAS thread limit of the process that reads it; training on them fails fast."""

    train = dev = test = ()

    @property
    def name(self) -> str:
        return ",".join(f"{var}={os.environ.get(var)}" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


@pytest.fixture(scope="module")
def splits():
    data = toy_separable(40)
    return DatasetSplits(name="toy", train=data[:24], dev=data[24:32], test=data[32:])


def tiny_spec(splits, **overrides) -> ExperimentSpec:
    defaults = dict(
        datasets=[splits],
        base_config=TINY,
        layers_grid=(1,),
        extra_heads_grid=(1,),
        roles=("relpos",),
        seeds=(0,),
        include_baseline=False,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunGrid:
    def test_degenerate_grid_is_single_run(self, splits):
        report = run_grid(tiny_spec(splits))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.ok and row.dataset == "toy"
        assert report.selected["toy"] is row

    def test_broken_config_isolated(self, splits):
        # d_model = 8: 1 guided + 2 extra = 3 heads does not divide 8
        report = run_grid(tiny_spec(splits, extra_heads_grid=(1, 2)))
        ok = [r for r in report.rows if r.ok]
        failed = [r for r in report.rows if not r.ok]
        assert len(ok) == 1 and len(failed) == 1
        assert "divisible" in failed[0].error
        assert report.selected["toy"] is ok[0]

    def test_selected_is_argmax_of_logged_dev(self, splits):
        report = run_grid(tiny_spec(splits, seeds=(0, 1, 2)))
        best = max((r for r in report.rows if r.ok), key=lambda r: r.dev_acc)
        assert report.selected["toy"].dev_acc == best.dev_acc

    def test_crashed_run_recorded_as_failed_row(self, splits, monkeypatch, capsys):
        real_train = harness.train

        def train(config, *args, **kwargs):
            if config.seed == 1:
                raise RuntimeError("simulated crash")
            return real_train(config, *args, **kwargs)

        monkeypatch.setattr(harness, "train", train)
        report = run_grid(tiny_spec(splits, seeds=(0, 1, 2)))
        assert [r.run_id for r in report.rows] == ["toy-L1-E1-s0", "toy-L1-E1-s1", "toy-L1-E1-s2"]
        assert [r.ok for r in report.rows] == [True, False, True]
        assert report.rows[1].error == "RuntimeError: simulated crash"
        assert report.selected["toy"].ok
        assert "Traceback" in capsys.readouterr().err

    def test_empty_grid_rejected(self, splits):
        with pytest.raises(ConfigError):
            run_grid(tiny_spec(splits, layers_grid=()))

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(layers_grid=(1, 2, 1, 2)), "layers_grid: 1 given twice"),
            (dict(extra_heads_grid=(1, 1)), "extra_heads_grid: 1 given twice"),
            (dict(seeds=(0, 1, 1)), "seeds: 1 given twice"),
        ],
    )
    def test_repeated_grid_value_rejected(self, splits, monkeypatch, overrides, named):
        monkeypatch.setattr(harness, "run_single", lambda *a, **k: pytest.fail("a run was started"))
        with pytest.raises(ConfigError, match=f"^{named}$"):
            run_grid(tiny_spec(splits, **overrides))


class TestRunSingle:
    def test_manifest_written(self, splits, tmp_path):
        result = run_single("probe", TINY, splits, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "probe.manifest.json").read_text())
        assert manifest["run_id"] == "probe"
        assert manifest["config"]["guided_roles"] == list(TINY.guided_roles)
        assert result.ok


class TestAblation:
    def test_roles_replaced_by_padding(self):
        roles = ("rarew", "seprat", "relpos")
        assert ablated_roles(roles, "seprat") == ("rarew", "padding", "relpos")
        with pytest.raises(ConfigError):
            ablated_roles(roles, "depsyn")

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(seeds=(0, 0)), "seeds: 0 given twice"),
            (dict(roles=("seprat", "relpos"), ablate_roles=("relpos", "seprat", "relpos")), "ablate_roles: 'relpos' given twice"),
        ],
    )
    def test_repeated_seed_or_role_rejected(self, splits, monkeypatch, overrides, named):
        monkeypatch.setattr(harness, "run_single", lambda *a, **k: pytest.fail("a run was started"))
        with pytest.raises(ConfigError, match=f"^{named}$"):
            run_ablation(tiny_spec(splits, **overrides))

    def test_report_structure(self, splits):
        spec = tiny_spec(splits, seeds=(0, 1), include_baseline=True)
        report = run_ablation(spec)
        assert len(report.rows) == 2  # 1 role x 1 dataset x 2 seeds
        triples = {(r.role, r.dataset, r.seed) for r in report.rows}
        assert triples == {("relpos", "toy", 0), ("relpos", "toy", 1)}
        assert report.baseline_accuracy is not None
        assert report.full_accuracy == pytest.approx(
            np.mean([r.full_acc for r in report.rows])
        )

    def test_padding_swap_equals_noop_when_mask_trivial(self, splits):
        # relpos on n <= 2 windows covers everything ... use a role whose mask
        # is already equivalent to no restriction: padding pseudo-role itself.
        cfg = ModelConfig(**{**TINY.__dict__, "guided_roles": ("padding",)})
        spec = tiny_spec(splits, base_config=cfg, roles=("padding",))
        with pytest.raises(ConfigError):
            # "padding" is not an ablatable guided role
            ExperimentSpec(
                datasets=[splits], base_config=cfg, layers_grid=(1,), extra_heads_grid=(1,),
                roles=("relpos",), seeds=(0,), ablate_roles=("padding",),
            ).validate()
        report = run_ablation(spec)
        (row,) = report.rows
        assert row.drop == 0.0  # swapping padding for padding is exactly a no-op

    def test_manifests_differ_only_in_substituted_role(self, splits, tmp_path):
        spec = tiny_spec(splits, out_dir=tmp_path)
        run_ablation(spec)
        full = json.loads((tmp_path / "toy-s0-full.manifest.json").read_text())
        dropped = json.loads((tmp_path / "toy-s0-drop-relpos.manifest.json").read_text())
        assert full["config"]["guided_roles"] == ["relpos"]
        assert dropped["config"]["guided_roles"] == ["padding"]
        del full["config"]["guided_roles"], dropped["config"]["guided_roles"]
        del full["run_id"], dropped["run_id"]
        assert full == dropped

    def test_comparability_same_seed_and_data(self, splits):
        spec = tiny_spec(splits, seeds=(3,))
        report = run_ablation(spec)
        by_id = {r.run_id: r for r in report.runs}
        full = by_id["toy-s3-full"]
        ablated = by_id["toy-s3-drop-relpos"]
        assert full.seed == ablated.seed == 3
        assert full.config.to_dict().keys() == ablated.config.to_dict().keys()
        diff = {
            k for k in full.config.to_dict()
            if full.config.to_dict()[k] != ablated.config.to_dict()[k]
        }
        assert diff == {"guided_roles"}


class TestEmitMetrics:
    def test_empty_results_header_only(self, tmp_path):
        paths = emit_metrics(tmp_path, grid_rows=[])
        assert [p.name for p in paths] == ["results.csv"]
        assert paths[0].read_text() == ",".join(RESULT_COLUMNS) + "\n"

    def test_single_run_row_fully_populated(self, splits, tmp_path):
        report = run_grid(tiny_spec(splits))
        (path,) = emit_metrics(tmp_path, grid_rows=report.rows)
        header, row = path.read_text().strip().split("\n")
        assert header == ",".join(RESULT_COLUMNS)
        cells = row.split(",")
        assert len(cells) == len(RESULT_COLUMNS)
        assert all(cells)

    def test_round_trip_matches_in_memory(self, splits, tmp_path):
        import csv

        spec = tiny_spec(splits, seeds=(0, 1), include_baseline=True)
        report = run_ablation(spec)
        emit_metrics(tmp_path, ablation=report)
        with open(tmp_path / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.rows)
        for got, expected in zip(rows, report.rows):
            assert got["role"] == expected.role
            assert got["dataset"] == expected.dataset
            assert int(got["seed"]) == expected.seed
            assert float(got["full_acc"]) == pytest.approx(expected.full_acc, abs=5e-7)
            assert float(got["drop"]) == pytest.approx(expected.drop, abs=5e-7)

    def test_reemission_idempotent(self, splits, tmp_path):
        spec = tiny_spec(splits)
        report = run_ablation(spec)
        emit_metrics(tmp_path, grid_rows=report.runs, ablation=report)
        first = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        emit_metrics(tmp_path, grid_rows=report.runs, ablation=report)
        second = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        assert first == second

    def test_summary_has_one_row_per_role(self, splits, tmp_path):
        spec = tiny_spec(splits, seeds=(0, 1))
        report = run_ablation(spec)
        emit_metrics(tmp_path, ablation=report)
        lines = (tmp_path / "ablation_summary.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(("role", "mean_drop", "std_drop"))
        assert len(lines) == 2

    def test_ablation_csv_columns(self, splits, tmp_path):
        report = run_ablation(tiny_spec(splits))
        emit_metrics(tmp_path, ablation=report)
        header = (tmp_path / "ablation.csv").read_text().split("\n")[0]
        assert header == ",".join(ABLATION_COLUMNS)


class TestParallel:
    def test_jobs_gives_same_results(self, splits):
        sequential = run_grid(tiny_spec(splits, seeds=(0, 1)))
        parallel = run_grid(tiny_spec(splits, seeds=(0, 1), jobs=2))
        assert [r.run_id for r in sequential.rows] == [r.run_id for r in parallel.rows]
        for a, b in zip(sequential.rows, parallel.rows):
            assert (a.dev_acc, a.test_acc) == (b.dev_acc, b.test_acc)

    @pytest.mark.parametrize("jobs, seeds, workers", [(500, (0, 1), [2]), (2, (0, 1, 2), [2]), (8, (0,), [])])
    def test_pool_gets_no_more_workers_than_runs(self, splits, monkeypatch, jobs, seeds, workers):
        opened = []

        class RecordingPool:
            """Runs the jobs in this process; records the worker count it was asked for."""

            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "spawn"
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def run_single(run_id, config, splits, **kwargs):
            return RunResult(run_id, splits.name, config, config.seed, 50.0, 50.0, 0.0)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "run_single", run_single)
        report = run_grid(tiny_spec(splits, seeds=seeds, jobs=jobs))
        assert [row.seed for row in report.rows] == list(seeds)
        assert opened == workers  # no pool at all for a single run

    def test_workers_run_one_blas_thread(self, monkeypatch):
        """Jobs in a pool of two see a BLAS limit of one thread; the caller's environment is restored after."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        jobs = [(f"probe{i}", TINY, BlasThreadsProbe(), None, False) for i in range(2)]
        rows = harness._execute(jobs, 2)
        assert [row.dataset for row in rows] == ["OPENBLAS_NUM_THREADS=1,OMP_NUM_THREADS=1"] * 2
        assert all(row.error.startswith("ConfigError: train and dev splits must be non-empty") for row in rows)
        assert BlasThreadsProbe().name == "OPENBLAS_NUM_THREADS=7,OMP_NUM_THREADS=None"

    @pytest.mark.parametrize("run", [run_grid, run_ablation], ids=["grid", "ablation"])
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, splits, monkeypatch, run, jobs):
        monkeypatch.setattr(harness, "run_single", lambda *a, **k: pytest.fail("a run was started"))
        with pytest.raises(ConfigError, match=f"^jobs must be >= 1, got {jobs}$"):
            run(tiny_spec(splits, jobs=jobs))
