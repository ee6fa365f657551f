import hashlib
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from guided_attention.checkpoint import load_checkpoint, save_checkpoint
from guided_attention.cli import build_parser, main
from guided_attention.corpus import build_vocab, parse_plain_text
from guided_attention.synthetic import generate_local_pattern_task, write_plain_with_labels
from oracles import parse_dump, tridiagonal_pairs

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(REPO_ROOT / "tests" / "fixtures" / "twenty.conllu")

SMALL_CONFIG = """\
layers = 1
guided_roles = rarew, seprat, depsyn, majrel, relpos
extra_regular_heads = 1
d_model = 12
ff_width = 16
dropout = 0.0
learning_rate = 0.01
epochs = 2
seed = 0
max_len = 12
num_classes = 2
batch_size = 8
"""


@pytest.fixture()
def toy_files(tmp_path):
    train, test = generate_local_pattern_task(n_train=40, n_test=16, vocab_size=20, seq_len=8, seed=1)
    paths = {}
    for name, data in (("train", train), ("dev", test[:8]), ("test", test[8:])):
        text, labels = tmp_path / f"{name}.txt", tmp_path / f"{name}.labels.tsv"
        write_plain_with_labels(data, text, labels)
        paths[name] = (str(text), str(labels))
    cfg = tmp_path / "model.cfg"
    cfg.write_text(SMALL_CONFIG)
    paths["config"] = str(cfg)
    return paths


class TestMasksCommand:
    def test_relpos_dump_is_tridiagonal(self, tmp_path, twenty):
        out = tmp_path / "dumps"
        assert main(["masks", "--data", FIXTURE, "--out", str(out), "--roles", "relpos"]) == 0
        records = parse_dump((out / "masks_relpos.txt").read_text())
        assert len(records) == 20
        by_id = {len(s): s for s in twenty}
        for sid, role, n, pairs in records:
            assert role == "relpos"
            assert {(i - 1, j - 1) for i, j in pairs} == tridiagonal_pairs(n)

    def test_plain_text_depsyn_warns_and_falls_back(self, tmp_path, capsys):
        data = tmp_path / "plain.txt"
        data.write_text("alpha beta gamma\n")
        out = tmp_path / "dumps"
        assert main(["masks", "--data", str(data), "--out", str(out), "--roles", "depsyn"]) == 0
        assert "no dependency parses" in capsys.readouterr().err
        ((sid, role, n, pairs),) = parse_dump((out / "masks_depsyn.txt").read_text())
        assert pairs == [(1, 1), (2, 2), (3, 3)]

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["masks", "--data", FIXTURE, "--out", str(out)]) == 0
        for name in ("rarew", "seprat", "depsyn", "majrel", "relpos"):
            assert (out_a / f"masks_{name}.txt").read_bytes() == (out_b / f"masks_{name}.txt").read_bytes()

    def test_unreadable_input_nonzero_exit(self, tmp_path, capsys):
        assert main(["masks", "--data", str(tmp_path / "missing.conllu"), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_role_rejected(self, tmp_path, capsys):
        code = main(["masks", "--data", FIXTURE, "--out", str(tmp_path / "o"), "--roles", "coref"])
        assert code == 1
        assert "unknown role" in capsys.readouterr().err

    def test_malformed_block_fails_without_a_dump(self, tmp_path, capsys):
        data = _malformed_corpus(tmp_path)
        out = tmp_path / "dumps"
        assert main(["masks", "--data", str(data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line 5: {data}: non-integer HEAD 'zz' (first of 1 malformed block(s))\n"
        )
        assert "wrote" not in captured.out
        assert not out.exists()


def _malformed_corpus(tmp_path) -> Path:
    """A CoNLL-U file whose second block has a non-integer HEAD on its line 5."""
    good = "# sent_id = a\n1\tok\t_\t_\t_\t_\t0\troot\t_\t_\n"
    data = tmp_path / "bad.conllu"
    data.write_text(good + "\n# sent_id = b\n1\tno\t_\t_\t_\t_\tzz\troot\t_\t_\n")
    return data


@pytest.mark.parametrize("command", ["train", "grid", "ablate"])
def test_malformed_training_corpus_leaves_no_output_directory(tmp_path, capsys, command):
    data = _malformed_corpus(tmp_path)
    splits = ["--dev", FIXTURE] + ([] if command == "train" else ["--test", FIXTURE])
    out = tmp_path / "out"
    assert main([command, "--data", str(data), *splits, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 5: {data}: non-integer HEAD 'zz' (first of 1 malformed block(s))\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("roles", [",", ""])
@pytest.mark.parametrize("command", ["masks", "inspect"])
def test_empty_role_list_rejected(tmp_path, capsys, command, roles):
    """An empty --roles is an error, not every role (train, grid and ablate read it as no guided role)."""
    out = tmp_path / "out"
    argv = ["masks", "--out", str(out)] if command == "masks" else ["inspect", "s02"]
    assert main([*argv, "--data", FIXTURE, "--roles", roles]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --roles: no role given; omit the flag to print every role\n"
    assert captured.out == ""
    assert not out.exists()


class TestInspectCommand:
    def test_separator_columns_rendered(self, tmp_path, capsys):
        data = tmp_path / "tiny.txt"
        data.write_text("Hello , world .\n")
        assert main(["inspect", "--data", str(data), "--roles", "seprat", "1"]) == 0
        grid = capsys.readouterr().out
        row = next(line for line in grid.splitlines() if line.startswith("Hello"))
        assert row.split()[1:] == ["#", ".", "#", "."]

    def test_relpos_tridiagonal_pattern(self, tmp_path, capsys):
        data = tmp_path / "tiny.txt"
        data.write_text("a b c\n")
        assert main(["inspect", "--data", str(data), "--roles", "relpos", "1"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0] in "abc"]
        assert [l.split()[1:] for l in lines] == [
            [".", ".", "#"],
            [".", ".", "."],
            ["#", ".", "."],
        ]

    def test_grid_matches_dump_coordinates(self, tmp_path, capsys):
        out = tmp_path / "dumps"
        main(["masks", "--data", FIXTURE, "--out", str(out), "--roles", "majrel"])
        records = {sid: pairs for sid, _, _, pairs in parse_dump((out / "masks_majrel.txt").read_text())}
        capsys.readouterr()
        assert main(["inspect", "--data", FIXTURE, "--roles", "majrel", "s02"]) == 0
        grid_lines = capsys.readouterr().out.splitlines()
        token_rows = [l for l in grid_lines[2:] if l.strip()]
        rendered = set()
        for i, line in enumerate(token_rows, start=1):
            for j, cell in enumerate(line.split()[1:], start=1):
                if cell == ".":
                    rendered.add((i, j))
        assert rendered == set(records["s02"])

    def test_missing_id_nonzero(self, capsys):
        assert main(["inspect", "--data", FIXTURE, "--roles", "relpos", "s99"]) == 1
        assert "no sentence" in capsys.readouterr().err


class TestGoldenBytes:
    """SHA-256 of the ``masks`` dumps and of one ``inspect`` rendering on the fixture, pinned as literals."""

    DUMPS = {
        "rarew": "46f1679b7e47c373778d78652aaa7e3c09cf31599128332cd6dbf9f0272e3c34",
        "seprat": "92cb7a49639414038a7a02bb23750827aa1517fb0287f8d9e75dec9372d8aaf9",
        "depsyn": "4541d10ec14d32102e75e216cd25e10701659cd124234a947817e0e944ba201d",
        "majrel": "2148c90cff95192a334fb82a9aa2e2fbe029e633ad8f5da68dcae1283e4b21e4",
        "relpos": "c6c84effbb68112b350dccbc13179f73c6d55472fe899a0f5b47ec3c53f09516",
    }

    def test_mask_dumps_match_the_golden_digests(self, tmp_path):
        assert main(["masks", "--data", FIXTURE, "--out", str(tmp_path)]) == 0
        got = {role: hashlib.sha256((tmp_path / f"masks_{role}.txt").read_bytes()).hexdigest() for role in self.DUMPS}
        assert got == self.DUMPS

    def test_inspect_output_matches_the_golden_digest(self, capsys):
        assert main(["inspect", "--data", FIXTURE, "s02"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "7d85ed426b0690784fcfefbe2a283f2462335078680212401244ef9c5d5aaefc"


class TestGoldenRunBytes:
    """SHA-256 of the tables and manifest that ``train``, ``eval`` and ``ablate`` write for a small run on the fixture."""

    SMALL = [
        "--set", "d_model=12", "--set", "ff_width=16", "--set", "epochs=2",
        "--set", "dropout=0.0", "--set", "max_len=12", "--set", "batch_size=8",
    ]
    DIGESTS = {
        "history.csv": "dc6bee7e8391725f9b99d4abd92e7690e21e839982d04808540887c366f50f0b",
        "manifest.json": "927bf7ba90cbf390bc68aedc7c8eea0e7d5173e84be1f8e44a0531cf18db2465",
        "eval.csv": "95f4d33e908fb9775fdd430089939ee05b319f72d00ea11d9648e4273ca23323",
        "eval --format csv": "95f4d33e908fb9775fdd430089939ee05b319f72d00ea11d9648e4273ca23323",
        "ablation.csv": "5e700cce5b7257adfeb1c6ca8c2f459deadcfabd352fe59ef4dcd9eb72721fff",
        "ablation_summary.csv": "7d8aac4f6a7d2c9f1e7a05086a4d575d128bfc15915dcd15819a837a2dde758a",
    }

    def test_run_tables_match_the_golden_digests(self, tmp_path, capsys):
        run, ev, abl = tmp_path / "run", tmp_path / "eval", tmp_path / "ablate"
        assert main(["train", "--data", FIXTURE, "--dev", FIXTURE, "--out", str(run), *self.SMALL]) == 0
        capsys.readouterr()
        ckpt = str(run / "model.ckpt")
        assert main(["eval", "--ckpt", ckpt, "--data", FIXTURE, "--format", "csv", "--out", str(ev)]) == 0
        stdout = capsys.readouterr().out
        code = main([
            "ablate", "--data", FIXTURE, "--dev", FIXTURE, "--test", FIXTURE,
            "--out", str(abl), "--no-baseline", *self.SMALL,
        ])
        assert code == 0
        files = {
            "history.csv": run / "history.csv", "manifest.json": run / "manifest.json",
            "eval.csv": ev / "eval.csv", "ablation.csv": abl / "ablation.csv",
            "ablation_summary.csv": abl / "ablation_summary.csv",
        }
        got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
        got["eval --format csv"] = hashlib.sha256(stdout.encode()).hexdigest()
        assert got == self.DIGESTS


class TestTrainEval:
    def test_train_writes_artifacts(self, toy_files, tmp_path):
        out = tmp_path / "run"
        code = main([
            "train", "--config", toy_files["config"],
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.ckpt").exists()
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,train_loss,dev_loss,dev_acc"
        assert len(history) == 3  # header + 2 epochs
        manifest = (out / "manifest.json").read_text()
        assert '"epochs": 2' in manifest

    def test_eval_formats(self, toy_files, tmp_path, capsys):
        out = tmp_path / "run"
        main([
            "train", "--config", toy_files["config"],
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "eval", "--ckpt", str(out / "model.ckpt"),
            "--data", toy_files["test"][0], "--labels", toy_files["test"][1],
            "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "accuracy,loss,correct,total"
        assert len(lines[1].split(",")) == 4

    def test_eval_vocab_mismatch_refused(self, toy_files, tmp_path, capsys):
        out = tmp_path / "run"
        main([
            "train", "--config", toy_files["config"],
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--out", str(out),
        ])
        ckpt = load_checkpoint(out / "model.ckpt")
        ckpt.vocab = build_vocab(parse_plain_text("entirely different words\n"))
        save_checkpoint(ckpt, out / "tampered.ckpt")
        capsys.readouterr()
        code = main([
            "eval", "--ckpt", str(out / "tampered.ckpt"),
            "--data", toy_files["test"][0], "--labels", toy_files["test"][1],
        ])
        assert code == 1
        assert "vocabulary hash" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, toy_files, tmp_path):
        out = tmp_path / "run"
        main([
            "train", "--config", toy_files["config"], "--seed", "9",
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--out", str(out),
        ])
        assert '"seed": 9' in (out / "manifest.json").read_text()

    def test_train_and_eval_on_parsed_conllu(self, tmp_path, capsys):
        # labels come from the '# label =' comments; depsyn/majrel masks are real
        out = tmp_path / "run"
        code = main([
            "train", "--data", FIXTURE, "--dev", FIXTURE, "--out", str(out),
            "--set", "d_model=12", "--set", "ff_width=16", "--set", "epochs=2",
            "--set", "dropout=0.0", "--set", "max_len=12", "--set", "batch_size=8",
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out / "model.ckpt"), "--data", FIXTURE]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_train_rerun_byte_identical(self, toy_files, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "train", "--config", toy_files["config"],
                "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
                "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
                "--out", str(out),
            ])
            outs.append(out)
        for artifact in ("model.ckpt", "history.csv", "manifest.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


class TestGridAblate:
    def test_grid_csv(self, toy_files, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", toy_files["config"],
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--test", toy_files["test"][0], "--test-labels", toy_files["test"][1],
            "--out", str(out), "--layers", "1", "--extra-heads", "1", "--seeds", "0",
        ])
        assert code == 0
        results = (out / "results.csv").read_text().strip().split("\n")
        assert len(results) == 2
        assert (out / "train-L1-E1-s0.ckpt").exists()
        assert (out / "train-L1-E1-s0.manifest.json").exists()
        assert "selected[train]" in capsys.readouterr().out

    def test_ablate_writes_role_rows_per_seed(self, toy_files, tmp_path):
        out = tmp_path / "ablate"
        code = main([
            "ablate", "--config", toy_files["config"],
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--test", toy_files["test"][0], "--test-labels", toy_files["test"][1],
            "--out", str(out), "--seeds", "0,1", "--no-baseline",
        ])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 5 * 2  # header + 5 roles x 2 seeds
        summary = (out / "ablation_summary.csv").read_text().strip().split("\n")
        assert len(summary) == 6

    def test_ablate_subset(self, toy_files, tmp_path):
        out = tmp_path / "ablate"
        code = main([
            "ablate", "--config", toy_files["config"],
            "--data", toy_files["train"][0], "--labels", toy_files["train"][1],
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1],
            "--test", toy_files["test"][0], "--test-labels", toy_files["test"][1],
            "--out", str(out), "--seeds", "0", "--ablate", "relpos", "--no-baseline",
        ])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("relpos,")


class TestNonNumericValues:
    @staticmethod
    def _error_line(capsys, toy_files, tmp_path, command, config, extra):
        """Run a command that must fail; return its stderr, which must be one line."""
        splits = ["--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1]]
        if command != "train":
            splits += ["--test", toy_files["test"][0], "--test-labels", toy_files["test"][1]]
        code = main([
            command, "--config", config, *extra, "--data", toy_files["train"][0],
            "--labels", toy_files["train"][1], *splits, "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.splitlines()  # reported before any corpus is read and warned about
        return line

    @pytest.mark.parametrize(
        "command, extra, named",
        [
            ("train", ["--set", "epochs=ten"], ["'epochs'", "'ten'"]),
            ("grid", ["--set", "max_len=3.5"], ["'max_len'", "'3.5'"]),
            ("grid", ["--seeds", "1,x"], ["--seeds", "'x'"]),
            ("grid", ["--layers", "2,x"], ["--layers", "'x'"]),
            ("grid", ["--extra-heads", "1,x"], ["--extra-heads", "'x'"]),
            ("ablate", ["--set", "dropout=none"], ["'dropout'", "'none'"]),
            ("ablate", ["--seeds", "1,x"], ["--seeds", "'x'"]),
            ("ablate", ["--ablate", "relpoz"], ["--ablate", "'relpoz'"]),
        ],
        ids=[
            "train-set", "grid-set", "grid-seeds", "grid-layers", "grid-extra-heads",
            "ablate-set", "ablate-seeds", "ablate-roles",
        ],
    )
    def test_flag_rejected_without_traceback(self, toy_files, tmp_path, capsys, command, extra, named):
        last = self._error_line(capsys, toy_files, tmp_path, command, toy_files["config"], extra)
        assert last.startswith("error: ") and all(part in last for part in named)

    @pytest.mark.parametrize(
        "setting, named",
        [
            ("learning_rate=nan", "learning_rate must be finite and >= 0, got nan"),
            ("learning_rate=inf", "learning_rate must be finite and >= 0, got inf"),
            ("ff_width=-1", "ff_width must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_value_rejected_without_output(self, toy_files, tmp_path, capsys, setting, named):
        line = self._error_line(capsys, toy_files, tmp_path, "train", toy_files["config"], ["--set", setting])
        assert line == f"error: {named}"
        assert not (tmp_path / "out").exists()

    def test_config_file_value_rejected_without_traceback(self, toy_files, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = ten"))
        for extra in ([], ["--set", "epochs=2"]):  # a flag replacing the bad value does not hide it
            last = self._error_line(capsys, toy_files, tmp_path, "train", str(bad), extra)
            assert last == "error: config key 'epochs' expects int, got 'ten'"


class TestRepeatedValues:
    @pytest.mark.parametrize(
        "command, extra, named",
        [
            ("grid", ["--layers", "1,2,1,2"], "--layers: 1 given twice"),
            ("grid", ["--extra-heads", "0,0"], "--extra-heads: 0 given twice"),
            ("grid", ["--seeds", "3,4,4"], "--seeds: 4 given twice"),
            ("ablate", ["--seeds", "0,0"], "--seeds: 0 given twice"),
            ("ablate", ["--ablate", "relpos,seprat,relpos"], "--ablate: 'relpos' given twice"),
        ],
        ids=["grid-layers", "grid-extra-heads", "grid-seeds", "ablate-seeds", "ablate-roles"],
    )
    def test_repeat_rejected_before_any_corpus_loads(self, toy_files, tmp_path, capsys, command, extra, named):
        line = TestNonNumericValues._error_line(capsys, toy_files, tmp_path, command, toy_files["config"], extra)
        assert line == f"error: {named}"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("roles", [",", ""])
def test_empty_ablate_list_rejected_before_any_corpus_loads(toy_files, tmp_path, capsys, roles):
    """An empty --ablate is an error, not every enabled role (``""``) or a run that drops none (``,``)."""
    extra = ["--ablate", roles]
    line = TestNonNumericValues._error_line(capsys, toy_files, tmp_path, "ablate", toy_files["config"], extra)
    assert line == "error: --ablate: no role given; omit the flag to drop each enabled role"
    assert not (tmp_path / "out").exists()


class TestJobs:
    @pytest.mark.parametrize("command", ["grid", "ablate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_before_any_corpus_loads(self, toy_files, tmp_path, capsys, command, jobs):
        line = TestNonNumericValues._error_line(
            capsys, toy_files, tmp_path, command, toy_files["config"], ["--jobs", jobs]
        )
        assert line == f"error: --jobs must be >= 1, got {jobs}"
        assert not (tmp_path / "out").exists()


class TestNonUtf8Input:
    @pytest.mark.parametrize("flag", ["--data", "--labels", "--config"])
    def test_rejected_with_one_error_line(self, toy_files, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b c\n\xff\xfe bad\n")
        files = {"--data": toy_files["train"][0], "--labels": toy_files["train"][1], "--config": toy_files["config"]}
        files[flag] = str(bad)
        code = main([
            "train", *(arg for pair in files.items() for arg in pair),
            "--dev", toy_files["dev"][0], "--dev-labels", toy_files["dev"][1], "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(bad) in line and "not UTF-8" in line
        if flag != "--config":
            assert line.startswith("error: line 2: ")
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_console_script_or_module(self, tmp_path):
        exe = shutil.which("guided-attn")
        cmd = [exe] if exe else [sys.executable, "-m", "guided_attention.cli"]
        # This checkout's src/ goes first, so the child imports this package.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            cmd + ["masks", "--data", FIXTURE, "--out", str(tmp_path / "o"), "--roles", "relpos"],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "masks_relpos.txt").exists()

    def test_unknown_flag_rejected(self, capsys):
        """A flag the command would not read is rejected like a made-up one, not ignored."""
        masks = ["masks", "--data", FIXTURE, "--out", "x"]
        inspect = ["inspect", "--data", FIXTURE, "s01"]
        train = ["train", "--data", FIXTURE, "--dev", FIXTURE, "--out", "x"]
        evaluate = ["eval", "--ckpt", "x.ckpt", "--data", FIXTURE]
        for argv in (
            [*masks, "--bogus"], [*masks, "--seed", "1"], [*masks, "--format", "csv"],
            [*inspect, "--out", "x"], [*inspect, "--seed", "1"], [*inspect, "--format", "csv"],
            [*train, "--format", "csv"],
            [*evaluate, "--seed", "9"], [*evaluate, "--roles", "relpos"],
            [*evaluate, "--config", "model.cfg"], [*evaluate, "--set", "seed=9"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv

    @pytest.mark.parametrize("command", ["masks", "train", "grid", "ablate"])
    def test_missing_out_rejected_like_a_missing_data(self, capsys, command):
        """Every command that writes artifacts requires --out; the parser exits 2 before anything runs."""
        splits = {"masks": [], "train": ["--dev", FIXTURE]}.get(command, ["--dev", FIXTURE, "--test", FIXTURE])
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--data", FIXTURE, *splits])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    """Each ``guided-attn`` line of README's CLI block, continuation lines joined, parses with today's flags."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("guided-attn ")]
    assert {argv[0] for argv in commands} == {"masks", "inspect", "train", "eval", "grid", "ablate"}
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]  # a flag the parser lacks exits with 2
