"""Command-line entry point.

Subcommands: ``masks`` (dump role masks), ``inspect`` (render one sentence's
masks), ``train``, ``eval``, ``grid`` and ``ablate``. The config file is
authoritative; individual keys can be overridden with ``--seed`` or repeated
``--set key=value`` flags, and the fully resolved config is always written
to the run manifest. Each subcommand takes only the flags it reads. No
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import masks as masks_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import build_vocab, load_corpus
from .errors import ConfigError, ConlluError, GuidedAttentionError
from .harness import (
    DatasetSplits,
    ExperimentSpec,
    ablation_rows_csv,
    check_jobs,
    emit_metrics,
    reject_repeats,
    result_rows_csv,
    run_ablation,
    run_grid,
    run_manifest,
)
from .masks import GUIDED_ROLES
from .model import ModelConfig, config_from_strings, evaluate, parse_config, train

PARSE_DEPENDENT_ROLES = (masks_mod.ROLE_DEP_SYNTAX, masks_mod.ROLE_MAJOR_RELATIONS)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuidedAttentionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guided-attn",
        description="Transformer encoder with role-guided attention heads: "
        "mask dumps, training, evaluation, grid search, and drop-one-role ablation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    optional = {
        "--out": {"help": "output directory for artifacts"},
        "--seed": {"type": int, "help": "override the config seed"},
        "--roles": {"help": "comma-separated role list (default: all five)"},
        "--format": {"choices": ("text", "csv"), "default": "text"},
    }

    def command(name, fn, help, *flags):
        """A subcommand reading a corpus, with only the ``optional`` flags it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--data", required=True, help="input corpus (.conllu or plain text)")
        p.add_argument("--labels", help="sidecar TSV: sentence-id<TAB>label")
        for flag in flags:
            p.add_argument(flag, **optional[flag])
        p.set_defaults(func=fn)
        return p

    command("masks", cmd_masks, "dump sparse role masks for a corpus", "--out", "--roles")
    p = command("inspect", cmd_inspect, "render one sentence's masks as a grid", "--roles")
    p.add_argument("sentence_id", help="sentence id to render")

    for name, fn in (("train", cmd_train), ("eval", cmd_eval), ("grid", cmd_grid), ("ablate", cmd_ablate)):
        if name == "eval":
            p = command(name, fn, "eval a model", "--out", "--format")
            p.add_argument("--ckpt", required=True, help="checkpoint file to evaluate")
            continue
        flags = ("--out", "--seed", "--roles") + (() if name == "train" else ("--format",))
        p = command(name, fn, f"{name} a model", *flags)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--dev", required=True, help="dev split corpus")
        p.add_argument("--dev-labels", help="sidecar labels for the dev split")
        if name in ("grid", "ablate"):
            p.add_argument("--test", required=True, help="test split corpus")
            p.add_argument("--test-labels", help="sidecar labels for the test split")
            p.add_argument("--seeds", default="0", help="comma-separated seeds")
            p.add_argument("--jobs", type=int, default=1, help="parallel worker slots")
        if name == "grid":
            p.add_argument("--layers", default="2,4,6,8", help="layer-count grid")
            p.add_argument("--extra-heads", default="1,3", help="extra-regular-head grid")
        if name == "ablate":
            p.add_argument("--ablate", help="subset of roles to drop (default: all enabled)")
            p.add_argument("--no-baseline", action="store_true",
                           help="skip the unguided reference runs")
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _roles(args) -> tuple[str, ...] | None:
    """Parse --roles; None when the flag was not given."""
    return None if args.roles is None else _role_list("--roles", args.roles)


def _role_list(flag: str, raw: str) -> tuple[str, ...]:
    """Parse a comma-separated list of role names given to ``flag``."""
    roles = tuple(r.strip() for r in raw.split(",") if r.strip())
    for role in roles:
        if role not in GUIDED_ROLES:
            raise ConfigError(f"{flag}: unknown role {role!r}; expected subset of {GUIDED_ROLES}")
    reject_repeats(flag, roles)
    return roles


def _load(path: str, labels: str | None, roles: tuple[str, ...] = ()):
    """The sentences of ``path``; a malformed CoNLL-U block fails the command instead of being skipped."""
    errors: list[ConlluError] = []
    sentences = load_corpus(path, labels_path=labels, errors=errors)
    if errors:
        first = errors[0]
        raise ConlluError(first.line_number, f"{first.message} (first of {len(errors)} malformed block(s))")
    if not sentences:
        raise ConfigError(f"no sentences found in {path}")
    if not any(s.has_parse for s in sentences):
        degraded = [r for r in roles if r in PARSE_DEPENDENT_ROLES]
        if degraded:
            print(
                f"warning: {path} carries no dependency parses; "
                f"{', '.join(degraded)} masks degenerate to the diagonal fallback",
                file=sys.stderr,
            )
    return sentences


def _out_dir(args) -> Path:
    if not args.out:
        raise ConfigError("--out is required for this command")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_config(args, roles: tuple[str, ...] | None) -> ModelConfig:
    """Config file first, then --roles / --set / --seed flag overrides."""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc.reason}") from None
        cfg = parse_config(text)
    else:
        cfg = ModelConfig()
    raw = _as_strings(cfg)
    if roles is not None:
        raw["guided_roles"] = ",".join(roles)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    cfg = config_from_strings(raw)
    cfg.validate()
    return cfg


def _as_strings(cfg: ModelConfig) -> dict[str, str]:
    raw = {}
    for key, value in cfg.to_dict().items():
        raw[key] = ",".join(value) if key == "guided_roles" else str(value)
    return raw


def _history_csv(history: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("epoch", "train_loss", "dev_loss", "dev_acc"))
    for row in history:
        writer.writerow(
            (row["epoch"], f"{row['train_loss']:.6f}", f"{row['dev_loss']:.6f}", f"{row['dev_acc']:.6f}")
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_masks(args) -> int:
    roles = _roles(args) or GUIDED_ROLES
    out = _out_dir(args)
    sentences = _load(args.data, args.labels, roles)
    vocab = build_vocab(sentences)
    for role in roles:
        records = [
            masks_mod.dump_record(s.sent_id or str(i + 1), masks_mod.build_role_mask(role, s, vocab))
            for i, s in enumerate(sentences)
        ]
        (out / f"masks_{role}.txt").write_text("\n".join(records), encoding="utf-8")
    print(f"wrote {len(roles)} mask dump(s) for {len(sentences)} sentence(s) to {out}")
    return 0


def cmd_inspect(args) -> int:
    roles = _roles(args) or GUIDED_ROLES
    sentences = _load(args.data, args.labels, roles)
    matches = [s for s in sentences if s.sent_id == args.sentence_id]
    if not matches:
        print(f"error: no sentence with id {args.sentence_id!r}", file=sys.stderr)
        return 1
    sentence = matches[0]
    vocab = build_vocab(sentences)
    for role in roles:
        mask = masks_mod.build_role_mask(role, sentence, vocab)
        print(render_grid(sentence, mask))
    return 0


def render_grid(sentence, mask) -> str:
    """n x n grid, '.' = allowed and '#' = masked, with token headers."""
    n = mask.n
    width = max(len(t.form) for t in sentence.tokens)
    lines = [f"role={mask.role} sentence={sentence.sent_id} n={n}"]
    lines.append(" " * (width + 1) + " ".join(f"{j + 1:>2d}" for j in range(n)))
    for i in range(n):
        cells = " ".join(" ." if mask.values[i, j] else " #" for j in range(n))
        lines.append(f"{sentence.tokens[i].form:>{width}} {cells}")
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    cfg = _resolve_config(args, _roles(args))
    out = _out_dir(args)
    train_sentences = _load(args.data, args.labels, cfg.guided_roles)
    dev_sentences = _load(args.dev, args.dev_labels, cfg.guided_roles)

    manifest = run_manifest("train", Path(args.data).stem, cfg, cfg.seed)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    ckpt = train(cfg, train_sentences, dev_sentences)
    save_checkpoint(ckpt, out / "model.ckpt")
    (out / "history.csv").write_text(_history_csv(ckpt.metadata["history"]), encoding="utf-8")
    best = ckpt.metadata["best_epoch"]
    best_row = next(r for r in ckpt.metadata["history"] if r["epoch"] == best)
    print(f"trained {cfg.epochs} epoch(s); best epoch {best} dev_acc {best_row['dev_acc']:.2f}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    sentences = _load(args.data, args.labels, ckpt.config.guided_roles)
    metrics = evaluate(ckpt, sentences)
    csv_text = (
        "accuracy,loss,correct,total\n"
        f"{metrics.accuracy:.6f},{metrics.loss:.6f},{metrics.correct},{metrics.total}\n"
    )
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(
            f"accuracy {metrics.accuracy:.2f}% ({metrics.correct}/{metrics.total}), "
            f"loss {metrics.loss:.4f}\n"
        )
    if args.out:
        (_out_dir(args) / "eval.csv").write_text(csv_text, encoding="utf-8")
    return 0


def _splits(args, roles) -> DatasetSplits:
    return DatasetSplits(
        name=Path(args.data).stem,
        train=_load(args.data, args.labels, roles),
        dev=_load(args.dev, args.dev_labels, roles),
        test=_load(args.test, args.test_labels, roles),
    )


def _int_list(flag: str, raw: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers given to ``flag``."""
    values = []
    for item in (s.strip() for s in raw.split(",")):
        if item:
            try:
                values.append(int(item))
            except ValueError:
                raise ConfigError(f"{flag} expects comma-separated integers, got {item!r} in {raw!r}") from None
    reject_repeats(flag, values)
    return tuple(values)


def _spec(args, cfg: ModelConfig, **fields) -> ExperimentSpec:
    """The grid or ablation of ``args``; the splits are read last, once every flag has been checked."""
    check_jobs("--jobs", args.jobs)
    seeds = _int_list("--seeds", args.seeds)
    out = _out_dir(args)
    return ExperimentSpec(
        datasets=[_splits(args, cfg.guided_roles)], base_config=cfg, roles=cfg.guided_roles,
        seeds=seeds, out_dir=out, jobs=args.jobs, **fields,
    )


def cmd_grid(args) -> int:
    cfg = _resolve_config(args, _roles(args))
    layers_grid = _int_list("--layers", args.layers)
    extra_heads_grid = _int_list("--extra-heads", args.extra_heads)
    spec = _spec(args, cfg, layers_grid=layers_grid, extra_heads_grid=extra_heads_grid)
    report = run_grid(spec, save_ckpts=True)
    emit_metrics(spec.out_dir, grid_rows=report.rows)
    _print_grid(report, args.format)
    return 0


def _print_grid(report, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(result_rows_csv(report.rows))
        return
    for row in report.rows:
        status = f"dev {row.dev_acc:.2f} test {row.test_acc:.2f}" if row.ok else f"FAILED: {row.error}"
        print(f"{row.run_id}: {status}")
    for dataset, best in report.selected.items():
        print(f"selected[{dataset}]: {best.run_id} (test {best.test_acc:.2f})")


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args, _roles(args))
    ablate_roles = _role_list("--ablate", args.ablate) if args.ablate else None
    spec = _spec(
        args, cfg, layers_grid=(cfg.layers,), extra_heads_grid=(cfg.extra_regular_heads,),
        ablate_roles=ablate_roles, include_baseline=not args.no_baseline,
    )
    report = run_ablation(spec)
    emit_metrics(spec.out_dir, grid_rows=report.runs, ablation=report)
    if args.format == "csv":
        sys.stdout.write(ablation_rows_csv(report.rows))
    else:
        for role, mean_drop, std_drop in report.per_role():
            print(f"drop[{role}]: mean {mean_drop:.2f} std {std_drop:.2f}")
        ref = f"full {report.full_accuracy:.2f}"
        if report.baseline_accuracy is not None:
            ref += f", baseline {report.baseline_accuracy:.2f}"
        print(f"reference accuracies: {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
