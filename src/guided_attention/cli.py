"""Command-line entry point.

Subcommands: ``masks`` (dump role masks), ``inspect`` (render one sentence's
masks), ``train``, ``eval``, ``grid`` and ``ablate``. The config file is
authoritative; ``--roles``, repeated ``--set key=value`` flags and ``--seed``
override single keys in that order, and the fully resolved config is always
written to the run manifest. Each subcommand takes only the flags it reads;
``--out`` is required except by ``eval``, and is made only once the corpora
have loaded. No environment variables are consulted.
"""

from __future__ import annotations

import argparse
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
    csv_table,
    emit_metrics,
    fixed,
    reject_repeats,
    result_rows_csv,
    run_ablation,
    run_grid,
    run_manifest,
    write_manifest,
)
from .masks import GUIDED_ROLES
from .model import ModelConfig, evaluate, parse_config, train

PARSE_DEPENDENT_ROLES = (masks_mod.ROLE_DEP_SYNTAX, masks_mod.ROLE_MAJOR_RELATIONS)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GuidedAttentionError, OSError) as exc:
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
        "--out": {"required": True, "help": "output directory for artifacts"},
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
            p = command(name, fn, "eval a model", "--format")
            p.add_argument("--out", help="output directory for eval.csv")
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


def _printed_roles(args) -> tuple[str, ...]:
    """The roles ``masks`` and ``inspect`` print: --roles, or all of them without the flag."""
    if (roles := _roles(args)) == ():
        raise ConfigError("--roles: no role given; omit the flag to print every role")
    return roles or GUIDED_ROLES


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


def _resolve_config(args, roles: tuple[str, ...] | None) -> ModelConfig:
    """Config file first, then the --roles / --set / --seed flag overrides in that order."""
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc.reason}") from None
    cfg = parse_config(text, _overrides(args, roles))
    cfg.validate()
    return cfg


def _overrides(args, roles: tuple[str, ...] | None):
    """The flag overrides as ``(key, value)`` strings; read lazily, after the config file's values."""
    if roles is not None:
        yield "guided_roles", ",".join(roles)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        yield key.strip(), value.strip()
    if args.seed is not None:
        yield "seed", str(args.seed)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_masks(args) -> int:
    roles = _printed_roles(args)
    sentences = _load(args.data, args.labels, roles)
    vocab = build_vocab(sentences)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for role in roles:
        records = [
            masks_mod.dump_record(s.sent_id or str(i + 1), masks_mod.build_role_mask(role, s, vocab))
            for i, s in enumerate(sentences)
        ]
        (out / f"masks_{role}.txt").write_text("\n".join(records), encoding="utf-8")
    print(f"wrote {len(roles)} mask dump(s) for {len(sentences)} sentence(s) to {out}")
    return 0


def cmd_inspect(args) -> int:
    roles = _printed_roles(args)
    sentences = _load(args.data, args.labels, roles)
    matches = [s for s in sentences if s.sent_id == args.sentence_id]
    if not matches:
        raise ConfigError(f"no sentence with id {args.sentence_id!r}")
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
    train_sentences = _load(args.data, args.labels, cfg.guided_roles)
    dev_sentences = _load(args.dev, args.dev_labels, cfg.guided_roles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    write_manifest(out / "manifest.json", run_manifest("train", Path(args.data).stem, cfg, cfg.seed))
    ckpt = train(cfg, train_sentences, dev_sentences)
    save_checkpoint(ckpt, out / "model.ckpt")
    history = ckpt.metadata["history"]
    rows = ([r["epoch"], fixed(r["train_loss"]), fixed(r["dev_loss"]), fixed(r["dev_acc"])] for r in history)
    (out / "history.csv").write_text(
        csv_table(("epoch", "train_loss", "dev_loss", "dev_acc"), rows), encoding="utf-8"
    )
    best = ckpt.metadata["best_epoch"]
    best_row = next(r for r in history if r["epoch"] == best)
    print(f"trained {cfg.epochs} epoch(s); best epoch {best} dev_acc {best_row['dev_acc']:.2f}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    sentences = _load(args.data, args.labels, ckpt.config.guided_roles)
    metrics = evaluate(ckpt, sentences)
    csv_text = csv_table(
        ("accuracy", "loss", "correct", "total"),
        [(fixed(metrics.accuracy), fixed(metrics.loss), metrics.correct, metrics.total)],
    )
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(
            f"accuracy {metrics.accuracy:.2f}% ({metrics.correct}/{metrics.total}), "
            f"loss {metrics.loss:.4f}\n"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.csv").write_text(csv_text, encoding="utf-8")
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
    return ExperimentSpec(
        datasets=[_splits(args, cfg.guided_roles)], base_config=cfg, roles=cfg.guided_roles,
        seeds=seeds, out_dir=Path(args.out), jobs=args.jobs, **fields,
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
    ablate_roles = None if args.ablate is None else _role_list("--ablate", args.ablate)
    if ablate_roles == ():
        raise ConfigError("--ablate: no role given; omit the flag to drop each enabled role")
    spec = _spec(args, cfg, ablate_roles=ablate_roles, include_baseline=not args.no_baseline)
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
