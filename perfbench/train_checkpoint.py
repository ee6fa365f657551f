"""Train the eval-treebank checkpoint in a process of its own.

    python3 perfbench/train_checkpoint.py <dir>

Reads ``train.conllu`` and ``dev.conllu`` from ``<dir>``, trains the default
model (``TREEBANK_CONFIG``, model seed 0), writes ``trained.ckpt`` there and
prints its parameter digest. Training leaves garbage that only the cyclic
collector frees, so training in the benchmark's process would set that
process's peak RSS; trained here, ``peak_rss_mb`` stays that of evaluation.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from guided_attention import checkpoint, corpus, model  # noqa: E402

from workloads import TREEBANK_CONFIG, params_digest  # noqa: E402


def main(argv) -> int:
    (directory,) = argv
    directory = Path(directory)
    train_set = corpus.load_corpus(directory / "train.conllu")
    dev_set = corpus.load_corpus(directory / "dev.conllu")
    ckpt = model.train(replace(TREEBANK_CONFIG, seed=0), train_set, dev_set, corpus.build_vocab(train_set))
    checkpoint.save_checkpoint(ckpt, directory / "trained.ckpt")
    print(params_digest(ckpt.params))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
