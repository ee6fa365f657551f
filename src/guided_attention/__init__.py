"""Transformer encoder with role-guided attention heads.

Attention heads are constrained by additive {0, -inf} masks derived from
five linguistic roles (rare words, separators, dependency syntax, major
syntactic relations, relative position); the remaining heads stay regular.
The heads of a layer differ only in their masks: each of Q, K and V is one
packed projection that holds every head. The package bundles the
mask-construction pipeline, a small float64 autodiff engine, a training
harness with a drop-one-role ablation runner, and a CLI (``guided-attn``).
"""

from .attention import multi_head
from .autodiff import Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    Batch,
    Sentence,
    Token,
    Vocabulary,
    build_vocab,
    load_corpus,
    make_batches,
    parse_conllu,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ConlluError,
    DegenerateRowError,
    GuidedAttentionError,
    MissingGradientError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .harness import AblationReport, DatasetSplits, ExperimentSpec, emit_metrics, run_ablation, run_grid
from .masks import GUIDED_ROLES, RoleMask, apply_fallback
from .model import Checkpoint, EvalMetrics, ModelConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AblationReport", "Batch", "Checkpoint", "CheckpointError", "ConfigError",
    "ConlluError", "DatasetSplits", "DegenerateRowError", "EvalMetrics",
    "ExperimentSpec", "GUIDED_ROLES", "GuidedAttentionError", "MissingGradientError",
    "ModelConfig", "RoleMask", "Sentence", "ShapeMismatchError", "Tensor", "Token",
    "TrainingDivergedError", "Vocabulary", "apply_fallback", "backward",
    "build_vocab", "emit_metrics", "evaluate",
    "load_checkpoint", "load_corpus", "make_batches", "multi_head",
    "parse_conllu", "run_ablation", "run_grid", "save_checkpoint", "train",
]
