"""Exception types shared across the package."""


class GuidedAttentionError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(GuidedAttentionError):
    """Operands have incompatible shapes."""


class DegenerateRowError(GuidedAttentionError):
    """A softmax row contained no finite entry (all positions masked)."""


class ConlluError(GuidedAttentionError):
    """A CoNLL-U sentence block could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message

    def in_file(self, path) -> "ConlluError":
        """The same error, naming the file it was read from."""
        return ConlluError(self.line_number, f"{path}: {self.message}")


class ConfigError(GuidedAttentionError):
    """Invalid model or experiment configuration."""


class CheckpointError(GuidedAttentionError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class TrainingDivergedError(GuidedAttentionError):
    """Training produced a non-finite loss."""

    def __init__(self, tensor_name: str):
        super().__init__(f"non-finite values detected, first offending tensor: {tensor_name}")
        self.tensor_name = tensor_name


class MissingGradientError(GuidedAttentionError):
    """An optimizer step found a parameter without a gradient."""

    def __init__(self, param_name: str):
        super().__init__(f"parameter {param_name!r} has no gradient; run backward(loss, params) first")
        self.param_name = param_name
