"""Exception types shared across the package."""


class AbnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(AbnError, ValueError):
    """Operands have incompatible or malformed shapes."""


class DomainError(AbnError, ValueError):
    """Input is outside the mathematical domain of an operation."""


class ContractError(AbnError, ValueError):
    """A documented precondition was violated."""


class DegenerateBatchError(AbnError, ValueError):
    """Mini-batch has too few valid frames for statistics."""


class BatchingError(AbnError, ValueError):
    """An utterance cannot be placed into any batch."""


class ConfigError(AbnError, ValueError):
    """Configuration file is malformed or contains unknown keys."""


class CheckpointError(AbnError, ValueError):
    """Checkpoint file is unreadable, truncated, or incompatible."""


class EmptyEpochError(AbnError, RuntimeError):
    """Every batch of a training epoch was skipped as non-finite."""
