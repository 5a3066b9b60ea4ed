"""Attention-generated batch normalization in a BiLSTM-CTC training kernel.

The package is organised around a small taped autodiff core (``tensor``),
normalization and its attention-driven generators (``normalization``,
``generators``), the recurrent stack (``recurrent``), CTC loss and decoding
(``ctc``), and a training harness (``optim``, ``batching``, ``synth``,
``config``, ``checkpoint``, ``train``) behind the ``abn`` command line.
"""

from .errors import (
    AbnError,
    BatchingError,
    CheckpointError,
    ConfigError,
    ContractError,
    DegenerateBatchError,
    DomainError,
    EmptyEpochError,
    ShapeError,
)
from .tensor import Tensor

__all__ = [
    "AbnError",
    "BatchingError",
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "DegenerateBatchError",
    "DomainError",
    "EmptyEpochError",
    "ShapeError",
    "Tensor",
]

__version__ = "0.1.0"
