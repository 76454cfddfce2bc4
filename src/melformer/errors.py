"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes (config 2, data 3, numeric 4, storage 5).
"""


class MelformerError(Exception):
    """Base class for all package errors."""


class ShapeError(MelformerError):
    """Operand shapes violate an operation's contract."""


class NumericError(MelformerError):
    """A computation produced NaN/Inf or was asked to continue from one."""


class GraphError(MelformerError):
    """A computation graph was used again after backward consumed it."""


class ConfigError(MelformerError):
    """Invalid or inconsistent configuration."""


class DataError(MelformerError):
    """Malformed input data (WAV files, manifests, labels)."""


class StorageError(MelformerError):
    """Checkpoint corruption or unreadable persisted state."""
