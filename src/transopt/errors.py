"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class DomainError(ValueError):
    """A value lies outside the mathematical domain of an operation.

    ``replica`` is the index, within a batch of runs stepped together,
    of the run the value belongs to; None when it is not known.
    """

    def __init__(self, message: str = "", replica=None):
        super().__init__(message)
        self.replica = replica


class HorizonError(ValueError):
    """A step index falls outside the declared schedule range."""


class StateError(RuntimeError):
    """An operation was called before the state it reads exists."""


class SequenceError(ValueError):
    """A time-indexed update arrived out of order."""


class ConfigError(ValueError):
    """An experiment config failed validation; the message names the key."""


class ComparisonError(ValueError):
    """Run records are not comparable (different problems or seeds)."""
