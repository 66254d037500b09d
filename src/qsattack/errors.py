"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """An epoch does not have the (channels, samples) shape the consumer expects."""


class BudgetExhaustedError(RuntimeError):
    """A query batch would push the oracle counter past its hard budget."""

    def __init__(self, message: str, remaining: int):
        super().__init__(message)
        self.remaining = remaining


class BoundaryLostError(RuntimeError):
    """Both endpoints of a candidate pair fall on the same side of the substitute boundary."""


class DegenerateDirectionError(RuntimeError):
    """Orthogonalization collapsed below the norm floor for every resample."""


class MalformedEpochFileError(ValueError):
    """An epoch file failed structural validation; ``offset`` locates the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedCheckpointError(ValueError):
    """A model checkpoint is missing a key, holds a bad value or has the wrong parameter count."""


class ClassBalanceError(ValueError):
    """A predicted class has fewer members than the requested per-class count."""


class ConfigError(ValueError):
    """Unknown key or invalid value in an experiment configuration."""

