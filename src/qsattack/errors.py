"""Exception types shared across the package, and the one check of the legal values each record field declares
with :func:`ranged`: ``<name> must be >= <low>, got <value>`` (or ``> <low>``, ``one of a, b``); NaN meets no bound,
nor does a value the rule cannot compare or look up, such as ``'5'`` or ``None`` against a number."""

from dataclasses import MISSING, field, fields


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


def ranged(default=MISSING, *, low=None, above=False, choices=None):
    """A dataclass field whose value must be one of ``choices``, else ``>= low`` (``> low`` when ``above``)."""
    return field(default=default, metadata={"choices": choices} if choices else {"low": low, "above": above})


def _meets(value, rule) -> bool:
    """Whether ``value`` meets a :func:`ranged` rule; one the rule cannot compare or look up meets none."""
    try:
        if "choices" in rule:
            return value in rule["choices"]
        return value > rule["low"] if rule["above"] else value >= rule["low"]
    except TypeError:
        return False


def check_fields(record, section="", error=ValueError):
    """Raise ``error`` at the first field of ``record`` outside its :func:`ranged` rule, naming ``section + name``."""
    for f in fields(record):
        value, rule = getattr(record, f.name), f.metadata
        if rule and not _meets(value, rule):
            must = (f"one of {', '.join(rule['choices'])}" if "choices" in rule
                    else f"{'>' if rule['above'] else '>='} {rule['low']}")
            raise error(f"{section}{f.name} must be {must}, got {value!r}")
