"""Exception types shared across the package, and :func:`check_fields`, the one check of the values records take:
a value of the wrong type for its field's annotation, read as text, then one outside the field's :func:`ranged` rule, is
refused as ``<name> must be an integer`` (``a finite number``, ``true or false``, ``a string``, ``>= <low>``,
``> <low>``, ``one of a, b``) ``, got <value>``."""

import numbers
import sys
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


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_TYPES = {  # each scalar annotation: the test its values pass, what a refusal says they must be, and its Python type
    "int": (is_integer, "an integer", int),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
              "a finite number", float),  # NaN, the infinities and an integer past every float are none
    "bool": (lambda v: isinstance(v, bool), "true or false", bool),
    "str": (lambda v: isinstance(v, str), "a string", str),
}


def check_fields(record, section="", error=ValueError):
    """Raise ``error`` naming ``section + name`` at the first field of ``record`` of a wrong type or out of its rule.

    Stores each scalar it accepts as its Python type: a numpy integer wraps in arithmetic and is no JSON number.
    """
    for f in fields(record):
        value, rule, kind = getattr(record, f.name), f.metadata, _TYPES.get(f.type)
        if kind and not kind[0](value):
            must = kind[1]
        elif "choices" in rule and value not in rule["choices"]:
            must = f"one of {', '.join(rule['choices'])}"
        elif "low" in rule and not (value > rule["low"] if rule["above"] else value >= rule["low"]):
            must = f"{'>' if rule['above'] else '>='} {rule['low']}"
        else:
            if kind:
                object.__setattr__(record, f.name, kind[2](value))
            continue
        raise error(f"{section}{f.name} must be {must}, got {value!r}")
