"""Exception types shared across the package, and its one table of range
rules: :func:`check_range` tests every numeric config field and scalar loss
or aggregation parameter against a rule of :data:`RANGES`. NaN breaks every
rule and no rule admits infinity; only rules that tie one field to another
are written by hand, where the fields live."""

import math


class ParameterError(ValueError):
    """A hyperparameter or config value is outside its valid domain."""


class StructuralError(ValueError):
    """Inputs have incompatible shapes/lengths, or a graph op is unsupported."""


class DegenerateInputError(ValueError):
    """Inputs are numerically degenerate (zero-norm vectors, out-of-range scores)."""


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. no positive labels)."""


class NumericsError(RuntimeError):
    """Training produced a non-finite loss; carries the diagnostic snapshot path."""

    def __init__(self, message: str, snapshot_path: str | None = None):
        super().__init__(message)
        self.snapshot_path = snapshot_path


# range rule -> its test
RANGES = {
    "positive": lambda v: 0.0 < v < math.inf,
    "nonnegative": lambda v: 0.0 <= v < math.inf,
    ">= 1": lambda v: 1.0 <= v < math.inf,
    "an integer >= 1": lambda v: 1 <= v < math.inf and v % 1 == 0,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
}


def check_range(rule: str, **values) -> None:
    """ParameterError naming the first of ``values`` that breaks ``rule``."""
    test = RANGES[rule]
    for name, value in values.items():
        if not test(value):
            raise ParameterError(f"{name} must be {rule}, got {value}")
