"""Error taxonomy shared across the package, and the checks every module
applies the same way.

``SchemaError`` marks malformed serialized input (wrong JSON shape, missing
fields, bad types).  ``ValidationError`` marks structurally well-formed input
that violates a semantic invariant (negative probabilities, cyclic graphs,
scope violations).  ``BudgetError`` marks work that would exceed the
configured enumeration budgets.  The command-line front end maps these to
distinct exit codes.

``worst_error`` aggregates numeric errors so that a NaN is never dropped,
and ``whole_number`` is the one test for a count or an index given as a
number.
"""

import math
import operator

import numpy as np


class SchemaError(ValueError):
    """Serialized input does not match the expected schema."""


class ValidationError(ValueError):
    """Input is structurally invalid for the requested operation."""


class BudgetError(RuntimeError):
    """Operation would exceed the configured enumeration budget."""


def worst_error(errors) -> float:
    """The largest of ``errors`` (0.0 when there are none), or NaN when any
    is NaN.  Python's ``max`` keeps its running value against a NaN, so it
    would drop every NaN that does not come first.  An ndarray is one
    reduction, whose -0.0 (numpy's maximum of 0.0 and -0.0) reads 0.0."""
    if isinstance(errors, np.ndarray):
        return float(np.max(errors, initial=0.0)) + 0.0
    worst = 0.0
    for error in errors:
        error = float(error)
        if math.isnan(error):
            return math.nan
        if error > worst:
            worst = error
    return worst


def whole_number(value, what: str) -> int:
    """``value`` as an int when it is a whole number: an integer (numpy's
    too) or a float such as 2.0, but not a bool or a string."""
    if type(value) is int:  # the common case, without the slower type tests
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif not isinstance(value, bool) and hasattr(value, "__index__"):
        return operator.index(value)
    raise ValidationError(f"{what} {value!r} is not a whole number")
