"""Enumeration budgets.

Brute-force routines refuse to run past a fixed assignment budget so that a
typo in an instance file cannot turn a desk check into an overnight job.  The
``KLBP_BUDGET`` environment variable overrides the default.
"""

import math
import os

from .errors import BudgetError

DEFAULT_ASSIGNMENT_BUDGET = 10**6
DEFAULT_JOINT_ENTRIES = 2**22


def assignment_budget() -> int:
    raw = os.environ.get("KLBP_BUDGET")
    if raw is None:
        return DEFAULT_ASSIGNMENT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BudgetError(f"KLBP_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise BudgetError(f"KLBP_BUDGET must be positive, got {value}")
    return value


def _count(n: int) -> str:
    """A count in full up to 10**15, in scientific notation above, so a
    huge count cannot flood a message."""
    if n <= 10**15:
        return str(n)
    exp = int(math.log10(n))
    return f"{n / 10**exp:.3f}e+{exp}"


def check_assignments(count: int, *, what: str = "enumeration") -> None:
    budget = assignment_budget()
    if count > budget:
        raise BudgetError(f"{what} needs {_count(count)} assignments, budget is {_count(budget)}")


def check_joint_entries(count: int, *, what: str = "joint table") -> None:
    if count > DEFAULT_JOINT_ENTRIES:
        raise BudgetError(
            f"{what} needs {_count(count)} entries, cap is {DEFAULT_JOINT_ENTRIES}"
        )
