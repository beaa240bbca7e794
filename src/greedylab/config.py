"""Shared budget knobs.  GREEDYLAB_BUDGET scales every search budget."""

import os

DEFAULT_SUPPORT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """A construction or search ran past its budget; carries what was attained."""

    def __init__(self, message, attained=None):
        super().__init__(message)
        self.attained = attained


def support_budget() -> int:
    """Maximum number of stored coefficients for exact vector constructions."""
    raw = os.environ.get("GREEDYLAB_BUDGET")
    if raw is None:
        return DEFAULT_SUPPORT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"GREEDYLAB_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("GREEDYLAB_BUDGET must be positive")
    return value


def node_budget() -> int:
    """Node cap for combinatorial searches; scales with the support knob."""
    return 20 * support_budget()
