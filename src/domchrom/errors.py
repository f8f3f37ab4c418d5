"""Exception types shared across the package, and the deadline that raises
``BudgetExceededError``."""

import time


class DomchromError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(DomchromError, ValueError):
    """An edge-list or DIMACS document could not be parsed."""


class InvalidParameterError(DomchromError, ValueError):
    """Family parameters outside the family's domain."""


class UndefinedInvariantError(DomchromError, ValueError):
    """The requested parameter is undefined for this graph (e.g. total
    domination with an isolated vertex present)."""


class NoPredictionError(DomchromError, LookupError):
    """No closed-form prediction is available for the given family spec."""


class OracleCapError(DomchromError, ValueError):
    """Graph exceeds the oracle's vertex cap."""


class BudgetExceededError(DomchromError, RuntimeError):
    """An exhaustive sweep was refused or aborted by the complexity guard."""


class Deadline:
    """The moment ``budget_ms`` milliseconds after construction; a budget of
    ``None`` never expires.  Every ``budget_ms`` in the package becomes one."""

    def __init__(self, budget_ms: int | None):
        self.limit = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0

    def expired(self) -> bool:
        return self.limit is not None and time.monotonic() > self.limit

    def check(self) -> None:
        """The sweeps' guard: raise once the deadline has passed."""
        if self.expired():
            raise BudgetExceededError("perturbation sweep exceeded the time budget")
