"""Exception types and the work budget shared across the package."""

# Default cap on the steps one exhaustive scan may take: minors, coefficient
# differences, decoder candidates or grid points.
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its work budget.

    Carries the required count so callers can decide to raise the budget
    and retry. A search whose limit is fixed rather than settable passes
    its own message naming the supported range.
    """

    def __init__(self, required: int, budget: int, what: str = "enumeration",
                 message: str | None = None):
        self.required = required
        self.budget = budget
        if message is None:
            message = (f"{what} needs {required} steps, exceeding the budget "
                       f"of {budget}; pass a larger budget to override")
        super().__init__(message)


class PrimeNotFoundError(Exception):
    """No prime exists in the requested interval."""
