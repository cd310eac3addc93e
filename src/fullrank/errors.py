"""The one work budget and the one rule that enforces it: every search
counts its steps before it starts and passes the count to check_budget.
A refusal is then a BudgetExceededError; every refusal is a ValueError."""

from .intmath import MAX_STR_DIGITS, exact_ints

# Default cap on the steps one exhaustive scan may take: minors, coefficient
# differences, decoder candidates or grid points; the fixed cap on the
# entries and the multiplier tries of a construction.
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    """A search would exceed its work budget; carries the required count
    so callers can decide to raise the budget and retry: an int, or the
    pair (base, exponent) of a power refused without being built."""

    def __init__(self, required: int | tuple[int, int], budget: int, message: str):
        self.required = required
        self.budget = budget
        super().__init__(message)


def as_decimal(n: int) -> str:
    """n in decimal or, past MAX_STR_DIGITS digits (Python's default
    int-to-str limit), as the power of ten it reaches, found without
    writing n out. Every integer a refusal message writes goes through
    here, so a refusal of a huge argument is still the refusal, not
    Python's conversion error."""
    digits = (abs(n).bit_length() - 1) * 30102 // 100000 + 1  # log10 2 > 0.30102
    while abs(n) >= 10 ** digits:
        digits += 1
    bound = f"at most -10^{digits - 1}" if n < 0 else f"at least 10^{digits - 1}"
    return str(n) if digits <= MAX_STR_DIGITS else bound


def check_budget(required: int | tuple[int, int], budget: int, what: str,
                 fixed: bool = False):
    """Refuse `required` steps of the work named by what above an int
    budget. A fixed limit (fixed=True, what stating the need) is named
    as such instead of asking for a larger budget. required may be a
    pair (base, exponent) for base^exponent: with base >= 2 and exponent
    past budget.bit_length() and MAX_STR_DIGITS, it is at least
    2^exponent > budget and is refused as that power, never built (3^m
    took over 30 s to build and write out at m = 10^7)."""
    exact_ints((budget,), "budget")
    power = None
    if isinstance(required, tuple):
        base, exponent = required
        if base >= 2 and exponent > max(budget.bit_length(), MAX_STR_DIGITS):
            power = "^".join(f"({n})" if " " in n else n for n in map(as_decimal, required))
        else:
            required = base ** exponent
    if power or required > budget:
        raise BudgetExceededError(required, budget, (
            f"{what}, above the fixed limit of {as_decimal(budget)}" if fixed else
            f"{what} needs {power or as_decimal(required)} steps, exceeding the budget of "
            f"{as_decimal(budget)}; pass a larger budget to override"))
