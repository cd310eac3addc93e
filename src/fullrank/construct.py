"""Constructions of bounded-entry matrices with all maximal minors invertible.

Two explicit families, both built mod an odd prime d and both exact:

* power-residue ("vandermonde"): entries are centered residues of j^(i-1)
  mod d, with d the smallest odd prime in [k+1, 2k+1] (Bertrand's
  postulate guarantees one). Every m x m column selection is a
  Vandermonde matrix on distinct nodes mod d, so no minor vanishes mod d.

* column-rescaled ("scaled"): the same power pattern for a much larger
  prime d ~ k^(m/(m-1))/2, with each column multiplied by a unit l_j
  chosen by a simultaneous-approximation search so that all centered
  residues in the column shrink below the entry bound. The search returns
  what a scan of every l in 1..d-1 would, but visits far fewer: the
  quality is symmetric under l -> d-l, and row 0 (j^0 = 1) bounds it
  below by l itself. Rescaling columns by units and reducing mod d
  preserves the nonzero-minor property.

All threshold comparisons are done on integers (d * ||l j^i / d|| is an
integer), never through floating point.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ConstructionInfeasibleError,
    PrimeNotFoundError,
)
from .intmath import exact_ints, floor_ln, floor_sqrt_ln, iroot, is_prime
from .linalg import IntMatrix, centered_residue, select_columns

VANDERMONDE = "vandermonde"
SCALED = "scaled"

LARGE_M = "large_m"  # m >= ln k
SMALL_M = "small_m"  # 2 <= m < ln k


@dataclass(frozen=True)
class ScaleSearchResult:
    """Outcome of the per-column multiplier search.

    quality is max_i || multiplier * j^(i-1) / d ||, the worst distance to
    an integer over the column's power residues; within_threshold reports
    whether quality <= d^(-1/m), decided exactly as quality_num^m <= d^(m-1).
    """

    multiplier: int
    quality: Fraction
    within_threshold: bool


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of a constructed matrix: variant, prime, column scalings."""

    m: int
    k: int
    d: int
    variant: str
    scalings: tuple[int, ...] | None = None
    scale_reports: tuple[ScaleSearchResult, ...] | None = None

    def __post_init__(self):
        if self.variant not in (VANDERMONDE, SCALED):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not is_prime(self.d):
            raise ValueError("d must be prime")
        if self.variant == VANDERMONDE:
            if self.d % 2 == 0 or not self.k + 1 <= self.d <= 2 * self.k + 1:
                raise ValueError("vandermonde prime must be odd in [k+1, 2k+1]")
        else:
            km = self.k ** self.m
            if (2 * self.d) ** (self.m - 1) < km or self.d ** (self.m - 1) >= km:
                raise ValueError(
                    "scaled prime must satisfy k^(m/(m-1))/2 <= d < k^(m/(m-1))"
                )
            if self.scalings is None or len(self.scalings) != self.d:
                raise ValueError("scaled variant needs one multiplier per column")
            if any(not 1 <= l <= self.d - 1 for l in self.scalings):
                raise ValueError("multipliers must lie in [1, d-1]")


def find_prime_in(lo: int, hi: int) -> int:
    """Smallest prime p with lo <= p <= hi. Deterministic.

    Both bounds must be ints (not bools): every caller states its window
    exactly, so no float or fraction comes near the endpoints.
    """
    exact_ints((lo, hi), "prime window bounds")
    if lo > hi:
        raise ValueError("empty interval")
    for p in range(max(2, lo), hi + 1):
        if is_prime(p):
            return p
    raise PrimeNotFoundError(f"no prime in [{lo}, {hi}]")


def _refuse_oversize(m: int, width: int) -> None:
    """Refuse a family whose narrowest member has more than DEFAULT_BUDGET
    entries, before the prime search and before any column is built."""
    entries = m * width
    if entries > DEFAULT_BUDGET:
        raise BudgetExceededError(
            entries, DEFAULT_BUDGET,
            message=f"this family needs at least {m} x {width} = {entries} "
                    f"entries, above the fixed limit of {DEFAULT_BUDGET}")


def construct_vandermonde(m: int, k: int) -> tuple[IntMatrix, ConstructionParams]:
    """m x d power-residue matrix with |entries| <= (d-1)/2 <= k.

    Columns are indexed j = 1..d; row i holds centered residues of
    j^(i-1) mod d. Requires k >= m so the interval [k+1, 2k+1] yields a
    prime d > m.
    """
    if m < 2:
        raise ValueError("need at least 2 rows")
    if k < m:
        raise ValueError(f"this variant needs k >= m (got m={m}, k={k})")
    _refuse_oversize(m, k + 1)
    d = find_prime_in(k + 1, 2 * k + 1)  # k >= m >= 2: every prime here is odd
    entries = tuple(
        centered_residue(pow(j, i, d), d)
        for i in range(m)
        for j in range(1, d + 1)
    )
    matrix = IntMatrix(m, d, entries, modulus=d, entry_bound=k)
    return matrix, ConstructionParams(m=m, k=k, d=d, variant=VANDERMONDE)


def dirichlet_scale(j: int, d: int, m: int) -> ScaleSearchResult:
    """Best column multiplier for column j of the scaled construction.

    Minimizes, over l = 1..d-1,
        q(l) = max_{i=1..m} || l * j^(i-1) / d ||,
    where ||.|| is distance to the nearest integer; the smallest l
    attaining the minimum wins. Every q(l) is a multiple of 1/d, so the
    search compares the integers d*q(l). Two facts prune the scan without
    changing its answer: q(d-l) = q(l), so l > d/2 never beats its mirror
    d-l < l; and row 0 is j^0 = 1, so d*q(l) >= l for l <= d/2, and the
    scan stops once l reaches the best value found. The d^(-1/m)
    threshold check is the integer comparison (d*q)^m <= d^(m-1).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if not is_prime(d):
        raise ValueError("d must be prime")
    if not 1 <= j <= d:
        raise ValueError(f"column index {j} outside [1, {d}]")
    powers = [pow(j, i, d) for i in range(m)]
    best_l = None
    best_q = d  # d * q(l), an integer in [0, d/2]; d is above every value
    for l in range(1, d // 2 + 1):
        if l >= best_q:
            break
        worst = 0
        for r in powers:
            lr = (l * r) % d
            dist = lr if lr * 2 <= d else d - lr
            if dist > worst:
                worst = dist
                if worst >= best_q:
                    break
        if worst < best_q:
            best_l, best_q = l, worst
    return ScaleSearchResult(
        multiplier=best_l,
        quality=Fraction(best_q, d),
        within_threshold=best_q ** m <= d ** (m - 1),
    )


def _scaled_prime(m: int, k: int) -> int:
    """Smallest prime d with k^(m/(m-1))/2 <= d < k^(m/(m-1)).

    Both bounds are irrational in general; the window is their integer
    form: hi is the largest d with d^(m-1) < k^m, and lo the smallest d
    with (2d)^(m-1) >= k^m.
    """
    hi = iroot(k ** m - 1, m - 1)
    lo = (hi + 2) // 2
    _refuse_oversize(m, lo)
    return find_prime_in(lo, hi)


def construct_scaled(m: int, k: int) -> tuple[IntMatrix, ConstructionParams]:
    """m x d column-rescaled matrix with |entries| <= k and prime d ~ k^(m/(m-1))/2.

    Only meaningful when the target width beats the power-residue family,
    i.e. k^(m/(m-1))/2 > k+1 (equivalently k^m > (2(k+1))^(m-1)).
    """
    if m < 2:
        raise ValueError("need at least 2 rows")
    if k < 3 or k ** m <= (2 * (k + 1)) ** (m - 1):
        raise ValueError(
            f"scaled variant needs k^(m/(m-1))/2 > k+1; not met for m={m}, k={k}"
        )
    d = _scaled_prime(m, k)
    reports = []
    cols = []
    for j in range(1, d + 1):
        rep = dirichlet_scale(j, d, m)
        col = [
            centered_residue(rep.multiplier * pow(j, i, d), d) for i in range(m)
        ]
        worst = max(abs(a) for a in col)
        if worst > k:
            # even the minimax-optimal multiplier leaves an oversized entry
            raise ConstructionInfeasibleError(
                f"column {j}: best multiplier {rep.multiplier} still gives "
                f"|entry| = {worst} > k = {k}"
            )
        reports.append(rep)
        cols.append(col)
    entries = tuple(cols[j][i] for i in range(m) for j in range(d))
    matrix = IntMatrix(m, d, entries, modulus=d, entry_bound=k)
    params = ConstructionParams(
        m=m,
        k=k,
        d=d,
        variant=SCALED,
        scalings=tuple(r.multiplier for r in reports),
        scale_reports=tuple(reports),
    )
    return matrix, params


def max_width(m: int, k: int) -> int:
    """Largest column count the constructions guarantee: max(k+1, k^(m/(m-1))/2),
    floored to an integer, computed exactly."""
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    return max(k + 1, iroot(k ** m, m - 1) // 2)


@dataclass(frozen=True)
class BoundsReport:
    """Known window for the maximal width d at given (m, k): no matrix
    with the all-minors-invertible property can be wider than upper_bound,
    and the explicit constructions reach lower_bound."""

    m: int
    k: int
    regime: str
    upper_bound: int
    lower_bound: int
    gap_factor: Fraction
    small_k_caveat: bool  # upper bound is asymptotic; k this small proves nothing


def bounds_report(m: int, k: int) -> BoundsReport:
    """Evaluate both width bounds with exact floor semantics.

    In the small_m regime the upper bound 400 k^(m/(m-1)) m^(3/2) is an
    even root of an integer, so its floor is taken with integer root
    extraction; the large_m value 100 k m sqrt(ln k) is floored by
    squaring against rational brackets of ln k (intmath.floor_sqrt_ln).
    """
    if m < 2 or k < 2:
        raise ValueError("need m >= 2 and k >= 2")
    ln_floor = floor_ln(k)
    if m > ln_floor:  # m >= ln k, exactly: ln k is irrational for k >= 2
        regime = LARGE_M
        upper = floor_sqrt_ln(k, 100 * k * m)
    else:
        regime = SMALL_M
        # (400 k^(m/(m-1)) m^(3/2)) ** (2(m-1)) is the integer below
        power = 400 ** (2 * (m - 1)) * k ** (2 * m) * m ** (3 * (m - 1))
        upper = iroot(power, 2 * (m - 1))
    lower = max_width(m, k)
    return BoundsReport(
        m=m,
        k=k,
        regime=regime,
        upper_bound=upper,
        lower_bound=lower,
        gap_factor=Fraction(upper, lower),
        small_k_caveat=ln_floor < 2,
    )


def construct(m: int, k: int, d_requested: int) -> IntMatrix:
    """m x d_requested matrix with |entries| <= k and every m x m minor invertible.

    Picks the variant whose guaranteed width covers d_requested (preferring
    the power-residue family when both do, since its entries are provably
    at most (d-1)/2) and truncates to the first d_requested columns. The
    nonzero-minor property survives column truncation.
    """
    if m < 2:
        raise ValueError("need at least 2 rows")
    if k < 1:
        raise ValueError("need k >= 1")
    if d_requested <= m:
        raise ValueError(f"need d > m (got d={d_requested}, m={m})")
    limit = max_width(m, k)
    if d_requested > limit:
        raise ValueError(
            f"d={d_requested} exceeds the guaranteed width "
            f"max(k+1, k^(m/(m-1))/2) = {limit} for m={m}, k={k}"
        )
    if d_requested <= k + 1:
        # d > m and d <= k+1 force k >= m, the variant's precondition
        matrix, _ = construct_vandermonde(m, k)
    else:
        matrix, _ = construct_scaled(m, k)
    if d_requested == matrix.cols:
        return matrix
    return select_columns(matrix, range(d_requested))
