"""Constructions of bounded-entry matrices with all maximal minors invertible.

Both explicit families are one object, made by one builder: column j
(j = 1..d) holds the centered residues of l_j * j^(i-1) mod the smallest
prime d of the family's window. Any m columns form a Vandermonde matrix on
distinct nodes mod d times unit column scalings, so no minor vanishes mod d.

* power-residue ("vandermonde"): l_j = 1, d in [k+1, 2k+1] (Bertrand's
  postulate guarantees a prime), so |entries| <= (d-1)/2 <= k.

* column-rescaled ("scaled"): d in [k^(m/(m-1))/2, k^(m/(m-1))), each l_j
  a unit chosen by a simultaneous-approximation search so that the
  column's residues shrink below the entry bound. The search returns what
  a scan of every l in 1..d-1 would, in one pass over a box of at most
  d*Q pairs (l, a), Q = d // floor(d^(1/m)): by Dirichlet's theorem it
  holds each column's best l and row-1 residue a, and each pair names one
  column. A family whose d*Q exceeds DEFAULT_BUDGET is refused.

_window states each window once, in integer form, and _family_prime
takes its smallest prime; the IntMatrix the builder returns enforces the
entry bound k. All threshold comparisons are done on integers
(d * ||l j^i / d|| is an integer), never through floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mod, mul

from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints, floor_ln, floor_sqrt_ln, iroot, is_prime
from .linalg import IntMatrix, select_columns

VANDERMONDE = "vandermonde"
SCALED = "scaled"

LARGE_M = "large_m"  # m >= ln k
SMALL_M = "small_m"  # 2 <= m < ln k


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of a constructed matrix: variant, prime, column scalings.

    scale_reports holds the scaled family's (multiplier, d * quality) pairs
    as _multipliers returns them; d * quality is the column's largest
    |entry|. It may be None: bench/selftest.py's wrong_construct changes the
    scalings with dataclasses.replace and drops the pairs that way.
    """

    m: int
    k: int
    d: int
    variant: str
    scalings: tuple[int, ...] | None = None
    scale_reports: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.variant not in (VANDERMONDE, SCALED):
            raise ValueError(f"unknown variant {self.variant!r}")
        lo, hi = _window(self.m, self.k, self.variant)
        exact_ints((self.d,), "prime d")
        exact_ints(self.scalings or (), "scalings")
        if self.d % 2 == 0 or not lo <= self.d <= hi or not is_prime(self.d):
            raise ValueError(
                f"{self.variant} prime must be odd in [{as_decimal(lo)}, "
                f"{as_decimal(hi)}], got d={as_decimal(self.d)}")
        if self.variant == SCALED:
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
    raise ValueError(f"no prime in [{as_decimal(lo)}, {as_decimal(hi)}]")


def _window(m: int, k: int, variant: str) -> tuple[int, int]:
    """The family's prime window [lo, hi], the one statement of either.

    Power residues: [k+1, 2k+1]. Scaled: the d with
    k^(m/(m-1))/2 <= d < k^(m/(m-1)); both bounds are irrational in
    general, so hi is the largest d with d^(m-1) < k^m and lo the
    smallest d with (2d)^(m-1) >= k^m.
    """
    exact_ints((m, k), "m and k")
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1 (got m={as_decimal(m)}, "
                         f"k={as_decimal(k)})")
    if variant == VANDERMONDE:
        return k + 1, 2 * k + 1
    hi = iroot(k ** m - 1, m - 1)
    return (hi + 2) // 2, hi


def _family_prime(m: int, k: int, variant: str) -> int:
    """The smallest prime of the family's window. A family whose narrowest
    member has more than DEFAULT_BUDGET entries is refused before the
    prime search and before any column is built; a row longer than that
    limit is named by the limit alone, as its length may have too many
    digits to write out."""
    lo, hi = _window(m, k, variant)
    need = (f"at least {as_decimal(m)} x {lo} = {as_decimal(m * lo)} entries"
            if lo <= DEFAULT_BUDGET else f"rows of more than {DEFAULT_BUDGET} entries")
    check_budget(m * lo, DEFAULT_BUDGET, f"this family needs {need}", fixed=True)
    return find_prime_in(lo, hi)


def _power_residues(m: int, k: int, d: int, scalings) -> IntMatrix:
    """m x d matrix whose column j = 1..d holds the centered residues of
    l_j * j^(i-1) mod d, (l_1, ..., l_d) = scalings, annotated with
    modulus d and entry bound k. Each row of residues is the one before
    times j, column by column, mod d."""
    rows = [[l % d for l in scalings]]
    for _ in range(m - 1):
        rows.append(list(map(mod, map(mul, rows[-1], range(1, d + 1)), repeat(d))))
    half = (d - 1) // 2
    return IntMatrix(m, d, tuple(r - d if r > half else r for row in rows for r in row),
                     modulus=d, entry_bound=k)


def construct_vandermonde(m: int, k: int) -> tuple[IntMatrix, ConstructionParams]:
    """m x d power-residue matrix with |entries| <= (d-1)/2 <= k.

    Columns are indexed j = 1..d; row i holds centered residues of
    j^(i-1) mod d. Requires k >= m, so every prime in [k+1, 2k+1] is odd
    and above m.
    """
    _window(m, k, VANDERMONDE)  # refuses m and k as every family does
    if k < m:
        raise ValueError(f"this variant needs k >= m (got m={as_decimal(m)}, "
                         f"k={as_decimal(k)})")
    d = _family_prime(m, k, VANDERMONDE)
    return (_power_residues(m, k, d, (1,) * d),
            ConstructionParams(m=m, k=k, d=d, variant=VANDERMONDE))


def _multipliers(d: int, m: int) -> list[tuple[int, int]]:
    """(multiplier, d * quality) of each column j = 1..d of the scaled family.

    The best l in 1..d-1 minimizes q(l) = max_{i=1..m} || l j^(i-1) / d ||,
    the smallest l winning ties; each d*q(l) is an integer. As q(d-l) = q(l),
    l <= d/2, where row 0 (j^0 = 1) gives d*q(l) >= l and row 1 gives
    d*q(l) >= |a|, a the centered residue of l*j. With N = floor(d^(1/m)),
    two of the points l (j^0, ..., j^(m-1)) / d mod 1, l = 0..d-1, share one
    of the N^m < d boxes of side 1/N (Dirichlet), so the optimum has
    l* <= d*q* <= Q = d // N and |a*| <= d*q* <= Q. So one pass over the box
    1 <= l <= min(Q, d//2), |a| <= min(Q, (d-1)//2), at most d*Q pairs, finds
    every column's optimum: a pair names exactly one column, j = a/l mod d,
    whose later residues follow from r -> r*j mod d, and running l upward
    while keeping only a strictly smaller d*q keeps the smallest l.
    Column d-j = -j mod d has row i equal to (-1)^i times column j's, so
    (l, -a) names -j with the value (l, a) gives j: the pass walks a >= 0
    and writes both j and -j (a = 0 names column d alone). Within one l,
    a -> j is one-to-one, as the range of a is shorter than d, so after
    each l the state is that of the walk over both signs.
    """
    cap = d // iroot(d, m)
    top = min(cap, (d - 1) // 2)
    best = [d] * d  # d * q of column j mod d so far; d is above every value
    mult = [0] * d
    for l in range(1, min(cap, d // 2) + 1):
        inv = pow(l, -1, d)
        for a in range(top + 1):
            j = a * inv % d
            b = best[j]
            if l >= b or a >= b:
                continue
            worst = l if l > a else a
            r = a
            for _ in range(m - 2):
                r = r * j % d
                dist = r if 2 * r <= d else d - r
                if dist > worst:
                    worst = dist
                    if worst >= b:
                        break
            if worst < b:
                best[j] = best[-j] = worst
                mult[j] = mult[-j] = l
    return [(mult[j % d], best[j % d]) for j in range(1, d + 1)]


def construct_scaled(m: int, k: int) -> tuple[IntMatrix, ConstructionParams]:
    """m x d column-rescaled matrix with |entries| <= k and prime d ~ k^(m/(m-1))/2.

    Only meaningful when the target width beats the power-residue family,
    i.e. when the scaled window starts above k+1.
    """
    _window(m, k, VANDERMONDE)  # refuses m and k as every family does
    # k < 2^(m-1): the window's hi < 2k, so lo <= k, refused without k^m
    if k.bit_length() < m or _window(m, k, SCALED)[0] <= k + 1:
        raise ValueError(
            f"scaled variant needs k^(m/(m-1))/2 > k+1; not met for "
            f"m={as_decimal(m)}, k={as_decimal(k)}")
    d = _family_prime(m, k, SCALED)
    tries = d // iroot(d, m)  # Q: the search's box has at most d x Q pairs
    check_budget(d * tries, DEFAULT_BUDGET, f"the multiplier search needs up to "
                 f"{as_decimal(d)} x {as_decimal(tries)} = {as_decimal(d * tries)} "
                 f"tries", fixed=True)
    reports = tuple(_multipliers(d, m))
    scalings = tuple(l for l, _ in reports)
    return _power_residues(m, k, d, scalings), ConstructionParams(
        m=m, k=k, d=d, variant=SCALED, scalings=scalings, scale_reports=reports)


def width_regime(m: int, k: int) -> tuple[str, int]:
    """(LARGE_M or SMALL_M, floor(ln k)) for m >= 2 and k >= 2. The split
    at m >= ln k is decided exactly as m > floor(ln k), since ln k is
    irrational for k >= 2."""
    exact_ints((m, k), "m and k")
    if m < 2 or k < 2:
        raise ValueError("need m >= 2 and k >= 2")
    ln_floor = floor_ln(k)
    return (LARGE_M if m > ln_floor else SMALL_M), ln_floor


def max_width(m: int, k: int) -> int:
    """Largest column count the constructions guarantee: max(k+1, k^(m/(m-1))/2),
    floored to an integer, computed exactly."""
    _window(m, k, VANDERMONDE)  # refuses m and k as every family does
    if k.bit_length() < m:  # k < 2^(m-1), so k^(m/(m-1)) < 2k: no k^m needed
        return k + 1
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
    regime, ln_floor = width_regime(m, k)
    if regime == LARGE_M:
        upper = floor_sqrt_ln(k, 100 * k * m)
    else:
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


def construct_width(m: int, k: int,
                    d_requested: int) -> tuple[IntMatrix, ConstructionParams]:
    """m x d_requested matrix with |entries| <= k and every m x m minor
    invertible, and the parameters of the family it is cut from.

    Picks the variant whose guaranteed width covers d_requested (preferring
    the power-residue family when both do, since its entries are provably
    at most (d-1)/2) and truncates to the first d_requested columns. The
    nonzero-minor property survives column truncation.
    """
    exact_ints((d_requested,), "requested width d")
    _window(m, k, VANDERMONDE)  # refuses m and k as every family does
    if d_requested <= m:
        raise ValueError(f"need d > m (got d={as_decimal(d_requested)}, "
                         f"m={as_decimal(m)})")
    if d_requested <= k + 1:
        # d > m and d <= k+1 force k >= m, the variant's precondition
        matrix, params = construct_vandermonde(m, k)
    else:
        # max_width(m, k) >= k+1, so only a d past k+1 needs it, and its k^m
        limit = max_width(m, k)
        if d_requested > limit:
            raise ValueError(
                f"d={as_decimal(d_requested)} exceeds the guaranteed width "
                f"max(k+1, k^(m/(m-1))/2) = {as_decimal(limit)} for "
                f"m={as_decimal(m)}, k={as_decimal(k)}"
            )
        matrix, params = construct_scaled(m, k)
    if d_requested != matrix.cols:
        matrix = select_columns(matrix, range(d_requested))
    return matrix, params


def construct(m: int, k: int, d_requested: int) -> IntMatrix:
    """The matrix of construct_width(m, k, d_requested)."""
    return construct_width(m, k, d_requested)[0]
