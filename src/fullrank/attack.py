"""Degeneracy search over small-coefficient row combinations.

A nonzero c in {-L..L}^t whose combination of the first t <= m rows
vanishes on at least min_agree >= m columns certifies a degenerate m x m
submatrix; it is the difference of two vectors in {0..L}^t whose
combinations agree on those columns. find_collision scans each such
difference once, under a budget passed like every other scan's.
"""

from dataclasses import dataclass
from itertools import product
from operator import sub

from .construct import LARGE_M, width_regime
from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints, iroot
from .linalg import IntMatrix, combination_vector
from .verify import DegeneracyCertificate


@dataclass(frozen=True)
class AttackConfig:
    """Search parameters: t leading rows, coefficients in {0..lam}."""

    t: int
    lam: int
    min_agree: int

    def __post_init__(self):
        exact_ints((self.t, self.lam, self.min_agree),
                   "attack t, lam and min_agree")
        if self.t < 1 or self.lam < 1 or self.min_agree < 1:
            raise ValueError("t, lam and min_agree must all be >= 1")


def attack_params(m: int, k: int) -> AttackConfig:
    """Default search parameters for an m-row matrix with entries bounded by k.

    In the large_m regime of construct.width_regime (m >= ln k) use
    t = floor(ln k) rows and coefficients up to 9; otherwise t = m and
    coefficients up to floor(25 * k^(1/(m-1))), computed exactly. For
    k < e the floor is 0 rows; t is clamped to 1, a range where the search
    guarantee says nothing.
    """
    regime, ln_floor = width_regime(m, k)
    if regime == LARGE_M:
        return AttackConfig(t=max(ln_floor, 1), lam=9, min_agree=m)
    # floor(25 k^(1/(m-1))) as the integer (m-1)-th root of 25^(m-1) k
    return AttackConfig(t=m, lam=iroot(25 ** (m - 1) * k, m - 1), min_agree=m)


def attack_config(A: IntMatrix, t: int | None = None, lam: int | None = None,
                  min_agree: int | None = None) -> AttackConfig:
    """Search parameters for A, each given field kept as is. A missing t or
    lam comes from attack_params(rows, k), k being A's entry bound, else its
    largest |entry|, and at least 2; a 1-row matrix has no defaults, so it
    needs both given. min_agree defaults to the row count."""
    if t is None or lam is None:
        if A.rows < 2:
            raise ValueError("a 1-row matrix needs both t and lam (--t and --lambda)")
        k = A.entry_bound or A.max_abs_entry()
        defaults = attack_params(A.rows, max(k, 2))
        t = defaults.t if t is None else t
        lam = defaults.lam if lam is None else lam
    min_agree = A.rows if min_agree is None else min_agree
    return AttackConfig(t=t, lam=lam, min_agree=min_agree)


def find_collision(A: IntMatrix, cfg: AttackConfig,
                   budget: int = DEFAULT_BUDGET) -> DegeneracyCertificate | None:
    """First pair of coefficient vectors in {0..lam}^t whose combinations
    agree on >= cfg.min_agree coordinates, as a degeneracy certificate.
    min_agree must lie between A's row and column counts, so that every
    certificate returned lists the m columns verify_certificate needs.

    Pairs are ordered lexicographically on (smaller, larger), and whether
    a pair agrees depends only on its difference c = larger - smaller. So
    each nonzero c is visited once, as (small, large) = (max(0, -c),
    max(0, c)): small runs over {0..lam}^t, large over the vectors zero
    wherever small is not, and pairs with large <= small are skipped.
    That pair is the first one with difference c, so the certificate
    (coefficients c, first agreeing columns) is the one the full pair scan
    returns. The budget counts differences, ((2 lam + 1)^t - 1) / 2.
    Returns None only after exhausting every difference.
    """
    if cfg.t > A.rows:
        raise ValueError(f"t={as_decimal(cfg.t)} exceeds row count {as_decimal(A.rows)}")
    if not A.rows <= cfg.min_agree <= A.cols:
        raise ValueError(f"min_agree={as_decimal(cfg.min_agree)} outside "
                         f"[{as_decimal(A.rows)}, {as_decimal(A.cols)}], the row "
                         f"and column counts")
    check_budget(((2 * cfg.lam + 1) ** cfg.t - 1) // 2, budget,
                 "coefficient difference scan")
    span = range(cfg.lam + 1)
    for small in product(span, repeat=cfg.t):
        for large in product(*[span if a == 0 else (0,) for a in small]):
            if large <= small:
                continue
            coeffs = tuple(map(sub, large, small))
            agree = [j for j, x in enumerate(combination_vector(A, coeffs))
                     if x == 0]
            if len(agree) >= cfg.min_agree:
                return DegeneracyCertificate(
                    t=cfg.t,
                    coeffs=coeffs,
                    columns=tuple(agree[: cfg.min_agree]),
                )
    return None
