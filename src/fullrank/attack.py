"""Degeneracy search over small-coefficient row combinations.

Enumerates all coefficient vectors in {0..L}^t on the first t rows and
looks for two whose combinations agree on at least min_agree coordinates;
the difference of such a pair is a nonzero combination with that many
zeros, certifying a degenerate m x m submatrix.
"""

from dataclasses import dataclass
from itertools import product

from .errors import BudgetExceededError
from .intmath import floor_ln, iroot
from .linalg import IntMatrix
from .verify import DegeneracyCertificate

DEFAULT_PAIR_BUDGET = 10_000_000


@dataclass(frozen=True)
class AttackConfig:
    """Search parameters: t leading rows, coefficients in {0..lam}."""

    t: int
    lam: int
    min_agree: int
    pair_budget: int = DEFAULT_PAIR_BUDGET
    k_below_regime: bool = False  # t was clamped up to 1; guarantee is void

    def __post_init__(self):
        if self.t < 1 or self.lam < 1 or self.min_agree < 1:
            raise ValueError("t, lam and min_agree must all be >= 1")
        if self.pair_budget < 1:
            raise ValueError("pair budget must be >= 1")


def attack_params(m: int, k: int) -> AttackConfig:
    """Default search parameters for an m-row matrix with entries bounded by k.

    Regime split at m >= ln k, decided exactly as m > floor(ln k) (ln k is
    irrational for k >= 2): there use t = floor(ln k) rows and
    coefficients up to 9; otherwise t = m and coefficients up to
    floor(25 * k^(1/(m-1))), computed exactly. For tiny k the floor can
    drop below one row; t is clamped to 1 and the config flagged, since
    the search guarantee is meaningless in that range.
    """
    if m < 2 or k < 2:
        raise ValueError("need m >= 2 and k >= 2")
    ln_floor = floor_ln(k)
    if m > ln_floor:
        t = ln_floor
        lam = 9
        clamped = t < 1
        t = max(t, 1)
    else:
        t = m
        # floor(25 k^(1/(m-1))) as the integer (m-1)-th root of 25^(m-1) k
        lam = iroot(25 ** (m - 1) * k, m - 1)
        clamped = False
    return AttackConfig(t=t, lam=lam, min_agree=m, k_below_regime=clamped)


def combination_vector(A: IntMatrix, coeffs) -> tuple[int, ...]:
    """Coefficient-weighted sum of the first len(coeffs) rows, exact."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) > A.rows:
        raise ValueError(
            f"{len(coeffs)} coefficients but only {A.rows} rows")
    return tuple(
        sum(coeffs[i] * A.entry(i, j) for i in range(len(coeffs)))
        for j in range(A.cols)
    )


def find_collision(A: IntMatrix, cfg: AttackConfig,
                   origin: int = 0) -> DegeneracyCertificate | None:
    """First pair of coefficient vectors whose combinations agree on
    >= cfg.min_agree coordinates, as a degeneracy certificate.

    Vectors range over {origin..origin+lam}^t and pairs are scanned in
    lexicographic order on (smaller, larger), so the result is
    well-defined and reproducible; the certificate's coefficients are
    (larger - smaller), which depends only on the difference (shifting
    origin never changes the outcome). Returns None only after exhausting
    every pair.
    """
    if cfg.t > A.rows:
        raise ValueError(f"t={cfg.t} exceeds row count {A.rows}")
    n_vectors = (cfg.lam + 1) ** cfg.t
    ordered_pairs = n_vectors * n_vectors
    if ordered_pairs > cfg.pair_budget:
        raise BudgetExceededError(ordered_pairs, cfg.pair_budget,
                                  what="coefficient pair scan")
    span = range(origin, origin + cfg.lam + 1)
    vectors = list(product(span, repeat=cfg.t))
    combos = [combination_vector(A, v) for v in vectors]
    d = A.cols
    for ia in range(n_vectors):
        va = combos[ia]
        for ib in range(ia + 1, n_vectors):
            vb = combos[ib]
            agree = [j for j in range(d) if va[j] == vb[j]]
            if len(agree) >= cfg.min_agree:
                small, large = vectors[ia], vectors[ib]
                coeffs = tuple(b - a for a, b in zip(small, large))
                return DegeneracyCertificate(
                    t=cfg.t,
                    coeffs=coeffs,
                    columns=tuple(agree[: cfg.min_agree]),
                )
    return None
