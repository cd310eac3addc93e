"""Degeneracy search over small-coefficient row combinations.

A nonzero c in {-L..L}^t whose combination of the first t <= m rows
vanishes on at least min_agree >= m columns certifies a degenerate m x m
submatrix; it is the difference of two vectors in {0..L}^t whose
combinations agree on those columns. find_collision scans each such
difference once, under a budget passed like every other scan's.

The scan stops once the smaller vector's first coordinate is nonzero,
since no pair left can be visited. It packs the t rows into one integer
each (linalg.packed_rows, which the minor sweep shares), tabulates the
combinations of the leading t - 1 rows as it first meets them, at most
(L + 1)^(t - 1) integers, and walks the last coefficient along a line:
one integer addition, one to_bytes and one bytes.count of the zero field
per difference. Only a difference the count lets through has its zero
columns listed; a hit's certificate columns are the first of them.
"""

from dataclasses import dataclass
from itertools import product
from operator import sub

from .construct import LARGE_M, width_regime
from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints, iroot
from .linalg import IntMatrix, packed_rows, zero_fields
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

    The scan ends at the first small with small_0 != 0. Every large it
    pairs with is zero where small is not, so large_0 = 0 < small_0 and
    large < small: all of its pairs are skipped, and so are those of
    every later small, as product yields all smalls with small_0 = 0
    first. The pairs are walked as _agreeing_pairs says; the certificate's
    columns are the first zeros of the combination the scan holds.
    """
    if cfg.t > A.rows:
        raise ValueError(f"t={as_decimal(cfg.t)} exceeds row count {as_decimal(A.rows)}")
    if not A.rows <= cfg.min_agree <= A.cols:
        raise ValueError(f"min_agree={as_decimal(cfg.min_agree)} outside "
                         f"[{as_decimal(A.rows)}, {as_decimal(A.cols)}], the row "
                         f"and column counts")
    check_budget(((2 * cfg.lam + 1) ** cfg.t - 1) // 2, budget,
                 "coefficient difference scan")
    hit = next(_agreeing_pairs(A, cfg.t, cfg.lam, cfg.min_agree), None)
    if hit is None:
        return None
    small, large, agree = hit
    return DegeneracyCertificate(t=cfg.t, coeffs=tuple(map(sub, large, small)),
                                 columns=tuple(agree[: cfg.min_agree]))


def _agreeing_pairs(A: IntMatrix, t: int, lam: int, min_agree: int):
    """The visited pairs (small, large, columns) with small_0 = 0 whose
    combinations of A's first t rows agree on >= min_agree columns, in
    find_collision's order, each with every column they agree on.

    For a fixed small, large runs over lines: its prefix p = large_{<t}
    in lexicographic order, then x = large_{t-1} upward from 0, or x = 0
    alone when small_{t-1} != 0. A line with p < small_{<t} holds only
    pairs with large < small and is skipped whole. If p = small_{<t}, both
    are zero, and x = 0 gives large <= small, so it is skipped.

    The rows are packed by linalg.packed_rows under the bound lam *
    sum_i max |row_i| >= |E_j|, for the combination E of any difference,
    so E_j = 0 exactly where e = H + (E packed) has the field zero. Its
    last byte is 0x80 and every other 0x00, so two matches of zero cannot
    overlap, and bytes.count bounds the zero fields from above: only a
    difference it lets through has them listed, on field boundaries.

    head[p], H plus the packed combination of the leading t - 1 rows with
    coefficients p, is built the first time p is met, from head[p - e_i]
    (i the last nonzero coordinate of p) plus row i. The first small is
    zero and meets every p in lexicographic order, so head[p - e_i] is
    already there, and every later small finds the table full. An early
    exit leaves only what the scan met. The table holds at most
    (lam + 1)^(t - 1) integers of d nb bytes, one (H) at t = 1; a line
    adds O(d nb) bytes, and product copies each range(lam + 1) it is
    given into a tuple.
    """
    nb, zero, biased, bias = packed_rows(
        A, lam * sum(max(map(abs, A.row(i))) for i in range(t)), t)
    rows = [b - bias for b in biased]
    last, size = rows[-1], A.cols * nb
    span = range(lam + 1)
    head = {(0,) * (t - 1): bias}
    for small in product((0,), *[span] * (t - 1)):
        prefix, s = small[:-1], small[-1]
        comb = head[prefix] - bias + s * last
        for p in product(*[span if a == 0 else (0,) for a in prefix]):
            if p < prefix:
                continue
            if p not in head:
                i = max(j for j, a in enumerate(p) if a)
                head[p] = head[p[:i] + (p[i] - 1,) + p[i + 1:]] + rows[i]
            # e starts one step before the line's first x: 1 when p = prefix,
            # else 0; the line ends at lam when s = 0, else at 0
            e = head[p] - comb
            stop = lam + 1 if s == 0 else 1
            if p == prefix:
                xs = range(1, stop)
            else:
                xs = range(stop)
                e -= last
            for x in xs:
                e += last
                raw = e.to_bytes(size, "little")
                if raw.count(zero) >= min_agree:
                    agree = list(zero_fields(raw, raw.find(zero), zero))
                    if len(agree) >= min_agree:
                        yield small, p + (x,), agree
