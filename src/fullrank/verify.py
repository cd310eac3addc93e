"""Verification that all (or sampled) maximal minors are nonzero, plus
validation of degeneracy certificates.

Both checks first try a proof from the constructions' algebra. Say A
carries an odd prime modulus p, d <= p, and every column c is a
geometric progression mod p: c_0 != 0 and c_i = c_0 * r^i (mod p), with
ratios r pairwise distinct mod p. Then every m x m minor is
(prod c_0) * prod_{a<b} (r_b - r_a) mod p, a unit times a Vandermonde
determinant on distinct nodes, so it is nonzero mod p and hence over the
integers. geometric_structure checks this in O(m*d) exact integer steps
and needs the modulus alone; both families and their column subsets
qualify. When it proves A, the reports are what the sweep would return.

Otherwise the exhaustive sweep builds column sets one column at a time
and carries every maximal minor of the columns taken so far; appending a
column extends them by a Laplace expansion along the new column. After
m-1 columns they are the signed cofactors of an integer normal to the
hyperplane the columns span, so a completing column gives a vanishing
minor exactly when its dot product with that normal is 0. Work per
extension grows like 2^m and pays because every prefix is shared by its
completions. A sampled trial shares nothing and is one linalg.det_exact
on its columns.

The completions of a prefix are tested together, in one big-integer
product. Each dot product n . col_j is a minor, so by Hadamard's bound
|n . col_j| <= isqrt((k^2 m)^m), k the largest |entry|, which bounds
every entry too. Under that bound each row is packed once by
linalg.packed_rows, whose notes state the layout the collision scan
shares: with Q_i the packed rows and H the repeated zero field, field j
of H + sum_i n_i Q_i is exactly 2^(w-1) + n . col_j, so completion j
fails exactly where that field is the zero field. A byte search from
the first completing column finds those matches, and as a match counts
only on a field boundary the failures come in column order, as one dot
product per completion would list them.

The last Laplace level is never taken. The children of an
(m-2)-prefix, its extensions by a later column c, have normals linear in
col_c: component p is n_p = sum_{r != p} (+-M_pr) A[r][c], with M_pr an
(m-2)-minor of the prefix. So sum_p n_p Q_p = sum_r A[r][c] R_r, with
R_r = sum_{p != r} (+-M_pr) Q_p taken from the prefix's next column on:
m sums of m-1 products per (m-2)-prefix, and then m products per child
with the entries of its own column, where the Laplace step took m sums
per child to build a normal. No normal is ever formed:
H + sum_r A[r][c] R_r is the same integer as H + sum_i n_i Q_i, so the
test above and its failures are unchanged. Memory is O(m*d): A is read
once, into one packed integer per row; the Laplace terms of the levels
above hold A's rows themselves, so no list of columns is built; and an
(m-2)-prefix holds its rows' suffixes, its m sums R_r, one slice of A's
entries per row, from which its children's columns are zipped one at a
time, and one child's sum.
"""

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from operator import mul

from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints
from .linalg import IntMatrix, combination_vector, det_exact, packed_rows, zero_fields


@dataclass
class VerificationReport:
    """Outcome of a minor sweep."""

    total_checked: int
    failures: list[tuple[int, ...]] = field(default_factory=list)
    mode: str = "exhaustive"
    seed: int | None = None
    trials: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class DegeneracyCertificate:
    """Witness of a degenerate m x m submatrix: a nonzero coefficient vector
    on the first t rows whose combination vanishes on every listed column."""

    t: int
    coeffs: tuple[int, ...]
    columns: tuple[int, ...]

    def __post_init__(self):
        exact_ints((self.t,), "certificate t")
        object.__setattr__(self, "coeffs", exact_ints(self.coeffs, "certificate coefficients"))
        object.__setattr__(self, "columns", exact_ints(self.columns, "certificate columns"))


@dataclass(frozen=True)
class CertificateCheck:
    accepted: bool
    reason: str


def _laplace_plans(A: IntMatrix) -> tuple[list, list]:
    """(plans, cofactors): plans[t], t < m-2, expands the minors of t
    columns into those of t+1 columns; cofactors gives the m sums from
    which every child of an (m-2)-prefix is tested.

    The minors of t columns are listed by their row t-subset, in
    combinations order. plans[t] holds, for each row (t+1)-subset, the
    Laplace terms along the new last column: (sign, A's row r, index of
    the t-subset left when row r is removed). A term reads its entry of
    the new column j as row[j]. Each row is taken from A once, and only
    when m > 2, as at m = 2 no level reads it.

    Component p of the normal of m-1 columns is (-1)^(p+m-1) times the
    minor of every row but p. Along its last column c that is the sum,
    over rows r != p, of (-1)^(p+q+1) A[r][c] M_pr, with q the place of r
    among the rows but p and M_pr the minor of the other m-2 rows.
    cofactors[r] lists, for each component p, where (-1)^(p+q+1) M_pr
    sits in signed = minors + their negatives + [0], the 0 standing at
    p = r. So with Q_p the packed row p, the normal n of the prefix
    extended by column c has sum_p n_p Q_p = sum_r A[r][c] R_r, where
    R_r = sum_p signed[cofactors[r][p]] Q_p. For m >= 2; m 2^(m-1) terms
    in all, the cofactors' m^2 included.
    """
    m = A.rows
    rows = [A.row(i) for i in range(m)] if m > 2 else []
    plans = []
    for t in range(m - 2):
        index = {sub: i for i, sub in enumerate(combinations(range(m), t))}
        plans.append([
            [((-1) ** (q + t), rows[r], index[sub[:q] + sub[q + 1:]])
             for q, r in enumerate(sub)]
            for sub in combinations(range(m), t + 1)
        ])
    index = {sub: i for i, sub in enumerate(combinations(range(m), m - 2))}
    cofactors = [[2 * len(index)] * m for _ in range(m)]
    for p in range(m):
        sub = tuple(r for r in range(m) if r != p)
        for q, r in enumerate(sub):
            cofactors[r][p] = index[sub[:q] + sub[q + 1:]] + (p + q + 1) % 2 * len(index)
    return plans, cofactors


def _check_shape(A: IntMatrix) -> None:
    if A.cols < A.rows:
        raise ValueError(f"matrix has fewer columns ({A.cols}) than rows ({A.rows})")


def geometric_structure(
        A: IntMatrix) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """(p, heads, ratios) when A's columns prove every maximal minor
    nonzero mod its modulus p, else None.

    Proved means: d <= p, every head c_0 (row 0) is nonzero mod p, and,
    from m = 2 on, every column is c_0 * (1, r, r^2, ...) mod p with
    r = c_1 / c_0 and the ratios pairwise distinct mod p; ratios is empty
    at m = 1, where a minor is its entry. Then each minor is the product
    of its heads times a Vandermonde determinant on distinct nodes, a unit
    mod p. O(m*d) exact integer steps; a matrix without a modulus is
    never proved.
    """
    p, heads = A.modulus, A.row(0)
    if p is None or A.cols > p or not all(c % p for c in heads):
        return None
    if A.rows == 1:
        return p, heads, ()
    ratios = tuple(c1 * pow(c0, -1, p) % p for c0, c1 in zip(heads, A.row(1)))
    if len(set(ratios)) < len(ratios):
        return None
    for i in range(2, A.rows):
        if any((a * r - b) % p for a, r, b in zip(A.row(i - 1), ratios, A.row(i))):
            return None
    return p, heads, ratios


def verify_exhaustive(A: IntMatrix,
                      budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Check every m-subset of columns; failures come in lexicographic order.

    Refuses when C(d, m) exceeds the budget. A matrix that
    geometric_structure proves has no failures, and its report counts
    the C(d, m) minors proved, in O(m*d). Any other is refused when the
    sweep's Laplace plan, m 2^(m-1) terms, exceeds the budget (C(d, m)
    is 1 on a square matrix and bounds nothing there), and else swept:
    column prefixes are walked depth first, so each (m-1)-prefix's
    normal n is computed once and shared by all of its completions.

    A prefix's completions are tested at once, in the packed layout of
    linalg.packed_rows (see the module notes). The (m-1)-prefixes are not
    walked one by one: each (m-2)-prefix builds m packed sums R_r, and
    the child by column c tests H + sum_r A[r][c] R_r, the same integer as
    H + sum_i n_i Q_i for its normal n, which is never formed. At m = 1 a
    minor is an entry, and the failures are the zero entries.
    """
    _check_shape(A)
    m, d = A.rows, A.cols
    total = math.comb(d, m)
    check_budget(total, budget, "exhaustive minor sweep")
    if geometric_structure(A):
        return VerificationReport(total_checked=total, mode="exhaustive")
    check_budget(m << (m - 1), budget, "the Laplace plan of the exhaustive minor sweep")
    if m == 1:
        return VerificationReport(total_checked=total, mode="exhaustive", failures=[
            (j,) for j, a in enumerate(A.entries) if not a])
    k = A.max_abs_entry()
    nb, zero, biased, bias = packed_rows(A, math.isqrt((k * k * m) ** m))
    plans, cofactors = _laplace_plans(A)
    failures = []

    def walk(prefix, minors):
        t = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if t < m - 2:
            for j in range(start, d - m + t + 1):
                walk(prefix + (j,), [sum(sign * row[j] * minors[k] for sign, row, k in terms)
                                     for terms in plans[t]])
            return
        # the packed rows from column start on, whose field i is column start + i
        shift = 8 * nb * start
        hs = bias >> shift
        qs = [(b >> shift) - hs for b in biased]
        size = (d - start) * nb
        # the child by column start + i - 1 has normal n with
        # sum_p n_p Q_p = sum_r A[r][start + i - 1] R_r, so field i on of H
        # plus that is 2^(w-1) + n . col_(start+i); u is that column,
        # read from slices of A's entries
        signed = minors + [-x for x in minors] + [0]
        rs = [sum(map(mul, map(signed.__getitem__, ks), qs)) for ks in cofactors]
        columns = zip(*[A.entries[r + start:r + d - 1] for r in range(0, m * d, d)])
        for i, u in enumerate(columns, 1):
            raw = sum(map(mul, u, rs), hs).to_bytes(size, "little")
            pos = raw.find(zero, i * nb)
            if pos >= 0:
                failures.extend(prefix + (start + i - 1, start + c)
                                for c in zero_fields(raw, pos, zero))

    walk((), [1])
    return VerificationReport(total_checked=total, failures=failures,
                              mode="exhaustive")


def verify_sampled(A: IntMatrix, trials: int, seed: int,
                   budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Check `trials` column m-subsets drawn from a seeded generator.

    Subsets may repeat; equal seeds give identical reports. Refuses, before
    drawing anything, when trials exceeds the budget. A matrix that
    geometric_structure proves has no failing subset to draw, so nothing
    is drawn and the report is the one a draw would give.
    """
    exact_ints((trials, seed), "trials and seed")
    if trials < 1:
        raise ValueError("need at least one trial")
    check_budget(trials, budget, "sampled minor check")
    _check_shape(A)
    m, d = A.rows, A.cols
    failures = set()
    if not geometric_structure(A):
        rng = random.Random(seed)
        for _ in range(trials):
            combo = tuple(sorted(rng.sample(range(d), m)))
            if det_exact([A.column(j) for j in combo]) == 0:
                failures.add(combo)
    return VerificationReport(
        total_checked=trials,
        failures=sorted(failures),
        mode="sampled",
        seed=seed,
        trials=trials,
    )


def verify_certificate(A: IntMatrix, cert: DegeneracyCertificate) -> CertificateCheck:
    """Accept iff the certificate really witnesses a degenerate m x m minor.

    Checks, in order: well-formedness, a nonzero coefficient vector, and
    the combination of the first t rows vanishing on every listed column.
    """
    m, d = A.rows, A.cols
    if not 1 <= cert.t <= m:
        return CertificateCheck(False, f"t={as_decimal(cert.t)} outside [1, {m}]")
    if len(cert.coeffs) != cert.t:
        return CertificateCheck(
            False, f"{len(cert.coeffs)} coefficients for t={cert.t} rows")
    if not any(cert.coeffs):
        return CertificateCheck(False, "coefficient vector is zero")
    cols = cert.columns
    if len(cols) < m:
        return CertificateCheck(False, f"needs at least m={m} columns, got {len(cols)}")
    if any(not 0 <= j < d for j in cols):
        return CertificateCheck(False, "column index out of range")
    if any(a >= b for a, b in zip(cols, cols[1:])):
        return CertificateCheck(False, "columns must be strictly increasing")
    combination = combination_vector(A, cert.coeffs)
    for j in cols:
        if combination[j]:
            return CertificateCheck(False, f"combination does not vanish at "
                                           f"column {j} (value {as_decimal(combination[j])})")
    # (c, 0, ..., 0) is a nonzero left-kernel vector of the cols[:m] submatrix: singular
    return CertificateCheck(True, "ok")
