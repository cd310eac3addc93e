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

The last two Laplace levels are never taken. Each prefix of t < m-3
columns holds its C(m, t) minors. An (m-3)-prefix P, with minors N and
next column s, holds its rows packed from s on and C(m, 2) packed sums.
Its grandchildren P+b+c, b < c, have normals bilinear in col_b and col_c:
expanding det(P, b, c, j) along its last three columns gives
sum_p n_p Q_p = sum_{q,r} A[q][b] A[r][c] T_rq, with
T_rq = sum_{p not in {q,r}} (+-N_pqr) Q_p and N_pqr the minor of P on the
rows but p, q and r. That form is alternating in col_b and col_c, as
det(P, b, b, j) = 0 for every col_b; an alternating bilinear form has an
antisymmetric matrix, so T_qr = -T_rq, T_rr = 0, and P builds only the
T_rq with r < q. A child P+b holds m sums R_r = sum_q A[q][b] T_rq, moved
to its next column through the bias: every field of R_r is an
(m-1)-minor, of P, b and that field's column on the rows but r, within
the bound, so the biased fields of R_r + H_s lie in [1, 2^w) and
((R_r + H_s) >> w(b+1-s)) - H_(b+1) is R_r from column b+1 on, exactly
(H_s is H from column s on). A grandchild holds one sum,
H_(b+1) + sum_r A[r][c] R_r, the same integer as H + sum_i n_i Q_i for
its normal n, which is never formed, so the test above and its failures
are unchanged. At m = 2 the root is the only (m-2)-prefix: its child by
column c has cofactor normal (-A[1][c], A[0][c]), so R_0 = Q_1 and
R_1 = -Q_0.

Memory is O(m*d). A is read once, into one packed integer per row and,
from m = 3 on, one tuple per column, from which the Laplace levels, the
children and the grandchildren read their columns; at m = 2 the
children's columns are zipped from two slices of A's entries, one at a
time. An (m-3)-prefix holds its rows' suffixes, its C(m, 2) sums and
their negatives, and a child its m sums and one grandchild's sum.
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


def _laplace_plans(m: int) -> tuple[list, list, list]:
    """(plans, pairs, rows): plans[t], t < m-3, expands the minors of t
    columns into those of t+1 columns; pairs and rows turn the minors N of
    an (m-3)-prefix into its sums T_rq and those into its children's R_r.

    The minors of t columns are listed by their row t-subset, in
    combinations order. plans[t] holds, for each row (t+1)-subset, the
    Laplace terms along the new last column: (sign, row r, index of the
    t-subset left when row r is removed). A term reads its entry of the
    new column j as cols[j][r].

    Let P be an (m-3)-prefix with minors N, and b < c < j later columns.
    Expanding det(P, b, c, j) along its last three columns, with rows q, r
    and p at columns b, c and j, the coefficient of A[q][b] A[r][c] A[p][j]
    is e (-1)^(p+q+r+m) N_pqr, e the sign of the sequence (q, r, p) and
    N_pqr the minor of the other m-3 rows. So with Q_p the packed rows,
    T_rq = sum_p e (-1)^(p+q+r+m) N_pqr Q_p over p outside {q, r}, and
    swapping q and r flips e: T_qr = -T_rq. pairs lists, for each pair
    r < q in combinations order, where the coefficient of each Q_p sits in
    signed = N + their negatives + [0], the 0 standing at p in {q, r}.
    rows[r] lists, for each q, where T_rq sits in the T_rq with r < q,
    their negatives and [0], the 0 standing at q = r, so that
    R_r = sum_q A[q][b] T_rq is one sum of m products. For m >= 3; at most
    m 2^m entries in all, twice the m 2^(m-1) Laplace terms the sweep's
    refusal counts.
    """
    plans = []
    for t in range(m - 3):
        index = {sub: i for i, sub in enumerate(combinations(range(m), t))}
        plans.append([
            [((-1) ** (q + t), r, index[sub[:q] + sub[q + 1:]]) for q, r in enumerate(sub)]
            for sub in combinations(range(m), t + 1)
        ])
    n = math.comb(m, 3)
    pair = {rq: i for i, rq in enumerate(combinations(range(m), 2))}
    pairs = [[2 * n] * m for _ in pair]
    # the complements of the row 3-subsets, listed in combinations order,
    # are the (m-3)-subsets in reverse combinations order; odd is the
    # parity of (q, r, p) as a permutation of (a, b, c), so e = (-1)^odd
    for i, (a, b, c) in enumerate(combinations(range(m), 3)):
        for p, r, q, odd in (a, b, c, 1), (b, a, c, 0), (c, a, b, 1):
            pairs[pair[r, q]][p] = n - 1 - i + (a + b + c + m + odd) % 2 * n
    rows = [[2 * len(pair) if q == r else pair[r, q] if r < q else pair[q, r] + len(pair)
             for q in range(m)]
            for r in range(m)]
    return plans, pairs, rows


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
    linalg.packed_rows (see the module notes). Neither the (m-2)- nor the
    (m-1)-prefixes take a Laplace step: each (m-3)-prefix builds the
    C(m, 2) packed sums T_rq, r < q, its child by column b the m sums
    R_r = sum_q A[q][b] T_rq, and the grandchild by column c tests
    H + sum_r A[r][c] R_r, the same integer as H + sum_i n_i Q_i for its
    normal n, which is never formed. At m = 2 the root builds the R_r from
    the cofactors, and at m = 1 a minor is an entry, and the failures are
    the zero entries.
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
    failures = []

    def complete(prefix, start, rs, hs, columns):
        # the children of the (m-2)-prefix `prefix`, by the columns
        # start + i - 1 that `columns` yields: with Q_p packed from column
        # start on, child c's normal n has sum_p n_p Q_p = sum_r A[r][c] R_r,
        # so field i on of hs plus that is 2^(w-1) + n . col_(start+i)
        size = (d - start) * nb
        for i, u in enumerate(columns, 1):
            raw = sum(map(mul, u, rs), hs).to_bytes(size, "little")
            pos = raw.find(zero, i * nb)
            if pos >= 0:
                failures.extend(prefix + (start + i - 1, start + c)
                                for c in zero_fields(raw, pos, zero))

    def walk(prefix, minors):
        t = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if t < m - 3:
            for j in range(start, d - m + t + 1):
                col = cols[j]
                walk(prefix + (j,), [sum(sign * col[r] * minors[k] for sign, r, k in terms)
                                     for terms in plans[t]])
            return
        # the packed rows from column start on, whose field i is column
        # start + i, and the C(m, 2) sums T_rq, r < q, over them
        shift = 8 * nb * start
        hs = bias >> shift
        qs = [(x >> shift) - hs for x in biased]
        signed = minors + [-x for x in minors] + [0]
        ts = [sum(map(mul, map(signed.__getitem__, ks), qs)) for ks in pairs]
        ts += [-x for x in ts] + [0]
        trs = [[ts[i] for i in ks] for ks in rows]
        for b in range(start, d - 2):
            # R_r = sum_q A[q][b] T_rq, moved to column b + 1 through the
            # bias: each of its fields is an (m-1)-minor, within the bound
            col = cols[b]
            hb = bias >> 8 * nb * (b + 1)
            cut = 8 * nb * (b + 1 - start)
            rs = [(sum(map(mul, col, tr), hs) >> cut) - hb for tr in trs]
            complete(prefix + (b,), b + 1, rs, hb, cols[b + 1:d - 1])

    if m == 2:
        # the root's children are single columns c, with cofactor normal
        # (-A[1][c], A[0][c]): R_0 = Q_1 and R_1 = -Q_0
        q0, q1 = (x - bias for x in biased)
        complete((), 0, [q1, -q0], bias, zip(A.entries[:d - 1], A.entries[d:-1]))
    else:
        cols = [A.column(j) for j in range(d)]
        plans, pairs, rows = _laplace_plans(m)
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
