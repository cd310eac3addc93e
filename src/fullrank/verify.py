"""Verification that all (or sampled) maximal minors are nonzero, plus
validation of degeneracy certificates.

Both checks first try a proof from the constructions' algebra. Say A
carries an odd prime modulus p, d <= p, and every column c is a
geometric progression mod p: c_0 != 0 and c_i = c_0 * r^i (mod p), with
ratios r pairwise distinct mod p. Then every m x m minor is
(prod c_0) * prod_{a<b} (r_b - r_a) mod p, a unit times a Vandermonde
determinant on distinct nodes, so it is nonzero mod p and hence over the
integers. geometric_structure checks this in O(m*d) exact integer steps,
inverting each distinct head once, and needs the modulus alone; both
families and their column subsets qualify. When it proves A, the
reports are what the sweep would return.

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

Every level takes its step from one Laplace plan, and the packed rows
enter it as a column. With top = max(m-3, 0), a prefix of t < top
columns holds its C(m, t) minors. A prefix P of top columns, next column
s, takes the step with its rows Q_i packed from s on: one packed sum per
row (top+1)-subset, whose field j is the minor of P and col_j on those
rows. P's child by column b takes the next step, with col_b, and holds m
sums R, one per row (m-1)-subset; at m = 2, top = 0 = m-2, and P's own
sums are the R. Every field of R is an (m-1)-minor, within the bound, so
the biased fields of R + H_s lie in [1, 2^w) and
((R + H_s) >> w(b+1-s)) - H_(b+1) is R from column b+1 on, exactly (H_s
is H from column s on). The completion's one term list fixes the order
and signs of the R once per node, as P folds its sums into a table whose
row r, read against col_b, is the R of the completion's term for row r,
with that term's sign, times the sign that moves the packed column
last. The completion by column c tests H_(b+1) + sum_r A[r][c] R_r, the
same integer as H + sum_i n_i Q_i for the normal n of P, b and c, which
is never formed, so the test above and its failures are unchanged.

The plan holds m 2^(m-1) terms, about 100 bytes each, and the sweep
refuses a plan of more terms than its budget: that, not A's size, bounds
a large m's memory (a random 18 x 19 matrix took 6 s and 245 MB).
Besides it, A is read once, into one packed integer per row and one
tuple per column. A node with children lists its columns for them to
slice; the root's are zipped from A's rows, so at m = 2, whose root
reads them in its completions, no list of column tuples is built. The
prefixes in hand hold their minors or packed sums, and P its table.
"""

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from operator import mod, mul

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


def _laplace_plans(m: int) -> list:
    """plans[t], t < m: the Laplace expansion of the minors of t columns
    into those of t + 1 columns, along the new last column.

    The minors of t columns are listed by their row t-subsets, in the
    order of the subsets' bitmasks. plans[t] holds, for each row
    (t+1)-subset, its terms (sign, row r, index of the t-subset left when
    r is removed), so that with x the new column the minor on the subset
    is the sum of sign * x[r] * minors[index]. m 2^(m-1) terms in all.
    """
    index = [0] * (1 << m)
    subsets = [()] * (1 << m)
    plans = [[] for _ in range(m)]
    for s in range(1, 1 << m):
        top = s.bit_length() - 1
        sub = subsets[s] = subsets[s ^ 1 << top] + (top,)
        level = plans[len(sub) - 1]
        index[s] = len(level)
        terms = []
        sign = 1 if len(sub) & 1 else -1  # (-1)^(q+t) at place q, t = len(sub) - 1
        for r in sub:
            terms.append((sign, r, index[s ^ 1 << r]))
            sign = -sign
        level.append(terms)
    return plans


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
    mod p. O(m*d) exact integer steps, with one modular inverse per
    distinct head (a scaled family has at most Q of them, a Vandermonde
    family one); a matrix without a modulus is never proved.
    """
    p, heads = A.modulus, A.row(0)
    if p is None or A.cols > p or not all(c % p for c in heads):
        return None
    if A.rows == 1:
        return p, heads, ()
    inverse = {c: pow(c, -1, p) for c in set(heads)}
    ratios = tuple(map(mod, map(mul, A.row(1), map(inverse.__getitem__, heads)),
                       repeat(p)))
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
    column prefixes are walked depth first, so each prefix's minors are
    computed once and shared by all of its extensions.

    Every level takes its step from the one plan (see the module notes):
    scalar minors above depth max(m-3, 0), where the packed rows of
    linalg.packed_rows enter as the next column; below it each child
    takes the step with its column, and a prefix's completions are tested
    at once. m >= 2 takes that one path; at m = 1 a minor is an entry,
    and the failures are the zero entries.
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
    plans = _laplace_plans(m)
    top = max(m - 3, 0)
    failures = []

    def fold(ps, t, i, sign):
        # sign times the packed sum on row subset i of level t, expanded
        # along column t: a list over the rows r holding the signed sum on
        # the subset without r (itself such a list above level top + 1),
        # or 0 where r is off the subset
        row = [0] * m
        for s, r, k in plans[t][i]:
            row[r] = sign * s * ps[k] if t - 1 == top else fold(ps, t - 1, k, sign * s)
        return row

    def walk(prefix, minors, columns):
        # columns: A's columns from the next one on, up to d - 2
        t = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if t < top:
            cols = list(columns)
            for j, col in zip(range(start, d - m + t + 1), cols):
                walk(prefix + (j,), [sum(sign * col[r] * minors[k] for sign, r, k in terms)
                                     for terms in plans[t]], cols[j + 1 - start:])
            return
        # the packed rows from column start on enter as column t
        shift = 8 * nb * start
        hs = bias >> shift
        qs = [(x >> shift) - hs for x in biased]
        ps = [sum(sign * minors[k] * qs[r] for sign, r, k in terms) for terms in plans[t]]
        # the sign moves the packed column last: a completion's fields are
        # then 2^(w-1) + n . col_j, n the normal of its (m-1)-prefix
        sweep(prefix, start, fold(ps, m - 1, 0, (-1) ** (m - 1 - t)), hs, columns)

    def sweep(prefix, start, table, hs, columns):
        t = len(prefix)
        if t < m - 2:
            # each child by column b contracts the table with col_b and
            # moves its sums to column b + 1 through the bias
            cols = list(columns)
            for b, col in zip(range(start, d - m + t + 1), cols):
                hb = bias >> 8 * nb * (b + 1)
                cut = 8 * nb * (b + 1 - start)
                sweep(prefix + (b,), b + 1,
                      [(sum(map(mul, col, tr), hs) >> cut) - hb for tr in table], hb,
                      cols[b + 1 - start:])
            return
        # the completions by c = start + i - 1: field j of
        # hs + sum_r A[r][c] table[r] is 2^(w-1) + n . col_(start+j), n the
        # normal of prefix + (c,), searched from field i on
        size = (d - start) * nb
        for i, u in enumerate(columns, 1):
            raw = sum(map(mul, u, table), hs).to_bytes(size, "little")
            pos = raw.find(zero, i * nb)
            if pos >= 0:
                failures.extend(prefix + (start + i - 1, start + c)
                                for c in zero_fields(raw, pos, zero))

    # the root's columns are zipped from A's rows, one at a time: at m = 2
    # the root's completions read them and no list of column tuples is built
    walk((), [1], zip(*[A.entries[i * d:(i + 1) * d - 1] for i in range(m)]))
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
