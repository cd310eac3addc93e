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

Otherwise one of two exact kernels lists the failures: the depth-first
sweep below, or, for most shapes with m >= 3, the breadth-first colex
pass after it.

The exhaustive sweep builds column sets one column at a time
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

The sweep still takes one or more Python-level steps per (m-1)-prefix.
The colex pass takes about d m 2^(m-1), one per plan term and column,
each on a longer integer. It takes A's columns in reverse, j -> d-1-j,
and keeps, for each level t < m and each row t-subset, one integer
packed like Q_i whose field p is the minor on those rows and on the
column t-subset of colex rank p; the t-subsets of the first l columns
hold the first C(l, t) ranks. Column c extends level t + 1 by one step
of the plan, with level t as the minors and col_c as the column: C(c, t)
fields, the subsets ending at c, added past the C(c, t + 1) already
there. Every t-minor, t <= m, is within Hadamard's bound, so every field
stays below 2^(w-1) in size and the biased completion below reads each
exactly. Level m - 1 keeps its sums X_r in the order and with the signs
of the completion's terms, so column c meets every (m-1)-subset before
it in one sum, H + sum_r A[r][c] X_r over C(c, m-1) fields, and a
field-aligned zero field is a failure whose prefix is unranked from its
field index. Columns are taken in reverse so that the failures, found in
colex order, are A's in reverse lexicographic order, and one reverse
gives the sweep's list.

The levels hold at most nb sum_{t<m} C(m, t) C(d, t) bytes.
verify_exhaustive runs the pass when 3 <= m < d and that is at most
COLEX_BYTES, both computed from (m, d, nb) before any work. Called
directly on seeded matrices (min of 5), the pass took this share of the
sweep's time: 3 x 36 0.55, 3 x 300 0.73, 4 x 18 0.31, 5 x 12 0.24,
6 x 24 0.12, 7 x 11 0.16, 8 x 12 0.12, 10 x 13 0.16, 8 x 19 0.04, and
0.90 to 1.04 at d = m + 1 from 7 x 8 to 12 x 13. The sweep stays where
the pass loses: at m = 2, where both take one packed sum per column but
the pass rebuilds its level-1 sums each column (1.6 to 2 times the
sweep's time at 2 x 160 and 2 x 600), and on square matrices, one
minor, whose single path the sweep walks in fewer steps (the pass took
1.2 to 2.9 times its time from 4 x 4 to 12 x 12). COLEX_BYTES, 2^25, is
a memory cap, not a crossover: at 4 x 292 and nb = 2, the widest 4-row
shape under it, the pass took 7.2 s against the sweep's 12.7 s, but its
process peaked at 248 MB of RSS against 141 MB (the 1.27 million
failures both list included), and at 3 x 2000, nb = 2, 21.2 s against
23.4 s and 245 MB against 176 MB. Past it the levels grow as d^(m-1)
and the sweep's memory stays O(m d).

The plan holds m 2^(m-1) terms, about 100 bytes each, and
verify_exhaustive refuses, before either kernel, a plan of more terms
than the budget: that, not A's size, bounds a large m's memory (a random
18 x 19 matrix took 6 s and 245 MB). Besides it, the sweep reads A once,
into one packed integer per row and one tuple per column. A node with
children lists its columns for them to slice; the root's are zipped from
A's rows, so at m = 2, whose root reads them in its completions, no list
of column tuples is built. The prefixes in hand hold their minors or
packed sums, and P its table. The colex pass holds its levels, one
column, and the packed sum and bytes of one completion; it lists no
subsets but its failures.
"""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import mod, mul

from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints
from .linalg import (IntMatrix, combination_vector, det_exact, field_bytes, packed_rows,
                     zero_fields)

# the colex pass takes 3 <= m < d while its levels hold at most
# COLEX_BYTES; every other shape is swept (see the module notes)
COLEX_BYTES = 1 << 25


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
    Laplace plan, m 2^(m-1) terms, exceeds the budget (C(d, m) is 1 on a
    square matrix and bounds nothing there), and else checked by the
    kernel _kernel picks from (m, d, nb): the colex pass for 3 <= m < d
    when its levels fit in COLEX_BYTES, the depth-first sweep otherwise
    (see the module notes). Both share each prefix's
    minors among all of its extensions and test the completions by
    one column at once; at m = 1 a minor is an entry, and the failures
    are the zero entries.
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
    bound = _minor_bound(A)
    return VerificationReport(total_checked=total, mode="exhaustive",
                              failures=_kernel(m, d, field_bytes(bound))(A, bound))


def _minor_bound(A: IntMatrix) -> int:
    """Hadamard's bound isqrt((k^2 m)^m) on every |minor| of A, k its
    largest |entry|: every t x t minor, t <= m, and every entry too."""
    k, m = A.max_abs_entry(), A.rows
    return math.isqrt((k * k * m) ** m)


def _level_bytes(m: int, d: int, nb: int) -> int:
    """The bytes the colex pass's levels 0..m-1 hold at most: C(m, t)
    sums of C(d, t) fields of nb bytes at level t."""
    return nb * sum(math.comb(m, t) * math.comb(d, t) for t in range(m))


def _kernel(m: int, d: int, nb: int):
    """The exhaustive kernel for m rows, d columns and fields of nb bytes:
    the colex pass for 3 <= m < d when _level_bytes is at most
    COLEX_BYTES, else the sweep."""
    if 3 <= m < d and _level_bytes(m, d, nb) <= COLEX_BYTES:
        return _colex_pass
    return _sweep


def _sweep(A: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """The failing m-subsets of A, m >= 2, in lexicographic order, by the
    depth-first sweep over column prefixes, A packed under bound."""
    m, d = A.rows, A.cols
    nb, zero, biased, bias = packed_rows(A, bound)
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
    return failures


def _colex_pass(A: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """The failing m-subsets of A, m >= 2, in lexicographic order, by the
    breadth-first colex pass over A's columns in reverse (see the module
    notes), in fields of field_bytes(bound) bytes."""
    m, d = A.rows, A.cols
    nb = field_bytes(bound)
    w = 8 * nb
    zero = (1 << w - 1).to_bytes(nb, "little")
    plans = _laplace_plans(m)
    # ranks[t][c] = C(c, t): level t holds C(c, t) fields before column c,
    # and a t-subset of the columns before c has its colex rank below it
    ranks = [[math.comb(c, t) for c in range(d)] for t in range(m)]
    # level m - 1 keeps row subset k of the completion's term (sign, r, k)
    # at place r, times sign, so that a completion is one sum over the rows
    place = {k: (r, sign) for sign, r, k in plans[m - 1][0]}
    steps = [list(enumerate(level)) for level in plans[:m - 2]]
    steps.append([(place[i][0], [(place[i][1] * sign, r, k) for sign, r, k in terms])
                  for i, terms in enumerate(plans[m - 2])])
    levels = [[1]] + [[0] * math.comb(m, t) for t in range(1, m)]
    full = ranks[m - 1][d - 1]
    bias = int.from_bytes(zero * full, "little")
    # a match's prefix, unranked from the top: its largest column s is the
    # largest with C(s, m - 1) <= p, and so on down to C(s, 1) = s
    tables = ranks[m - 1:1:-1]
    last = d - 1
    found = []
    for c, col in enumerate(zip(*[reversed(A.entries[i * d:(i + 1) * d]) for i in range(m)])):
        n = ranks[m - 1][c]
        if n:
            # field p is 2^(w-1) plus the minor of column c and the
            # (m-1)-subset of colex rank p before it
            raw = sum(map(mul, col, levels[m - 1]), bias >> w * (full - n)).to_bytes(
                n * nb, "little")
            pos = raw.find(zero)
            if pos >= 0:
                for p in zero_fields(raw, pos, zero):
                    failure = [last - c]
                    for rank in tables:
                        s = bisect_right(rank, p) - 1
                        p -= rank[s]
                        failure.append(last - s)
                    failure.append(last - p)
                    found.append(tuple(failure))
        # the (t+1)-subsets ending at c extend level t + 1 while at least
        # m - t - 1 columns follow c to complete them; t descends, so
        # level t is read before column c extends it
        for t in range(m - 2, max(c - d + m, 0) - 1, -1):
            shift = w * ranks[t + 1][c]
            lower, upper = levels[t], levels[t + 1]
            for i, terms in steps[t]:
                upper[i] += sum([sign * col[r] * lower[k] for sign, r, k in terms]) << shift
    found.reverse()
    return found


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
