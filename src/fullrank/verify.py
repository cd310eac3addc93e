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
reports are what the kernel would return.

Otherwise one exact kernel lists the failures. It builds column sets
one column at a time and carries every maximal minor of the columns
taken so far; appending a column extends them by a Laplace expansion
along the new column, every level taking its step from one Laplace
plan. It walks the first g columns of each set depth first, in
lexicographic order, a g-prefix holding its C(m, g) minors as integers.
The columns after a prefix are searched with their minors packed into
big integers, so that one big-integer sum tests many completions at
once. A sampled trial shares nothing and is one linalg.det_exact on its
columns.

Each packed field holds a minor, and by Hadamard's bound every t x t
minor, t <= m, is at most isqrt((k^2 m)^m) in size, k the largest
|entry|, which bounds every entry too. Under that bound each row is
packed once by linalg.packed_rows, whose notes state the layout the
collision scan shares: with Q_i the packed rows and H the repeated zero
field, field j of H + sum_i n_i Q_i is exactly 2^(w-1) + n . col_j, so
a completion fails exactly where its field is the zero field. A byte
search finds those matches, and as a match counts only on a field
boundary they come in field order.

At g = m - 2 a prefix P, next column s, takes the whole top level at
once: the rows Q_i from column s on, each packed row and H shifted
right by s fields and subtracted, enter the plan as column m - 2, and
P's minors combine them into m sums
R_r, one per row (m-1)-subset, whose field j is the (m-1)-minor of P and
col_(s+j) on those rows. The completion's one term list fixes the order
and signs of the R_r, so the completion by column c tests
H_s + sum_r A[r][c] R_r (H_s is H from column s on): its field j is
2^(w-1) plus the minor of P, c and s + j, and searched from the field
after c its matches are the failures in lexicographic order. At m = 2
the one prefix is empty and its R_r are the packed rows themselves.

At g < m - 2 the breadth-first colex pass searches the columns after
P. It takes them in reverse, j -> d-1-j, and keeps, for each level t
from g to m - 1 and each row t-subset, one integer packed like Q_i whose
field p is the minor on those rows of P and of the column (t-g)-subset
of colex rank p; the u-subsets of the first l columns hold the first
C(l, u) ranks, and level g holds P's minors. Column c extends level
t + 1 by one step of the plan, with level t as the minors and col_c as
the column: C(c, t-g) fields, the subsets ending at c, added past the
C(c, t+1-g) already there. Level m - 1 keeps its sums X_r in the order
and with the signs of the completion's terms, so column c meets every
(m-1-g)-subset before it in one sum, H + sum_r A[r][c] X_r over
C(c, m-1-g) fields, and a field-aligned zero field is a failure whose
subset is unranked from its field index. Columns are taken in reverse
so that the failures, found in colex order, are in reverse
lexicographic order, and one reverse gives P's list. The pass takes
about d m 2^(m-1) Python-level steps, one per plan term and column,
each on a longer integer, where a walk takes one or more per prefix;
its set-up is made once for all prefixes.

_prefix_length takes g = m - 2 on a square matrix, one minor, and
otherwise the fewest g in 0..m-3 for which the levels after a g-prefix,
nb sum_{t=g}^{m-1} C(m, t) C(d-g, t-g) bytes, are at most COLEX_BYTES,
and m - 2 when none are; it needs (m, d, nb) alone. COLEX_BYTES, 2^25,
is a memory cap, not a crossover: at 4 x 292 and nb = 2, the widest
4-row shape with g = 0, the pass took 7.2 s against 12.7 s for the
depth-first walk this kernel replaced, but its process peaked at 248 MB
of RSS against 141 MB (the 1.27 million failures both list included).
Each column walked divides the levels by about d, and each prefix
builds its own. The two other choices were measured too: on square
matrices, from 4 x 4 to 12 x 12, the full pass took 1.2 to 2.9 times
the depth-first walk's time, which the walk to m - 2 matches, and at
3 x 36 a colex pass after each 1-prefix took 3.9 ms against 1.4 ms
for the whole top level.

Called directly against that depth-first walk, which went to depth
m - 3 and then carried packed sums, folded into an m x m table and
contracted with each next column, this kernel took this share of its
time (per call, the mean over 3 seeded matrices with entries in
[-5, 5] and a repeated column of the least of 4 to 30 calls interleaved
with the walk's, Python 3.11 on 2 CPUs): at m = 2, 2 x 20 1.06,
2 x 160 1.01, 2 x 600 1.01; on square matrices 4 x 4 0.95, 6 x 6 0.95,
8 x 8 0.97, 10 x 10 0.98, 12 x 12 1.01; past the cap, 4 x 293 at
nb = 2 (g = 1) 7.4 against 11.9 s, with the same 1.86 million failures
and 277 MB of peak RSS against 276; with COLEX_BYTES lowered until
g = 1, 4 x 18 0.94, 4 x 60 0.58, 5 x 30 0.30, 6 x 24 0.18, 7 x 16 0.16,
8 x 19 0.09. Lowered until g = m - 2 it took 3 x 36 1.19, 3 x 300 1.09,
4 x 18 1.42, 4 x 60 1.25, 5 x 30 1.51, 6 x 24 1.49, 7 x 16 1.24 and
8 x 19 1.21: each (m-2)-prefix takes its own last scalar step, where
the walk shared its (m-3)-prefix's packed sums among its children. The
rule takes g = m - 2 with d > m only when the levels after an
(m-3)-prefix pass the cap, from d = 3,344 at m = 3 and nb = 2, or
d = 662 at nb = 51, where the completions' long sums dominate: 3 x 700
with entries near 10^40, nb = 51, took 29.0 against 33.2 s.

The plan holds m 2^(m-1) terms, about 100 bytes each, and
verify_exhaustive refuses, before the kernel, a plan of more terms than
the budget: that, not A's size, bounds a large m's memory (a random
18 x 19 matrix took 6 s and 245 MB). Besides it, the kernel zips each
prefix's columns from slices of A's rows, one column at a time, so no
list of column tuples is built. At g = m - 2 it holds one packed
integer per row, the prefix in hand's shifted rows and sums, and one
completion's sum and bytes; at g < m - 2 the levels, one column and one
completion. It lists no subsets but its failures.
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

# the exhaustive kernel walks the fewest leading columns below which the
# colex levels hold at most COLEX_BYTES (see the module notes)
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
    square matrix and bounds nothing there), and else checked by the one
    exhaustive kernel: a depth-first walk of the fewest leading columns
    whose colex levels fit in COLEX_BYTES, m - 2 on a square matrix, and
    below each such prefix the colex pass, or at m - 2 one packed sum per
    completing column (see the module notes). It shares each prefix's
    minors among all of its extensions and tests the completions by one
    column at once; at m = 1 a minor is an entry, and the failures are
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
    bound = _minor_bound(A)
    return VerificationReport(total_checked=total, mode="exhaustive",
                              failures=_failing_subsets(A, bound))


def _minor_bound(A: IntMatrix) -> int:
    """Hadamard's bound isqrt((k^2 m)^m) on every |minor| of A, k its
    largest |entry|: every t x t minor, t <= m, and every entry too."""
    k, m = A.max_abs_entry(), A.rows
    return math.isqrt((k * k * m) ** m)


def _prefix_length(m: int, d: int, nb: int) -> int:
    """g, the leading columns the exhaustive kernel walks depth first on m
    rows, d columns and fields of nb bytes: m - 2 on a square matrix, else
    the fewest g < m - 2 for which the colex levels over the d - g columns
    after a g-prefix, nb sum_{g <= t < m} C(m, t) C(d - g, t - g) bytes,
    hold at most COLEX_BYTES, and m - 2 when none does."""
    if d > m:
        for g in range(m - 2):
            if nb * sum(math.comb(m, t) * math.comb(d - g, t - g)
                        for t in range(g, m)) <= COLEX_BYTES:
                return g
    return m - 2


def _failing_subsets(A: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """The failing m-subsets of A, m >= 2, in lexicographic order, in
    fields of field_bytes(bound) bytes: each g-prefix, g = _prefix_length,
    walked depth first with its scalar minors, and the columns after it
    searched by the colex pass, or at g = m - 2 by one packed sum per
    completing column (see the module notes)."""
    m, d = A.rows, A.cols
    nb = field_bytes(bound)
    w = 8 * nb
    zero = (1 << w - 1).to_bytes(nb, "little")
    g = _prefix_length(m, d, nb)
    plans = _laplace_plans(m)
    # level m - 1 keeps row subset k of the completion's term (sign, r, k)
    # at place r, times sign, so that a completion is one sum over the rows
    place = {k: (r, sign) for sign, r, k in plans[m - 1][0]}
    top = [(place[i][0], [(place[i][1] * sign, r, k) for sign, r, k in terms])
           for i, terms in enumerate(plans[m - 2])]
    failures = []

    if g == m - 2:
        biased, bias = packed_rows(A, bound)[2:]

        def search(prefix, start, minors):
            # the rows packed from column start on enter as column g: field
            # j of the sum R_r is the (m-1)-minor of the prefix and column
            # start + j on the rows of the completion's term for row r
            shift = w * start
            hs = bias >> shift
            qs = [(x >> shift) - hs for x in biased]
            sums = [0] * m
            for p, terms in top:
                sums[p] = sum([sign * minors[k] * qs[r] for sign, r, k in terms])
            # field j of hs + sum_r A[r][c] R_r, c = start + i - 1, is
            # 2^(w-1) plus the minor of prefix, c and start + j, searched
            # from field i on
            size = (d - start) * nb
            for i, u in enumerate(zip(*[A.entries[r * d + start:(r + 1) * d - 1]
                                        for r in range(m)]), 1):
                raw = sum(map(mul, u, sums), hs).to_bytes(size, "little")
                pos = raw.find(zero, i * nb)
                if pos >= 0:
                    failures.extend(prefix + (start + i - 1, start + c)
                                    for c in zero_fields(raw, pos, zero))
    else:
        # ranks[t][c] = C(c, t): level g + t holds C(c, t) fields before
        # column c, and a t-subset of the columns before c has its colex
        # rank below it
        ranks = [[math.comb(c, t) for c in range(d - g)] for t in range(m - g)]
        full = ranks[-1][-1]
        bias = int.from_bytes(zero * full, "little")
        # a match's subset, unranked from the top: its largest column s is
        # the largest with C(s, m - 1 - g) <= p, and so on down to C(s, 1) = s
        tables = ranks[m - 1 - g:1:-1]
        last = d - 1
        # steps[u] and levels[u] are those of level g + u
        steps = [list(enumerate(level)) for level in plans[g:m - 2]] + [top]

        def search(prefix, start, minors):
            # the colex pass over columns d - 1 down to start, level g
            # holding the prefix's minors; slack columns are left over
            # past the m - g that each completion takes
            slack = d - start - m + g
            levels = [minors] + [[0] * math.comb(m, t) for t in range(g + 1, m)]
            found = []
            for c, col in enumerate(zip(*[reversed(A.entries[i * d + start:(i + 1) * d])
                                          for i in range(m)])):
                n = ranks[-1][c]
                if n:
                    # field p is 2^(w-1) plus the minor of the prefix, column
                    # c and the subset of colex rank p before it
                    raw = sum(map(mul, col, levels[-1]), bias >> w * (full - n)).to_bytes(
                        n * nb, "little")
                    pos = raw.find(zero)
                    if pos >= 0:
                        for p in zero_fields(raw, pos, zero):
                            failure = [*prefix, last - c]
                            for rank in tables:
                                s = bisect_right(rank, p) - 1
                                p -= rank[s]
                                failure.append(last - s)
                            failure.append(last - p)
                            found.append(tuple(failure))
                # the (u+1)-subsets ending at c extend level g + u + 1 while
                # at least m - g - u - 1 columns follow c to complete them;
                # u descends, so level g + u is read before c extends it
                for u in range(m - 2 - g, max(c - slack, 0) - 1, -1):
                    shift = w * ranks[u + 1][c]
                    lower, upper = levels[u], levels[u + 1]
                    for i, terms in steps[u]:
                        upper[i] += sum([sign * col[r] * lower[k] for sign, r, k in terms]) << shift
            found.reverse()
            failures.extend(found)

    # the g-prefixes depth first, in lexicographic order, with their
    # minors: a prefix's children go on the stack last first. A loop, not
    # a recursive closure, so that a call leaves no reference cycle for
    # the garbage collector to find
    stack = [((), [1])]
    while stack:
        prefix, minors = stack.pop()
        t = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if t == g:
            search(prefix, start, minors)
            continue
        for j in range(d - m + t, start - 1, -1):
            col = A.column(j)
            stack.append((prefix + (j,), [sum([sign * col[r] * minors[k] for sign, r, k in terms])
                                          for terms in plans[t]]))
    return failures


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
