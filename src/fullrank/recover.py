"""Integer sparse recovery against a bounded-entry measurement matrix.

Measurements are exact rationals (b = Ax + e with Fraction arithmetic)
and the decoder returns every minimizer of the sup-norm residual over
all candidate sparse integer vectors. When every m columns of A are
linearly independent, any nonzero (2s)-sparse integer difference z
satisfies ||Az||_inf >= 1, so with 2s <= m and noise below 1/2 the true
signal is the unique minimizer.

The decoder first reads the signal off its syndromes: when
verify.geometric_structure proves A, A mod p is the parity-check matrix
of a generalized Reed-Solomon code, y mod p (y the nearest integer
vector to b) is a syndrome, and Berlekamp-Massey finds the error
locator (Massey 1969; MacWilliams-Sloane ch. 10-12). The answer is kept
only after an exact check Ax = y over the integers, which with 2s <= m
and no rounding tie proves it the unique minimizer. Past 2s <= m every
set T of at most s - m // 2 columns with nonzero values is enumerated,
and the rest is decoded the same way (Prange 1962, in the Lee-Brickell
1988 form), up to _MAX_DECODES decodes. At rounding ties (b_i halfway
between two integers) every rounding of b is decoded, and the hits are
the minimizers at residual 1/2. Enumeration and ties need
2 amp_bound < p, and the step takes at most _MAX_TIES tie rows. Every
other case, and every syndrome miss, runs a branch-and-bound search
that skips only subtrees that cannot tie the best, and lists the
minimizers in the order of a lexicographic walk over the whole space.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import MAX_STR_DIGITS, exact_ints, exact_rationals
from .linalg import IntMatrix, centered_residue
from .verify import geometric_structure

HALF = Fraction(1, 2)

# An integer past Python's int-to-str limit has more than _LONG_BITS bits,
# so only those are compared with 10^MAX_STR_DIGITS.
_LONG = 10 ** MAX_STR_DIGITS
_LONG_BITS = _LONG.bit_length() - 1

# The syndrome step decodes every rounding of b through its tie rows, 2^|T|
# of them for |T| tie rows, up to this many; past it the search runs.
_MAX_TIES = 12
# Past 2s <= m it decodes, for each rounding, every (T, v) of at most
# s - m // 2 columns T with nonzero values v, up to this many decodes in
# all; past it the search runs. Measured against the search on 154 shapes
# (m 2..8, d 6..31, s - m // 2 in {1, 2}, amp_bound 1..3, noise below 1/2
# or a tie on every row): no admitted shape loses by more than 1.42x or
# 0.06 ms a decode up to 51, and at 52 a shape loses 2.4x.
_MAX_DECODES = 51


@dataclass(frozen=True)
class SparseSignal:
    """Integer vector given by its support and nonzero values."""

    dimension: int
    support: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        exact_ints((self.dimension,), "signal dimension")
        object.__setattr__(self, "support", exact_ints(self.support, "signal support"))
        object.__setattr__(self, "values", exact_ints(self.values, "signal values"))
        if len(self.support) != len(self.values):
            raise ValueError("support and values must have equal length")
        if any(v == 0 for v in self.values):
            raise ValueError("values on the support must be nonzero")
        if any(not 0 <= i < self.dimension for i in self.support):
            raise ValueError("support index out of range")
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")

    @property
    def sparsity(self) -> int:
        return len(self.support)

    @classmethod
    def from_dense(cls, vec) -> "SparseSignal":
        vec = exact_ints(vec, "dense signal")
        support = tuple(i for i, v in enumerate(vec) if v != 0)
        return cls(len(vec), support, tuple(vec[i] for i in support))

    def to_dense(self) -> list[int]:
        out = [0] * self.dimension
        for i, v in zip(self.support, self.values):
            out[i] = v
        return out


@dataclass(frozen=True)
class Measurement:
    """Exact rational measurement vector with the noise that produced it."""

    b: tuple[Fraction, ...]
    noise: tuple[Fraction, ...]
    noise_bound: Fraction = HALF

    def __post_init__(self):
        object.__setattr__(self, "b", exact_rationals(self.b, "measurement"))
        object.__setattr__(self, "noise", exact_rationals(self.noise, "noise"))
        if self.noise and len(self.noise) != len(self.b):
            raise ValueError(
                f"noise length {as_decimal(len(self.noise))} != measurement length "
                f"{as_decimal(len(self.b))}")
        bound = exact_rationals((self.noise_bound,), "noise bound")[0]
        if bound <= 0:
            raise ValueError("noise bound must be positive")
        object.__setattr__(self, "noise_bound", bound)
        # a number past Python's int-to-str limit can be neither written to
        # a file nor read from one, so the type refuses it as the files do
        for what, values in (("noise", self.noise), ("noise bound", (bound,)),
                             ("measurement", self.b)):
            if any(n.bit_length() > _LONG_BITS and abs(n) >= _LONG
                   for q in values for n in (q.numerator, q.denominator)):
                raise ValueError(f"{what}: an entry has a numerator or denominator "
                                 f"of more than {MAX_STR_DIGITS} digits")

    @property
    def noise_inf(self) -> Fraction:
        return max((abs(x) for x in self.noise), default=Fraction(0))

    @property
    def in_guarantee(self) -> bool:
        """Strictly below the bound; equality is outside the guarantee."""
        return self.noise_inf < self.noise_bound


@dataclass(frozen=True)
class DecodeResult:
    """All global minimizers of ||b - Ay||_inf over the candidate set."""

    minimizers: tuple[SparseSignal, ...]
    residual: Fraction
    sparsity_in_guarantee: bool  # 2s <= m held for this decode
    candidates: int

    @property
    def ambiguous(self) -> bool:
        return len(self.minimizers) != 1

    @property
    def signal(self) -> SparseSignal | None:
        return self.minimizers[0] if len(self.minimizers) == 1 else None


def encode(A: IntMatrix, x: SparseSignal, e=None,
           noise_bound=HALF) -> Measurement:
    """Exact measurement b = Ax + e, with zero noise when e is None; use
    Measurement.in_guarantee to see whether the noise stayed strictly
    inside the bound."""
    if x.dimension != A.cols:
        raise ValueError(
            f"signal dimension {as_decimal(x.dimension)} != matrix columns "
            f"{as_decimal(A.cols)}")
    if e is None:
        e = (0,) * A.rows
    e = exact_rationals(e, "noise")
    if len(e) != A.rows:
        raise ValueError(f"noise length {as_decimal(len(e))} != matrix rows "
                         f"{as_decimal(A.rows)}")
    b = tuple(sum((A.entry(i, j) * v for j, v in zip(x.support, x.values)), e[i])
              for i in range(A.rows))
    return Measurement(b=b, noise=e, noise_bound=noise_bound)


def decode(A: IntMatrix, b, s: int, amp_bound: int,
           budget: int = DEFAULT_BUDGET) -> DecodeResult:
    """Sup-norm decoder over integer vectors with at most s nonzeros, each
    in [-amp_bound, amp_bound]; returns every minimizer.

    candidates, and the budget, count the whole space,
    sum_{r<=s} C(d, r) (2 amp_bound)^r, and the refusal comes before any
    decoding, so it never depends on b.

    The syndrome step (_syndrome_decode) applies when
    verify.geometric_structure proves A. With 2s <= m and no b_i halfway
    between two integers, let y be the nearest integer vector to b. When
    the step returns an s-sparse x in range with Ax = y exactly, x is the
    unique minimizer and the residual is ||b - y||_inf: every integer
    vector Ax' is at least as far from b as y in every row, and as that
    distance is below 1/2, a residual equal to x's forces Ax' = y. Then
    x - x' has at most 2s <= m nonzeros, and any min(m, d) columns of a
    proved matrix are independent mod p (each is a unit times a
    Vandermonde column on distinct nodes), so x' = x. This rests on the
    exact check and that argument, never on how x was found. Past
    2s <= m the step enumerates s - m // 2 columns and decodes the rest,
    and with tie rows it decodes every rounding of b through them; the
    hits are then every minimizer (see _syndrome_decode). Both need
    2 amp_bound < p; the ties are capped at _MAX_TIES rows and the
    enumeration at _MAX_DECODES decodes. Any miss, including no hit among
    the roundings or the enumerated columns, runs the search below,
    unchanged.

    The search goes depth first over (column, nonzero value) pairs with
    columns increasing, carrying the integer residual row by row, from
    y = 0 as the first incumbent. A column is skipped, with every later
    one, once some row's |residual| exceeds the best so far by more than
    the most the columns still allowed from there on can move that row;
    the test is strict, so every tie survives. Ties are reported, never
    broken silently: inside the guarantee regime they cannot occur, so an
    ambiguity is diagnostic. The minimizers come in the order of a
    lexicographic walk over the s-subsets S of the columns and the value
    tuples on each, which meets a vector at the first S containing its
    support.
    """
    target = b.b if isinstance(b, Measurement) else exact_rationals(b, "measurement")
    m, d = A.rows, A.cols
    if len(target) != m:
        raise ValueError(f"measurement length {as_decimal(len(target))} != matrix "
                         f"rows {as_decimal(m)}")
    exact_ints((s, amp_bound), "sparsity and amplitude bound")
    if not 0 <= s <= d:
        raise ValueError(f"sparsity s={as_decimal(s)} outside [0, {as_decimal(d)}]")
    if amp_bound < 1:
        raise ValueError("amplitude bound must be >= 1")
    n_candidates = _box_size(d, s, amp_bound)
    check_budget(n_candidates, budget, "decoder enumeration")
    hit = _syndrome_decode(A, target, s, amp_bound)
    if hit:
        minimizers, residual = hit
        return DecodeResult(minimizers, residual, 2 * s <= m, n_candidates)

    # clear denominators once so the search is pure integer arithmetic
    denom = math.lcm(*(t.denominator for t in target))
    tint = [int(t * denom) for t in target]
    cols = [[denom * e for e in A.column(j)] for j in range(d)]
    steps = [[(v, [v * e for e in col]) for v in range(-amp_bound, amp_bound + 1) if v]
             for col in cols]
    # reach[left][j][i]: the most that left columns from j on move row i
    suffix = [[0] * m]
    for col in reversed(cols):
        suffix.append([max(a, abs(e)) for a, e in zip(suffix[-1], col)])
    suffix.reverse()
    reach = [[[left * amp_bound * a for a in row] for row in suffix]
             for left in range(s + 1)]

    best = max(map(abs, tint))
    found = [()]  # y = 0 is the first incumbent

    def search(resid, start, left, chosen):
        nonlocal best, found
        mags, bounds = list(map(abs, resid)), reach[left]
        for j in range(start, d):
            if max(map(sub, mags, bounds[j])) > best:
                break  # the bound only grows with j
            for v, step in steps[j]:
                child = list(map(sub, resid, step))
                r = max(map(abs, child))
                if r > best and left == 1:
                    continue  # a leaf that cannot tie
                node = chosen + ((j, v),)
                if r < best:
                    best, found = r, [node]
                elif r == best:
                    found.append(node)
                if left > 1:
                    search(child, j + 1, left - 1, node)

    if s:
        search(tint, 0, s, ())
    minimizers = [SparseSignal(d, tuple(j for j, _ in node), tuple(v for _, v in node))
                  for node in found]
    minimizers.sort(key=lambda x: _visit_key(x, s))
    return DecodeResult(
        minimizers=tuple(minimizers),
        residual=Fraction(best, denom),
        sparsity_in_guarantee=2 * s <= m,
        candidates=n_candidates,
    )


def _syndrome_decode(A: IntMatrix, target, s: int, amp_bound: int
                     ) -> tuple[tuple[SparseSignal, ...], Fraction] | None:
    """(every minimizer in the search's order, the residual) when the
    syndromes prove them, for decode's argument; None on any miss.

    Applies when geometric_structure gives (p, heads, ratios). Let
    h = min(s, m // 2) and r = s - h. The roundings of b are the integer
    vectors y whose row i is a nearest integer of b_i: one choice off the
    tie rows (b_i halfway between two integers), two on them. For every
    set T of at most r columns with nonzero values v in [-amp_bound,
    amp_bound], and every rounding y, the rest y - A_T v is decoded at
    sparsity h on the columns after T's last (_rest_hits), or at sparsity
    0 when |T| < r, as the rest must then be 0: there Berlekamp-Massey
    drops every rounding with a nonzero syndrome, and the exact check
    keeps the one, if any, with y - A_T v = 0. Each hit, v on T plus the
    rest, has at most s nonzeros, all in range, and A x = y exactly.

    Hits are every minimizer. With no tie row there is one rounding y, at
    ||b - y||_inf < 1/2, and every other integer vector is more than 1/2
    from b in some row; with tie rows no integer vector is nearer than 1/2,
    and one reaches 1/2 exactly when it is a rounding. So once there is a
    hit, the minimizers are the s-sparse in-range preimages of the
    roundings. Each one is met exactly once: from T = its first
    min(r, |support|) columns, as the rest then has at most h nonzeros,
    all after T. That rest is the only h-sparse preimage of y - A_T v, as
    any 2h <= m columns of a proved matrix are independent, and
    Berlekamp-Massey finds it when its values stay nonzero and lift
    exactly mod p, which 2 amp_bound < p ensures. So with r >= 1 or a tie
    row the step needs 2 amp_bound < p; at r = 0 with no tie row a hit is
    the unique minimizer by decode's argument whatever p is. The ties
    are capped at _MAX_TIES, and with r >= 1 the roundings times the
    (T, v) at _MAX_DECODES. With no hit and 2 amp_bound < p the minimum
    is at least 1/2; either way the search finds it.
    """
    m, d = A.rows, A.cols
    h = min(s, m // 2)
    r = s - h
    tie = [t.denominator == 2 for t in target]
    ties = sum(tie)
    if ties > _MAX_TIES or r and _box_size(d, r, amp_bound) << ties > _MAX_DECODES:
        return None
    structure = geometric_structure(A)
    if structure is None or ((ties or r) and 2 * amp_bound >= structure[0]):
        return None
    # the nearest integer of each b_i, ties rounded down; a tie's other is v + 1
    low = [-((t.denominator - 2 * t.numerator) // (2 * t.denominator)) for t in target]
    nonzero = [v for v in range(-amp_bound, amp_bound + 1) if v]
    hits = []
    for t in range(r + 1):
        for T in itertools.combinations(range(d), t):
            for v in itertools.product(nonzero, repeat=t):
                y = low
                for j, c in zip(T, v):
                    y = [a - c * e for a, e in zip(y, A.column(j))]
                hits.extend(SparseSignal(d, T + support, v + values)
                            for support, values in _rest_hits(
                                A, structure, y, tie, h if t == r else 0, amp_bound,
                                T[-1] + 1 if T else 0))
    if not hits:
        return None
    hits.sort(key=lambda x: _visit_key(x, s))
    # max |b_i - low_i|, compared as integer cross products; (n - v q)/q is
    # in lowest terms when n/q is
    num, den = 0, 1
    for t, v in zip(target, low):
        a = abs(t.numerator - v * t.denominator)
        if a * den > num * t.denominator:
            num, den = a, t.denominator
    return tuple(hits), Fraction(num, den)


def _box_size(d: int, s: int, amp_bound: int) -> int:
    """The number of integer vectors of length d with at most s nonzeros,
    each in [-amp_bound, amp_bound]: sum_{r<=s} C(d, r) (2 amp_bound)^r."""
    return sum(math.comb(d, r) * (2 * amp_bound) ** r for r in range(s + 1))


def _rest_hits(A: IntMatrix, structure, y, tie, h: int, amp_bound: int,
               first: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(support, values) of every x with at most h nonzeros, all in
    [-amp_bound, amp_bound] and on columns first.. on, with Ax = y + delta
    exactly, delta in {0, 1} on the rows where tie holds and 0 elsewhere.

    With structure = (p, heads h, ratios r) from geometric_structure, the
    syndromes of y' = y + delta are S_i = y'_i mod p = sum_j h_j x_j r_j^i.
    Berlekamp-Massey runs row by row over the prefix tree of the deltas,
    so each state is computed once per prefix, and a node whose L passes h
    is dropped, as L never falls. At each leaf, the support is the columns
    whose ratio is a root of the locator z^L c(1/z), evaluated at all of
    them at once by Horner's rule. The ratio-0 column (h, 0, ..., 0) adds
    to S_0 alone, so it raises L but not the degree of c, and it is found
    as the root 0. The L x L Vandermonde system on the first L syndromes
    gives h_j x_j (the ratios are distinct, so it is never singular);
    dividing by h_j and lifting to the centered residue gives x_j. x is
    kept only when exactly L columns are roots, every x_j is nonzero with
    |x_j| <= amp_bound, and Ax = y' over the integers.
    """
    p, heads, ratios = structure
    m, tail = len(y), ratios[first:]
    out = []
    # Berlekamp-Massey (Massey 1969): a pending node feeds syndrome S of row
    # n to the state of the rows before it, whose syndromes are newest,
    # newest first. c[0] = 1, deg c <= L and sum_k c[k] S_{i-k} = 0 mod p
    # for L <= i < n; prev is c before L last rose, prev_delta the
    # discrepancy that raised it, and shift the rows since.
    pending = [(0, (y[0] + up) % p, [1], [1], 0, 1, 1, []) for up in range(1 + tie[0])]
    while pending:
        n, S, c, prev, L, shift, prev_delta, newest = pending.pop()
        while True:
            newest = [S] + newest
            delta = sum(map(mul, c, newest)) % p
            if delta:
                coef = delta * pow(prev_delta, -1, p)
                new = c + [0] * (len(prev) + shift - len(c))
                for k, a in enumerate(prev, shift):
                    new[k] = (new[k] - coef * a) % p
                if 2 * L <= n:
                    L, prev, prev_delta, shift = n + 1 - L, c, delta, 0
                c = new
            shift += 1
            n += 1
            if n == m or L > h:
                break
            S = y[n] % p
            if tie[n]:
                pending.append((n, (S + 1) % p, c, prev, L, shift, prev_delta, newest))
        if L > h:
            continue
        locator = (c + [0] * L)[:L + 1]  # z^L c(1/z), highest power first
        at = [locator[0]] * len(tail)
        for a in locator[1:]:
            at = [v * q + a for v, q in zip(at, tail)]
        support = [j for j, v in enumerate(at, first) if not v % p]
        if len(support) != L:
            continue
        syndromes = newest[::-1]
        values = []
        for j in support:
            # q(z) = prod_{k != j} (z - r_k), lowest power first, vanishes at
            # every other support ratio, so sum_i q_i S_i = h_j x_j q(r_j)
            q = [1]
            for k in support:
                if k != j:
                    q = [(a - ratios[k] * b) % p for a, b in zip([0] + q, q + [0])]
            unit = heads[j] * math.prod(ratios[j] - ratios[k] for k in support if k != j)
            values.append(centered_residue(sum(map(mul, q, syndromes)) * pow(unit, -1, p), p))
        if not all(0 < abs(v) <= amp_bound for v in values):
            continue
        image = [0] * m
        for j, v in zip(support, values):
            image = [a + v * e for a, e in zip(image, A.column(j))]
        # y' is y plus the delta that each syndrome shows, 0 or 1 as p >= 3
        if image == [a + (S - a) % p for a, S in zip(y, syndromes)]:
            out.append((tuple(support), tuple(values)))
    return out


def _visit_key(x: SparseSignal, s: int):
    """(S, values on S) for the lex-first s-subset S of columns that holds
    x's support: the support plus its smallest zero positions."""
    zeros = [j for j in range(x.dimension) if j not in x.support][:s - x.sparsity]
    S = sorted(x.support + tuple(zeros))
    dense = x.to_dense()
    return S, [dense[j] for j in S]


def scale_matrix(A: IntMatrix, c) -> IntMatrix:
    """Entrywise multiplication by 2c, which must be a positive integer.

    Raising the tolerable noise level from 1/2 to c is exactly this
    rescaling; residuals scale by 2c and the decoder's argmin is
    unchanged. The modulus annotation survives only the trivial c = 1/2,
    since any larger factor breaks the centered-residue invariant.
    """
    factor = 2 * exact_rationals((c,), "noise level c")[0]
    if factor <= 0 or factor.denominator != 1:
        raise ValueError("2c must be a positive integer to keep the matrix integral")
    f = factor.numerator
    return IntMatrix(
        A.rows,
        A.cols,
        tuple(f * e for e in A.entries),
        modulus=A.modulus if f == 1 else None,
        entry_bound=None if A.entry_bound is None else f * A.entry_bound,
    )


def guarantee_holds(m: int, s: int, e) -> bool:
    """True iff 2s <= m and ||e||_inf < 1/2 (exact comparison)."""
    exact_ints((m, s), "m and s")
    e_inf = max(map(abs, exact_rationals(e, "noise")), default=Fraction(0))
    return 2 * s <= m and e_inf < HALF
