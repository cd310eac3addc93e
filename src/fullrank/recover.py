"""Integer sparse recovery against a bounded-entry measurement matrix.

Measurements are exact rationals (b = Ax + e with Fraction arithmetic)
and the decoder returns every minimizer of the sup-norm residual over
all candidate sparse integer vectors. When every m columns of A are
linearly independent, any nonzero (2s)-sparse integer difference z
satisfies ||Az||_inf >= 1, so with 2s <= m and noise below 1/2 the true
signal is the unique minimizer.

Inside that guarantee the decoder first reads the signal off its
syndromes: when verify.geometric_structure proves A, A mod p is the
parity-check matrix of a generalized Reed-Solomon code, y mod p (y the
nearest integer vector to b) is a syndrome, and Berlekamp-Massey finds
the error locator (Massey 1969; MacWilliams-Sloane ch. 10-12). The
answer is kept only after an exact check Ax = y over the integers, which
with 2s <= m and no rounding tie proves it the unique minimizer. At
rounding ties (b_i halfway between two integers) every rounding of b is
decoded the same way, and the hits are the minimizers at residual 1/2,
provided 2 amp_bound < p and there are at most _MAX_TIES tie rows. Every
other case, and every syndrome miss, runs a branch-and-bound search that
skips only subtrees that cannot tie the best, and lists the minimizers
in the order of a lexicographic walk over the whole space.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul, sub

from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints, exact_rationals
from .linalg import IntMatrix, centered_residue
from .verify import geometric_structure

HALF = Fraction(1, 2)

# Python's default int-to-str limit is 4,300 digits. An integer past it has
# more than _LONG_BITS bits, so only those are compared with 10^4300.
_LONG = 10 ** 4300
_LONG_BITS = _LONG.bit_length() - 1

# The syndrome step decodes every rounding of b through its tie rows, 2^|T|
# of them for |T| tie rows, up to this many; past it the search runs.
_MAX_TIES = 12


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
                                 f"of more than 4300 digits")

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
    verify.geometric_structure proves A and 2s <= m. With no b_i halfway
    between two integers, let y be the nearest integer vector to b. When
    the step returns an s-sparse x in range with Ax = y exactly, x is the
    unique minimizer and the residual is ||b - y||_inf: every integer
    vector Ax' is at least as far from b as y in every row, and as that
    distance is below 1/2, a residual equal to x's forces Ax' = y. Then
    x - x' has at most 2s <= m nonzeros, and any min(m, d) columns of a
    proved matrix are independent mod p (each is a unit times a
    Vandermonde column on distinct nodes), so x' = x. This rests on the
    exact check and that argument, never on how x was found. With tie
    rows the step decodes every rounding of b through them and returns
    the hits at residual 1/2, which are then every minimizer (see
    _syndrome_decode); it needs 2 amp_bound < p and at most _MAX_TIES tie
    rows. Any miss, including a tie whose roundings give no hit, runs the
    search below, unchanged.

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
    n_candidates = sum(math.comb(d, r) * (2 * amp_bound) ** r
                       for r in range(s + 1))
    check_budget(n_candidates, budget, "decoder enumeration")
    hit = _syndrome_decode(A, target, s, amp_bound)
    if hit:
        minimizers, residual = hit
        return DecodeResult(minimizers, residual, True, n_candidates)

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

    Applies when 2s <= m and geometric_structure gives (p, heads, ratios).
    With no tie row (b_i halfway between two integers) there is one nearest
    integer vector y to b, and its hit, if _syndrome_hit finds one, is the
    unique minimizer at residual ||b - y||_inf. With tie rows T, at most
    _MAX_TIES of them and 2 amp_bound < p, every y whose row i is a nearest
    integer of b_i (one choice off T, two on it) is decoded, and the hits
    are the minimizers at residual 1/2: no integer vector is nearer to b,
    and one reaches 1/2 exactly when it is such a y. Each y has at most one
    s-sparse preimage x', as 2s <= m, and x' mod p keeps the support of x'
    when 2 amp_bound < p, so Berlekamp-Massey finds it whenever it exists.
    With no hit the minimum is above 1/2 and the search finds it.
    """
    if 2 * s > A.rows:
        return None
    ties = sum(t.denominator == 2 for t in target)
    if ties > _MAX_TIES:
        return None
    structure = geometric_structure(A)
    if structure is None or (ties and 2 * amp_bound >= structure[0]):
        return None
    # the nearest integer of each b_i, ties rounded down; a tie's other is v + 1
    low = [-((t.denominator - 2 * t.numerator) // (2 * t.denominator)) for t in target]
    roundings = itertools.product(*((v, v + 1) if t.denominator == 2 else (v,)
                                    for t, v in zip(target, low)))
    hits = [x for y in roundings
            if (x := _syndrome_hit(A, structure, y, s, amp_bound)) is not None]
    if not hits:
        return None
    hits.sort(key=lambda x: _visit_key(x, s))
    return tuple(hits), max(abs(t - v) for t, v in zip(target, low))


def _syndrome_hit(A: IntMatrix, structure, y, s: int,
                  amp_bound: int) -> SparseSignal | None:
    """The s-sparse x with entries in [-amp_bound, amp_bound] and Ax = y
    that the syndromes of the integer vector y decode to; None on any miss.

    With structure = (p, heads h, ratios r) from geometric_structure,
    S_i = y_i mod p = sum_j h_j x_j r_j^i. Berlekamp-Massey on all m
    syndromes gives the shortest recurrence (c, L), and the support is the
    columns whose ratio is a root of the locator z^L c(1/z). The ratio-0
    column (h, 0, ..., 0) adds to S_0 alone, so it raises L but not the
    degree of c, and it is found as the root 0. The L x L Vandermonde
    system on the first L syndromes gives h_j x_j (the ratios are
    distinct, so it is never singular); dividing by h_j and lifting to
    the centered residue gives x_j. x is kept only when L <= s, exactly
    L columns are roots, every x_j is nonzero with |x_j| <= amp_bound,
    and Ax = y over the integers.
    """
    p, heads, ratios = structure
    syndromes = [v % p for v in y]
    c, L = _berlekamp_massey(syndromes, p)
    if L > s:
        return None
    locator = (c + [0] * L)[:L + 1]  # z^L c(1/z), highest power first
    support = [j for j, r in enumerate(ratios)
               if not reduce(lambda v, a: (v * r + a) % p, locator, 0)]
    if len(support) != L:
        return None
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
        return None
    if any(sum(A.entry(i, j) * v for j, v in zip(support, values)) != y[i]
           for i in range(A.rows)):
        return None
    return SparseSignal(A.cols, tuple(support), tuple(values))


def _berlekamp_massey(seq, p: int) -> tuple[list[int], int]:
    """Shortest linear recurrence generating seq mod p (Massey 1969):
    (c, L) with c[0] = 1, deg c <= L and sum_k c[k] seq[n - k] = 0 mod p
    for L <= n < len(seq)."""
    c, prev = [1], [1]
    L, shift, prev_delta = 0, 1, 1
    for n in range(len(seq)):
        delta = sum(a * seq[n - k] for k, a in enumerate(c[:n + 1])) % p
        if not delta:
            shift += 1
            continue
        coef = delta * pow(prev_delta, -1, p)
        old, c = c, c + [0] * (len(prev) + shift - len(c))
        for k, a in enumerate(prev, shift):
            c[k] = (c[k] - coef * a) % p
        if 2 * L <= n:
            L, prev, prev_delta, shift = n + 1 - L, old, delta, 1
        else:
            shift += 1
    return c, L


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
