"""Independent reference implementations used as test oracles.

Deliberately naive and kept separate from the library's code paths:
permutation-expansion determinants, trial-division primality, Fraction
distance-to-integer, raw power arithmetic (no modular exponentiation),
decimal exponentials and logarithms, a minor sweep with one dot product
per completion, a per-column multiplier scan, a decoder that revisits
candidates, a point-by-point grid cover check and the line-by-line one
that scanned the whole grid, two collision scans:
one over every pair of coefficient vectors and one over every
difference, each recomputing its row combinations, and the structural
proof with one modular inverse per column.
"""

import decimal
import functools
import itertools
import math
from fractions import Fraction
from operator import add, floordiv, mod, mul, not_, sub


def perm_det(rows) -> int:
    """Leibniz expansion over all permutations; exact for small n."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = (-1) ** inv
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def trial_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def dist_to_int(x: Fraction) -> Fraction:
    frac = x - math.floor(x)
    return min(frac, 1 - frac)


def centered_naive(x: int, p: int) -> int:
    r = x % p
    return r - p if r > (p - 1) // 2 else r


def power_residue_rows(m: int, d: int) -> list[list[int]]:
    """Rows j^(i-1) mod d via full integer powers (no pow(..., mod=...))."""
    return [
        [centered_naive(j ** i % d, d) for j in range(1, d + 1)]
        for i in range(m)
    ]


def all_minors_nonzero(rows, modulus=None) -> list[tuple[int, ...]]:
    """Column m-subsets whose exact determinant vanishes (or vanishes mod
    the modulus when one is given)."""
    m = len(rows)
    bad = []
    for combo in itertools.combinations(range(len(rows[0])), m):
        sub = [[rows[i][j] for j in combo] for i in range(m)]
        det = perm_det(sub)
        if (det % modulus == 0) if modulus else (det == 0):
            bad.append(combo)
    return bad


def prefix_sweep(rows) -> list[tuple[int, ...]]:
    """The exhaustive minor sweep with one dot product per completion:
    column prefixes walked depth first, every maximal minor of a prefix
    extended by Laplace expansion along the new column, and at m-1 columns
    each later column tested against the prefix's cofactor normal. The
    walk is kept as it was before the sweep packed its completions into
    one integer; returns what all_minors_nonzero does, in the same order."""
    m, d = len(rows), len(rows[0])
    cols = [tuple(r[j] for r in rows) for j in range(d)]
    plans = []
    for t in range(m):
        index = {sub: i for i, sub in enumerate(itertools.combinations(range(m), t))}
        plans.append([
            [((-1) ** (p + t), r, index[sub[:p] + sub[p + 1:]])
             for p, r in enumerate(sub)]
            for sub in itertools.combinations(range(m), t + 1)
        ])
    failures = []

    def walk(prefix, minors):
        t = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if t == m - 1:
            normal = [sign * minors[k] for sign, _, k in plans[t][0]]
            failures.extend(prefix + (j,) for j in range(start, d)
                            if not sum(map(mul, normal, cols[j])))
            return
        for j in range(start, d - m + t + 1):
            col = cols[j]
            walk(prefix + (j,), [sum(sign * col[r] * minors[k] for sign, r, k in terms)
                                 for terms in plans[t]])

    walk((), [1])
    return failures


def best_multiplier_exhaustive(j: int, d: int, m: int):
    """Fraction-arithmetic column multiplier search over every l in 1..d-1,
    smallest l winning ties; threshold q <= d^(-1/m) tested as
    q^m * d <= 1."""
    best_l, best_q = None, None
    for l in range(1, d):
        q = max(dist_to_int(Fraction(l * j ** i, d)) for i in range(m))
        if best_q is None or q < best_q:
            best_l, best_q = l, q
    return best_l, best_q, best_q ** m * d <= 1


def scan_multiplier(j: int, d: int, m: int):
    """(multiplier, d * quality) of column j by a scan of that column
    alone: q(d-l) = q(l), so l <= d/2, and row 0 gives d*q(l) >= l, so the
    scan stops once l reaches the best value found; the smallest l of least
    d*q(l) wins."""
    powers = [pow(j, i, d) for i in range(m)]
    best_l, best_q = None, d
    for l in range(1, d // 2 + 1):
        if l >= best_q:
            break
        worst = 0
        for r in powers:
            lr = (l * r) % d
            worst = max(worst, lr if lr * 2 <= d else d - lr)
        if worst < best_q:
            best_l, best_q = l, worst
    return best_l, best_q


def floor_exp(m: int) -> int:
    """floor(e^m) from a correctly rounded 80-digit decimal exponential;
    exact while e^m has well under 80 digits and is not within 10^-40 of
    an integer."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        return int(decimal.Decimal(m).exp().to_integral_value(
            rounding=decimal.ROUND_FLOOR))


@functools.cache
def _sqrt_ln(k: int, prec: int) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        return decimal.Decimal(k).ln().sqrt()


def floor_sqrt_ln(k: int, c: int) -> int:
    """floor(c sqrt(ln k)) from decimal ln and sqrt carried 30 digits past
    the integer part of c sqrt(ln k); exact unless that value lies within
    about 10^-25 of an integer."""
    prec = len(str(c)) + len(str(k)) + 30
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        return int((c * _sqrt_ln(k, prec)).to_integral_value(
            rounding=decimal.ROUND_FLOOR))


def decode_first_seen(rows, b, s: int, amp: int):
    """Sup-norm minimizers over every s-subset of columns and every value
    tuple in [-amp, amp]^s, zeros included, so a vector is met once per
    subset containing its support; repeats are dropped, first sighting
    kept. Returns the dense minimizers in order of first sighting, the
    minimum residual (a Fraction) and the number of distinct vectors met."""
    m, d = len(rows), len(rows[0])
    b = [Fraction(x) for x in b]
    best, found, met = None, [], set()
    for support in itertools.combinations(range(d), s):
        for vals in itertools.product(range(-amp, amp + 1), repeat=s):
            y = [0] * d
            for j, v in zip(support, vals):
                y[j] = v
            y = tuple(y)
            met.add(y)
            resid = max(abs(b[i] - sum(rows[i][j] * y[j] for j in range(d)))
                        for i in range(m))
            if best is None or resid < best:
                best, found = resid, []
            if resid == best and y not in found:
                found.append(y)
    return found, best, len(met)


def cover_scan(m: int, k: int, normals):
    """(accepted, first uncovered point, points checked) for the grid
    {x : ||x||_inf <= k} in Z^m and the hyperplanes with these normals,
    point by point in lexicographic order from (-k, ..., -k)."""
    span = range(-k, k + 1)
    for checked, x in enumerate(itertools.product(span, repeat=m), 1):
        covered = any(
            sum(a * b for a, b in zip(n, x)) == 0 for n in normals
        )
        if not covered:
            return False, x, checked
    return True, None, len(span) ** m


def cover_line_scan(m: int, k: int, normals):
    """cover_scan's answer from the line odometer as it was before the
    cover check stopped at the middle line: the whole grid, one line at a
    time, each steep normal's held point found by a divisibility test
    (mod) and then a quotient (floordiv)."""
    normals = [tuple(n) for n in normals]
    side = 2 * k + 1
    total = side ** m
    span = range(-k, k + 1)
    if m == 1:  # one line, of which a normal holds only x_1 = 0
        if k == 0 and normals:
            return True, None, total
        return False, (-k,), 1
    whole = set(span)
    steep = [n for n in normals if n[-1]]
    negl = [-n[-1] for n in steep]
    steep_cols = [[n[i] for n in steep] for i in range(m - 1)]
    flat_cols = [[n[i] for n in normals if not n[-1]] for i in range(m - 1)]
    for block, outer in enumerate(itertools.product(span, repeat=m - 2)):
        f = _line_dots(flat_cols, outer + (-k - 1,))  # one step before x_{m-1} = -k
        at = None  # the line s is summed at
        for x in span:
            f = list(map(add, f, flat_cols[-1]))
            if 0 in f:
                continue
            s = (list(map(add, s, steep_cols[-1])) if at == x - 1
                 else _line_dots(steep_cols, outer + (x,)))
            at = x
            held = set(itertools.compress(map(floordiv, s, negl),
                                          map(not_, map(mod, s, negl))))
            if not whole <= held:
                y = next(y for y in span if y not in held)
                line = block * side + x + k
                return False, outer + (x, y), line * side + y + k + 1
    return True, None, total


def _line_dots(cols, x) -> list[int]:
    """Each normal's dot product with x over its first len(x)
    coordinates, from the normals' columns cols."""
    s = [0] * len(cols[0])
    for col, a in zip(cols, x):
        if a:
            s = list(map(add, s, map(mul, col, itertools.repeat(a))))
    return s


def collision_pair_scan(rows, t, lam, min_agree):
    """Scan every pair (a, b) of vectors in {0..lam}^t with a < b
    lexicographically, in that order, comparing their combinations.
    Returns (coefficients b - a, first min_agree agreeing columns) of the
    first pair agreeing on >= min_agree columns, else None."""
    d = len(rows[0])
    vecs = list(itertools.product(range(lam + 1), repeat=t))
    combs = [
        tuple(sum(v[i] * rows[i][j] for i in range(t)) for j in range(d))
        for v in vecs
    ]
    for ia in range(len(vecs)):
        for ib in range(ia + 1, len(vecs)):
            agree = [j for j in range(d) if combs[ia][j] == combs[ib][j]]
            if len(agree) >= min_agree:
                coeffs = tuple(b - a for a, b in zip(vecs[ia], vecs[ib]))
                return coeffs, tuple(agree[:min_agree])
    return None


def collision_difference_scan(rows, t, lam, min_agree):
    """The collision scan as one visit per difference: every nonzero c
    once, as the pair (max(0, -c), max(0, c)), with a fresh combination of
    the first t rows for each. The loop is kept as it was before the scan
    tabulated its combinations; returns what collision_pair_scan does."""

    def combination_vector(rows, coeffs):
        return [sum(c * row[j] for c, row in zip(coeffs, rows))
                for j in range(len(rows[0]))]

    span = range(lam + 1)
    for small in itertools.product(span, repeat=t):
        for large in itertools.product(*[span if a == 0 else (0,) for a in small]):
            if large <= small:
                continue
            coeffs = tuple(map(sub, large, small))
            agree = [j for j, x in enumerate(combination_vector(rows, coeffs))
                     if x == 0]
            if len(agree) >= min_agree:
                return coeffs, tuple(agree[:min_agree])
    return None


def geometric_structure_per_column(A):
    """verify.geometric_structure's (p, heads, ratios) or None, each ratio
    c_1 * c_0^-1 mod p with its own column's inverse."""
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
