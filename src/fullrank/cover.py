"""Covering the integer grid {x : ||x||_inf <= k} with hyperplanes
through the origin.

Includes the exact lower bound ceil(k^(m/(m-1)) / (2m-2)) on the number
of hyperplanes needed, a cover verifier that scans the grid one line at
a time up to its middle line (a hyperplane holds a whole line or at most
one of its points, and x exactly when it holds -x),
the column-counting duality check (a matrix with all maximal minors
invertible puts at most m-1 of its columns on any hyperplane), and an
exact minimum-cover search for tiny grids.
"""

from dataclasses import dataclass
from itertools import chain, combinations, count, islice, product, repeat
from operator import add, floordiv, mul

from .errors import DEFAULT_BUDGET, as_decimal, check_budget
from .intmath import exact_ints, iroot, primitive_vector
from .linalg import IntMatrix, combination_vector


@dataclass(frozen=True)
class CoverInstance:
    """Grid parameters and hyperplane normals, each a nonzero integer
    vector of length m, kept as given."""

    m: int
    k: int
    normals: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        exact_ints((self.m, self.k), "cover m and k")
        if self.m < 1 or self.k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        normals = tuple(self.normals)
        # one pass over the entries, one over the lengths and zeros; only a
        # failure runs the per-normal checks, which name the first fault
        if not ({tuple, list}.issuperset(map(type, normals))
                and {int}.issuperset(map(type, chain.from_iterable(normals)))
                and {self.m}.issuperset(map(len, normals)) and all(map(any, normals))):
            normals = tuple(exact_ints(n, "normal") for n in normals)
            for i, n in enumerate(normals):
                if len(n) != self.m:
                    raise ValueError(f"normal {i} has length {len(n)}, "
                                     f"expected {as_decimal(self.m)}")
                if not any(n):
                    raise ValueError(f"normal {i} is zero")
        object.__setattr__(self, "normals", tuple(map(tuple, normals)))


@dataclass(frozen=True)
class CoverCheck:
    accepted: bool
    uncovered: tuple[int, ...] | None
    points_checked: int


def cover_lower_bound(m: int, k: int) -> int:
    """ceil(k^(m/(m-1)) / (2m-2)), exactly.

    ceil(k^(m/(m-1))) is the smallest r with r^(m-1) >= k^m, one more
    than the integer root of k^m - 1; no floating point near the boundary.
    """
    exact_ints((m, k), "cover m and k")
    if m < 2 or k < m:
        raise ValueError(f"bound needs k >= m >= 2 (got m={as_decimal(m)}, "
                         f"k={as_decimal(k)})")
    r_ceil = iroot(k ** m - 1, m - 1) + 1
    return -(-r_ceil // (2 * m - 2))


def verify_cover(inst: CoverInstance, budget: int = DEFAULT_BUDGET) -> CoverCheck:
    """Accept iff every grid point lies on some listed hyperplane.

    Scans the lines x_1..x_{m-1} fixed in lexicographic order, so a
    rejection reports the first uncovered point of the lexicographic
    scan from (-k, ..., -k), and points_checked is that point's position
    in the scan (the grid's size when accepted). A hyperplane through the
    origin holds x exactly when it holds -x, the point at the mirror
    position (2k+1)^m - 1 - pos(x), so the first uncovered point, if there
    is one, lies at or before the origin, and the scan stops after the
    middle line x_{<m} = 0. On one line a normal with n_m = 0 holds every
    point or none; one with n_m != 0 holds at most the point x_m =
    -s/n_m, s = n_{<m}.x_{<m}, when n_m divides s and the quotient lies in
    [-k, k]. An empty normal list covers nothing, so it is rejected at the
    first point. The budget counts every grid point, and never fewer than
    m, the coordinates of one: the k = 0 grid is one point, and the scan
    still builds m - 1 lists. A large m is refused from m alone, as the
    power (2k+1)^m, never built.

    The lines are walked like an odometer, over the normals' columns: in
    each block of lines sharing x_1..x_{m-2}, a line's dot products are
    the last line's plus column m-1, one list(map(add, ...)). A zero among
    the flat normals' (n_m = 0) holds the line; on the lines left, the
    steep normals' are carried as M*s, M = max |n_m|, and summed afresh
    after a held line. floor(M*s / -n_m) is M*x_m when n_m divides s, and
    otherwise no multiple of M, as s / -n_m is then at least 1/|n_m| >=
    1/M past an integer; so one division per normal gives the held
    points, and the line is full when they include every M*y, |y| <= k.
    """
    m, k, side = inst.m, inst.k, 2 * inst.k + 1
    check_budget((side, m) if k else m, budget, "grid enumeration")
    total = side ** m
    span = range(-k, k + 1)
    if m == 1:  # one line, of which a normal holds only x_1 = 0
        if k == 0 and inst.normals:
            return CoverCheck(True, None, total)
        return CoverCheck(False, (-k,), 1)
    steep = [n for n in inst.normals if n[-1]]
    negl = [-n[-1] for n in steep]
    scale = max(map(abs, negl), default=1)
    whole = set(range(-k * scale, k * scale + 1, scale))
    steep_cols = [[scale * n[i] for n in steep] for i in range(m - 1)]
    flat_cols = [[n[i] for n in inst.normals if not n[-1]] for i in range(m - 1)]
    middle = (total // side ** 2 - 1) // 2  # the block holding the middle line
    for block, outer in enumerate(islice(product(span, repeat=m - 2), middle + 1)):
        f = _dots(flat_cols, outer + (-k - 1,))  # one step before x_{m-1} = -k
        at = None  # the line s is summed at
        for x in span if block < middle else range(-k, 1):
            f = list(map(add, f, flat_cols[-1]))
            if 0 in f:
                continue
            s = (list(map(add, s, steep_cols[-1])) if at == x - 1
                 else _dots(steep_cols, outer + (x,)))
            at = x
            held = set(map(floordiv, s, negl))
            if not whole <= held:
                y = next(y for y in span if scale * y not in held)
                line = block * side + x + k
                return CoverCheck(False, outer + (x, y), line * side + y + k + 1)
    return CoverCheck(True, None, total)


def _dots(cols, x) -> list[int]:
    """Each normal's dot product with x over its first len(x)
    coordinates, from the normals' columns cols."""
    s = [0] * len(cols[0])
    for col, a in zip(cols, x):
        if a:
            s = list(map(add, s, map(mul, col, repeat(a))))
    return s


def columns_on_hyperplane(A: IntMatrix, n) -> tuple[int, tuple[int, ...]]:
    """How many columns of A are orthogonal to n, and which ones."""
    n = exact_ints(n, "normal")
    if len(n) != A.rows:
        raise ValueError(f"normal length {len(n)} != row count {A.rows}")
    if not any(n):
        raise ValueError("normal must be nonzero")
    hits = tuple(j for j, x in enumerate(combination_vector(A, n)) if x == 0)
    return len(hits), hits


def min_cover_bruteforce(m: int, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact minimum number of hyperplanes covering the grid, with a witness.

    A hyperplane through the origin holds a point exactly when it holds
    the point's primitive sign-normalized direction, and the candidate
    normals are those same directions (at this scale every hyperplane of
    an optimal cover is determined by grid points it holds). Sizes are
    tried upward from the counting bound ceil(directions / most held by
    one normal), each size's combinations in sorted order, so the first
    cover found is minimal and is the lexicographically first minimal
    cover. Past k = 0 (the origin, covered by any one hyperplane) only
    m = 2 with k <= 4 and m = 3 with k <= 1 are searched; that limit is
    fixed, so a refusal names it, not a budget. The k = 0 witness has m
    entries, and m past DEFAULT_BUDGET is refused as a fixed limit too.
    """
    exact_ints((m, k), "cover m and k")
    if m < 2 or k < 0:
        raise ValueError("need m >= 2 and k >= 0")
    if k == 0:
        check_budget(m, DEFAULT_BUDGET, f"the k = 0 witness normal has "
                                        f"{as_decimal(m)} entries", fixed=True)
        return 1, ((1,) + (0,) * (m - 1),)
    if not ((m == 2 and k <= 4) or (m == 3 and k <= 1)):
        raise ValueError(f"exact cover search supports only k = 0, m = 2 with "
                         f"k <= 4 and m = 3 with k <= 1 (got m={as_decimal(m)}, "
                         f"k={as_decimal(k)})")

    dirs = sorted({primitive_vector(x) for x in product(range(-k, k + 1), repeat=m)
                   if any(x)})
    held = {n: frozenset(d for d in dirs if not sum(map(mul, n, d))) for n in dirs}
    # every direction is orthogonal to another of sup-norm <= k, so all of
    # dirs covers and the loop returns by size len(dirs)
    for size in count(-(-len(dirs) // max(map(len, held.values())))):
        for chosen in combinations(dirs, size):
            if len(frozenset().union(*map(held.get, chosen))) == len(dirs):
                return size, chosen
