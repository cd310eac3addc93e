"""Exact integer helpers: primality, integer roots, floor of ln, primitive
vectors."""

import math


def is_prime(n: int) -> bool:
    """Trial division; fine for the moduli this package works with."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def iroot(n: int, r: int) -> int:
    """Largest x >= 0 with x**r <= n, for n >= 0, r >= 1.

    Newton iteration on arbitrary-precision integers; never goes through
    floating point, so exact at perfect powers.
    """
    if r < 1:
        raise ValueError("root index must be >= 1")
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if r == 1 or n < 2:
        return n
    if r == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + r - 1) // r)  # seed >= true root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x ** r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def _exp_at_most(t: int, k: int) -> bool:
    """Whether e^t <= k, for integers t >= 1 and k >= 1, decided exactly.

    e lies strictly between s = sum_{i<=n} 1/i! and s + 1/(n! n); both ends
    are raised to the t-th power and compared with k on integers, and n is
    doubled until the bracket falls on one side of k. e^t is irrational,
    so it never equals k and the loop ends.
    """
    n = 8
    while True:
        f = math.factorial(n)
        s = sum(f // math.factorial(i) for i in range(n + 1))  # n! * sum
        if (s * n + 1) ** t <= k * (f * n) ** t:
            return True
        if s ** t >= k * f ** t:
            return False
        n *= 2


def floor_ln(k: int) -> int:
    """Largest integer t with e^t <= k, that is floor(ln k), for k >= 1.

    The float logarithm only proposes t; each step is decided exactly, so
    the answer is right even where ln k lies within rounding of an integer.
    """
    if k < 1:
        raise ValueError("floor_ln requires k >= 1")
    t = max(0, math.floor(math.log(k)))
    while t > 0 and not _exp_at_most(t, k):
        t -= 1
    while _exp_at_most(t + 1, k):
        t += 1
    return t


def primitive_vector(v) -> tuple[int, ...]:
    """Canonical form of a nonzero integer vector: divide by the gcd and
    flip signs so the first nonzero coordinate is positive."""
    g = 0
    for x in v:
        g = math.gcd(g, abs(int(x)))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    w = tuple(int(x) // g for x in v)
    for x in w:
        if x > 0:
            return w
        if x < 0:
            return tuple(-y for y in w)
    raise AssertionError("unreachable")
