"""Exact integer helpers: exact_ints and exact_rationals, the one rule by
which every type and entry point refuses a float, a bool or a numeric
string where an integer belongs instead of coercing it; primality,
integer roots, floor of ln, floor of c sqrt(ln k), primitive vectors."""

import math
from fractions import Fraction


def _sequence(values, what: str) -> tuple:
    """values as a tuple; a string, a mapping or a non-iterable is a ValueError."""
    if isinstance(values, (str, bytes, dict)) or not hasattr(values, "__iter__"):
        raise ValueError(f"{what}: expected a sequence of numbers, got {values!r}")
    return tuple(values)


def exact_ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple when every one has type int; a bool, a float or a
    numeric string among them, or values not a sequence, is a ValueError
    naming what."""
    out = values if type(values) is tuple else _sequence(values, what)
    for v in out:
        if type(v) is not int:
            raise ValueError(f"{what}: {v!r} is not an integer")
    return out


MAX_STR_DIGITS = 4300  # Python's default limit on the digits of an int string


def _exponent_too_large(s: str) -> bool:
    """Whether the decimal string s has an exponent ("2.5e-3") of magnitude
    above MAX_STR_DIGITS: Fraction would build 10**exponent, slowly, and a
    number no integer literal within the digit limit could write."""
    digits = s.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    # past MAX_STR_DIGITS digits int() itself would refuse the string
    return digits.isdecimal() and (len(digits) > MAX_STR_DIGITS or int(digits) > MAX_STR_DIGITS)


def exact_rationals(values, what: str) -> tuple[Fraction, ...]:
    """values as Fractions: each an int (not a bool), a Fraction, or a "p/q"
    or decimal string ("3/10", "-2", "0.3", "2.5e-3"); a float, a bool, any
    other string, a zero denominator or a decimal exponent of magnitude
    above MAX_STR_DIGITS is a ValueError naming what."""
    out = []
    for v in _sequence(values, what):
        if not (type(v) is int or isinstance(v, (Fraction, str))):
            raise ValueError(f"{what}: {v!r} is not an exact rational")
        if isinstance(v, str) and _exponent_too_large(v):
            raise ValueError(f"{what}: {v!r} has a decimal exponent above "
                             f"{MAX_STR_DIGITS} in magnitude")
        try:
            out.append(Fraction(v))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what}: {v!r} is not an exact rational") from None
    return tuple(out)


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
    exact_ints((n, r), "iroot arguments")
    if r < 1:
        raise ValueError("root index must be >= 1")
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if r == 1 or n < 2:
        return n
    if r == 2:
        return math.isqrt(n)
    # From any x with x^r > n a Newton step gives y with floor(n^(1/r)) <= y
    # < x (AM-GM), so the first step that does not descend starts from the
    # answer. The seed is 2^(b+1) for a short root and, for a long one,
    # (root of n >> rs, plus one) << s: above the root and right to half its
    # bits, where a power-of-two seed alone would cost about r steps.
    b = n.bit_length() // r
    s = b // 2
    x = (iroot(n >> (r * s), r) + 1) << s if s else 2 << b
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _ln_bracket(k: int, bits: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= 2^bits ln k <= hi, for k >= 1.

    ln k = 2n atanh(1/3) + 2 atanh(z) with 2^n <= k < 2^(n+1) and
    z = (k - 2^n) / (k + 2^n) <= 1/3. Each series sum z^(2i+1) / (2i+1) is
    taken in fixed point with the power p carried rounded down: p stays
    short of 2^bits z^(2i+1) by less than 1 / (1 - z^2) <= 9/8, so a term
    loses less than 3, and once p is 0 the tail left is below (9/8)^2 < 2.
    """
    n = k.bit_length() - 1
    lo = hi = 0
    for weight, a, b in ((2 * n, 1, 3), (2, k - (1 << n), k + (1 << n))):
        p = (a << bits) // b
        total = terms = 0
        while p:
            total += p // (2 * terms + 1)
            terms += 1
            p = p * a * a // (b * b)
        lo += weight * total
        hi += weight * (total + 3 * terms + 2)
    return lo, hi


def _floor_of_ln(k: int, bits: int, floor_of) -> int:
    """floor_of(2^bits ln k, bits) for a nondecreasing floor_of, found by
    doubling bits until both ends of the bracket of 2^bits ln k give the
    same value."""
    while True:
        lo, hi = _ln_bracket(k, bits)
        value = floor_of(lo, bits)
        if value == floor_of(hi, bits):
            return value
        bits *= 2


def floor_ln(k: int) -> int:
    """floor(ln k), the largest integer t with e^t <= k, for k >= 1. ln k is
    irrational for k >= 2, so it is never an integer and the bracket
    decides."""
    exact_ints((k,), "floor_ln argument")
    if k < 1:
        raise ValueError("floor_ln requires k >= 1")
    return _floor_of_ln(k, 64, lambda x, bits: x >> bits)


def floor_sqrt_ln(k: int, c: int) -> int:
    """floor(c sqrt(ln k)) for k >= 2 and c >= 1: the largest integer U with
    U^2 <= c^2 ln k. c^2 ln k is irrational, so never a square, and the
    bracket decides."""
    exact_ints((k, c), "floor_sqrt_ln arguments")
    if k < 2 or c < 1:
        raise ValueError("floor_sqrt_ln requires k >= 2 and c >= 1")
    c2 = c * c
    return _floor_of_ln(k, c2.bit_length() + 32,
                        lambda x, bits: math.isqrt(c2 * x >> bits))


def primitive_vector(v) -> tuple[int, ...]:
    """Canonical form of a nonzero integer vector: divide by the gcd and
    flip signs so the first nonzero coordinate is positive, which is
    exactly w > (0, ..., 0) in tuple order."""
    v = exact_ints(v, "vector")
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    w = tuple(x // g for x in v)
    return w if w > (0,) * len(w) else tuple(-x for x in w)
