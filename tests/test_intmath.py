import math
import random
from fractions import Fraction
from itertools import product

import pytest

from fullrank.attack import attack_params
from fullrank.construct import bounds_report
from fullrank.intmath import (
    exact_ints,
    exact_rationals,
    floor_ln,
    floor_sqrt_ln,
    iroot,
    is_prime,
    primitive_vector,
)
from oracles import floor_exp, trial_prime
from oracles import floor_sqrt_ln as oracle_floor_sqrt_ln


class TestFloorLn:
    def test_matches_float_log(self):
        for k in range(1, 20001):
            assert floor_ln(k) == math.floor(math.log(k))

    @pytest.mark.parametrize("m", range(1, 41))
    def test_either_side_of_e_power(self, m):
        below = floor_exp(m)  # e^m is irrational: below < e^m < below + 1
        assert floor_ln(below) == m - 1
        assert floor_ln(below + 1) == m

    def test_large_k(self):
        assert floor_ln(10 ** 100) == 230  # 100 ln 10 = 230.26

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            floor_ln(0)


class TestFloorSqrtLn:
    """floor(c sqrt(ln k)) decided on integers, against a decimal oracle."""

    @pytest.mark.parametrize("e", range(2, 31))
    def test_large_m_bound_at_powers_of_ten(self, e):
        k = 10 ** e
        m = floor_ln(k) + 1  # the smallest m in the large-m regime
        rep = bounds_report(m, k)
        assert rep.regime == "large_m"
        assert rep.upper_bound == oracle_floor_sqrt_ln(k, 100 * k * m)

    def test_large_m_pairs_of_criterion_8_grid(self):
        pairs = 0
        for k in range(2, 10_001):
            for m in range(floor_ln(k) + 1, 11):
                assert (floor_sqrt_ln(k, 100 * k * m)
                        == oracle_floor_sqrt_ln(k, 100 * k * m)), (m, k)
                pairs += 1
        assert pairs > 20_000

    @pytest.mark.parametrize("m,k", [(26, 10 ** 11), (50, 10 ** 20),
                                     (1000, 10 ** 400)],
                             ids=["26-1e11", "50-1e20", "1000-1e400"])
    def test_where_floats_failed(self, m, k):
        # the float formula was 1 too high at (26, 10^11), 352,151 too high
        # at (50, 10^20), and raised OverflowError at (1000, 10^400)
        assert bounds_report(m, k).upper_bound == oracle_floor_sqrt_ln(
            k, 100 * k * m)

    def test_small_scales(self):
        for k in range(2, 300):
            for c in (1, 2, 7, 1000):
                assert floor_sqrt_ln(k, c) == oracle_floor_sqrt_ln(k, c), (k, c)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            floor_sqrt_ln(1, 5)
        with pytest.raises(ValueError):
            floor_sqrt_ln(10, 0)


class TestIroot:
    def test_random_against_powers(self):
        rng = random.Random(5)
        for _ in range(3000):
            r = rng.randint(1, 40)
            n = rng.randint(0, 10 ** rng.randint(0, 120))
            x = iroot(n, r)
            assert x ** r <= n < (x + 1) ** r, (n, r)

    def test_perfect_powers_and_neighbours(self):
        for r in range(1, 25):
            for base in (0, 1, 2, 3, 10, 97, 2 ** 61 - 1, 10 ** 20):
                assert iroot(base ** r, r) == base
                for n in (base ** r - 1, base ** r + 1):
                    if n >= 0:
                        x = iroot(n, r)
                        assert x ** r <= n < (x + 1) ** r, (n, r)

    def test_high_index(self):
        # the width bound's root of k^m with m - 1 = 999 and k = 10^50
        k = 10 ** 50
        x = iroot(k ** 1000, 999)
        assert x ** 999 <= k ** 1000 < (x + 1) ** 999

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(5, 0)


def test_is_prime_matches_trial_division():
    for n in range(-5, 200):
        assert is_prime(n) == trial_prime(n), n


def test_primitive_vector_first_nonzero_positive():
    for v in product(range(-4, 5), repeat=3):
        if not any(v):
            continue
        w = primitive_vector(v)
        assert math.gcd(*w) == 1 and next(x for x in w if x) > 0
        g = math.gcd(*v)
        assert w in (tuple(x // g for x in v), tuple(-x // g for x in v))


class TestExactNumbers:
    """The one rule for exact input: ints are ints, rationals are ints,
    Fractions or "p/q"/decimal strings; nothing is coerced."""

    def test_ints_pass_through(self):
        assert exact_ints([1, -2, 10 ** 30], "v") == (1, -2, 10 ** 30)
        assert exact_ints(range(3), "v") == (0, 1, 2)
        assert exact_ints((), "v") == ()

    @pytest.mark.parametrize("bad", [[1.0], [True], ["1"], [None], 3, "12",
                                     b"12", {1: 2}, None])
    def test_ints_refuse(self, bad):
        with pytest.raises(ValueError, match="what"):
            exact_ints(bad, "what")

    def test_rationals(self):
        assert exact_rationals([3, Fraction(3, 10), "3/10", "0.3", "-2"], "r") == (
            3, Fraction(3, 10), Fraction(3, 10), Fraction(3, 10), -2)
        assert exact_rationals(["1e3", "2.5e-3"], "r") == (1000, Fraction(1, 400))

    # a decimal exponent past 4,300 would build 10**exponent first: seconds
    # for 1e10000000, and a number no integer literal within the limit writes
    @pytest.mark.parametrize("bad", [[0.1], [True], ["1/0"], ["abc"], [None],
                                     [[1]], 3, "12", {"1": 0},
                                     ["1e100000000"], ["1e-100000000"],
                                     ["1E4301"], ["1e-4301"]])
    def test_rationals_refuse(self, bad):
        with pytest.raises(ValueError, match="what"):
            exact_rationals(bad, "what")

    @pytest.mark.parametrize("call", [
        lambda: iroot(12.25, 1), lambda: iroot(16, 2.0), lambda: iroot(True, 1),
        lambda: floor_ln(10.0), lambda: floor_ln("10"),
        lambda: floor_sqrt_ln(10.0, 3), lambda: floor_sqrt_ln(10, 3.0),
        # a float k used to reach floor_ln and die with an AttributeError
        lambda: bounds_report(2, 10.0), lambda: attack_params(2, 10.0),
    ], ids=["iroot-n", "iroot-r", "iroot-bool", "floor_ln", "floor_ln-str",
            "floor_sqrt_ln-k", "floor_sqrt_ln-c", "bounds_report", "attack_params"])
    def test_kernels_refuse_non_ints(self, call):
        with pytest.raises(ValueError):
            call()
