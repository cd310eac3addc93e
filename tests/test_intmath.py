import math

import pytest

from fullrank.intmath import floor_ln
from oracles import floor_exp


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
