import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fullrank.construct import construct, construct_scaled, construct_vandermonde
from fullrank.errors import BudgetExceededError
from fullrank.linalg import IntMatrix, select_columns
from fullrank.recover import (
    _MAX_DECODES,
    _MAX_TIES,
    Measurement,
    SparseSignal,
    _syndrome_decode,
    decode,
    encode,
    guarantee_holds,
    scale_matrix,
)
from oracles import decode_first_seen

F = Fraction
HALF = F(1, 2)


@pytest.fixture
def vand23():
    return construct_vandermonde(2, 3)[0]


class TestSparseSignal:
    def test_dense_round_trip(self):
        x = SparseSignal.from_dense([0, 3, 0, -1, 0])
        assert (x.support, x.values) == ((1, 3), (3, -1))
        assert x.to_dense() == [0, 3, 0, -1, 0]
        assert x.sparsity == 2

    def test_rejects_zero_value(self):
        with pytest.raises(ValueError):
            SparseSignal(4, (1,), (0,))

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            SparseSignal(4, (2, 1), (1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseSignal(4, (4,), (1,))


class TestEncode:
    def test_zero_signal_zero_noise(self, vand23):
        x = SparseSignal.from_dense([0] * 5)
        meas = encode(vand23, x, [0, 0])
        assert meas.b == (F(0), F(0))

    def test_exact_rational_measurement(self, vand23):
        x = SparseSignal(5, (2,), (2,))
        meas = encode(vand23, x, (F(3, 10), F(-1, 5)))
        assert meas.b == (F(23, 10), F(-21, 5))
        assert meas.in_guarantee

    def test_boundary_noise_flagged_out(self, vand23):
        x = SparseSignal(5, (2,), (2,))
        meas = encode(vand23, x, (F(1, 2), F(0)))
        assert not meas.in_guarantee  # strictly-below threshold

    def test_noise_defaults_to_zero(self, vand23):
        x = SparseSignal(5, (2,), (2,))
        meas = encode(vand23, x)
        assert meas == encode(vand23, x, [0, 0])
        assert meas.noise == (F(0), F(0))
        with pytest.raises(ValueError):
            encode(vand23, x, [])  # an empty list is not "no noise"

    def test_dimension_mismatch(self, vand23):
        with pytest.raises(ValueError):
            encode(vand23, SparseSignal(4, (0,), (1,)), [0, 0])
        with pytest.raises(ValueError):
            encode(vand23, SparseSignal(5, (0,), (1,)), [0, 0, 0])

    @pytest.mark.parametrize("call,message", [
        (lambda A: Measurement((0,), (), 0), "must be positive"),
        (lambda A: Measurement((0,), (), "-1/2"), "must be positive"),
        (lambda A: encode(A, SparseSignal(5, (0,), (1,)), None, 0),
         "must be positive"),
        (lambda A: decode(A, (0,), 1, 1), "measurement length 1 != matrix rows 2"),
        (lambda A: decode(A, Measurement((0, 0, 0), ()), 1, 1),
         "measurement length 3 != matrix rows 2"),
    ], ids=["bound-zero", "bound-negative", "encode-bound-zero",
            "decode-short", "decode-long"])
    def test_bound_and_length_refused(self, vand23, call, message):
        with pytest.raises(ValueError, match=message):
            call(vand23)

    @pytest.mark.parametrize("b,noise,bound,field", [
        ((10 ** 4300, 0), (), HALF, "measurement"),
        ((F(1, 10 ** 4300), 0), (), HALF, "measurement"),
        ((0, 0), (0, -10 ** 4300), HALF, "noise"),
        ((0, 0), (), 10 ** 4300, "noise bound"),
    ], ids=["b-numerator", "b-denominator", "noise", "bound"])
    def test_refuses_more_than_4300_digits(self, b, noise, bound, field):
        # no file could hold such a number, so the type refuses it too
        with pytest.raises(ValueError, match=f"^{field}: an entry has a numerator "
                                             f"or denominator of more than 4300 digits$"):
            Measurement(b, noise, bound)
        edge = 10 ** 4300 - 1  # 4,300 nines
        assert Measurement((edge, F(-1, edge)), (edge, 0), edge).b == (edge, F(-1, edge))

    def test_decimal_strings_parse_exactly(self, vand23):
        x = SparseSignal(5, (2,), (2,))
        meas = encode(vand23, x, ("0.3", "-0.2"))
        assert meas.b == (F(23, 10), F(-21, 5))


class TestDecode:
    def test_recovers_spot_example(self, vand23):
        meas = Measurement(b=(F(23, 10), F(-21, 5)), noise=())
        result = decode(vand23, meas, s=1, amp_bound=3)
        assert not result.ambiguous
        assert result.signal == SparseSignal(5, (2,), (2,))
        assert result.residual == F(3, 10)
        assert result.candidates == 31  # zero, then 5 columns x 6 nonzero values

    def test_matches_first_seen_scan(self):
        # the zero-including scan with first-seen dedup: same minimizers in
        # the same order, same residual, and one candidate per vector met
        rng = random.Random(23)
        ambiguous = 0
        for _ in range(300):
            m, d = rng.randint(1, 4), rng.randint(1, 7)
            s, amp = rng.randint(0, min(3, d)), rng.randint(1, 2)
            rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(m)]
            b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            result = decode(IntMatrix.from_rows(rows), b, s=s, amp_bound=amp)
            dense, residual, met = decode_first_seen(rows, b, s, amp)
            assert [tuple(x.to_dense()) for x in result.minimizers] == dense
            assert result.residual == residual
            assert result.candidates == met == sum(
                math.comb(d, r) * (2 * amp) ** r for r in range(s + 1))
            ambiguous += result.ambiguous
        assert 0 < ambiguous < 300  # ties and unique minimizers both seen

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_first_seen_scan_generated(self, data):
        m, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 7))
        s, amp = data.draw(st.integers(0, min(3, d))), data.draw(st.integers(1, 2))
        rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                  min_size=m, max_size=m))
        b = data.draw(st.lists(
            st.fractions(min_value=-8, max_value=8, max_denominator=6),
            min_size=m, max_size=m))
        result = decode(IntMatrix.from_rows(rows), b, s=s, amp_bound=amp)
        dense, residual, met = decode_first_seen(rows, b, s, amp)
        assert [tuple(x.to_dense()) for x in result.minimizers] == dense
        assert result.residual == residual
        assert result.candidates == met

    @pytest.mark.parametrize("rows,b,s,minimizers,residual", [
        # a tie across support sizes 0, 1 and 2, not listed by size
        ([[2, 2]], (1,), 2, [(-1, 1), (0, 0), (0, 1), (1, -1), (1, 0)], 1),
        ([[1, 1, 2]], (2,), 2, [(1, 1, 0), (0, 0, 1)], 0),
        ([[2]], (1,), 1, [(0,), (1,)], 1),
    ])
    def test_ties_across_support_sizes(self, rows, b, s, minimizers, residual):
        result = decode(IntMatrix.from_rows(rows), b, s=s, amp_bound=1)
        assert [tuple(x.to_dense()) for x in result.minimizers] == minimizers
        assert result.residual == residual
        assert decode_first_seen(rows, b, s, 1)[:2] == (minimizers, residual)

    def test_bench_size_inside_guarantee(self):
        # construct(6, 12, 11), s = 3, A = 3: the planted signal is the
        # unique minimizer, at the noise level
        A = construct(6, 12, 11)
        rng = random.Random(41)
        for _ in range(4):
            support = sorted(rng.sample(range(11), 3))
            x = SparseSignal(11, support, [rng.choice([-1, 1]) * rng.randint(1, 3)
                                           for _ in support])
            e = [F(rng.randint(-5, 5), 11) for _ in range(6)]
            result = decode(A, encode(A, x, e), s=3, amp_bound=3)
            assert result.minimizers == (x,)
            assert result.residual == max(map(abs, e))
            assert result.candidates == 37_687

    @pytest.mark.parametrize("support,values,minimizers", [
        ((0, 5, 8), (1, -2, 3), [((5, 8), (-2, 3)), ((0, 5, 8), (1, -2, 3))]),
        ((0, 3, 10), (-1, 2, -3), [((0, 3, 10), (-1, 2, -3)), ((3, 10), (2, -3))]),
    ])
    def test_bench_size_half_noise_tie(self, support, values, minimizers):
        # noise 1/2 along the all-ones column 0 makes x tie with x moved
        # one step toward zero there; the visit order is pinned from
        # decode_first_seen, which takes seconds at this size
        A = construct(6, 12, 11)
        c = -1 if values[0] > 0 else 1
        meas = encode(A, SparseSignal(11, support, values), [F(c, 2)] * 6)
        result = decode(A, meas, s=3, amp_bound=3)
        assert [(x.support, x.values) for x in result.minimizers] == minimizers
        assert result.residual == F(1, 2)

    @pytest.mark.parametrize("s,amp", [
        (-1, 1), (6, 1), (1, 0), (1, 1.5), (1.0, 1), (True, 1), (1, True)])
    def test_rejects_bad_sparsity_or_amplitude(self, vand23, s, amp):
        # amp_bound scales the pruning bound: only an exact int may reach it
        with pytest.raises(ValueError):
            decode(vand23, (0, 0), s=s, amp_bound=amp)

    def test_zero_measurement_gives_zero_signal(self, vand23):
        result = decode(vand23, (0, 0), s=1, amp_bound=3)
        assert result.signal == SparseSignal.from_dense([0] * 5)
        assert result.residual == 0

    def test_equal_columns_ambiguous(self):
        A = IntMatrix.from_rows([[2, 2]])
        result = decode(A, (F(2),), s=1, amp_bound=1)
        assert result.ambiguous
        assert len(result.minimizers) == 2
        assert result.residual == 0

    def test_budget_refusal_reports_count(self, vand23):
        with pytest.raises(BudgetExceededError) as exc:
            decode(vand23, (0, 0), s=2, amp_bound=3, budget=10)
        assert exc.value.required == 1 + 5 * 6 + 10 * 6 ** 2

    def test_sparsity_guarantee_flag(self, vand23):
        assert decode(vand23, (0, 0), s=1, amp_bound=1).sparsity_in_guarantee
        assert not decode(vand23, (0, 0), s=2, amp_bound=1).sparsity_in_guarantee

    def test_round_trip_small_grid(self, vand23):
        # all 1-sparse signals, a grid of in-guarantee noises: exact recovery
        noises = [
            (F(0), F(0)),
            (F(49, 100), F(-49, 100)),
            (F(-2, 5), F(1, 4)),
            (F(1, 3), F(-1, 3)),
        ]
        for j in range(5):
            for v in (-2, -1, 1, 2):
                dense = [0] * 5
                dense[j] = v
                x = SparseSignal.from_dense(dense)
                for e in noises:
                    meas = encode(vand23, x, e)
                    result = decode(vand23, meas, s=1, amp_bound=2)
                    assert not result.ambiguous
                    assert result.signal == x

    def test_out_of_guarantee_noise_still_returns_minimizer(self, vand23):
        x = SparseSignal(5, (0,), (1,))
        meas = encode(vand23, x, (F(3, 4), F(0)))  # noise 3/4 >= 1/2
        assert not meas.in_guarantee
        result = decode(vand23, meas, s=1, amp_bound=2)
        assert result.minimizers  # no correctness claim, just the minimizers


def without_modulus(A):
    return IntMatrix(A.rows, A.cols, A.entries)


# every full family with d <= 13 for m = 2..6 and small k; each holds the
# ratio-0 column (l, 0, ..., 0) of j = d
FAMILY = ([construct_vandermonde(m, k)[0] for m in range(2, 7) for k in range(m, m + 3)]
          + [construct_scaled(m, k)[0] for m, k in ((2, 3), (2, 4), (2, 5), (3, 7), (3, 8))])


class TestSyndromeStep:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_first_seen_scan_inside_guarantee(self, data):
        # family members and their column subsets, any order, signals with
        # at most s <= m/2 nonzeros (x = 0 and s = 0 included), noise below
        # 1/2: the decode equals the oracle's, and when 2 amp < p it is the
        # syndrome step's, which returns the planted signal
        A = data.draw(st.sampled_from(FAMILY))
        if data.draw(st.booleans()):
            A = select_columns(A, data.draw(st.lists(
                st.sampled_from(range(A.cols)), min_size=1, unique=True)))
        m, d = A.rows, A.cols
        s, amp = data.draw(st.integers(0, min(m // 2, d))), data.draw(st.integers(1, 3))
        assume(math.comb(d, s) * (2 * amp + 1) ** s <= 6000)  # oracle's time
        support = sorted(data.draw(st.lists(st.sampled_from(range(d)), max_size=s,
                                            unique=True)))
        values = [data.draw(st.integers(1, amp)) * data.draw(st.sampled_from((-1, 1)))
                  for _ in support]
        x = SparseSignal(d, support, values)
        e = data.draw(st.lists(st.fractions(-HALF, HALF, max_denominator=12).filter(
            lambda t: abs(t) < HALF), min_size=m, max_size=m))
        meas = encode(A, x, e)
        result = decode(A, meas, s=s, amp_bound=amp)
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, s, amp)
        assert [tuple(y.to_dense()) for y in result.minimizers] == dense
        assert result.residual == residual
        assert result.candidates == met
        assert result.minimizers == (x,)
        if 2 * amp < A.modulus:
            assert _syndrome_decode(A, meas.b, s, amp) == ((x,), meas.noise_inf)

    @pytest.mark.parametrize("support,values", [
        ((6,), (2,)), ((2, 6), (-1, 3)), ((0, 6), (3, -3)), ((0, 5), (1, 1))])
    def test_ratio_0_column(self, support, values):
        # construct(4, 6, 7) is the whole power-residue family mod 7, ratios
        # (1, ..., 6, 0); column 6 is (1, 0, 0, 0) and enters S_0 alone
        A = construct(4, 6, 7)
        x = SparseSignal(7, support, values)
        meas = encode(A, x, (F(1, 3), F(-2, 5), 0, F(1, 7)))
        assert _syndrome_decode(A, meas.b, 2, 3) == ((x,), F(2, 5))
        result = decode(A, meas, s=2, amp_bound=3)
        assert result == decode(without_modulus(A), meas, s=2, amp_bound=3)
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, 2, 3)
        assert ([tuple(y.to_dense()) for y in result.minimizers], result.residual,
                result.candidates) == (dense, residual, met)

    @pytest.mark.parametrize("matrix,support,values,noise,s,amp", [
        # construct(4, 6, 7): p = 7, column 0 is all ones
        ("plain", (1, 4), (2, -1), (F(1, 3), 0, 0, 0), 2, 3),
        # at a tie with 2 amp >= p, 4 e_0 (4 = -3 mod 7) would be missed
        ("full", (0,), (4,), (-HALF,) * 4, 1, 4),
        ("full", (1,), (2,), (HALF, F(3, 4), 0, 0), 2, 3),  # no rounding hits
        ("full", (0, 2, 4), (1, -1, 1), (0,) * 4, 2, 1),  # locator degree 3 > s
        ("full", (2,), (3,), (F(1, 4), 0, 0, 0), 1, 2),  # 3 outside [-2, 2]
        ("full", (3,), (4,), (0,) * 4, 1, 4),  # 4 lifts to -3 mod 7
        ("full", (2, 4), (7, 1), (0,) * 4, 2, 7),  # 7 = 0 mod 7
        ("copy", (2,), (1,), (F(1, 3), 0, 0, 0), 2, 3),  # columns 0 and 1 equal
        # 2s > m: b is 2 e_2 + e_4 (2 outside [-1, 1]) plus noise, so T = {2}
        # with v = 1 leaves e_2 + e_4, which holds T's column, and adding v
        # back passes amp; no in-range vector reaches b within 1/2
        ("full", (2, 4), (2, 1), (F(1, 3), 0, 0, 0), 3, 1),
        # 2s > m on construct(2, 2, 3), p = 3: enumerating needs 2 amp < p
        ("p3", (0,), (2,), (F(1, 4), 0), 2, 2),
    ], ids=["no-modulus", "tie-amp-wraps", "tie-no-hit", "not-s-sparse",
            "value-out-of-range", "amp-wraps", "value-0-mod-p", "copied-column",
            "T-in-rest-past-amp", "enumeration-amp-wraps"])
    def test_miss_returns_the_search(self, matrix, support, values, noise, s, amp):
        A = construct(2, 2, 3) if matrix == "p3" else construct(4, 6, 7)
        if matrix == "plain":
            A = without_modulus(A)
        elif matrix == "copy":
            rows = A.to_rows()
            for row in rows:
                row[1] = row[0]
            A = IntMatrix.from_rows(rows, modulus=7)
        meas = encode(A, SparseSignal(A.cols, support, values), noise)
        assert _syndrome_decode(A, meas.b, s, amp) is None
        result = decode(A, meas, s=s, amp_bound=amp)
        assert result == decode(without_modulus(A), meas, s=s, amp_bound=amp)
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, s, amp)
        assert ([tuple(y.to_dense()) for y in result.minimizers], result.residual,
                result.candidates) == (dense, residual, met)

    @pytest.mark.parametrize("support,values,noise,s,amp,minimizers", [
        # construct(4, 6, 7): column 0 is all ones, column 6 is (1, 0, 0, 0)
        ((0,), (2,), (-HALF,) * 4, 2, 3,
         [((0,), (1,)), ((0,), (2,)), ((0, 6), (1, 1)), ((0, 6), (2, -1))]),
        ((0,), (1,), (-HALF,) * 4, 1, 3, [((), ()), ((0,), (1,)), ((6,), (1,))]),
        ((2, 5), (-1, 3), (F(1, 3), HALF, 0, -HALF), 2, 3, [((2, 5), (-1, 3))]),
    ], ids=["tie", "zero-among-hits", "mixed-rows"])
    def test_tie_roundings_hit(self, support, values, noise, s, amp, minimizers):
        # every rounding of b through its tie rows is decoded: the hits are
        # the minimizers at residual 1/2, in the search's order
        A = construct(4, 6, 7)
        meas = encode(A, SparseSignal(7, support, values), noise)
        hits, residual = _syndrome_decode(A, meas.b, s, amp)
        assert [(x.support, x.values) for x in hits] == minimizers
        assert residual == HALF
        result = decode(A, meas, s=s, amp_bound=amp)
        assert result == decode(without_modulus(A), meas, s=s, amp_bound=amp)
        assert (result.minimizers, result.residual) == (hits, HALF)
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, s, amp)
        assert ([tuple(y.to_dense()) for y in result.minimizers], result.residual,
                result.candidates) == (dense, residual, met)

    @pytest.mark.parametrize("support,values,noise,amp,minimizers,residual", [
        # construct(4, 6, 7), s = 3 > m/2: each (T, v) of at most one column
        # leaves a rest decoded at sparsity 2 on the columns after T
        ((1,), (2,), (F(1, 3), 0, 0, 0), 3, [((1,), (2,))], F(1, 3)),
        # T = {j}, j != 2, leaves e_2 - v e_j, which holds T's column, and
        # adding v back cancels it to 0; x is met once, from T = {2}
        ((2,), (1,), (0, F(1, 4), 0, F(-1, 3)), 1, [((2,), (1,))], F(1, 3)),
        # two 3-sparse preimages of y, listed in the search's order
        ((0, 2, 6), (1, -1, -2), (F(1, 3), 0, F(-1, 4), 0), 2,
         [((0, 2, 6), (1, -1, -2)), ((0, 3, 5), (-1, 1, -2))], F(1, 3)),
        # a tie row: both roundings of b_0 are enumerated
        ((1, 3, 5), (1, -1, 1), (-HALF, 0, F(1, 5), 0), 1, [((1, 3, 5), (1, -1, 1))], HALF),
        # b_0 = -1/2: with T empty the rest must be 0, which the rounding up
        # of row 0 reaches; -e_6 = -(1, 0, 0, 0) reaches the rounding down
        ((), (), (-HALF, 0, F(1, 3), 0), 1, [((), ()), ((6,), (-1,))], HALF),
    ], ids=["2s-above-m", "T-in-rest-cancels", "ambiguous", "tie", "zero-at-tie"])
    def test_enumeration_hits(self, support, values, noise, amp, minimizers, residual):
        # past 2s <= m the hits are every minimizer, in the search's order
        A = construct(4, 6, 7)
        meas = encode(A, SparseSignal(7, support, values), noise)
        hits, got = _syndrome_decode(A, meas.b, 3, amp)
        assert [(x.support, x.values) for x in hits] == minimizers
        assert got == residual
        result = decode(A, meas, s=3, amp_bound=amp)
        assert result == decode(without_modulus(A), meas, s=3, amp_bound=amp)
        assert (result.minimizers, result.residual) == (hits, residual)
        assert not result.sparsity_in_guarantee
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, 3, amp)
        assert ([tuple(y.to_dense()) for y in result.minimizers], result.residual,
                result.candidates) == (dense, residual, met)

    @pytest.mark.parametrize("d", [(_MAX_DECODES - 1) // 2, (_MAX_DECODES + 1) // 2])
    def test_enumeration_up_to_the_cap(self, d):
        # d columns of construct(2, 30, 31) at s = 2, amp 1: one column is
        # enumerated, 1 + 2d decodes; up to the cap the step answers, past
        # it the search runs, and both give the same answer (x among the
        # many 2-sparse preimages of y that two rows allow)
        A = select_columns(construct(2, 30, 31), range(d))
        x = SparseSignal(d, (3, d - 2), (1, -1))
        meas = encode(A, x, (F(1, 5), F(-1, 3)))
        hit = _syndrome_decode(A, meas.b, 2, 1)
        result = decode(A, meas, s=2, amp_bound=1)
        assert result == decode(without_modulus(A), meas, s=2, amp_bound=1)
        assert x in result.minimizers and result.residual == F(1, 3)
        if 1 + 2 * d > _MAX_DECODES:
            assert hit is None
        else:
            assert hit == (result.minimizers, F(1, 3))
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, 2, 1)
        assert ([tuple(y.to_dense()) for y in result.minimizers], result.residual,
                result.candidates) == (dense, residual, met)

    @pytest.mark.parametrize("ties", [_MAX_TIES, _MAX_TIES + 1])
    def test_ties_up_to_the_cap(self, ties):
        # on a proved (cap + 1)-row matrix with column 0 all ones, e_0 under
        # noise -1/2 on `ties` rows: up to the cap the roundings are decoded,
        # past it the search runs, and both give the same answer
        A = construct_vandermonde(_MAX_TIES + 1, _MAX_TIES + 1)[0]
        m, d = A.rows, A.cols
        meas = encode(A, SparseSignal(d, (0,), (1,)), [-HALF] * ties + [0] * (m - ties))
        hit = _syndrome_decode(A, meas.b, 1, 1)
        result = decode(A, meas, s=1, amp_bound=1)
        assert result == decode(without_modulus(A), meas, s=1, amp_bound=1)
        assert result.residual == HALF and SparseSignal(d, (0,), (1,)) in result.minimizers
        if ties > _MAX_TIES:
            assert hit is None
        else:
            assert hit == (result.minimizers, HALF)
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, 1, 1)
        assert ([tuple(y.to_dense()) for y in result.minimizers], result.residual,
                result.candidates) == (dense, residual, met)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ties_match_first_seen_scan(self, data):
        # family members and their column subsets, a planted signal with at
        # most s <= m/2 nonzeros, noise of +-1/2 on a nonempty set of tie
        # rows and anything in [-1, 1] elsewhere, some rows pushed past 1/2:
        # the decode equals the oracle's and the search's, and when no row is
        # past 1/2 and 2 amp < p the roundings hold the planted signal, so
        # the tie step answers
        A = data.draw(st.sampled_from(FAMILY))
        if data.draw(st.booleans()):
            A = select_columns(A, data.draw(st.lists(
                st.sampled_from(range(A.cols)), min_size=1, unique=True)))
        m, d = A.rows, A.cols
        s, amp = data.draw(st.integers(0, min(m // 2, d))), data.draw(st.integers(1, 3))
        assume(math.comb(d, s) * (2 * amp + 1) ** s <= 6000)  # oracle's time
        support = sorted(data.draw(st.lists(st.sampled_from(range(d)), max_size=s,
                                            unique=True)))
        values = [data.draw(st.integers(1, amp)) * data.draw(st.sampled_from((-1, 1)))
                  for _ in support]
        x = SparseSignal(d, support, values)
        ties = data.draw(st.lists(st.sampled_from(range(m)), min_size=1, unique=True))
        e = [data.draw(st.sampled_from((-HALF, HALF))) if i in ties
             else data.draw(st.fractions(-1, 1, max_denominator=12)) for i in range(m)]
        meas = encode(A, x, e)
        result = decode(A, meas, s=s, amp_bound=amp)
        assert result == decode(without_modulus(A), meas, s=s, amp_bound=amp)
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, s, amp)
        assert [tuple(y.to_dense()) for y in result.minimizers] == dense
        assert result.residual == residual
        assert result.candidates == met
        if meas.noise_inf == HALF and 2 * amp < A.modulus:
            assert _syndrome_decode(A, meas.b, s, amp) == (result.minimizers, HALF)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_enumeration_matches_first_seen_scan(self, data):
        # family members and their column subsets, m/2 < s <= m/2 + 2, a
        # planted signal with at most s nonzeros, noise below 1/2, at +-1/2
        # on some rows or past 1/2: the decode equals the oracle's and the
        # search's, and when no row is past 1/2, 2 amp < p and the decodes
        # stay within the cap, the planted signal reaches a rounding of b,
        # so the enumeration answers
        A = data.draw(st.sampled_from(FAMILY))
        if data.draw(st.booleans()):
            A = select_columns(A, data.draw(st.lists(
                st.sampled_from(range(A.cols)), min_size=1, unique=True)))
        m, d = A.rows, A.cols
        assume(m // 2 < d)
        s = data.draw(st.integers(m // 2 + 1, min(m // 2 + 2, d)))
        amp = data.draw(st.integers(1, 3))
        assume(math.comb(d, s) * (2 * amp + 1) ** s <= 6000)  # oracle's time
        support = sorted(data.draw(st.lists(st.sampled_from(range(d)), max_size=s,
                                            unique=True)))
        values = [data.draw(st.integers(1, amp)) * data.draw(st.sampled_from((-1, 1)))
                  for _ in support]
        x = SparseSignal(d, support, values)
        kind = data.draw(st.sampled_from(("below", "tie", "past")))
        ties = (data.draw(st.lists(st.sampled_from(range(m)), min_size=1, unique=True))
                if kind == "tie" else [])
        rest = (st.fractions(-1, 1, max_denominator=12) if kind == "past" else
                st.fractions(-HALF, HALF, max_denominator=12).filter(lambda t: abs(t) < HALF))
        e = [data.draw(st.sampled_from((-HALF, HALF)) if i in ties else rest)
             for i in range(m)]
        meas = encode(A, x, e)
        result = decode(A, meas, s=s, amp_bound=amp)
        assert result == decode(without_modulus(A), meas, s=s, amp_bound=amp)
        assert not result.sparsity_in_guarantee
        dense, residual, met = decode_first_seen(A.to_rows(), meas.b, s, amp)
        assert [tuple(y.to_dense()) for y in result.minimizers] == dense
        assert result.residual == residual
        assert result.candidates == met
        roundings = 2 ** sum(t.denominator == 2 for t in meas.b)
        decodes = roundings * sum(math.comb(d, t) * (2 * amp) ** t
                                  for t in range(s - m // 2 + 1))
        if meas.noise_inf <= HALF and 2 * amp < A.modulus and decodes <= _MAX_DECODES:
            assert x in result.minimizers
            assert _syndrome_decode(A, meas.b, s, amp) == (result.minimizers, result.residual)


class TestSeparation:
    def test_m_sparse_images_have_unit_sup_norm(self):
        # nonzero z with at most m nonzeros, |z_i| <= 2B: ||Az||_inf >= 1
        A = construct(2, 3, 4)
        cols = [A.column(j) for j in range(4)]
        for z in itertools.product(range(-4, 5), repeat=4):
            nz = sum(1 for c in z if c)
            if nz == 0 or nz > 2:
                continue
            az0 = sum(cols[j][0] * z[j] for j in range(4))
            az1 = sum(cols[j][1] * z[j] for j in range(4))
            assert max(abs(az0), abs(az1)) >= 1

    def test_scaled_matrix_separation(self):
        A = construct(2, 3, 4)
        S = scale_matrix(A, 3)  # factor 6
        cols = [S.column(j) for j in range(4)]
        for z in itertools.product(range(-2, 3), repeat=4):
            nz = sum(1 for c in z if c)
            if nz == 0 or nz > 2:
                continue
            az = [sum(cols[j][i] * z[j] for j in range(4)) for i in range(2)]
            assert max(abs(v) for v in az) >= 6


class TestScaleMatrix:
    def test_half_is_identity(self, vand23):
        assert scale_matrix(vand23, F(1, 2)) == vand23

    def test_integer_scale(self):
        A = IntMatrix.from_rows([[1, -2], [0, 1]], entry_bound=2)
        S = scale_matrix(A, 3)
        assert S.to_rows() == [[6, -12], [0, 6]]
        assert S.entry_bound == 12
        assert S.modulus is None

    def test_non_integer_double_rejected(self, vand23):
        with pytest.raises(ValueError):
            scale_matrix(vand23, F(1, 3))

    def test_argmin_invariant_residual_scales(self, vand23):
        x = SparseSignal(5, (2,), (2,))
        e = (F(3, 10), F(-1, 5))
        meas = encode(vand23, x, e)
        S = scale_matrix(vand23, 2)  # factor 4
        scaled_b = tuple(4 * t for t in meas.b)
        base = decode(vand23, meas, s=1, amp_bound=3)
        scaled = decode(S, scaled_b, s=1, amp_bound=3)
        assert scaled.signal == base.signal
        assert scaled.residual == 4 * base.residual


class TestGuaranteeHolds:
    def test_inside(self):
        assert guarantee_holds(4, 2, (F(1, 4), 0, 0, 0))

    def test_sparsity_too_high(self):
        assert not guarantee_holds(4, 3, (0, 0, 0, 0))

    def test_boundary_excluded(self):
        assert not guarantee_holds(2, 1, (F(1, 2), 0))

    def test_decimal_string_noise(self):
        assert guarantee_holds(2, 1, ("0.49", "-0.49"))
        assert not guarantee_holds(2, 1, ("0.5", "0"))


class TestRandomRoundTrip:
    def test_seeded_recovery_sweep(self):
        # small version of the full acceptance sweep: random s-sparse x,
        # random in-guarantee rational noise, exact recovery
        A = construct(3, 4, 5)
        rng = random.Random(5)
        for _ in range(60):
            s = 1  # m = 3 allows s <= 1
            dense = [0] * 5
            support = rng.sample(range(5), s)
            for j in support:
                dense[j] = rng.choice([-2, -1, 1, 2])
            x = SparseSignal.from_dense(dense)
            e = tuple(F(rng.randint(-49, 49), 100) for _ in range(3))
            result = decode(A, encode(A, x, e), s=1, amp_bound=2)
            assert not result.ambiguous
            assert result.signal == x
