import importlib
import itertools
from fractions import Fraction

import pytest

from fullrank.construct import (
    SCALED,
    VANDERMONDE,
    ConstructionParams,
    _multipliers,
    _window,
    construct,
    construct_scaled,
    construct_vandermonde,
    find_prime_in,
    max_width,
)
from fullrank.errors import DEFAULT_BUDGET, BudgetExceededError
from fullrank.intmath import iroot
from fullrank.linalg import select_columns
from oracles import (
    all_minors_nonzero,
    best_multiplier_exhaustive,
    power_residue_rows,
    scan_multiplier,
    trial_prime,
)

# the package rebinds its attribute ``construct`` to the function
construct_mod = importlib.import_module("fullrank.construct")


class TestFindPrimeIn:
    def test_small_odd_window(self):
        assert find_prime_in(4, 7) == 5
        assert find_prime_in(2, 3) == 2

    def test_composite_window(self):
        with pytest.raises(ValueError, match=r"no prime in \[24, 28\]"):
            find_prime_in(24, 28)

    def test_non_int_bounds_rejected(self):
        for lo, hi in [(Fraction(25, 2), 25), (12.5, 24.9), (12, 25.0),
                       (True, 3), (2, Fraction(3)), ("2", 3)]:
            with pytest.raises(ValueError):
                find_prime_in(lo, hi)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            find_prime_in(7, 4)


class TestScaledPrime:
    def test_matches_window_scan(self):
        # the smallest d with (2d)^(m-1) >= k^m, stepped while d^(m-1) < k^m
        for m in range(2, 6):
            for k in range(3, 40):
                km = k ** m
                d = 1
                while (2 * d) ** (m - 1) < km:
                    d += 1
                while not trial_prime(d):
                    d += 1
                    if d ** (m - 1) >= km:
                        d = None
                        break
                if d is None:
                    with pytest.raises(ValueError):
                        find_prime_in(*_window(m, k, SCALED))
                else:
                    assert find_prime_in(*_window(m, k, SCALED)) == d


class TestWindow:
    """_window is the one statement of each family's prime window."""

    def test_scaled_refused_exactly_below_power_residue_width(self, monkeypatch):
        # the refusal is the real-number test k^(m/(m-1))/2 <= k+1, in its
        # integer form, with one message; the prime step is stubbed, so
        # nothing is built. Below 2^(m-1) it is answered without k^m.
        class Built(Exception):
            pass

        def stub(*args):
            raise Built

        monkeypatch.setattr(construct_mod, "_family_prime", stub)
        for m in range(2, 40):
            for k in range(1, 3000):
                refused = k < 3 or k ** m <= (2 * (k + 1)) ** (m - 1)
                try:
                    construct_scaled(m, k)
                except Built:
                    assert not refused, (m, k)
                except ValueError as e:
                    assert refused, (m, k)
                    assert str(e) == ("scaled variant needs k^(m/(m-1))/2 > k+1; "
                                      f"not met for m={m}, k={k}")

    @staticmethod
    def params(variant, m, k, d, scalings=True):
        if scalings is True:
            scalings = (1,) * d if variant == SCALED else None
        return ConstructionParams(m=m, k=k, d=d, variant=variant,
                                  scalings=scalings)

    @pytest.mark.parametrize("variant,m,k", [
        (VANDERMONDE, 2, 6), (VANDERMONDE, 3, 10), (VANDERMONDE, 4, 30),
        (SCALED, 2, 8), (SCALED, 3, 20), (SCALED, 4, 30), (SCALED, 5, 40)])
    def test_params_accept_exactly_the_window(self, variant, m, k):
        lo, hi = _window(m, k, variant)
        if variant == SCALED:
            # k^(m/(m-1))/2 <= d < k^(m/(m-1)), checked at both ends
            km = k ** m
            assert (2 * lo) ** (m - 1) >= km > (2 * (lo - 1)) ** (m - 1)
            assert hi ** (m - 1) < km <= (hi + 1) ** (m - 1)
        else:
            assert (lo, hi) == (k + 1, 2 * k + 1)
        inside = [p for p in range(lo, hi + 1) if trial_prime(p)]
        below = max(p for p in range(3, lo) if trial_prime(p))
        above = min(p for p in range(hi + 1, 2 * hi + 2) if trial_prime(p))
        for d in (inside[0], inside[-1]):
            assert self.params(variant, m, k, d).d == d
        for d in (lo - 1, below, hi + 1, above):
            with pytest.raises(ValueError):
                self.params(variant, m, k, d)

    def test_params_reject_even_prime(self):
        # d = 2 lies in both windows here
        assert _window(2, 1, VANDERMONDE)[0] == _window(2, 2, SCALED)[0] == 2
        with pytest.raises(ValueError):
            self.params(VANDERMONDE, 2, 1, 2)
        with pytest.raises(ValueError):
            self.params(SCALED, 2, 2, 2)

    def test_params_need_one_multiplier_per_column(self):
        # m=2, k=8: the window is [32, 63]
        assert self.params(SCALED, 2, 8, 37).d == 37
        for scalings in (None, (1,) * 36, (1,) * 38):
            with pytest.raises(ValueError):
                self.params(SCALED, 2, 8, 37, scalings)


class TestSizeLimit:
    """A family whose narrowest member has more than DEFAULT_BUDGET entries
    is refused before the prime search; a scaled family whose multiplier
    search may take more than DEFAULT_BUDGET tries, before any column."""

    def test_refused_at_huge_k(self):
        for build in (lambda: construct_scaled(2, 100_000),
                      lambda: construct_vandermonde(2, 10 ** 12),
                      lambda: construct_scaled(2, 10 ** 12),
                      lambda: construct(2, 10 ** 12, 5)):
            with pytest.raises(BudgetExceededError) as exc:
                build()
            assert str(DEFAULT_BUDGET) in str(exc.value)

    def test_vandermonde_limit_is_m_times_k_plus_1(self, monkeypatch):
        monkeypatch.setattr(construct_mod, "DEFAULT_BUDGET", 10)
        assert construct_vandermonde(2, 4)[1].d == 5
        with pytest.raises(BudgetExceededError) as exc:
            construct_vandermonde(2, 5)
        assert exc.value.required == 12
        assert "2 x 6 = 12 entries" in str(exc.value)

    def test_scaled_limit_is_m_times_window_start(self, monkeypatch):
        # m=2, k=8: the window is [32, 63], d = 37 and the multiplier
        # search's box holds at most 37 x (37 // isqrt(37)) = 222 pairs
        monkeypatch.setattr(construct_mod, "DEFAULT_BUDGET", 222)
        assert construct_scaled(2, 8)[1].d == 37
        monkeypatch.setattr(construct_mod, "DEFAULT_BUDGET", 221)
        with pytest.raises(BudgetExceededError) as exc:
            construct_scaled(2, 8)
        assert exc.value.required == 222
        assert "37 x 6 = 222 tries" in str(exc.value)
        monkeypatch.setattr(construct_mod, "DEFAULT_BUDGET", 63)
        with pytest.raises(BudgetExceededError) as exc:
            construct_scaled(2, 8)
        assert exc.value.required == 64

    def test_multiplier_tries_limit(self, monkeypatch):
        # d * (d // isqrt(d)): 9.94M tries at k = 304, 10.5M at k = 310;
        # the refusal comes before any column is searched
        searched = []
        monkeypatch.setattr(construct_mod, "_multipliers",
                            lambda *args: searched.append(args))
        for k in (310, 600):
            with pytest.raises(BudgetExceededError) as exc:
                construct_scaled(2, k)
            assert exc.value.required > DEFAULT_BUDGET
            assert "tries" in str(exc.value)
            assert str(DEFAULT_BUDGET) in str(exc.value)
        assert searched == []
        lo, hi = _window(2, 304, SCALED)
        d = find_prime_in(lo, hi)
        assert d * (d // iroot(d, 2)) <= DEFAULT_BUDGET


class TestVandermonde:
    def test_m2_k3(self):
        A, params = construct_vandermonde(2, 3)
        assert params.d == 5
        assert A.to_rows() == [[1, 1, 1, 1, 1], [1, 2, -2, -1, 0]]
        assert A.modulus == 5 and A.entry_bound == 3

    def test_m3_k3_third_row(self):
        A, params = construct_vandermonde(3, 3)
        assert params.d == 5
        assert list(A.row(2)) == [1, -1, -1, 1, 0]

    def test_k_below_m_rejected(self):
        with pytest.raises(ValueError):
            construct_vandermonde(2, 1)

    def test_rows_match_raw_power_arithmetic(self):
        for m, k in [(2, 3), (3, 5), (4, 7), (5, 12)]:
            A, params = construct_vandermonde(m, k)
            assert A.to_rows() == power_residue_rows(m, params.d)

    def test_nodes_cover_all_residues(self):
        _, params = construct_vandermonde(3, 6)
        d = params.d
        assert len({j % d for j in range(1, d + 1)}) == d


class TestDirichletScale:
    """The one pass over the (l, a) box against the per-column scan and
    the exhaustive Fraction search."""

    @pytest.mark.parametrize(
        "j,d,m,exp_l,exp_q",
        [
            (1, 7, 2, 1, Fraction(1, 7)),
            (3, 7, 2, 2, Fraction(2, 7)),
            (5, 13, 2, 2, Fraction(3, 13)),
        ],
    )
    def test_spot_values(self, j, d, m, exp_l, exp_q):
        assert _multipliers(d, m)[j - 1] == (exp_l, d * exp_q)

    def test_matches_fraction_oracle(self):
        # every column, j = d included; d = 3 is the edge prime of the
        # box's range l <= d//2
        for d in (3, 7, 13, 19, 53, 101):
            for m in (2, 3, 4):
                got = _multipliers(d, m)
                for j in range(1, d + 1):
                    l, q, _ = best_multiplier_exhaustive(j, d, m)
                    assert got[j - 1] == (l, d * q)

    def test_dirichlet_bounds_the_scan(self):
        # the pass equals the per-column scan, and d * quality <= Q =
        # d // floor(d^(1/m)): the bound that puts every optimum in the box
        for d in filter(trial_prime, range(3, 300)):
            for m in range(2, 6):
                got = _multipliers(d, m)
                assert got == [scan_multiplier(j, d, m) for j in range(1, d + 1)]
                assert max(q for _, q in got) <= d // iroot(d, m)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_families_match_scan(self, m):
        # every scaled family whose window starts below 200, one per prime
        seen = set()
        for k in itertools.count(2):
            lo, hi = _window(m, k, SCALED)
            if lo >= 200:
                break
            if lo <= k + 1 or find_prime_in(lo, hi) in seen:
                continue
            A, params = construct_scaled(m, k)
            d = params.d
            seen.add(d)
            assert params.scale_reports == tuple(_multipliers(d, m)), (m, k)
            # column d - j is (-1)^i times column j in row i: same l, same q
            assert all(params.scale_reports[j - 1] == params.scale_reports[d - j - 1]
                       for j in range(1, d)), (m, k)
            for j in range(d):
                got = (params.scalings[j], max(map(abs, A.column(j))))
                assert got == scan_multiplier(j + 1, d, m) == \
                    params.scale_reports[j], (m, k, j)
        assert seen

    @pytest.mark.parametrize("m,k,d", [(2, 36, 653), (3, 103, 523)])
    def test_largest_bench_shapes_match_scan(self, m, k, d):
        # the widest families the build workload constructs
        assert find_prime_in(*_window(m, k, SCALED)) == d
        assert _multipliers(d, m) == [scan_multiplier(j, d, m) for j in range(1, d + 1)]

    @pytest.mark.parametrize("m,k,d", [(4, 11, 13), (5, 20, 23), (6, 37, 41)])
    def test_box_of_whole_range(self, m, k, d):
        # floor(d^(1/m)) = 1, so Q = d and only |a| <= (d-1)/2 and
        # l <= d//2 bound the box
        A, params = construct_scaled(m, k)
        assert params.d == d and iroot(d, m) == 1
        for j, l in enumerate(params.scalings):
            q = max(map(abs, A.column(j)))  # d * quality
            assert (l, Fraction(q, d), q ** m <= d ** (m - 1)) == \
                best_multiplier_exhaustive(j + 1, d, m)


class TestConstructScaled:
    def test_m2_k5(self):
        A, params = construct_scaled(2, 5)
        assert params.d == 13
        assert params.scalings[4] == 2
        assert A.column(4) == (2, -3)

    def test_m2_k4_entries_within_root_d(self):
        A, params = construct_scaled(2, 4)
        assert params.d == 11
        assert A.max_abs_entry() <= 3  # floor(sqrt(11))

    def test_m2_k2_out_of_range(self):
        with pytest.raises(ValueError):
            construct_scaled(2, 2)

    def test_minors_nonzero_mod_d(self):
        for k in (5, 6):
            A, params = construct_scaled(2, k)
            assert all_minors_nonzero(A.to_rows(), modulus=params.d) == []

    def test_multipliers_are_units(self):
        _, params = construct_scaled(2, 7)
        assert all(1 <= l <= params.d - 1 for l in params.scalings)

    def test_threshold_implies_entry_bound(self):
        # |a| <= d^(1-1/m) whenever the threshold flag is set, exactly
        for k in (5, 8, 12):
            A, params = construct_scaled(2, k)
            d, m = params.d, 2
            for j, (_, q) in enumerate(params.scale_reports):
                if q ** m <= d ** (m - 1):
                    for a in A.column(j):
                        assert abs(a) ** m <= d ** (m - 1)


class TestConstruct:
    def test_truncation_of_vandermonde(self):
        A23, _ = construct_vandermonde(2, 3)
        assert construct(2, 3, 4) == select_columns(A23, range(4))

    def test_wide_scaled_request(self):
        A = construct(2, 5, 12)
        assert (A.rows, A.cols) == (2, 12)
        assert A.max_abs_entry() <= 5
        assert all_minors_nonzero(A.to_rows()) == []

    def test_out_of_range_rejected(self):
        # max(k+1, k^(m/(m-1))/2) = max(3, ~1.41) = 3 < 10
        with pytest.raises(ValueError):
            construct(3, 2, 10)

    def test_d_not_above_m_rejected(self):
        with pytest.raises(ValueError):
            construct(3, 5, 3)

    def test_width_only_past_k_plus_1(self, monkeypatch):
        # d <= k+1 is inside max_width >= k+1, so its k^m (4.3 million
        # digits at m = 1000, k = 10^4299) is never built: the power-residue
        # family refuses the request by its fixed size limit
        widths = []
        monkeypatch.setattr(construct_mod, "max_width",
                            lambda m, k: widths.append((m, k)) or k + 1)
        with pytest.raises(BudgetExceededError, match=str(DEFAULT_BUDGET)):
            construct(1000, 10 ** 4299, 1001)
        assert widths == []
        with pytest.raises(ValueError, match="exceeds the guaranteed width"):
            construct(2, 5, 7)
        assert widths == [(2, 5)]
        # m and k are refused before d, and d <= m before the width
        with pytest.raises(ValueError, match="need m >= 2 and k >= 1"):
            construct(1, 5, 1)
        with pytest.raises(ValueError, match="need d > m"):
            construct(3, 10 ** 4299, 3)
        assert widths == [(2, 5)]

    def test_prefers_power_residues_when_both_cover(self):
        # for k=5, d=6 is coverable by both families; entries must obey
        # the tighter (d-1)/2 bound of the power-residue family
        A = construct(2, 5, 6)
        assert A.modulus == 7

    def test_max_width_exact_at_perfect_squares(self):
        # k=4, m=2: k^2/2 = 8 exactly
        assert max_width(2, 4) == 8
        assert max_width(2, 5) == 12  # floor(25/2)
        assert max_width(3, 2) == 3   # max(k+1, floor(sqrt(8))/2 = 1)

    def test_max_width_equals_the_root_formula(self):
        # below 2^(m-1) max_width returns k + 1 without building k^m; on the
        # whole grid it is max(k + 1, floor(k^(m/(m-1))) // 2)
        assert all(max_width(m, k) == max(k + 1, iroot(k ** m, m - 1) // 2)
                   for m in range(2, 40) for k in range(1, 3000))

    @pytest.mark.parametrize("m,k", [(1, 3), (2, 0)])
    def test_max_width_refuses_out_of_range(self, m, k):
        with pytest.raises(ValueError, match="need m >= 2 and k >= 1"):
            max_width(m, k)


class TestConstructionInvariants:
    CASES = [(2, 2), (2, 5), (3, 4), (4, 6), (2, 12), (4, 12)]

    def test_entry_bound_every_entry(self):
        for m, k in self.CASES:
            A, _ = construct_vandermonde(m, k)
            assert all(abs(e) <= k for e in A.entries)
        for m, k in [(2, 5), (2, 9), (3, 7)]:
            A, _ = construct_scaled(m, k)
            assert all(abs(e) <= k for e in A.entries)

    def test_exhaustive_nondegeneracy_small(self):
        # every m x m column selection nonzero mod d, for d <= 20, m <= 4
        for m, k in [(2, 3), (2, 8), (3, 5), (4, 8), (3, 9)]:
            A, params = construct_vandermonde(m, k)
            if params.d > 20:
                continue
            assert all_minors_nonzero(A.to_rows(), modulus=params.d) == []

    def test_column_subset_closure(self):
        A, params = construct_vandermonde(3, 5)
        for combo in itertools.combinations(range(A.cols), 5):
            sub = select_columns(A, combo)
            assert all_minors_nonzero(sub.to_rows(), modulus=params.d) == []

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ConstructionParams(m=2, k=3, d=4, variant="vandermonde")
        with pytest.raises(ValueError):
            ConstructionParams(m=2, k=3, d=11, variant="vandermonde")
        with pytest.raises(ValueError):
            ConstructionParams(m=2, k=5, d=13, variant="scaled",
                               scalings=(0,) * 13)
        with pytest.raises(ValueError):
            ConstructionParams(m=2, k=3, d=5, variant="nope")
