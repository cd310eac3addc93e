import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fullrank.construct import construct_vandermonde, max_width
from fullrank.cover import (
    CoverCheck,
    CoverInstance,
    columns_on_hyperplane,
    cover_lower_bound,
    min_cover_bruteforce,
    verify_cover,
)
from fullrank.errors import DEFAULT_BUDGET, BudgetExceededError
from fullrank.intmath import primitive_vector
from fullrank.linalg import IntMatrix
from oracles import cover_line_scan, cover_scan


def primitive_classes(m, k):
    """All primitive sign-normalized normals with ||n||_inf <= k."""
    out = set()
    for v in itertools.product(range(-k, k + 1), repeat=m):
        if any(v):
            out.add(primitive_vector(v))
    return sorted(out)


def subset_cover_oracle(m, k):
    """Minimum cover by subset enumeration in increasing size."""
    pts = [
        p for p in itertools.product(range(-k, k + 1), repeat=m)
        if any(p)
    ]
    cands = primitive_classes(m, k)
    cover = {
        n: frozenset(p for p in pts
                     if sum(a * b for a, b in zip(n, p)) == 0)
        for n in cands
    }
    universe = frozenset(pts)
    for size in range(1, len(cands) + 1):
        for subset in itertools.combinations(cands, size):
            got = frozenset()
            for n in subset:
                got |= cover[n]
            if got == universe:
                return size
    raise AssertionError("candidate set cannot cover the grid")


class TestCoverLowerBound:
    @pytest.mark.parametrize("m,k,expected", [(2, 4, 8), (2, 2, 2), (3, 3, 2)])
    def test_spot_values(self, m, k, expected):
        assert cover_lower_bound(m, k) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cover_lower_bound(2, 1)  # needs k >= m
        with pytest.raises(ValueError):
            cover_lower_bound(1, 5)

    def test_matches_scan_oracle(self):
        for m in (2, 3, 4):
            for k in range(m, 13):
                km = k ** m
                q = 1
                while ((2 * m - 2) * q) ** (m - 1) < km:
                    q += 1
                assert cover_lower_bound(m, k) == q

    def test_exact_at_integer_boundary(self):
        # k=4, m=2: 16/2 = 8 exactly; a float ceiling could give 9
        assert cover_lower_bound(2, 4) == 8

    @pytest.mark.parametrize("call,message", [
        (lambda: cover_lower_bound(2, 3.5), "cover m and k: 3.5 is not"),
        (lambda: cover_lower_bound(2.0, 4), "cover m and k: 2.0 is not"),
        (lambda: max_width(2, 3.5), "m and k: 3.5 is not"),  # was 6.0, a float floor
        (lambda: cover_lower_bound(2, True), "cover m and k: True is not"),
        (lambda: cover_lower_bound(2.0, 3), "cover m and k: 2.0 is not"),
    ], ids=["lower-k-float", "lower-m-float", "max-width-k-float", "lower-k-bool",
            "lower-m-float-k3"])
    def test_refuses_non_int_arguments(self, call, message):
        # each argument is named by the bound's own check, not by a helper
        # fed a value derived from it (k^m - 1 = 11.25 or 8.0)
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("call,message", [
    (lambda: CoverInstance(0, 1, ()), "need m >= 1"),
    (lambda: CoverInstance(2, -1, ()), "k >= 0"),
    (lambda: columns_on_hyperplane(construct_vandermonde(2, 3)[0], (1, 0, 0)),
     "normal length 3 != row count 2"),
    (lambda: min_cover_bruteforce(1, 1), "need m >= 2"),
], ids=["instance-m", "instance-k", "normal-length", "min-cover-m"])
def test_refuses_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestVerifyCover:
    def test_axes_and_diagonals_cover_radius_one(self):
        inst = CoverInstance(2, 1, ((1, 0), (0, 1), (1, -1), (1, 1)))
        check = verify_cover(inst)
        assert check.accepted
        assert check.points_checked == 9

    def test_axes_only_rejected_at_lex_first(self):
        inst = CoverInstance(2, 1, ((1, 0), (0, 1)))
        check = verify_cover(inst)
        assert not check.accepted
        assert check.uncovered == (-1, -1)

    def test_origin_only_grid(self):
        inst = CoverInstance(2, 0, ((1, 0),))
        assert verify_cover(inst).accepted

    def test_empty_normals_reject_immediately(self):
        inst = CoverInstance(2, 1, ())
        check = verify_cover(inst)
        assert not check.accepted
        assert check.uncovered == (-1, -1)

    def test_budget(self):
        inst = CoverInstance(2, 100, ((1, 0),))
        with pytest.raises(BudgetExceededError):
            verify_cover(inst, budget=100)

    @pytest.mark.parametrize("normals", [(), ((0, 0, 1),)], ids=["empty", "one"])
    def test_origin_grid_budget_counts_the_coordinates(self, normals):
        # the k = 0 grid is one point, but the scan builds m - 1 lists and
        # may return an m-entry point, so the budget counts m
        inst = CoverInstance(3, 0, normals)
        with pytest.raises(BudgetExceededError) as exc:
            verify_cover(inst, budget=2)
        assert (exc.value.required, exc.value.budget) == (3, 2)
        check = verify_cover(inst, budget=3)
        assert check == CoverCheck(bool(normals), None if normals else (0, 0, 0), 1)

    def test_origin_grid_of_many_coordinates_refused_before_the_scan(self):
        inst = CoverInstance(3 * 10 ** 7, 0, ())
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as exc:
                verify_cover(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.required == 3 * 10 ** 7
        assert str(exc.value) == ("grid enumeration needs 30000000 steps, exceeding the "
                                  "budget of 10000000; pass a larger budget to override")
        assert peak < 10 ** 5

    def test_grid_of_many_coordinates_refused_as_the_power(self):
        # k >= 1 and m past 4,300 and the budget's bit length: 3^m > 2^m >
        # budget, so (2k+1)^m is refused from m alone, as the power, unbuilt
        inst = CoverInstance(10 ** 8, 1, ())
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as exc:
                verify_cover(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.required == (3, 10 ** 8)
        assert str(exc.value) == ("grid enumeration needs 3^100000000 steps, exceeding the "
                                  "budget of 10000000; pass a larger budget to override")
        assert peak < 10 ** 5
        with pytest.raises(BudgetExceededError) as exc:
            verify_cover(CoverInstance(5000, 10 ** 5000, ()))
        assert exc.value.required == (2 * 10 ** 5000 + 1, 5000)
        assert "needs (at least 10^5000)^5000 steps" in str(exc.value)

    @pytest.mark.parametrize("budget,m,required", [
        (10 ** 7, 4300, 3 ** 4300), (10 ** 7, 4301, (3, 4301)),
        (2 ** 5000, 5001, 3 ** 5001), (2 ** 5000, 5002, (3, 5002)),
    ])
    def test_power_built_up_to_the_budgets_bit_length(self, budget, m, required):
        # an exponent up to the budget's bit length, or up to the 4,300
        # the int-to-str limit allows, builds the count, exact; past both,
        # 3^m > 2^m > budget is refused as the power
        with pytest.raises(BudgetExceededError) as exc:
            verify_cover(CoverInstance(m, 1, ()), budget=budget)
        assert (exc.value.required, exc.value.budget) == (required, budget)
        assert verify_cover(CoverInstance(5, 1, ()), budget=243).points_checked == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_point_scan_oracle(self, data):
        m = data.draw(st.integers(1, 4), label="m")
        k = data.draw(st.integers(0, 3), label="k")
        vector = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
        drawn = data.draw(st.lists(vector.filter(any), max_size=12))
        # repeats and sign flips name a hyperplane already listed
        again = data.draw(st.lists(
            st.tuples(st.sampled_from(drawn), st.sampled_from((1, -1))),
            max_size=12 - len(drawn)) if drawn else st.just([]))
        normals = drawn + [[sign * a for a in n] for n, sign in again]
        check = verify_cover(CoverInstance(m, k, tuple(map(tuple, normals))))
        assert (check.accepted, check.uncovered, check.points_checked) == \
            cover_scan(m, k, normals)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_huge_normals_match_both_scan_oracles(self, data):
        # entries up to 10^25, so M * s passes 2^64: a normal is a small
        # vector, one times a factor that large, so that it still holds grid
        # points, or one of large entries, and the largest |n_m| scales the
        # others' quotients; repeats and sign flips name a hyperplane
        # already listed
        m = data.draw(st.integers(1, 4), label="m")
        k = data.draw(st.integers(0, 3), label="k")
        big = st.integers(-10 ** 25, 10 ** 25)
        small = st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any)
        scaled = st.tuples(small, big.filter(bool)).map(lambda v: [v[1] * a for a in v[0]])
        raw = st.lists(big, min_size=m, max_size=m).filter(any)
        drawn = data.draw(st.lists(scaled | raw | small, max_size=10))
        again = data.draw(st.lists(
            st.tuples(st.sampled_from(drawn), st.sampled_from((1, -1))),
            max_size=12 - len(drawn)) if drawn else st.just([]))
        normals = drawn + [[sign * a for a in n] for n, sign in again]
        check = verify_cover(CoverInstance(m, k, tuple(map(tuple, normals))))
        got = (check.accepted, check.uncovered, check.points_checked)
        assert got == cover_line_scan(m, k, normals) == cover_scan(m, k, normals)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_many_normals_match_point_scan_oracle(self, data):
        # m = 2 with 60-200 normals of entries up to 40: in half the cases
        # they start from every direction of the grid, each times a factor
        # up to 5, less up to three, so that covers are accepted as well as
        # rejected
        k = data.draw(st.integers(0, 8), label="k")
        size = data.draw(st.integers(60, 200), label="size")
        normals = []
        if k and data.draw(st.booleans(), label="directions"):
            dirs = primitive_classes(2, k)
            drop = data.draw(st.sets(st.sampled_from(dirs), max_size=3), label="drop")
            factors = data.draw(st.lists(st.integers(-5, 5).filter(bool),
                                         min_size=len(dirs), max_size=len(dirs)))
            normals = [(g * a, g * b) for g, (a, b) in zip(factors, dirs) if (a, b) not in drop]
        vector = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any)
        more = max(0, size - len(normals))
        normals += data.draw(st.lists(vector, min_size=more, max_size=more), label="more")
        normals = data.draw(st.permutations(normals), label="order")
        check = verify_cover(CoverInstance(2, k, tuple(normals)))
        assert (check.accepted, check.uncovered, check.points_checked) == \
            cover_scan(2, k, normals)

    # the hypothesis property above rarely draws a cover that is accepted;
    # every primitive-direction cover is; without one normal it is rejected
    # at m = 2 and still accepted at m = 3, where each point has many planes.
    # g n names the hyperplane n does for any integer g != 0, so each cover
    # with every normal times its own random multiple gets the same check
    @pytest.mark.parametrize("m,k", [(2, k) for k in range(7)] + [(3, k) for k in range(3)])
    def test_direction_covers_match_point_scan_oracle(self, m, k):
        rng = random.Random(m * 100 + k)
        full = primitive_classes(m, k)
        for normals in [full] + [full[:i] + full[i + 1:] for i in range(len(full))]:
            check = verify_cover(CoverInstance(m, k, tuple(normals)))
            assert (check.accepted, check.uncovered, check.points_checked) == \
                cover_scan(m, k, normals)
            g = [rng.choice((-1, 1)) * rng.randint(1, 7) for _ in normals]
            scaled = tuple(tuple(g_n * a for a in n) for g_n, n in zip(g, normals))
            assert verify_cover(CoverInstance(m, k, scaled)) == check
        assert verify_cover(CoverInstance(m, k, tuple(full))).accepted == (k > 0)

    @pytest.mark.parametrize("m,k,normals,expected", [
        # m = 1: one line, held only at 0 by the one normal there is
        (1, 2, ((3,),), (False, (-2,), 1)),
        (1, 0, ((1,),), (True, None, 1)),
        # the grid's only line, which is also its last
        (2, 0, (), (False, (0, 0), 1)),
        # x lies on a hyperplane through the origin exactly when -x does, so
        # the first uncovered point is never past the middle line x_1 = 0:
        # here every other line is covered, and (0, -3) is the 22nd point
        (2, 3, tuple(n for n in primitive_classes(2, 3) if n != (1, 0)),
         (False, (0, -3), 22)),
        # on the line x_1 = -1, (3, 1) would hold x_2 = 3, outside [-1, 1]:
        # it holds nothing there, so the line is short of (-1, 0)
        (2, 1, ((1, 1), (1, -1), (3, 1)), (False, (-1, 0), 2)),
        # (1, 0) has n_2 = 0 and holds all of the line x_1 = 0
        (2, 1, ((1, 1), (1, -1), (0, 1), (1, 0)), (True, None, 9)),
        (2, 1, ((1, 1), (1, -1), (0, 1)), (False, (0, -1), 4)),
        # (1, -1, 0) holds the lines x_1 = x_2 and (1, 1, 0) those with
        # x_1 = -x_2; the line (-1, 0) is held only at x_3 = 0
        (3, 1, ((1, -1, 0), (1, 1, 0), (0, 0, 1)), (False, (-1, 0, -1), 4)),
        # flat normals only: (1, 0) holds the line x_1 = 0 and nothing of
        # the first; the four flat planes of m = 3 hold every line at k = 1
        (2, 2, ((1, 0),), (False, (-2, -2), 1)),
        (3, 1, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)), (True, None, 27)),
        # (0, 1, 0) fails on the line (-1, -1), which the steep normals
        # hold, holds the next, (-1, 0), and fails again on (-1, 1), where
        # the steep normals are summed afresh and miss x_3 = 0
        (3, 1, ((0, 1, 0), (1, -1, 1), (0, 1, 1), (0, 1, -1)), (False, (-1, 1, 0), 8)),
        (1, 2, (), (False, (-2,), 1)),
        # the steep directions (n_m != 0) hold every line but the middle one,
        # x_{<m} = 0, where each holds only the origin: a scan stopping
        # before the middle line would accept; with the flat directions
        # too, the scan passes the middle line and accepts
        (3, 1, tuple(n for n in primitive_classes(3, 1) if n[-1]), (False, (0, 0, -1), 13)),
        (4, 1, tuple(n for n in primitive_classes(4, 1) if n[-1]),
         (False, (0, 0, 0, -1), 40)),
        (4, 1, tuple(primitive_classes(4, 1)), (True, None, 81)),
        # on the line x_1 = -1, (1, 2) holds no point: floor(2 * -1 / -2) = 1
        # is not a multiple of M = 2, but floor(1 * -1 / -2) = 0 would hold
        # (-1, 0) at a scale of 1; with M = 10^20, s / -n_m = 10^-20 puts
        # floor(M * s / -n_m) at 1 and floor((M - 1) * s / -n_m) at 0
        (2, 1, ((1, 2), (1, 1), (1, -1)), (False, (-1, 0), 2)),
        (2, 1, ((1, 1), (1, 10 ** 20), (1, -1)), (False, (-1, 0), 2)),
    ], ids=["m1", "m1-origin", "one-line", "middle-line", "quotient-outside",
            "line-held", "line-not-held", "m3-lines-held", "flat-only-rejected",
            "flat-only-accepted", "flat-held-between", "m1-empty", "m3-middle-line",
            "m4-middle-line", "m4-accepted", "scale-2", "scale-1e20"])
    def test_pinned_lines(self, m, k, normals, expected):
        check = verify_cover(CoverInstance(m, k, normals))
        assert (check.accepted, check.uncovered, check.points_checked) == expected
        assert cover_scan(m, k, CoverInstance(m, k, normals).normals) == expected

    def test_normals_kept_as_given(self):
        inst = CoverInstance(2, 1, ((-2, 4), (0, -3)))
        assert inst.normals == ((-2, 4), (0, -3))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="^normal 0 is zero$"):
            CoverInstance(2, 1, ((0, 0),))
        with pytest.raises(ValueError, match="^normal 2 is zero$"):
            CoverInstance(3, 1, ((1, 0, 0), (0, 2, -1), (0, 0, 0)))


class TestColumnsOnHyperplane:
    def test_vandermonde_horizontal_normal(self):
        A, _ = construct_vandermonde(2, 3)
        count, cols = columns_on_hyperplane(A, (0, 1))
        assert (count, cols) == (1, (4,))  # only the column (1, 0)

    def test_no_orthogonal_columns(self):
        A, _ = construct_vandermonde(2, 3)
        count, cols = columns_on_hyperplane(A, (3, 1))
        assert (count, cols) == (0, ())

    def test_duplicated_column_exceeds_duality_bound(self):
        A = IntMatrix.from_rows([[1, 1], [0, 0]])
        count, _ = columns_on_hyperplane(A, (0, 1))
        assert count == 2  # > m - 1 = 1: certifies a degenerate pair

    def test_zero_normal(self):
        A, _ = construct_vandermonde(2, 3)
        with pytest.raises(ValueError):
            columns_on_hyperplane(A, (0, 0))

    def test_duality_for_construction(self):
        # no hyperplane catches m or more columns of a valid construction
        for m, k in [(2, 3), (2, 5), (3, 4)]:
            A, _ = construct_vandermonde(m, k)
            for n in primitive_classes(m, 2 * k + 1):
                count, _ = columns_on_hyperplane(A, n)
                assert count <= m - 1


class TestMinCover:
    def test_radius_one(self):
        size, witness = min_cover_bruteforce(2, 1)
        assert size == 4
        assert verify_cover(CoverInstance(2, 1, witness)).accepted

    def test_radius_zero(self):
        assert min_cover_bruteforce(2, 0)[0] == 1

    def test_radius_two_matches_direction_count(self):
        # in the plane each point determines its orthogonal line uniquely,
        # so the minimum is the number of distinct primitive directions
        size, witness = min_cover_bruteforce(2, 2)
        assert size == len(primitive_classes(2, 2)) == 8
        assert verify_cover(CoverInstance(2, 2, witness)).accepted

    def test_matches_subset_oracle(self):
        assert min_cover_bruteforce(2, 1)[0] == subset_cover_oracle(2, 1)
        assert min_cover_bruteforce(3, 1)[0] == subset_cover_oracle(3, 1) == 4

    def test_three_dims_witness_covers(self):
        size, witness = min_cover_bruteforce(3, 1)
        assert size == 4
        assert verify_cover(CoverInstance(3, 1, witness)).accepted

    @pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)])
    def test_no_smaller_cover(self, m, k):
        # minimality checked by the cover verifier, not by captured output:
        # no set of normals one smaller than the answer covers the grid
        size = min_cover_bruteforce(m, k)[0]
        for subset in itertools.combinations(primitive_classes(m, k), size - 1):
            assert not verify_cover(CoverInstance(m, k, subset)).accepted

    def test_budget_guard(self):
        # a fixed range, not a budget: a plain ValueError, no counts
        for m, k in ((2, 5), (3, 2), (4, 1)):
            with pytest.raises(ValueError) as exc:
                min_cover_bruteforce(m, k)
            assert not isinstance(exc.value, BudgetExceededError)

    def test_refusal_names_supported_range(self):
        with pytest.raises(ValueError) as exc:
            min_cover_bruteforce(4, 1)
        msg = str(exc.value)
        assert "m = 2 with k <= 4" in msg and "m = 3 with k <= 1" in msg
        assert "budget" not in msg

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_origin_grid_any_dimension(self, m):
        size, witness = min_cover_bruteforce(m, 0)
        assert size == 1
        assert verify_cover(CoverInstance(m, 0, witness)).accepted

    @pytest.mark.parametrize("m", [DEFAULT_BUDGET + 1, 10 ** 30])
    def test_origin_grid_witness_past_the_fixed_limit_refused(self, m):
        # the answer is 1 at every m, but its witness has m entries
        with pytest.raises(BudgetExceededError) as exc:
            min_cover_bruteforce(m, 0)
        assert str(exc.value) == (f"the k = 0 witness normal has {m} entries, above "
                                  f"the fixed limit of {DEFAULT_BUDGET}")

    def test_dominates_lower_bound_where_defined(self):
        for k in (2, 3, 4):
            assert min_cover_bruteforce(2, k)[0] >= cover_lower_bound(2, k)


class TestCountingConsequence:
    def test_cover_containing_all_columns_obeys_column_count(self):
        # an accepted cover whose lines contain every column of a valid
        # construction needs at least ceil(d / (m-1)) hyperplanes
        A, _ = construct_vandermonde(2, 3)  # entries within radius 2
        normals = primitive_classes(2, 2)
        inst = CoverInstance(2, 2, tuple(normals))
        assert verify_cover(inst).accepted
        for j in range(A.cols):
            col = A.column(j)
            assert any(sum(a * b for a, b in zip(n, col)) == 0
                       for n in inst.normals)
        assert len(inst.normals) >= math.ceil(A.cols / (A.rows - 1))
