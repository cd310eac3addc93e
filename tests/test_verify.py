import math
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fullrank.attack import AttackConfig, find_collision
from fullrank.construct import construct_scaled, construct_vandermonde
from fullrank.errors import BudgetExceededError
from fullrank.linalg import (
    IntMatrix,
    centered_residue,
    combination_vector,
    det_exact,
    field_bytes,
    packed_rows,
    select_columns,
)
from fullrank.verify import (
    CertificateCheck,
    DegeneracyCertificate,
    VerificationReport,
    geometric_structure,
    verify_certificate,
    verify_exhaustive,
    verify_sampled,
)
from fullrank import verify as verify_mod
from fullrank.verify import (
    COLEX_BYTES,
    _colex_pass,
    _kernel,
    _laplace_plans,
    _level_bytes,
    _minor_bound,
    _sweep,
)
from oracles import (
    all_minors_nonzero,
    geometric_structure_per_column,
    perm_det,
    prefix_sweep,
)


@pytest.fixture
def vand23():
    return construct_vandermonde(2, 3)[0]


def random_rows(rng, m, d):
    return [[rng.randint(-2, 2) for _ in range(d)] for _ in range(m)]


# m = 1 and, with entries this small, zero columns and rank-deficient
# prefixes (zero hyperplane normals) all occur
SMALL_SHAPES = [(m, d) for m in range(1, 5) for d in range(m, m + 5)]


class TestVerifyExhaustive:
    def test_valid_construction(self, vand23):
        report = verify_exhaustive(vand23)
        assert report.total_checked == 10
        assert report.failures == []
        assert report.ok

    def test_duplicate_columns_found(self):
        A = IntMatrix.from_rows([[1, 1, 1], [1, 1, 2]])
        report = verify_exhaustive(A)
        assert report.failures == [(0, 1)]
        assert not report.ok

    def test_identity(self):
        report = verify_exhaustive(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert (report.total_checked, report.failures) == (1, [])

    def test_budget_refusal_states_requirement(self, vand23):
        with pytest.raises(BudgetExceededError) as exc:
            verify_exhaustive(vand23, budget=5)
        assert exc.value.required == 10
        assert exc.value.budget == 5

    def test_wide_matrix_required(self):
        # both checks share one shape check, made before either reads an entry
        for rows, message in [([[1], [1]], "fewer columns (1) than rows (2)"),
                              ([[1, 2], [3, 4], [5, 6]], "fewer columns (2) than rows (3)")]:
            thin = IntMatrix.from_rows(rows)
            for check in verify_exhaustive, lambda A: verify_sampled(A, trials=5, seed=0):
                with pytest.raises(ValueError) as exc:
                    check(thin)
                assert str(exc.value) == "matrix has " + message

    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(21)
        for _ in range(50):
            rows = random_rows(rng, 2, 6)
            report = verify_exhaustive(IntMatrix.from_rows(rows))
            assert report.failures == all_minors_nonzero(rows)

    @pytest.mark.parametrize("m,d", SMALL_SHAPES)
    def test_matches_oracle_small_shapes(self, m, d):
        rng = random.Random(f"{m}x{d}")
        for _ in range(12):
            rows = random_rows(rng, m, d)
            report = verify_exhaustive(IntMatrix.from_rows(rows))
            assert report.total_checked == math.comb(d, m)
            assert report.failures == all_minors_nonzero(rows)

    def test_rank_deficient_prefix_fails_every_completion(self):
        rows = [[1, 2, 0, 1, 3], [2, 4, 1, 0, 1], [0, 0, 1, 1, 2]]
        report = verify_exhaustive(IntMatrix.from_rows(rows))
        assert report.failures[:3] == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        assert report.failures == all_minors_nonzero(rows)

    def test_mod_and_exact_agree_on_annotated(self):
        # duplicate a column: a genuine exact degeneracy, which vanishes
        # mod d as well
        A, params = construct_vandermonde(2, 3)
        rows = A.to_rows()
        for r in rows:
            r.append(r[0])
        dup = IntMatrix.from_rows(rows, modulus=params.d, entry_bound=params.k)
        got = verify_exhaustive(dup).failures
        assert got == all_minors_nonzero(rows) != []
        assert got == all_minors_nonzero(rows, modulus=params.d)

    def test_mod_zero_but_exact_nonzero_not_reported(self):
        # det = 5 vanishes mod 5 but the minor is nonsingular, so it is
        # not listed
        A = IntMatrix.from_rows([[2, 1], [-1, 2]], modulus=5)
        assert all_minors_nonzero(A.to_rows(), modulus=5) == [(0, 1)]
        assert verify_exhaustive(A).failures == []

    def test_exhaustive_agreement_small_annotated(self):
        for m, k in [(2, 3), (2, 6), (3, 4), (3, 6)]:
            A, params = construct_vandermonde(m, k)
            if params.d > 13:
                continue
            rows = A.to_rows()
            got = verify_exhaustive(A).failures
            assert got == all_minors_nonzero(rows)
            assert got == all_minors_nonzero(rows, modulus=params.d)


def sylvester(m):
    """The m x m Sylvester Hadamard matrix, m a power of two: entries +-1,
    |det| = m^(m/2), Hadamard's bound (k sqrt(m))^m at k = 1."""
    H = [[1]]
    while len(H) < m:
        H = [r + r for r in H] + [r + [-x for x in r] for r in H]
    return H


class TestPackedSweep:
    """The sweep tests a prefix's completions in one packed integer; its
    failures, and those of verify_exhaustive's choice of kernel, must be
    the reference walk's, one dot product per completion, order
    included."""

    @staticmethod
    def check(rows):
        A = IntMatrix.from_rows(rows)
        report = verify_exhaustive(A)
        assert report.total_checked == math.comb(len(rows[0]), len(rows))
        assert report.failures == prefix_sweep(rows)
        if A.rows > 1:
            # verify_exhaustive sends most shapes with m >= 3 to the colex
            # pass, so the sweep is called on its own as well
            assert _sweep(A, _minor_bound(A)) == report.failures
        return report.failures

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_walk(self, data):
        m = data.draw(st.integers(1, 5))
        d = data.draw(st.integers(m, m + 12))
        rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                                  min_size=m, max_size=m))
        self.check(rows)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_entries_past_eight_bytes(self, data):
        # |entries| near 10^30 need fields of more than 64 bits; offsets
        # this small make equal, opposite and zero columns common
        m = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(m, m + 6))
        entry = st.builds(lambda base, off: base + off,
                          st.sampled_from([-10 ** 30, 0, 10 ** 30]), st.integers(-2, 2))
        rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                  min_size=m, max_size=m))
        self.check(rows)

    @pytest.mark.parametrize("rows,expected", [
        ([[0]], [(0,)]),
        ([[5]], []),
        ([[3, 0, -1, 0, 7]], [(1,), (3,)]),
        ([[10 ** 30, -(10 ** 30), 0]], [(2,)]),
        # 16-bit fields a8 00 | 80 80 | 00 80: the zero field's bytes 00 80
        # first match across the boundary of fields 0 and 1, which is no hit
        ([[-32600, 128, 0]], [(2,)]),
        ([[1, 2], [2, 4]], [(0, 1)]),
        ([[1, 2, 3], [0, 1, 4], [5, 6, 0]], []),
        ([[0] * 3], [(0,), (1,), (2,)]),
        ([[0] * 4] * 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ([[0] * 4] * 4, [(0, 1, 2, 3)]),
        ([[0] * 6] * 3, list(combinations(range(6), 3))),
        ([[0] * 7] * 5, list(combinations(range(7), 5))),
        # m = 2: the root is the packed level, its children the columns
        # 0..d-2 with normals (-A[1][j], A[0][j])
        ([[1, 2, 3, 2, 0, -1], [1, 4, 6, 4, 0, -1]],
         [(0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)]),
    ], ids=["1x1-zero", "1x1", "1x5", "1x3-large", "1x3-straddle", "2x2-singular",
            "3x3", "zero-1x3", "zero-2x4", "zero-4x4", "zero-3x6", "zero-5x7", "2x6"])
    def test_one_row_square_and_zero(self, rows, expected):
        assert self.check(rows) == expected == all_minors_nonzero(rows)

    def test_width_is_strict_at_a_byte_boundary(self):
        # k = 8, m = 2: the minors reach +-128 = (8 sqrt 2)^2, Hadamard's
        # bound, and 128^2 = 2^(2(8-1)), so 8-bit fields would hold 128 and
        # -128 with nothing to spare; the strict test takes 16
        rows = [[8, -8, 8, 8, -8], [8, 8, -8, 8, 8]]
        minors = [perm_det([[r[a], r[b]] for r in rows])
                  for a in range(5) for b in range(a + 1, 5)]
        assert max(minors) == 128 and min(minors) == -128
        assert self.check(rows) == [(0, 3), (1, 2), (1, 4), (2, 4)]
        assert all_minors_nonzero(rows) == [(0, 3), (1, 2), (1, 4), (2, 4)]

    @pytest.mark.parametrize("m,copied", [(4, 0), (4, 3), (8, 5)])
    def test_sylvester_hadamard_with_a_repeated_column(self, m, copied):
        # every minor is +-m^(m/2), the bound, or 0: an m-subset fails
        # exactly when it holds both copies of the repeated column
        rows = [r + [r[copied]] for r in sylvester(m)]
        assert abs(det_exact(sylvester(m))) == m ** (m // 2)
        expected = [c for c in combinations(range(m + 1), m) if {copied, m} <= set(c)]
        assert self.check(rows) == expected
        assert len(expected) == m - 1


def with_copies(rng, rows):
    """rows with a column copied, a zero column and a column of opposite
    signs appended, so that every packed level has failures to list."""
    d = len(rows[0])
    a, b = sorted(rng.sample(range(d), 2))
    return [r[:b] + [r[a]] + r[b + 1:] + [0, -r[a]] for r in rows]


def sweep_bytes(k, m):
    """Field width in bytes of the sweep on m rows with largest |entry| k:
    packed_rows under Hadamard's bound on an m x m minor."""
    return packed_rows(IntMatrix(1, 1, (k,)), math.isqrt((k * k * m) ** m))[0]


class TestPackedLevel:
    """Each (m-2)-prefix holds m packed sums R_r, one per row of its
    completing column, in the order and with the signs of the
    completion's Laplace terms, and tests each completion by column c
    with sum_r A[r][c] R_r. Compared with the reference walk, order
    included, at every field width from 1 to 9 bytes: the width is the
    smallest whole number of bytes that Hadamard's bound allows, never
    rounded up."""

    @pytest.mark.parametrize("k,raw", [
        (1, 1), (127, 2), (128, 3), (32767, 4), (32768, 5),
        (2 ** 23 - 1, 6), (2 ** 27 - 1, 7), (2 ** 31 - 1, 8), (2 ** 31, 9),
    ])
    def test_every_field_width(self, k, raw):
        # at m = 2 the bound needs raw bytes: 2(8 raw - 1) >= (2k^2)^2's bits
        bits = ((2 * k * k) ** 2).bit_length()
        assert 2 * (8 * raw - 1) >= bits > 2 * (8 * raw - 9)
        assert sweep_bytes(k, 2) == raw
        rng = random.Random(k)
        for m in (2, 3, 4):
            rows = [[rng.choice([-k, k, rng.randint(-k, k), rng.randint(-2, 2)])
                     for _ in range(m + 5)] for _ in range(m)]
            rows[0][0] = k
            failures = TestPackedSweep.check(with_copies(rng, rows))
            assert failures

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_odd_widths_match_reference_walk(self, data):
        # these k give fields of 2 to 21 bytes for m = 2..5, among them 3,
        # 5, 6 and 7, which are not native int sizes
        m = data.draw(st.integers(2, 5))
        k = data.draw(st.sampled_from([127, 128, 2047, 2048, 32767, 32768,
                                       2 ** 23 - 1, 2 ** 23, 2 ** 31]))
        d = data.draw(st.integers(m, m + 6))
        entry = st.one_of(st.sampled_from([-k, k]), st.integers(-k, k), st.integers(-2, 2))
        rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                  min_size=m, max_size=m))
        rows[0][0] = k
        TestPackedSweep.check(with_copies(data.draw(st.randoms(use_true_random=False)), rows))

    def test_zero_bytes_straddling_a_field_boundary(self):
        # 32-bit fields (k = 32767, m = 2). Child (0,): the field of column 1
        # is 2^31 - (32767^2 + 32766^2) = 0x0002fffb, bytes fb ff 02 00, and
        # that of column 2 is 2^31 + 2^23, bytes 00 00 80 80; the zero
        # field's bytes 00 00 00 80 first match across their boundary,
        # which is no hit. Column 3 copies column 0 and does fail.
        rows = [[32767, 32766, 256, 32767], [32766, -32767, 512, 32766]]
        assert sweep_bytes(32767, 2) == 4
        assert perm_det([[32767, 32766], [32766, -32767]]) == 0x0002fffb - 2 ** 31
        assert perm_det([[32767, 256], [32766, 512]]) == 2 ** 23
        assert TestPackedSweep.check(rows) == [(0, 3)]
        # 24-bit fields (k = 2047, m = 2). Child (0,): column 1's field is
        # 2^23 - 2047 * 4093 = 0x0027fd, bytes fd 27 00, and column 2's is
        # 2^23 + 2^15, bytes 00 80 80; the zero field's bytes 00 00 80
        # first match at byte 5, across the boundary of columns 1 and 2,
        # which is no hit
        rows = [[2046, 2047, -32, 2046], [2047, -2047, -16, 2047]]
        assert sweep_bytes(2047, 2) == 3
        assert perm_det([[2046, 2047], [2047, -2047]]) == 0x0027fd - 2 ** 23
        assert perm_det([[2046, -32], [2047, -16]]) == 2 ** 15
        assert TestPackedSweep.check(rows) == [(0, 3)]


def fold_k(m, raw):
    """The largest k at which the sweep on m rows packs fields of raw
    bytes, or None when no k >= 1 does."""
    if sweep_bytes(1, m) > raw:
        return None
    lo, hi = 1, 2
    while sweep_bytes(hi, m) <= raw:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sweep_bytes(mid, m) <= raw else (lo, mid)
    return lo if sweep_bytes(lo, m) == raw else None


FOLD_WIDTHS = list(range(1, 10)) + [42]


class TestFoldedLevel:
    """One Laplace plan serves every level. Above depth max(m-3, 0) the
    walk carries scalar minors; there the packed rows enter as the next
    column, each child by column b takes the next step with col_b and
    moves its m sums to column b + 1 through the bias, and the
    completion's term list sets their order and signs, so the completion
    by column c searches H + sum_r A[r][c] R_r. At m = 2 the root is that
    depth and its completions read the sums of the packed step. Compared
    with the reference walk, order included, from m = 2 to 7 and at field
    widths of 1 to 9 bytes and of 42."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_plans_expand_every_level(self, m):
        # random columns, and at depth max(m-3, 0) a stand-in for the
        # packed rows: rows of three 64-bit fields, as packed_rows lays
        # them out. Level by level the plans give perm_det on every row
        # subset, a term list's rows naming its subset; from the stand-in
        # on, field j is perm_det with the stand-in's column j there
        plans = _laplace_plans(m)
        top, w = max(m - 3, 0), 64
        half = sum(1 << (w - 1) << w * j for j in range(3))
        rng = random.Random(m)
        for _ in range(10 if m < 7 else 2):  # perm_det takes 8! steps at m = 8
            cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]
            stand_in = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(m)]
            packed = [sum(x << w * j for j, x in enumerate(row)) for row in stand_in]
            minors = [1]
            for t, level in enumerate(plans):
                col = packed if t == top else cols[t]
                minors = [sum(sign * col[r] * minors[k] for sign, r, k in terms)
                          for terms in level]
                subsets = [tuple(r for _, r, _ in terms) for terms in level]
                assert sorted(subsets) == list(combinations(range(m), t + 1))
                for sub, got in zip(subsets, minors):
                    for j in range(3 if t >= top else 1):
                        entry = [[stand_in[r][j] if c == top else cols[c][r]
                                  for c in range(t + 1)] for r in sub]
                        field = ((got + half) >> w * j) % (1 << w) - (1 << (w - 1))
                        assert (field if t >= top else got) == perm_det(entry)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_plans_hold_the_terms_the_refusal_counts(self, m):
        # sum_j j C(m, j) = m 2^(m-1): the refusal counts exactly the terms
        # the plans hold
        levels = _laplace_plans(m)
        assert sum(len(terms) for level in levels for terms in level) == m << (m - 1)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_refusal_at_the_plans_size(self, m):
        # m + 1 columns, the last repeating column 0: a budget of
        # m 2^(m-1) sweeps, and one less refuses
        rng = random.Random(m)
        rows = [r + [r[0]] for r in random_rows(rng, m, m)]
        A, terms = IntMatrix.from_rows(rows), m << (m - 1)
        assert verify_exhaustive(A, budget=terms).failures == prefix_sweep(rows)
        with pytest.raises(BudgetExceededError) as exc:
            verify_exhaustive(A, budget=terms - 1)
        assert (exc.value.required, exc.value.budget) == (terms, terms - 1)

    @pytest.mark.parametrize("raw", FOLD_WIDTHS)
    def test_every_field_width_and_depth(self, raw):
        # entries mostly +-k, the largest k at this width, with a copied,
        # a zero and a negated column, so every level lists failures
        for m in range(2, 8):
            k = fold_k(m, raw)
            if k is None:
                continue
            assert sweep_bytes(k, m) == raw < sweep_bytes(k + 1, m)
            rng = random.Random(f"{m}:{raw}")
            rows = [[rng.choice([-k, k, -k, k, rng.randint(-k, k), rng.randint(-2, 2)])
                     for _ in range(m + (4 if m < 6 else 2))] for _ in range(m)]
            assert TestPackedSweep.check(with_copies(rng, rows))

    @pytest.mark.parametrize("k", [1, 3, 2 ** 15 - 1, 10 ** 25])
    def test_fields_at_hadamards_bound_of_both_signs(self, k):
        # k times the 4 x 4 Sylvester matrix, every column followed by its
        # negative, and column 1 repeated: each nonzero minor is
        # +-16 k^4, the bound the fields are sized by, and its sign flips
        # with every negated column taken, so the shifted sums R_r and the
        # grandchildren's fields meet both -bound and +bound
        H = [[k * x for x in r] for r in sylvester(4)]
        rows = [[v for x in r for v in (x, -x)] + [r[1]] for r in H]
        bound = math.isqrt((k * k * 4) ** 4)
        assert bound == 16 * k ** 4 == abs(det_exact([r[0:8:2] for r in rows]))
        failures = TestPackedSweep.check(rows)
        assert failures == all_minors_nonzero(rows)
        # a minor is nonzero exactly when it takes one of each column's pair
        # (col, -col), the repeat counting as column 1's
        for cols in combinations(range(9), 4):
            picked = [1 if c == 8 else c // 2 for c in cols]
            assert (cols in failures) == (len(set(picked)) < 4)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_walk(self, data):
        m = data.draw(st.integers(2, 7))
        k = data.draw(st.sampled_from([k for k in (fold_k(m, raw) for raw in FOLD_WIDTHS)
                                       if k is not None]))
        d = m + data.draw(st.integers(0, 5 if m < 6 else 2))
        entry = st.one_of(st.sampled_from([-k, k]), st.integers(-k, k), st.integers(-2, 2))
        rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                  min_size=m, max_size=m))
        TestPackedSweep.check(with_copies(data.draw(st.randoms(use_true_random=False)), rows))


def copied_pair(d):
    """2 x d: columns (1, j - d/2), pairwise independent, with column 17
    copied into column d - 1, so the one failing minor is (17, d - 1)."""
    rows = [[1] * d, [j - d // 2 for j in range(d)]]
    rows[1][d - 1] = rows[1][17]
    return rows, [(17, d - 1)]


def one_row(d):
    """1 x d with one entry in a thousand zero, and those its failures."""
    return [[j % 1000 - 500 for j in range(d)]], [(j,) for j in range(500, d, 1000)]


class TestSweepMemory:
    """The sweep holds O(m*d): one packed integer per row and the sums of
    the prefix in hand. At m = 1 and m = 2 no list of column tuples is
    built (that alone took about 64 bytes an entry at 1 x 200,000, and at
    2 x 4000 it passes this bound), and at no m a table of packed
    suffixes, one per starting column and O(d^2) in all."""

    PER_ENTRY = 32  # bytes allowed per matrix entry

    @pytest.mark.parametrize("rows,expected", [copied_pair(4000), one_row(200_000)],
                             ids=["2x4000", "1x200000"])
    def test_peak_far_below_a_table_of_suffixes(self, rows, expected):
        A = IntMatrix.from_rows(rows)
        bound = self.PER_ENTRY * A.rows * A.cols
        tracemalloc.start()
        try:
            failures = verify_exhaustive(A).failures
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == expected
        assert peak <= bound
        # the table this bound rules out: for each row and each start s,
        # the fields of columns s..d-1, counting one byte a field, the
        # least any width takes
        d = A.cols
        assert A.rows * d * (d + 1) // 2 >= 4 * bound


def moment_curve(d):
    """4 x d with columns (1, x, x^2, x^3) mod 61 in centered residues,
    x = 0..d-1, d <= 61, so that any four have a minor nonzero mod 61,
    and column d - 1 replaced by the sum of columns 0, 1 and 2, so that
    (0, 1, 2, d - 1) is the first of the minors that vanish."""
    rows = [[centered_residue(x ** i, 61) for x in range(d)] for i in range(4)]
    for r in rows:
        r[d - 1] = r[0] + r[1] + r[2]
    return rows


class TestColexPass:
    """The colex pass takes the columns in reverse, holds every t-minor,
    t < m, packed by row subset in colex order of the column subsets, and
    tests each column against every (m-1)-subset before it at once. Its
    failures, the sweep's and the reference walk's must be the same list,
    order included, and verify_exhaustive picks the pass from (m, d, nb)
    alone."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_both_kernels_match_the_reference_walk(self, data):
        m = data.draw(st.integers(2, 8))
        # the reference walk's C(d, m - 1) prefixes keep d narrower at m >= 7
        d = data.draw(st.integers(m, m + (15 if m <= 6 else 6)))
        k = data.draw(st.sampled_from([1, 5, 2 ** 15, 10 ** 12]))
        entry = st.one_of(st.sampled_from([-k, 0, k]), st.integers(-k, k))
        cols = []
        for kind in data.draw(st.lists(st.sampled_from(["new", "new", "copy", "zero", "negated"]),
                                       min_size=d, max_size=d)):
            if kind == "zero":
                cols.append([0] * m)
            elif kind == "new" or not cols:
                cols.append(data.draw(st.lists(entry, min_size=m, max_size=m)))
            else:
                col = cols[data.draw(st.integers(0, len(cols) - 1))]
                cols.append(col if kind == "copy" else [-x for x in col])
        rows = [list(r) for r in zip(*cols)]
        A = IntMatrix.from_rows(rows)
        expected = prefix_sweep(rows)
        assert _colex_pass(A, _minor_bound(A)) == expected
        assert _sweep(A, _minor_bound(A)) == expected
        assert verify_exhaustive(A).failures == expected

    @pytest.mark.parametrize("m,d,nb,colex", [
        # refute's 3 x 36 and 4 x 18, and the CI pins' 5 x 14, 6 x 9 and 7 x 11
        (3, 36, 2, True), (4, 18, 2, True), (5, 14, 3, True), (6, 9, 7, True),
        (7, 11, 3, True),
        # refute's 2 x 160, a square matrix, and levels past COLEX_BYTES
        (2, 160, 2, False), (7, 7, 3, False), (4, 300, 2, False),
        # each limit's edge: m = 3 in, m = 2 out; d = m + 1 in, d = m out;
        # the widest 4-row matrix at nb = 2 in, one column more out; and
        # and 12 x 13 in at nb = 6, out at nb = 7
        (3, 10, 1, True), (2, 10, 1, False), (7, 8, 3, True), (8, 8, 3, False),
        (4, 292, 2, True), (4, 293, 2, False), (12, 13, 6, True), (12, 13, 7, False),
    ])
    def test_kernel_chosen_from_the_shape(self, m, d, nb, colex):
        assert _kernel(m, d, nb) is (_colex_pass if colex else _sweep)

    def test_level_bytes_at_the_edge(self):
        # sum over t < m of C(m, t) C(d, t) nb: 4 x 292 fits in 2^25 bytes
        # with 186,422 to spare, 4 x 293 passes it by 156,978
        assert COLEX_BYTES == 2 ** 25
        assert _level_bytes(4, 292, 2) == 2 * (1 + 4 * 292 + 6 * 42486 + 4 * 4106980)
        assert _level_bytes(4, 292, 2) == 2 ** 25 - 186_422
        assert _level_bytes(4, 293, 2) == 2 ** 25 + 156_978
        assert _level_bytes(4, 300, 2) > 2 ** 25
        assert _level_bytes(12, 13, 6) <= 2 ** 25 < _level_bytes(12, 13, 7)

    @pytest.mark.parametrize("m,d,k", [(3, 36, 8), (4, 18, 5), (2, 160, 10), (7, 11, 3),
                                       (7, 7, 3)])
    def test_verify_exhaustive_runs_the_chosen_kernel(self, monkeypatch, m, d, k):
        rng = random.Random(f"{m}x{d}")
        A = IntMatrix.from_rows([[rng.randint(-k, k) for _ in range(d)] for _ in range(m)])
        ran = []
        for name in ("_colex_pass", "_sweep"):
            monkeypatch.setattr(verify_mod, name,
                                lambda A, bound, name=name: ran.append(name) or [])
        verify_exhaustive(A)
        assert ran == ["_colex_pass" if 3 <= m < d else "_sweep"]
        assert field_bytes(_minor_bound(A)) == (2 if m < 7 else 3)

    def test_peak_within_a_multiple_of_its_levels(self):
        # the levels and, while one sum is replaced, its old copy, with the
        # completion's bias, packed sum and bytes: measured 2.31 times the
        # level bytes here, 14 failures. A list of every 3-subset of the
        # columns, 34,220 tuples of 64 bytes and their 8-byte slots, would
        # pass the bound by itself.
        A = IntMatrix.from_rows(moment_curve(60))
        bound = _minor_bound(A)
        levels = _level_bytes(4, 60, field_bytes(bound))
        tracemalloc.start()
        try:
            failures = _colex_pass(A, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures[0] == (0, 1, 2, 59)
        assert failures == _sweep(A, bound)
        assert peak <= 3 * levels + 32 * 4 * 60
        assert math.comb(60, 3) * (64 + 8) > 3 * levels + 32 * 4 * 60


class TestVerifySampled:
    def test_valid_matrix_clean(self, vand23):
        report = verify_sampled(vand23, trials=100, seed=1)
        assert report.failures == []
        assert (report.mode, report.seed, report.trials) == ("sampled", 1, 100)

    def test_all_columns_equal_always_fails(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1], [2, 2, 2, 2]])
        report = verify_sampled(A, trials=5, seed=3)
        assert len(report.failures) >= 1

    def test_zero_trials_rejected(self, vand23):
        with pytest.raises(ValueError):
            verify_sampled(vand23, trials=0, seed=0)

    def test_budget_counts_trials(self, vand23):
        assert verify_sampled(vand23, trials=10, seed=0, budget=10).ok
        with pytest.raises(BudgetExceededError) as exc:
            verify_sampled(vand23, trials=11, seed=0, budget=10)
        assert (exc.value.required, exc.value.budget) == (11, 10)

    def test_equal_seeds_equal_reports(self, vand23):
        a = verify_sampled(vand23, trials=50, seed=42)
        b = verify_sampled(vand23, trials=50, seed=42)
        assert a == b

    def test_different_seeds_may_differ(self):
        # the generator must be seed-driven: with every minor degenerate,
        # the failure list is exactly the sampled subsets, and identical
        # draws across all seeds would mean the seed is ignored
        A = IntMatrix.from_rows([list(range(8)), list(range(8))])
        draws = {tuple(verify_sampled(A, trials=5, seed=s).failures)
                 for s in range(5)}
        assert len(draws) > 1


    @pytest.mark.parametrize("m,d", SMALL_SHAPES)
    def test_failures_are_drawn_subsets_the_oracle_fails(self, m, d):
        rng = random.Random(f"sampled {m}x{d}")
        for seed in range(6):
            rows = random_rows(rng, m, d)
            report = verify_sampled(IntMatrix.from_rows(rows), trials=8, seed=seed)
            draw = random.Random(seed)
            drawn = {tuple(sorted(draw.sample(range(d), m))) for _ in range(8)}
            assert report.failures == sorted(drawn & set(all_minors_nonzero(rows)))


def family_members():
    """Every (matrix, params) of both families for m = 2..5, k <= 39."""
    for m in range(2, 6):
        for k in range(1, 40):
            for build in (construct_vandermonde, construct_scaled):
                try:
                    yield build(m, k)
                except ValueError:  # k outside the family's range
                    pass


FAMILY = list(family_members())


def unannotated(A):
    """A without its modulus: never proved, so always swept or drawn."""
    return IntMatrix(A.rows, A.cols, A.entries)


class TestGeometricStructure:
    def test_every_family_member_proved(self):
        assert len(FAMILY) == 266
        for A, params in FAMILY:
            d = params.d
            scalings = params.scalings or (1,) * d
            assert geometric_structure(A) == (
                d, tuple(centered_residue(l, d) for l in scalings),
                tuple(j % d for j in range(1, d + 1)))
            report = verify_exhaustive(A)
            assert report == VerificationReport(math.comb(d, A.rows), [], "exhaustive")
            if report.total_checked <= 20_000:  # the sweep agrees
                assert verify_exhaustive(unannotated(A)) == report

    def test_column_subsets_proved(self):
        A, _ = construct_vandermonde(4, 17)
        sub = select_columns(A, (17, 3, 0, 9, 4, 12))
        assert geometric_structure(sub) is not None
        assert verify_exhaustive(sub) == verify_exhaustive(unannotated(sub))

    def test_more_columns_than_modulus_never_proved(self):
        # d = 6 > p = 5: at m >= 2 two ratios must agree mod 5, and m = 1
        # is refused by the same d <= p rule
        geometric = IntMatrix.from_rows(
            [[1, 1, 1, 1, 1, 2], [0, 1, 2, -2, -1, 2]], modulus=5)
        assert geometric_structure(geometric) is None
        assert verify_exhaustive(geometric).failures == [(1, 5)]
        heads = IntMatrix.from_rows([[1, 1, 2, 2, -1, -2]], modulus=5)
        assert geometric_structure(heads) is None
        assert verify_exhaustive(heads).failures == []

    def test_ratio_zero_column_proved(self):
        # (l, 0, ..., 0) is a geometric column of ratio 0
        A = IntMatrix.from_rows([[2, 1, 1], [0, 1, 2], [0, 1, -1]], modulus=5)
        assert geometric_structure(A) == (5, (2, 1, 1), (0, 1, 2))
        assert verify_exhaustive(A) == verify_exhaustive(unannotated(A))

    def test_one_row(self):
        A = IntMatrix.from_rows([[1, -2, 2]], modulus=5)
        assert geometric_structure(A) == (5, (1, -2, 2), ())
        assert verify_exhaustive(A) == VerificationReport(3, [], "exhaustive")
        zero = IntMatrix.from_rows([[1, 0, 2]], modulus=5)
        assert geometric_structure(zero) is None
        assert verify_exhaustive(zero).failures == [(1,)]

    def test_zero_head_not_proved(self):
        A = IntMatrix.from_rows([[1, 0, 1], [1, 1, 2]], modulus=5)
        assert geometric_structure(A) is None
        assert verify_exhaustive(A).failures == all_minors_nonzero(A.to_rows()) == []

    def test_no_modulus_never_proved(self):
        for A, _ in FAMILY[:40]:
            assert geometric_structure(unannotated(A)) is None

    def test_copied_column_falls_back_and_lists_failures(self):
        A, params = construct_vandermonde(3, 6)  # 3 x 7, mod 7
        rows = A.to_rows()
        for r in rows:
            r[1] = r[0]
        copy = IntMatrix.from_rows(rows, modulus=params.d)
        assert geometric_structure(copy) is None
        failures = verify_exhaustive(copy).failures
        assert failures == all_minors_nonzero(rows) and failures[0] == (0, 1, 2)

    def test_budget_refusal_comes_before_the_proof(self):
        A, _ = construct_vandermonde(4, 17)  # C(19, 4) = 3876 minors
        assert geometric_structure(A) is not None
        with pytest.raises(BudgetExceededError) as exc:
            verify_exhaustive(A, budget=3875)
        assert (exc.value.required, exc.value.budget) == (3876, 3875)
        with pytest.raises(BudgetExceededError):
            verify_sampled(A, trials=11, seed=0, budget=10)
        with pytest.raises(ValueError):
            verify_sampled(A, trials=0, seed=0)

    @pytest.mark.parametrize("trials,seed", [(1, 0), (30, 7), (500, 801)])
    def test_sampled_report_is_the_draws(self, trials, seed):
        for A, _ in FAMILY[::25]:
            report = verify_sampled(A, trials, seed)
            assert report == verify_sampled(unannotated(A), trials, seed)
            assert (report.total_checked, report.seed, report.trials) == (trials, seed, trials)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_inverse_per_head_is_per_column(self, seed):
        # heads drawn from a few values, negative ones and 0 mod p among
        # them; ratios from fewer values than columns at times, so two may
        # agree; m = 1 and widths p and p + 1 included; about one matrix in
        # two is a geometric progression mod p, mostly proved
        rng = random.Random(seed)
        proved = 0
        for _ in range(400):
            p = rng.choice([3, 5, 7, 11, 31])
            half = p // 2
            m, d = rng.randint(1, 4), rng.choice([1, 2, 3, p - 1, p, p + 1])
            d = max(d, m)
            heads = [(rng.choice([1, -1, 2, -2, half, p] if rng.random() < 0.1
                                 else [1, -1, 2, -2, half]) + half) % p - half
                     for _ in range(d)]
            if rng.random() < 0.5:
                nodes = rng.sample(range(p), min(d, p)) + [0] * (d - p)
                if rng.random() < 0.2:
                    nodes[-1] = nodes[0]
                entries = [(h * pow(r, i, p) + half) % p - half
                           for i in range(m) for h, r in zip(heads, nodes)]
            else:
                entries = heads + [rng.randint(-half, half) for _ in range(d * (m - 1))]
            A = IntMatrix(m, d, tuple(entries), modulus=p)
            got = geometric_structure(A)
            assert got == geometric_structure_per_column(A)
            proved += got is not None
        assert 50 < proved < 350

    # members small enough for the permutation-expansion oracle
    SMALL = [(A, p) for A, p in FAMILY if A.cols <= 13 and A.rows <= 4]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_entry_mutants(self, data):
        A, params = data.draw(st.sampled_from(self.SMALL))
        half = (params.d - 1) // 2
        entries = list(A.entries)
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(
            st.integers(-half, half))
        mutant = IntMatrix(A.rows, A.cols, tuple(entries), modulus=params.d)
        oracle = all_minors_nonzero(mutant.to_rows())
        if geometric_structure(mutant) is not None:
            assert oracle == []
        assert verify_exhaustive(mutant) == VerificationReport(
            math.comb(A.cols, A.rows), oracle, "exhaustive")


class TestVerifyCertificate:
    def test_accepts_planted_zero_row(self):
        A = IntMatrix.from_rows([[0, 0, 1], [1, 2, 3]])
        cert = DegeneracyCertificate(t=1, coeffs=(1,), columns=(0, 1))
        assert verify_certificate(A, cert).accepted

    def test_accepts_row_difference(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1], [1, 1, 2, 3]])
        cert = DegeneracyCertificate(t=2, coeffs=(1, -1), columns=(0, 1))
        assert verify_certificate(A, cert).accepted

    def test_rejects_on_valid_construction(self, vand23):
        cert = DegeneracyCertificate(t=1, coeffs=(1,), columns=(0, 1))
        check = verify_certificate(vand23, cert)
        assert not check.accepted
        assert "vanish" in check.reason

    def test_rejects_zero_coeffs(self, vand23):
        cert = DegeneracyCertificate(t=2, coeffs=(0, 0), columns=(0, 1))
        check = verify_certificate(vand23, cert)
        assert not check.accepted and "zero" in check.reason

    def test_rejects_malformed(self, vand23):
        bad = [
            DegeneracyCertificate(t=3, coeffs=(1, 1, 1), columns=(0, 1)),
            DegeneracyCertificate(t=1, coeffs=(1, 2), columns=(0, 1)),
            DegeneracyCertificate(t=1, coeffs=(1,), columns=(0,)),
            DegeneracyCertificate(t=1, coeffs=(1,), columns=(0, 9)),
            DegeneracyCertificate(t=1, coeffs=(1,), columns=(1, 0)),
        ]
        for cert in bad:
            assert not verify_certificate(vand23, cert).accepted

    @pytest.mark.parametrize("t,coeffs,columns", [
        (2, (2, -1), (0.0, 1)),  # was a TypeError inside verify_certificate
        (2, (2.0, -1), (0, 1)),  # was accepted as coefficients
        (2.0, (2, -1), (0, 1)),
        (2, (True, -1), (0, 1)),
        (2, (2, -1), ("0", 1)),
    ])
    def test_refuses_non_int_fields(self, t, coeffs, columns):
        with pytest.raises(ValueError):
            DegeneracyCertificate(t, coeffs, columns)

    def test_soundness_accept_implies_failures(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1], [1, 1, 2, 3]])
        cert = DegeneracyCertificate(t=2, coeffs=(1, -1), columns=(0, 1))
        assert verify_certificate(A, cert).accepted
        assert len(verify_exhaustive(A).failures) >= 1


def certificate_check_with_det(A, cert):
    """verify_certificate plus a final determinant check on the first m
    listed columns; equal results show that check decides nothing."""
    m, d = A.rows, A.cols
    if not 1 <= cert.t <= m:
        return CertificateCheck(False, f"t={cert.t} outside [1, {m}]")
    if len(cert.coeffs) != cert.t:
        return CertificateCheck(
            False, f"{len(cert.coeffs)} coefficients for t={cert.t} rows")
    if not any(cert.coeffs):
        return CertificateCheck(False, "coefficient vector is zero")
    cols = cert.columns
    if len(cols) < m:
        return CertificateCheck(False, f"needs at least m={m} columns, got {len(cols)}")
    if any(not 0 <= j < d for j in cols):
        return CertificateCheck(False, "column index out of range")
    if any(a >= b for a, b in zip(cols, cols[1:])):
        return CertificateCheck(False, "columns must be strictly increasing")
    combination = combination_vector(A, cert.coeffs)
    for j in cols:
        if combination[j]:
            return CertificateCheck(False, f"combination does not vanish at "
                                           f"column {j} (value {combination[j]})")
    if det_exact([A.column(j) for j in cols[:m]]) != 0:
        return CertificateCheck(
            False, "submatrix on the first m listed columns is nonsingular")
    return CertificateCheck(True, "ok")


def mutations(cert, d):
    """cert and certificates one edit away from it: each field changed,
    shortened, lengthened or reordered."""
    t, c, cols = cert.t, cert.coeffs, cert.columns
    yield cert
    yield DegeneracyCertificate(t + 1, c + (1,), cols)
    yield DegeneracyCertificate(t, c + (1,), cols)
    yield DegeneracyCertificate(t, c[:-1] + (c[-1] + 1,), cols)
    yield DegeneracyCertificate(t, tuple(-x for x in c), cols)
    yield DegeneracyCertificate(t, (0,) * t, cols)
    yield DegeneracyCertificate(t, c, cols[:-1])
    yield DegeneracyCertificate(t, c, cols[::-1])
    yield DegeneracyCertificate(t, c, cols + (d,))
    yield DegeneracyCertificate(t, c, tuple(sorted(set(cols) ^ {0})))


class TestCertificateCheckReference:
    def test_same_check_without_determinant(self):
        rng = random.Random(23)
        verdicts = set()
        for _ in range(400):
            m = rng.randint(1, 4)
            d = rng.randint(m, m + 4)
            A = IntMatrix.from_rows(random_rows(rng, m, d))
            t = rng.randint(1, m)
            cfg = AttackConfig(t=t, lam=2, min_agree=rng.randint(m, d))
            found = find_collision(A, cfg)
            drawn = DegeneracyCertificate(
                t, tuple(rng.randint(-2, 2) for _ in range(t)),
                tuple(sorted(rng.sample(range(d), rng.randint(1, d)))))
            for base in filter(None, (found, drawn)):
                for cert in mutations(base, d):
                    check = verify_certificate(A, cert)
                    assert check == certificate_check_with_det(A, cert)
                    verdicts.add(re.sub(r"-?\d+", "#", check.reason))
        assert len(verdicts) == 8  # acceptance and each of the seven rejections


class TestTallDuplicateColumn:
    """12 x 14: the integer Vandermonde columns (x^0, ..., x^11) on nodes
    1..13, with node 5 repeated last. A 12-subset is singular exactly when
    it holds both copies; any other has 12 distinct nodes."""

    M, NODES, DUP = 12, list(range(1, 14)) + [5], (4, 13)

    @pytest.fixture
    def tall(self):
        return IntMatrix.from_rows(
            [[x ** i for x in self.NODES] for i in range(self.M)])

    def test_sampled_lists_subsets_holding_both_copies(self, tall):
        report = verify_sampled(tall, trials=60, seed=3)
        draw = random.Random(3)
        drawn = {tuple(sorted(draw.sample(range(14), self.M))) for _ in range(60)}
        both = sorted(c for c in drawn if set(self.DUP) <= set(c))
        assert report.failures == both
        assert 0 < len(both) < len(drawn)

    def test_certificate_on_failures_accepted(self, tall):
        # the degree-11 polynomial with a root at every node of the subset
        # combines all 12 rows into a vector vanishing on its columns
        for combo in verify_sampled(tall, trials=60, seed=3).failures[:5]:
            coeffs = [1]
            for x in {self.NODES[j] for j in combo}:
                coeffs = [a - x * b for a, b in zip([0] + coeffs, coeffs + [0])]
            cert = DegeneracyCertificate(t=self.M, coeffs=tuple(coeffs),
                                         columns=combo)
            assert verify_certificate(tall, cert).accepted

