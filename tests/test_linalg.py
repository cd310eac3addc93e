import math
import random

import pytest
from hypothesis import example, given, strategies as st

from fullrank.linalg import (
    IntMatrix,
    centered_residue,
    combination_vector,
    det_exact,
    packed_rows,
    select_columns,
    zero_fields,
)
from oracles import perm_det

ODD_PRIMES = [3, 5, 7, 11, 13]


class TestCenteredResidue:
    def test_spot_values(self):
        assert centered_residue(3, 5) == -2
        assert centered_residue(0, 7) == 0
        assert centered_residue(10, 13) == -3

    @pytest.mark.parametrize("p", [4, 2, 0, -5, 1])
    def test_bad_modulus(self, p):
        with pytest.raises(ValueError):
            centered_residue(1, p)

    @given(st.integers(-10**9, 10**9), st.sampled_from(ODD_PRIMES + [17, 101, 9]))
    def test_congruent_and_centered(self, x, p):
        # p only needs to be odd here, not prime
        r = centered_residue(x, p)
        assert (r - x) % p == 0
        assert 2 * abs(r) <= p - 1


def plu_product(rng, n, singular):
    """A seeded P·L·U product with its determinant sign(P)·Π diag(U): L unit
    lower-triangular, U upper-triangular, small entries; a singular case
    puts a 0 on U's diagonal."""
    perm = list(range(n))
    rng.shuffle(perm)
    L = [[1 if i == j else rng.randint(-3, 3) if j < i else 0
          for j in range(n)] for i in range(n)]
    U = [[rng.choice([-3, -2, -1, 1, 2, 3]) if i == j
          else rng.randint(-3, 3) if j > i else 0
          for j in range(n)] for i in range(n)]
    if singular:
        i = rng.randrange(n)
        U[i][i] = 0
    LU = [[sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n)]
          for i in range(n)]
    rows = [LU[perm[i]] for i in range(n)]
    inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
    det = (-1) ** inversions * math.prod(U[i][i] for i in range(n))
    return rows, det


class TestDetExact:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert det_exact(eye) == 1

    def test_2x2(self):
        assert det_exact([[1, 2], [3, 4]]) == -2

    def test_vandermonde_nodes_123(self):
        # product formula (2-1)(3-1)(3-2) = 2
        assert det_exact([[1, 1, 1], [1, 2, 3], [1, 4, 9]]) == 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("bad", [[], [[]], [[1, 2], [3]], [[1], [2, 3]]])
    def test_empty_or_ragged_rejected(self, bad):
        with pytest.raises(ValueError):
            det_exact(bad)

    def test_matches_permutation_expansion(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert det_exact(rows) == perm_det(rows)

    def test_row_swap_negates(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            swapped = list(rows)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert det_exact(swapped) == -det_exact(rows)

    def test_repeated_row_is_singular(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            rows[-1] = list(rows[0])
            assert det_exact(rows) == 0

    def test_big_entries_no_overflow(self):
        big = 10 ** 30
        assert det_exact([[big, 1], [1, big]]) == big * big - 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_plu_products(self, n):
        # sizes past the permutation oracle's reach (12! terms)
        rng = random.Random(f"plu {n}")
        for case in range(20):
            rows, det = plu_product(rng, n, singular=case % 4 == 3)
            cols = [tuple(col) for col in zip(*rows)]
            before = [list(r) for r in rows]
            assert det_exact(rows) == det
            assert det_exact(cols) == det
            assert rows == before  # the input is copied, never changed


@st.composite
def int_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-50, 50), min_size=rows * cols,
                            max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


class TestColumn:
    @given(int_matrices())
    @example(IntMatrix(1, 7, (3, -1, 4, 1, -5, 9, 2)))
    @example(IntMatrix(5, 1, (2, -7, 1, 8, -2)))
    def test_matches_entries(self, A):
        for j in range(A.cols):
            assert A.column(j) == tuple(A.entry(i, j) for i in range(A.rows))


class TestSelectColumns:
    def setup_method(self):
        self.A = IntMatrix.from_rows(
            [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], entry_bound=9)

    def test_first_and_last(self):
        sub = select_columns(self.A, [0, 4])
        assert sub.to_rows() == [[0, 4], [5, 9]]

    def test_identity_selection(self):
        assert select_columns(self.A, range(5)) == self.A

    def test_single_column(self):
        sub = select_columns(self.A, [2])
        assert sub.to_rows() == [[2], [7]]
        assert sub.column(0) == self.A.column(2)

    def test_annotations_inherited(self):
        sub = select_columns(self.A, [1, 3])
        assert sub.entry_bound == 9
        assert sub.modulus is None

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_columns(self.A, [0, 5])

    def test_duplicate(self):
        with pytest.raises(ValueError):
            select_columns(self.A, [1, 1])


class TestIntMatrixInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_entry_bound_enforced(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 2, (1, 5), entry_bound=4)

    def test_modulus_requires_centered_entries(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 2, (3, 0), modulus=5)

    def test_modulus_must_be_odd_prime(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 2, (1, 0), modulus=9)

    @pytest.mark.parametrize("call,message", [
        (lambda: IntMatrix(0, 2, ()), "at least one row"),
        (lambda: IntMatrix(2, 0, ()), "at least one row and one column"),
        (lambda: IntMatrix.from_rows([]), "nonempty and of equal length"),
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), "nonempty and of equal length"),
        (lambda: select_columns(IntMatrix.from_rows([[1, 2]]), ()),
         "at least one column"),
    ], ids=["no-rows", "no-columns", "from-no-rows", "from-ragged-rows",
            "select-nothing"])
    def test_empty_or_ragged_shape(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestPackedRows:
    """The one packed layout of both exact scans: nb is the fewest bytes
    whose field 2^(8 nb - 1) lies above the bound, and zero is that field,
    the one H repeats."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_fewest_bytes(self, j):
        A = IntMatrix(1, 1, (0,))
        top = 2 ** (8 * j - 1)
        assert packed_rows(A, 0)[0] == 1
        assert packed_rows(A, top - 1)[0] == j
        assert packed_rows(A, top)[0] == j + 1

    @given(st.lists(st.lists(st.integers(-300, 300), min_size=5, max_size=5),
                    min_size=1, max_size=3),
           st.integers(0, 2 ** 40), st.integers(1, 3))
    def test_zero_is_the_field_h_repeats(self, rows, slack, t):
        A = IntMatrix.from_rows(rows)
        t = min(t, A.rows)
        nb, zero, biased, H = packed_rows(A, A.max_abs_entry() + slack, t)
        assert zero == (1 << (8 * nb - 1)).to_bytes(nb, "little")
        assert H == int.from_bytes(zero * A.cols, "little")
        assert len(biased) == t
        for P, row in zip(biased, rows):
            assert P - H == sum(a << (8 * nb * j) for j, a in enumerate(row))
            raw = P.to_bytes(A.cols * nb, "little")
            assert list(zero_fields(raw, raw.find(zero), zero)) == [
                j for j, a in enumerate(row) if a == 0]

    def test_hadamard_bound_keeps_the_sweeps_width(self):
        # the minor sweep packs under isqrt(B), B = (k^2 m)^m, and had the
        # fewest bytes with 2(8 nb - 1) >= B.bit_length(); both agree, as
        # isqrt(B) < 2^(w-1) exactly when B < 2^(2(w-1))
        A = IntMatrix(1, 1, (0,))
        ks = [*range(3000), *(2 ** e + s for e in range(8, 80) for s in range(-2, 3))]
        for m in range(1, 10):
            for k in ks:
                B = (k * k * m) ** m
                assert packed_rows(A, math.isqrt(B))[0] == (
                    ((B.bit_length() + 1) // 2 + 1 + 7) // 8), (m, k)


class TestCombinationVector:
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_matches_entrywise_sum(self, rows, coeffs):
        A = IntMatrix.from_rows(rows)
        coeffs = coeffs[:A.rows]
        assert combination_vector(A, coeffs) == tuple(
            sum(c * A.entry(i, j) for i, c in enumerate(coeffs))
            for j in range(A.cols))

    def test_one_function_behind_every_name(self):
        import fullrank
        assert fullrank.combination_vector is combination_vector
