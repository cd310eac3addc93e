"""Exact integer linear algebra.

Centered residues, exact (fraction-free) determinants, row combinations,
column selection, and rows packed into one integer each, which the minor
sweep and the collision scan search by bytes. All determinant work is
done with unbounded-precision integers; nothing here touches floating
point.
"""

from dataclasses import dataclass

from .errors import as_decimal
from .intmath import exact_ints, is_prime


@dataclass(frozen=True)
class IntMatrix:
    """Integer matrix stored row-major, with optional annotations.

    modulus: odd prime ambient modulus for residue-built matrices. When
        present, every entry must already be a centered residue, i.e.
        |entry| <= (modulus - 1) / 2.
    entry_bound: guaranteed bound on |entry|, when one is being tracked.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]
    modulus: int | None = None
    entry_bound: int | None = None

    def __post_init__(self):
        exact_ints([self.rows, self.cols] + [v for v in (self.modulus, self.entry_bound)
                                             if v is not None], "matrix shape and annotations")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        object.__setattr__(self, "entries", exact_ints(self.entries, "matrix entries"))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {as_decimal(self.rows * self.cols)} entries, "
                f"got {len(self.entries)}"
            )
        if self.entry_bound is None and self.modulus is None:
            return
        largest = self.max_abs_entry()
        if self.entry_bound is not None and largest > self.entry_bound:
            raise ValueError(f"entry bound {as_decimal(self.entry_bound)} violated "
                             f"(found |{as_decimal(largest)}|)")
        if self.modulus is not None:
            p = self.modulus
            if p < 3 or p % 2 == 0 or not is_prime(p):
                raise ValueError("modulus must be an odd prime")
            if largest > (p - 1) // 2:
                raise ValueError("entries of a mod-p matrix must be centered residues")

    @classmethod
    def from_rows(cls, rows, modulus: int | None = None,
                  entry_bound: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be nonempty and of equal length")
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), len(rows[0]), flat, modulus, entry_bound)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def max_abs_entry(self) -> int:
        return max(map(abs, self.entries))


def centered_residue(x: int, p: int) -> int:
    """Representative of x mod p in [-(p-1)/2, (p-1)/2]. p must be odd, >= 3."""
    exact_ints((x, p), "residue and modulus")
    if p < 3 or p % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    r = x % p
    if r > (p - 1) // 2:
        r -= p
    return r


def det_exact(vectors) -> int:
    """Exact determinant of a square list of integer rows (or columns, as
    det M^T = det M) by fraction-free (Bareiss) elimination, every division
    exact. The input is copied, never changed."""
    rows = [list(exact_ints(v, "determinant row")) for v in vectors]
    n = len(rows)
    if not n or any(len(r) != n for r in rows):
        raise ValueError("determinant requires a nonempty square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri = rows[i]
            rk = rows[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def combination_vector(A: IntMatrix, coeffs) -> tuple[int, ...]:
    """Coefficient-weighted sum of the first len(coeffs) rows, exact."""
    coeffs = exact_ints(coeffs, "coefficients")
    if len(coeffs) > A.rows:
        raise ValueError(
            f"{len(coeffs)} coefficients but only {A.rows} rows")
    out = [0] * A.cols
    for i, c in enumerate(coeffs):
        if c:
            out = [x + c * y for x, y in zip(out, A.row(i))]
    return tuple(out)


def select_columns(A: IntMatrix, cols) -> IntMatrix:
    """Submatrix on the given distinct column indices, in the given order.

    Annotations (modulus, entry_bound) are inherited: dropping columns
    cannot break either invariant.
    """
    cols = exact_ints(cols, "column indices")
    if len(set(cols)) != len(cols):
        raise ValueError("duplicate column index")
    for c in cols:
        if not 0 <= c < A.cols:
            raise ValueError(f"column index {as_decimal(c)} out of range [0, {A.cols})")
    if not cols:
        raise ValueError("need at least one column")
    entries = tuple(
        A.entries[i * A.cols + c] for i in range(A.rows) for c in cols
    )
    return IntMatrix(A.rows, len(cols), entries, A.modulus, A.entry_bound)


def field_bytes(bound: int) -> int:
    """The fewest bytes nb with 2^(8 nb - 1) > bound: the width of the
    fields packed_rows packs under that bound."""
    return bound.bit_length() // 8 + 1


def packed_rows(A: IntMatrix, bound: int,
                rows: int | None = None) -> tuple[int, bytes, list[int], int]:
    """(nb, zero, P, H): the first `rows` rows of A (all by default) packed
    with biased fields of nb bytes, the layout both exact scans search.

    The caller passes a bound on every |A[i][j]| and on every |c . col_j|
    it will search; nb = field_bytes(bound) is the fewest bytes with
    2^(w-1) > bound, w = 8 nb. Row i is P_i = sum_j (2^(w-1) +
    A[i][j]) 2^(wj), and H = sum_j 2^(w-1) 2^(wj) repeats the field zero,
    the little-endian bytes of 2^(w-1). Each field of P_i is in [1, 2^w),
    so P_i >> ws is exact and (P_i >> ws) - (H >> ws) is the packed row
    Q_i = sum_j A[i][j] 2^(wj) from column s on. Field j of
    H + sum_i c_i Q_i is then exactly 2^(w-1) + c . col_j, in [1, 2^w), so
    no field carries into the next, and c . col_j = 0 exactly where that
    field is zero, which zero_fields lists. A is read once."""
    nb = field_bytes(bound)
    half = 1 << (8 * nb - 1)
    zero = half.to_bytes(nb, "little")
    fields = bytearray()
    for a in A.entries[:(A.rows if rows is None else rows) * A.cols]:
        fields += (half + a).to_bytes(nb, "little")
    size = A.cols * nb
    biased = [int.from_bytes(fields[i:i + size], "little") for i in range(0, len(fields), size)]
    return nb, zero, biased, int.from_bytes(zero * A.cols, "little")


def zero_fields(raw: bytes, pos: int, zero: bytes):
    """The columns whose field in raw, len(zero) bytes wide, is `zero`, in
    order, from the match at byte pos on (none when pos < 0). A match
    counts only on a field boundary; the search goes on from the field
    after it."""
    nb = len(zero)
    while pos >= 0:
        j, off = divmod(pos, nb)
        if not off:
            yield j
        pos = raw.find(zero, (j + 1) * nb)
