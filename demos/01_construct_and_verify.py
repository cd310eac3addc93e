"""
Constructing matrices with every maximal minor invertible
=========================================================

An m x d integer matrix with entries bounded by k, in which *any* m
columns are linearly independent, is the combinatorial core of this
package. This script builds both explicit families and certifies the
property exhaustively with exact arithmetic.
"""

from fullrank import (
    construct,
    construct_scaled,
    construct_vandermonde,
    det_exact,
    select_columns,
    verify_exhaustive,
)

# %% The power-residue family: d up to roughly 2k, entries at most (d-1)/2.

A, params = construct_vandermonde(m=3, k=5)
print(f"power-residue family, m=3, k=5: prime modulus d = {params.d}")
for row in A.to_rows():
    print("   ", row)

report = verify_exhaustive(A)
print(f"checked {report.total_checked} maximal minors: "
      f"{len(report.failures)} degenerate")

# Any column subset keeps the property, so truncation is free.
sub = select_columns(A, [0, 2, 3, 5])
print("first/third/fourth/sixth columns kept:",
      verify_exhaustive(sub).ok, "\n")

# %% The column-rescaled family: width ~ k^2/2 for m = 2, far beyond 2k.
# Each column of the power pattern is multiplied by a unit chosen so all
# centered residues drop below the entry bound.

S, sp = construct_scaled(m=2, k=8)
print(f"rescaled family, m=2, k=8: d = {sp.d} columns "
      f"(vs {2 * 8 + 1} for the plain family)")
print("column multipliers:", list(sp.scalings))
print("largest |entry|:", S.max_abs_entry(), "<= k =", 8)
print("all minors invertible:", verify_exhaustive(S).ok, "\n")

# %% The unified front end validates the requested width and picks a family.

wide = construct(m=2, k=5, d_requested=12)
print("construct(m=2, k=5, d=12) ->", wide.rows, "x", wide.cols)
first = select_columns(wide, [0, 1])
print("sample 2x2 minor, exact determinant:", det_exact(first.to_rows()))

try:
    construct(m=3, k=2, d_requested=10)
except ValueError as exc:
    print("construct(m=3, k=2, d=10) correctly refused:", exc)
