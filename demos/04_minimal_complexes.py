"""Minimalization: split off contractible summands until no unit entries.

Run:  python3 demos/04_minimal_complexes.py
"""

from symchain import (
    QQ,
    check_s2fpd01,
    direct_sum,
    graded_poly,
    is_minimal,
    is_quasi_iso,
    koszul,
    minimize,
    poinc_check,
    rank_series,
    shift,
    sym2,
    unit_complex,
)
from symchain.complexes import FreeComplex
from symchain.linalg import SparseMatrix

# K(1, 1) over the rationals is split exact: minimalization empties it.
K11 = koszul([QQ.scalar(1), QQ.scalar(1)])
M, q = minimize(K11)
print("minimize(K(1,1)) ranks:", M.ranks, " projection is a quasi-iso:", bool(is_quasi_iso(q)))

# Padding with a contractible two-term piece changes nothing.
core = shift(unit_complex(QQ), 2)
padded = direct_sum(core, FreeComplex(QQ, {1: 1, 2: 1}, {2: SparseMatrix.from_rows(QQ, [[1]])}))
M, _ = minimize(padded)
print("padded complex minimizes back to:", M.ranks)

# Over a graded ring the Koszul complex is already minimal: every
# differential entry lies in the irrelevant ideal.
poly = graded_poly("x", "y")
x, y = poly.generators()
K = koszul([x, y])
print("K(x, y) minimal:", is_minimal(K))

# The square of a complex of finite length again has finite length, and the
# rank inequality rank(S2(P)_{p+q}) >= r_p r_q couples the two lengths.
report = check_s2fpd01(K)
print(
    "lengths: complex", report.witnesses["minimal_length"],
    " square", report.witnesses["square_minimal_length"],
    " rank inequality holds:", report.holds,
)
print("rank series of the square:", rank_series(sym2(K).complex))

# The power-series dichotomy that drives the shift characterizations:
# Q(t)^2 - Q(-t^2) constant forces Q to be 1 (value 0) or 2 (value 2).
for coeffs, sign in ([1], "-"), ([2], "-"), ([1, 1], "-"):
    r = poinc_check(coeffs, sign, order=20)
    print(f"Q with coefficients {coeffs}, sign {sign}: constant={r.constant}, case={r.case}")
