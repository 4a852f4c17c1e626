"""Two-torsion phenomena over the integers, where 2 is not a unit.

Run:  python3 demos/02_integer_torsion.py
"""

from symchain import (
    ZZ,
    homology,
    homology_presented,
    is_quasi_iso,
    koszul,
    shift,
    sym2,
    sym2_map,
    unit_complex,
    weak_sym2,
    zero_map,
)

# The weak symmetric square of K(3) over the integers is a presented
# complex: in degree 2 the diagonal generator e1 (x) e1 survives with the
# relation 2g, so the module there is Z/2.
K3 = koszul([ZZ.scalar(3)])
P = weak_sym2(K3)
print("weak square of K(3):", P)
h = homology_presented(P)
for n in (0, 1, 2):
    print(f"  H_{n} =", h.group(n))

# The strict symmetric square drops the torsion and is again a two-term
# complex 0 -> Z -(3)-> Z -> 0.
S3 = sym2(K3).complex
print("\nstrict square ranks:", {n: S3.rank(n) for n in S3.degrees()})
hs = homology(S3)
print("  H_0 =", hs.group(0), " H_1 =", hs.group(1))

# An odd shift of Z: the weak square is a shifted copy of Z/2 and the
# strict square vanishes outright.
sigma = shift(unit_complex(ZZ), 1)
print("\nweak square of the shift of Z:", homology_presented(weak_sym2(sigma)).values)
print("strict square is zero:", sym2(sigma).complex.is_zero())

# The failure of homotopy invariance without 2 invertible: K(1, 1) is
# split exact, so the zero map is a quasi-isomorphism, but its square is
# not, because the square has homology Z/2 in degree 3.
K11 = koszul([ZZ.scalar(1), ZZ.scalar(1)])
print("\nK(1,1) exact:", homology(K11).is_exact())
print("H_3 of its square:", homology(sym2(K11).complex).group(3))
z = zero_map(K11, K11)
print("zero map is a quasi-isomorphism:", bool(is_quasi_iso(z)))
print("its square is a quasi-isomorphism:", bool(is_quasi_iso(sym2_map(z))))

# Koszul on five primes: the ideal is the unit ideal, so K is split exact,
# yet its square carries 2-torsion.  homology() reads it from invariant
# factors computed modulo a determinant, without Smith transforms.
K5 = koszul([ZZ.scalar(v) for v in (2, 3, 5, 7, 11)])
h5 = homology(sym2(K5).complex)
print("\nsquare of K(2,3,5,7,11):", {n: str(g) for n, g in h5.values.items()})
