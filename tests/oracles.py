"""Independent oracles for the lowest homology of tensor and symmetric squares.

These compute, by slow and separate means, what `check_symm09` predicts
from one free presentation: over a graded ring the Hilbert table of
M (x)_R N, S2(M) or Lambda2(M) from the slice data of M = H_i(X)
(dimensions, representative cycles and the action of each variable);
over ZLoc(p) the invariant factors of S2 or Lambda2 of a sum of cyclic
modules; over a field a binomial coefficient.
"""

from fractions import Fraction
from math import comb

from symchain import QQ, SparseMatrix, homology, inf_h
from symchain.linalg import kernel_basis, qq_rank, rref, slice_matrix, solve_field
from symchain.sym2 import _pivot_columns


def homology_representatives(boundaries, cycles) -> SparseMatrix:
    """Columns of `cycles` extending a basis of the boundary space."""
    B = _pivot_columns(boundaries)
    stacked = B.hstack(cycles)
    _, pivots = rref(stacked)
    reps = [c - B.cols for _, c in pivots if c >= B.cols]
    return cycles.submatrix_columns(reps)


def graded_homology_module(X, n: int, D: int):
    """Slicewise structure of H_n(X) over a graded backend: dimensions,
    chosen representative cycles, and the action of each variable."""
    ring = X.ring
    nvars = len(ring.variables)
    dmin = X.min_gdeg()
    dims = {}
    reps = {}
    basis_data = {}
    for d in range(dmin, D + 2):
        dn, _, src = slice_matrix(X.diff(n), X.gdeg(n), X.gdeg(n - 1), d)
        dn1, _, _ = slice_matrix(X.diff(n + 1), X.gdeg(n + 1), X.gdeg(n), d)
        Z = kernel_basis(dn)
        R = homology_representatives(dn1, Z)
        B = _pivot_columns(dn1)
        dims[d] = R.cols
        reps[d] = R
        basis_data[d] = (B, src)
    mults = {}
    for v in range(nvars):
        for d in range(dmin, D + 1):
            R = reps[d]
            if R.cols == 0 or dims.get(d + 1, 0) == 0:
                mults[(v, d)] = SparseMatrix(QQ, dims.get(d + 1, 0), R.cols)
                continue
            B1, src1 = basis_data[d + 1]
            index1 = {key: r for r, key in enumerate(src1)}
            _, src0 = basis_data[d]
            entries = {}
            for (i, j), val in R.entries.items():
                gen, mono = src0[i]
                target = list(mono)
                target[v] += 1
                r = index1.get((gen, tuple(target)))
                if r is not None:
                    entries[(r, j)] = entries.get((r, j), 0) + val
            moved = SparseMatrix._of(QQ, len(src1), R.cols, entries)
            basisY = B1.hstack(reps[d + 1])
            coeffs = solve_field(basisY, moved)
            mults[(v, d)] = SparseMatrix._of(
                QQ, reps[d + 1].cols, R.cols,
                {(i - B1.cols, j): val for (i, j), val in coeffs.entries.items() if i >= B1.cols},
            )
    return dims, mults, dmin


def module_pair_table(dimsA, multsA, dimsB, multsB, nvars, dminA, dminB, D, sign=None):
    """Hilbert table of M (x)_R N from slice data, optionally symmetrized.

    Generators in internal degree e are the blocks M_a (x) N_b with
    a + b = e; relations impose bilinearity over the ring generators,
    (x_v u) (x) w = u (x) (x_v w), and, when sign is given (requires
    M = N), the symmetry u (x) w = sign * w (x) u.
    """
    table = {}
    for e in range(dminA + dminB, D + 1):
        blocks = [
            (a, e - a)
            for a in range(dminA, e - dminB + 1)
            if dimsA.get(a) and dimsB.get(e - a)
        ]
        offsets = {}
        total = 0
        for (a, b) in blocks:
            offsets[(a, b)] = total
            total += dimsA[a] * dimsB[b]
        if total == 0:
            continue
        rel_cols = []

        def gen_index(a, b, i, j):
            return offsets[(a, b)] + i * dimsB[b] + j

        # bilinearity over the ring: (x_v u) (x) w = u (x) (x_v w)
        for v in range(nvars):
            for a in range(dminA, e - dminB):
                b = e - 1 - a
                if not dimsA.get(a) or not dimsB.get(b):
                    continue
                Ma = multsA[(v, a)]
                Mb = multsB[(v, b)]
                for i in range(dimsA[a]):
                    for j in range(dimsB[b]):
                        col = {}
                        if (a + 1, b) in offsets:
                            for (r, c), val in Ma.entries.items():
                                if c == i:
                                    key = gen_index(a + 1, b, r, j)
                                    col[key] = col.get(key, Fraction(0)) + val
                        if (a, b + 1) in offsets:
                            for (r, c), val in Mb.entries.items():
                                if c == j:
                                    key = gen_index(a, b + 1, i, r)
                                    col[key] = col.get(key, Fraction(0)) - val
                        if col:
                            rel_cols.append(col)
        if sign is not None:
            # symmetry relations u (x) w - sign * w (x) u
            for (a, b) in blocks:
                for i in range(dimsA[a]):
                    for j in range(dimsB[b]):
                        col = {gen_index(a, b, i, j): Fraction(1)}
                        if (b, a) in offsets:
                            key = gen_index(b, a, j, i)
                            col[key] = col.get(key, Fraction(0)) - Fraction(sign)
                        if any(v != 0 for v in col.values()):
                            rel_cols.append(col)
        entries = {}
        for c, col in enumerate(rel_cols):
            for r, val in col.items():
                if val:
                    entries[(r, c)] = val
        rel = SparseMatrix._of(QQ, total, len(rel_cols), entries)
        dim = total - qq_rank(rel)
        if dim:
            table[e] = dim
    return table


def module_square_table(dims, mults, nvars, sign: int, dmin: int, D: int):
    """Hilbert table of (M (x)_R M) / <u(x)w - sign * w(x)u> from slice data."""
    return module_pair_table(dims, mults, dims, mults, nvars, dmin, dmin, D, sign=sign)


def tensor_of_cyclics(a, b):
    # a, b: None for R, or a prime power for R/(p^e) over ZLoc
    if a is None and b is None:
        return None
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def predicted_lowest_invariants(group, parity_even: bool):
    """Invariant factors of the predicted lowest homology over ZLoc.

    Components of the input group: `rank` copies of R and one cyclic
    R/(p^e) per factor.  The prediction is the symmetric square of the
    group (even inf) or the quotient of the tensor square by the symmetric
    elements (odd inf; with 2 invertible this is the alternating square).
    """
    comps = [None] * group.rank + list(group.factors)
    out = []
    for k in range(len(comps)):
        for l in range(k, len(comps)):
            if k == l:
                if parity_even:
                    out.append(comps[k])  # S2 of a cyclic module is itself
            else:
                out.append(tensor_of_cyclics(comps[k], comps[l]))
    rank = sum(1 for c in out if c is None)
    factors = tuple(sorted(c for c in out if c is not None))
    return rank, factors


def lowest_square_oracle(X, D=None):
    """(i, predicted H_2i(S2 X)) for i = inf H(X), or None when X is exact.

    The prediction has the form check_symm09 compares: a Hilbert table up
    to D on a graded ring, (rank, factors) over ZLoc(p), a dimension over a
    field.  Graded infima are read to the bound D.
    """
    if X.ring.kind == "Poly":
        i = inf_h(X, D)
        if i is None:
            return None
        dims, mults, dmin = graded_homology_module(X, i, D)
        sign = 1 if i % 2 == 0 else -1
        return i, module_square_table(dims, mults, len(X.ring.variables), sign, dmin, D)
    h = homology(X)
    i = h.inf
    if i is None:
        return None
    if h.kind == "invariant_factors":
        return i, predicted_lowest_invariants(h.group(i), parity_even=i % 2 == 0)
    dim = h.dimension(i)
    return i, comb(dim + 1, 2) if i % 2 == 0 else comb(dim, 2)
