"""Independent oracles for the lowest homology of tensor and symmetric squares.

These compute, by slow and separate means, what `check_symm09` predicts
from one free presentation: over a graded ring the Hilbert table of
M (x)_R N, S2(M) or Lambda2(M) from the slice data of M = H_i(X)
(dimensions, representative cycles and the action of each variable);
over ZLoc(p) the invariant factors of S2 or Lambda2 of a sum of cyclic
modules; over a field a binomial coefficient.

The stepwise minimalization below is the reference for
`series.minimal_model` and `series.minimize`: it splits off one
contractible summand at a time, building a new complex and a projection
chain map per pivot.  `reference_split_units` is the same one-pass split
as `series._split_units`, with every Schur update in exact field
arithmetic (`Fraction` over QQ and ZLoc(p)) in place of integer rows.
`reference_field_homology` ranks each differential over a field, the
reference for `homology()` there, which reads the ranks of the minimal
complex.  `reference_quotient_complex` writes a presented complex over a field as
the free complex of its quotients F_n / im r_n on explicit complement
bases, the reference for the rank formula of `homology_presented`.
`reference_slice_matrix` writes a degree slice as a QQ matrix of
`Fraction`s, looking every target row up by its (generator, monomial)
pair: the reference for `linalg.slice_matrix`, which writes integer rows
scaled by positive factors, and the slice every graded oracle here ranks
or reduces with the field kernels of `linalg`.  `reference_graded_table`
ranks its whole slices of d_n and d_{n+1} with `linalg.rank`.
`reference_sliced_tables` makes each internal degree one pass up the
slices of `linalg.slice_matrix`, each ranked by `linalg.qq_rank` without
the rows at the previous slice's pivot columns.  Both are references for
the graded tables of `homology()`, which it reads off Hilbert series.  `reference_square` builds the labels, rho,
sigma and alpha of a symmetric square by separate walks, the reference
for the single walk of `sym2._walk`.  `reference_induced_sigma` writes
the transported homotopy of `sym2.induced_homotopy` entry by entry from
the tensor basis labels, the reference for its Kronecker products.
`reference_local_checkers` runs the bodies of `check_symm07`,
`check_symm07pp`, `check_s2fpd01` and `check_s2fpd02` on X itself, the
reference for the checkers, which build on the degree-zero part of a
graded X (`series._degree_zero_part`).
`reference_matrix_rows` writes a document matrix densely, one Scalar
formatted per cell, the reference for `io._matrix_to_rows`, which
formats only the stored entries.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add

from symchain import QQ, ChainMap, FreeComplex, SparseMatrix, homology, identity_map, is_quasi_iso, sym2
from symchain.complexes import compose, tensor, tensor_basis
from symchain.homology import _exactness_failures
from symchain.linalg import SliceTable, kernel_basis, qq_rank, rank, rref, slice_basis, slice_matrix, solve_field
from symchain.series import _minimal_ranks, _square_ranks
from symchain.sym2 import _alpha_summands, _pivot_columns
from symchain.theorems import _is_two_odd_shifts, _is_zero_or_single_shift, _verdict


def reference_matrix_rows(M: SparseMatrix) -> list:
    """The dense rows of a document matrix: every cell formatted as a Scalar."""
    return [[str(v) for v in row] for row in M.to_rows()]


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
        dn = reference_slice_matrix(X.diff(n), X.gdeg(n), X.gdeg(n - 1), d)[0]
        dn1 = reference_slice_matrix(X.diff(n + 1), X.gdeg(n + 1), X.gdeg(n), d)[0]
        src = slice_basis(nvars, X.gdeg(n), d)
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
        dim = total - rank(rel)
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
    field.  Graded infima are read off the Hilbert tables to the bound D,
    independently of the minimal model the checker reads.
    """
    if X.ring.kind == "Poly":
        i = homology(X, bound=D).inf
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


# -- stepwise minimalization ------------------------------------------------


def _first_unit_pivot(X: FreeComplex):
    # scan degrees ascending, then rows, then columns: first unit entry wins
    is_unit = X.ring.ops.is_unit
    for n in X.degrees():
        M = X.diff(n)
        units = [key for key, v in M.entries.items() if is_unit(v)]
        if units:
            return (n, *min(units))
    return None


def _eliminate(X: FreeComplex, n: int, i: int, j: int) -> FreeComplex:
    """Split off the contractible summand at the unit entry (i, j) of d_n.

    The new degree-n module drops generator j, the new degree-(n-1) module
    drops generator i, and the differential at n picks up the
    Schur-complement correction.
    """
    ring = X.ring
    add, mul, neg = ring.ops.add, ring.ops.mul, ring.ops.neg
    M = X.diff(n)
    u_inv = ring.ops.inverse(M.entries[(i, j)])
    keep_cols = [c for c in range(X.rank(n)) if c != j]
    keep_rows = [r for r in range(X.rank(n - 1)) if r != i]
    col_pos = {c: k for k, c in enumerate(keep_cols)}
    row_pos = {r: k for k, r in enumerate(keep_rows)}
    # d'_n = D - v u^{-1} w on the kept generators
    entries = {}
    col_j = {r: v for (r, c), v in M.entries.items() if c == j}
    row_i = {c: v for (r, c), v in M.entries.items() if r == i}
    for (r, c), v in M.entries.items():
        if r == i or c == j:
            continue
        entries[(row_pos[r], col_pos[c])] = v
    for r, vr in col_j.items():
        if r == i:
            continue
        for c, wc in row_i.items():
            if c == j:
                continue
            key = (row_pos[r], col_pos[c])
            corr = neg(mul(mul(vr, u_inv), wc))
            prev = entries.get(key)
            entries[key] = corr if prev is None else add(prev, corr)
    new_dn = SparseMatrix._of(ring, len(keep_rows), len(keep_cols), entries)

    ranks = X.ranks
    ranks[n] -= 1
    ranks[n - 1] -= 1
    diffs = {}
    for m in X.degrees():
        if m == n:
            diffs[m] = new_dn
        elif m == n + 1:
            # drop row j of d_{n+1}; the killed row is forced by d.d = 0
            D = X.diff(m)
            diffs[m] = SparseMatrix._of(
                ring, len(keep_cols), D.cols,
                {(col_pos[r], c): v for (r, c), v in D.entries.items() if r != j},
            )
        elif m == n - 1:
            D = X.diff(m)
            diffs[m] = SparseMatrix._of(
                ring, D.rows, len(keep_rows),
                {(r, row_pos[c]): v for (r, c), v in D.entries.items() if c != i},
            )
        else:
            diffs[m] = X.diff(m)
    gdegs = None
    if X.graded:
        gdegs = {}
        for m in X.degrees():
            degs = X.gdeg(m)
            if m == n:
                gdegs[m] = tuple(d for c, d in enumerate(degs) if c != j)
            elif m == n - 1:
                gdegs[m] = tuple(d for c, d in enumerate(degs) if c != i)
            else:
                gdegs[m] = degs
    return FreeComplex(ring, ranks, diffs, gdegs)


def _projection(X: FreeComplex, smaller: FreeComplex, n: int, i: int, j: int) -> ChainMap:
    """The projection X -> smaller of the step _eliminate(X, n, i, j).

    Identity on the kept generators, except that X_{n-1} -> smaller_{n-1}
    sends generator i to -u^{-1} v, the column of d_n at j outside row i
    scaled by the inverse of the pivot u.
    """
    ring = X.ring
    one, mul, neg = ring.ops.one, ring.ops.mul, ring.ops.neg
    M = X.diff(n)
    u_inv = ring.ops.inverse(M.entries[(i, j)])
    keep_cols = [c for c in range(X.rank(n)) if c != j]
    keep_rows = [r for r in range(X.rank(n - 1)) if r != i]
    row_pos = {r: k for k, r in enumerate(keep_rows)}
    proj_maps = {}
    for m in smaller.degrees():
        if m == n:
            proj_maps[m] = SparseMatrix._of(
                ring, len(keep_cols), X.rank(n),
                {(k, c): one for k, c in enumerate(keep_cols)},
            )
        elif m == n - 1:
            entries = {(k, r): one for k, r in enumerate(keep_rows)}
            for (r, c), v in M.entries.items():
                if c == j and r != i:
                    entries[(row_pos[r], i)] = neg(mul(u_inv, v))
            proj_maps[m] = SparseMatrix._of(ring, len(keep_rows), X.rank(n - 1), entries)
        else:
            proj_maps[m] = SparseMatrix.identity(ring, X.rank(m))
    return ChainMap(X, smaller, proj_maps)


def stepwise_minimize(X: FreeComplex):
    """(M, q) by eliminating the first unit of the whole complex, one
    pivot at a time, composing the projection of each step."""
    q = identity_map(X)
    while (pivot := _first_unit_pivot(X)) is not None:
        smaller = _eliminate(X, *pivot)
        q = compose(_projection(X, smaller, *pivot), q)
        X = smaller
    return X, q


def reference_split_units(X: FreeComplex, with_q: bool):
    """(M, q or None) by the one-pass unit split on exact values: degrees
    ascending, the least unit (i, j) of d_n first, each row r of d_n
    updated to row_r - v_r u^{-1} row_i, row j of d_{n+1} and column i of
    d_{n-1} dropped; q_{n-1} gets row_r += -v_r u^{-1} row_i."""
    ring, ops = X.ring, X.ring.ops
    degrees = X.degrees()
    d = {n: {} for n in degrees}
    for n in degrees:
        for (r, c), v in X.diff(n).entries.items():
            d[n].setdefault(r, {})[c] = v
    alive = {n: set(range(X.rank(n))) for n in degrees}
    q = {n: {r: {r: ops.one} for r in alive[n]} for n in degrees}
    for n in degrees:
        D = d[n]
        while units := [(r, c) for r, row in D.items() for c, v in row.items() if ops.is_unit(v)]:
            i, j = min(units)
            w = D.pop(i)
            u_inv = ops.inverse(w.pop(j))
            for r in [r for r, row in D.items() if j in row]:
                row = D[r]
                s = ops.neg(ops.mul(row.pop(j), u_inv))
                for target, source in ((row, w), (q[n - 1][r], q[n - 1][i])):
                    for c, v in source.items():
                        t = ops.add(target[c], ops.mul(s, v)) if c in target else ops.mul(s, v)
                        if t:
                            target[c] = t
                        else:
                            target.pop(c, None)
                if not row:
                    del D[r]
            d.get(n + 1, {}).pop(j, None)
            alive[n - 1].discard(i)
            alive[n].discard(j)
            del q[n - 1][i], q[n][j]
    pos = {n: {k: p for p, k in enumerate(sorted(alive[n]))} for n in degrees}
    diffs = {
        n: SparseMatrix._of(ring, len(pos[n - 1]), len(pos[n]), {
            (pos[n - 1][r], pos[n][c]): v
            for r, row in d[n].items() for c, v in row.items() if c in pos[n]
        })
        for n in degrees if n - 1 in pos
    }
    gdegs = {n: tuple(X.gdeg(n)[k] for k in pos[n]) for n in degrees} if X.graded else None
    M = FreeComplex._of(ring, {n: len(pos[n]) for n in degrees}, diffs, gdegs)
    if not with_q:
        return M, None
    maps = {
        n: SparseMatrix._of(ring, len(pos[n]), X.rank(n), {
            (pos[n][r], c): v for r, row in q[n].items() for c, v in row.items()
        })
        for n in degrees if pos[n]
    }
    return M, ChainMap._of(X, M, maps)


def reference_field_homology(X: FreeComplex) -> dict:
    """{n: dim H_n(X)}, nonzero only, over a field: dim X_n - rank d_n -
    rank d_{n+1}, with each differential ranked by `linalg.rank`."""
    ranks = {n: rank(X.diff(n)) for n in X.degrees()}
    return {n: h for n in X.degrees() if (h := X.rank(n) - ranks.get(n, 0) - ranks.get(n + 1, 0))}


def reference_quotient_complex(P) -> FreeComplex:
    """The quotient complex Q_n = F_n / im r_n of a presented complex P over
    a field.  rref of [r_n | I] picks independent relation columns and the
    standard vectors that complete them to a basis of F_n; Q_n gets those
    standard vectors as its basis, and dbar_n maps each to the complement
    coordinates of its image under d_n in that basis of F_{n-1}."""
    ring = P.ring
    bases, comp = {}, {}
    for n in P.degrees():
        R, F = P.relation(n), P.rank_free_cover(n)
        eye = SparseMatrix.identity(ring, F)
        _, pivots = rref(R.hstack(eye))
        comp[n] = [c - R.cols for _, c in pivots if c >= R.cols]
        kept = R.submatrix_columns([c for _, c in pivots if c < R.cols])
        bases[n] = kept.hstack(eye.submatrix_columns(comp[n]))
        assert bases[n].cols == F
    diffs = {}
    for n in P.degrees():
        if n - 1 not in comp or not comp[n] or not comp[n - 1]:
            continue
        coords = solve_field(bases[n - 1], P.diff(n).submatrix_columns(comp[n]))
        skip = bases[n - 1].cols - len(comp[n - 1])
        diffs[n] = SparseMatrix(ring, len(comp[n - 1]), len(comp[n]), {
            (i - skip, j): coords.entry(i, j) for (i, j) in coords.entries if i >= skip
        })
    return FreeComplex(ring, {n: len(c) for n, c in comp.items()}, diffs)


# -- degree slices by (generator, monomial) lookup ------------------------------


def reference_graded_table(X: FreeComplex, n: int, D: int) -> dict:
    """{d: dim H_n(X)_d} for d <= D, nonzero only, from the whole slices of
    d_n and d_{n+1} from reference_slice_matrix, each ranked in full with
    linalg.rank."""
    table = {}
    for d in range(X.min_gdeg(), D + 1):
        dn = reference_slice_matrix(X.diff(n), X.gdeg(n), X.gdeg(n - 1), d)[0]
        dn1 = reference_slice_matrix(X.diff(n + 1), X.gdeg(n + 1), X.gdeg(n), d)[0]
        if h := dn.cols - rank(dn) - rank(dn1):
            table[d] = h
    return table


def reference_sliced_tables(X: FreeComplex, lo: int, hi: int, D: int) -> dict:
    """{n: {d: dim H_n(X)_d}} for lo <= n <= hi and d <= D, nonzero only,
    ranked slice by slice.

    Each differential d_n, n = lo..hi + 1, is prepared once per table
    (SliceTable.prepare: grading checked, rows scaled to integers, terms
    packed into codes), and the monomials of each complementary degree are
    listed once.  Each internal degree d is then one pass up n over the
    slices of d_n, written straight into integer rows.  The pivot columns
    J of d_n's slice carry a nonsingular minor, so rank d_{n+1} is the rank
    of the rows of its slice off J (see qq_rank), and the slice of d_{n+1}
    is written and ranked on dim X_{n,d} - rank d_n rows.
    dim H_n(X)_d = dim X_{n,d} - rank d_n - rank d_{n+1}.
    """
    slices = SliceTable(len(X.ring.variables), D - X.min_gdeg())
    maps = [slices.prepare(X.diff(n), X.gdeg(n), X.gdeg(n - 1)) for n in range(lo, hi + 2)]
    tables = {}
    for d in range(X.min_gdeg(), D + 1):
        sizes, ranks, pivots = [], [], ()
        for G in maps:
            dn, _, _ = slice_matrix(G, d, pivots)
            r, pivots = qq_rank(dn)
            sizes.append(dn.cols)
            ranks.append(r)
        for k, n in enumerate(range(lo, hi + 1)):
            if h := sizes[k] - ranks[k] - ranks[k + 1]:
                tables.setdefault(n, {})[d] = h
    return {n: tables[n] for n in sorted(tables)}


def reference_slice_matrix(M: SparseMatrix, src_degrees, tgt_degrees, d: int):
    """(QQ matrix, target_basis, source_basis) of the degree-d slice of M,
    with both bases from slice_basis and each term's row found in a
    {(generator, monomial): row} dictionary; terms whose monomial is not in
    the target slice are dropped."""
    nvars = len(M.ring.variables)
    src_basis = slice_basis(nvars, src_degrees, d)
    tgt_basis = slice_basis(nvars, tgt_degrees, d)
    tgt_index = {key: r for r, key in enumerate(tgt_basis)}
    by_col = {}
    for (i, j), v in M.entries.items():
        by_col.setdefault(j, []).append((i, v))
    entries = {}
    for c, (j, mono) in enumerate(src_basis):
        for i, value in by_col.get(j, ()):
            for exp, coeff in value.items():
                r = tgt_index.get((i, tuple(map(add, exp, mono))))
                if r is None:
                    continue
                key = (r, c)
                prev = entries.get(key)
                val = coeff if prev is None else prev + coeff
                if val:
                    entries[key] = val
                else:
                    del entries[key]
    mat = SparseMatrix._of(QQ, len(tgt_basis), len(src_basis), entries)
    return mat, tgt_basis, src_basis


def scaled_reference_rows(ref: SparseMatrix, tgt_offsets, factors, drop=()) -> dict:
    """{row: {col: value}} over the nonzero rows of the reference slice ref
    outside drop, each row times factors[i] for the target generator i
    whose block (starting at tgt_offsets[i]) holds it."""
    rows = {}
    for (r, c), v in ref.entries.items():
        if r not in drop:
            rows.setdefault(r, {})[c] = v * factors[bisect_right(tgt_offsets, r) - 1]
    return rows


# -- the symmetric square by separate walks ----------------------------------------


def reference_sym_basis(X: FreeComplex, n: int, include_odd_diagonal: bool = False):
    """The canonical labels of degree n by a nested loop over the degrees
    p <= q of X: the reference for the label order of `sym2.sym_basis`."""
    labels = []
    for p in X.degrees():
        q = n - p
        if p > q or X.rank(q) == 0:
            continue
        rp, rq = X.rank(p), X.rank(q)
        if p < q:
            for i in range(rp):
                for j in range(rq):
                    labels.append(((p, i), (q, j)))
        else:
            for i in range(rp):
                for j in range(i, rq):
                    if i == j and p % 2 == 1 and not include_odd_diagonal:
                        continue
                    labels.append(((p, i), (q, j)))
    return labels


def reference_square(X: FreeComplex, keep_odd_diagonal: bool):
    """(labels, rho, sigma, alpha) of the square of X, built by one walk for
    the labels, rho and sigma over every degree of [2 lo, 2 hi] and another
    walk of the tensor basis for alpha, over the degrees of T = X (x) X.
    The reference for `sym2._walk`."""
    ring = X.ring
    ops = ring.ops
    one = ops.one
    minus_one = ops.neg(one)
    labels, rho, sigma, alpha = {}, {}, {}, {}
    if X.is_zero():
        return labels, rho, sigma, alpha
    lo, hi = X.support
    for n in range(2 * lo, 2 * hi + 1):
        labs = reference_sym_basis(X, n, keep_odd_diagonal)
        row_of = {lab: k for k, lab in enumerate(labs)}
        tbasis = tensor_basis(X, X, n)
        rho_entries, sigma_entries = {}, {}
        for col, (a, b) in enumerate(tbasis):
            if a > b:  # never diagonal, so its swap is a generator
                sign = minus_one if (a[0] * b[0]) % 2 else one
                rho_entries[(row_of[(b, a)], col)] = sign
                continue
            row = row_of.get((a, b))
            if row is not None:  # else an odd diagonal square, killed
                rho_entries[(row, col)] = one
                sigma_entries[(col, row)] = one
        labels[n] = labs
        rho[n] = SparseMatrix._of(ring, len(labs), len(tbasis), rho_entries)
        sigma[n] = SparseMatrix._of(ring, len(tbasis), len(labs), sigma_entries)
    for n in tensor(X, X).degrees():
        tbasis = tensor_basis(X, X, n)
        index = {lab: k for k, lab in enumerate(tbasis)}
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(tbasis):
            swapped = index[((q, j), (p, i))]
            v = one if (p * q) % 2 else minus_one
            if swapped == col:  # a diagonal generator is its own swap: 1 + v is 0 or 2
                entries[(col, col)] = ops.add(one, v)
            else:
                entries[(col, col)] = one
                entries[(swapped, col)] = v
        alpha[n] = SparseMatrix._of(ring, len(tbasis), len(tbasis), entries)
    return labels, rho, sigma, alpha


# -- the transported homotopy entry by entry -----------------------------------------


def reference_induced_sigma(f: ChainMap, g: ChainMap, s) -> dict:
    """{n: sigma_n} for the homotopy s from f to g, nonzero degrees only:
    on x (x) x' with x = (p, i) and x' = (q, j), sigma is
    (1/2)[(-1)^p (f+g)(x) (x) s(x') + s(x) (x) (f+g)(x')].  Each entry of
    each sigma_n is read off one pair of tensor basis labels, one source
    and one target, with Scalar arithmetic.  The reference for
    `sym2.induced_homotopy`."""
    X, Y = f.source, f.target
    ring = X.ring
    half = ring.scalar(2).inverse()

    def fg(n, row, col):
        return f.component(n).entry(row, col) + g.component(n).entry(row, col)

    out = {}
    for n in tensor(X, X).degrees():
        source, target = tensor_basis(X, X, n), tensor_basis(Y, Y, n + 1)
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(source):
            for row, ((a, k), (b, l)) in enumerate(target):
                v = ring.zero()
                if (a, b) == (p, q + 1):
                    term = fg(p, k, i) * s.component(q).entry(l, j)
                    v = v + (-term if p % 2 else term)
                if (a, b) == (p + 1, q):
                    v = v + s.component(p).entry(k, i) * fg(q, l, j)
                if not v.is_zero():
                    entries[(row, col)] = half * v
        if entries:
            out[n] = SparseMatrix(ring, len(target), len(source), entries)
    return out


def reference_local_checkers(X: FreeComplex) -> dict:
    """{theorem: report} of check_symm07, check_symm07pp, check_s2fpd01 and
    check_s2fpd02, each body run on X itself, with its full entries, from
    one square of X.  X is over a local ring where 2 is a unit."""
    S = sym2(X)
    image, kernel, q = _alpha_summands(S)
    M = _minimal_ranks(X)
    SM = _minimal_ranks(S.complex)
    any_shift, j = _is_zero_or_single_shift(SM, parity=None)
    cond3 = any_shift and bool(SM)
    squares = _square_ranks(M)
    return {
        "symm07": _verdict("symm07", X, {
            "i": is_quasi_iso(S.proj).failures,
            "ii": _exactness_failures(image.complex),
            "iii": is_quasi_iso(kernel.inclusion).failures,
            "iv": _is_zero_or_single_shift(M, parity=0)[0],
        }),
        "symm07pp": _verdict("symm07pp", X, {
            "i": is_quasi_iso(S.alpha).failures,
            "ii": is_quasi_iso(q).failures,
            "iii": is_quasi_iso(image.inclusion).failures,
            "iv": _exactness_failures(S.complex),
            "v": _exactness_failures(kernel.complex),
            "vi": _is_zero_or_single_shift(M, parity=1)[0],
        }),
        "s2fpd01": _verdict(
            "s2fpd01",
            X,
            {"rank_inequality": all(squares.get(p + r, 0) >= M[p] * M[r] for p, r in combinations(M, 2))},
            {
                "minimal_length": max(M) - min(M) if M else None,
                "square_minimal_length": max(SM) - min(SM) if SM else None,
            },
            equivalence=False,
        ),
        "s2fpd02": _verdict(
            "s2fpd02",
            X,
            {
                "i": (_is_zero_or_single_shift(M, parity=0)[0] and bool(M)) or _is_two_odd_shifts(M),
                "ii": _is_zero_or_single_shift(SM, parity=0)[0] and bool(SM),
                "iii": cond3,
            },
            {"j": j} if cond3 else None,
        ),
    }
