"""Exact matrix operations: products, kernels, Smith normal form, slices."""

import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod

import pytest
from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy import ZZ as SympyZZ
from sympy import Matrix, Rational
from sympy.polys.matrices import DomainMatrix

from symchain import (
    GF,
    QQ,
    SparseMatrix,
    ZLoc,
    ZZ,
    base_change,
    graded_poly,
    homology,
    kernel_basis,
    koszul,
    smith_normal_form,
    sym2,
    tensor,
    weak_sym2,
)
from symchain.errors import GradingError, LinearSolveError, ShapeError, UnsupportedRingError
from symchain.homology import homology_presented
from symchain.linalg import (
    _echelon,
    _initial_module,
    _int_rows,
    _markowitz_rank,
    image_basis_pid,
    invariant_factors,
    kernel_pid,
    monomials_of_degree,
    qq_rank,
    rank,
    rref,
    slice_basis,
    slice_matrix,
    solve_exact,
    solve_field,
    solve_pid,
)

POLY = graded_poly("x", "y")
linalg_module = sys.modules["symchain.linalg"]


def rows(ring, data):
    return SparseMatrix.from_rows(ring, data)


def test_identity_product():
    A = rows(ZZ, [[1, 2], [3, 4]])
    assert SparseMatrix.identity(ZZ, 2) @ A == A


def test_koszul_composite_vanishes():
    x = POLY.variable("x")
    y = POLY.variable("y")
    left = rows(POLY, [[x, y]])
    right = rows(POLY, [[y], [-x]])
    assert (left @ right).is_zero()


def test_scale_by_inverse():
    assert rows(QQ, [[2]]).scale(Fraction(1, 2)) == rows(QQ, [[1]])


def test_dimension_mismatch():
    with pytest.raises(ShapeError):
        rows(ZZ, [[1, 2]]) @ rows(ZZ, [[1, 2]])


def test_kernel_of_repeated_rows():
    A = rows(QQ, [[1, 1], [1, 1]])
    K = kernel_basis(A)
    assert K.cols == 1
    assert (A @ K).is_zero()
    # spans {(1, -1)} up to scale
    v0, v1 = K.entry(0, 0), K.entry(1, 0)
    assert v0 == -v1 and not v0.is_zero()


def test_kernel_of_identity_is_empty():
    assert kernel_basis(SparseMatrix.identity(GF(7), 3)).cols == 0


def test_kernel_requires_field():
    with pytest.raises(UnsupportedRingError):
        kernel_basis(rows(ZZ, [[2]]))


def _sympy_matrix(M):
    return Matrix(M.rows, M.cols, lambda i, j: Rational(M.entry(i, j).value))


def _assert_unimodular(M, p=None):
    """sympy's exact det is a unit: +-1 over ZZ, p-adic valuation 0 over ZLoc(p)."""
    det = _sympy_matrix(M).det()
    if p is None:
        assert det in (1, -1)
    else:
        assert det != 0 and det.p % p != 0 and det.q % p != 0


# independent oracle for the SNF example: d1 = gcd of the entries,
# d1*d2 = |det|
def test_snf_two_by_two():
    A = rows(ZZ, [[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    diag = [d.value for d in snf.diagonal]
    assert diag == [2, 4]
    assert snf.U @ A @ snf.V == snf.D
    _assert_unimodular(snf.U)
    _assert_unimodular(snf.V)


def test_snf_identity():
    I = SparseMatrix.identity(ZZ, 3)
    snf = smith_normal_form(I)
    assert snf.D == I


def test_snf_zloc_units_collapse():
    R = ZLoc(3)
    assert smith_normal_form(rows(R, [[3]])).D == rows(R, [[3]])
    assert smith_normal_form(rows(R, [[2]])).D == rows(R, [[1]])


def _random_int_matrix(rng, rows_, cols):
    return SparseMatrix(
        ZZ, rows_, cols,
        {(i, j): rng.randint(-6, 6) for i in range(rows_) for j in range(cols)},
    )


def test_snf_invariants_random():
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        A = _random_int_matrix(rng, m, n)
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.D
        diag = [d.value for d in snf.nonzero_diagonal()]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert all(d > 0 for d in diag)
        if m and n:
            _assert_unimodular(snf.U)
            _assert_unimodular(snf.V)
        # off-diagonal of D vanishes
        assert all(i == j for (i, j) in snf.D.entries)
        assert len(diag) == rank(A)


def test_snf_invariants_random_zloc():
    rng = random.Random(29)
    R = ZLoc(3)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = SparseMatrix(
            R, m, n,
            {
                (i, j): Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
                for i in range(m)
                for j in range(n)
            },
        )
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.D
        diag = [d.value for d in snf.nonzero_diagonal()]
        for d in diag:
            # each is a power of 3
            v = d
            while v % 3 == 0:
                v /= 3
            assert v == 1
        _assert_unimodular(snf.U, 3)
        _assert_unimodular(snf.V, 3)


# -- invariant factors: the diagonal-only path against SNF and sympy ----------------


def _zloc_value(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 5]))


def _random_matrix(ring, rng, m, n, density):
    value = (lambda: rng.randint(-9, 9)) if ring == ZZ else (lambda: _zloc_value(rng))
    return SparseMatrix(
        ring, m, n, {(i, j): value() for i in range(m) for j in range(n) if rng.random() < density}
    )


def _unimodular(ring, rng, n):
    """Upper unitriangular times lower triangular with diagonal +-1."""
    upper = {(i, j): rng.randint(-3, 3) for i in range(n) for j in range(i + 1, n)}
    lower = {(i, j): rng.randint(-3, 3) for i in range(n) for j in range(i)}
    for i in range(n):
        upper[(i, i)] = 1
        lower[(i, i)] = rng.choice([1, -1])
    return SparseMatrix(ring, n, n, upper) @ SparseMatrix(ring, n, n, lower)


def _invariant_factor_cases(ring, rng):
    """(matrix, expected factors or None) for the cross-checks."""
    cases = [(SparseMatrix.zero(ring, m, n), []) for m, n in [(0, 0), (0, 3), (3, 0), (3, 4)]]
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append((_random_matrix(ring, rng, m, n, rng.choice([0.3, 0.6, 1.0])), None))
    for _ in range(15):  # rank deficient: a product through a thinner space
        m, n, k = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 2)
        thin = _random_matrix(ring, rng, m, k, 1.0) @ _random_matrix(ring, rng, k, n, 1.0)
        cases.append((thin, None))
    for n in range(1, 6):  # unimodular, so the minor's determinant D is 1
        cases.append((_unimodular(ring, rng, n), [1] * n))
    # known diagonals in disguise; the last factor of each equals D
    p = 3 if ring.kind == "ZLoc" else None
    for diag in ([2], [9], [1, 6], [3, 3, 0], [1, 3, 9, 0]):
        n = len(diag)
        D = SparseMatrix(ring, n, n + 1, {(i, i): d for i, d in enumerate(diag)})
        A = _unimodular(ring, rng, n) @ D @ _unimodular(ring, rng, n + 1)
        want = [d for d in diag if d]
        if p:
            want = [p ** _p_valuation(d, p) for d in want]
        cases.append((A, want))
    return cases


def _p_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _sympy_invariant_factors(A, normalforms):
    """Nonzero invariant factors from sympy, on rows scaled to integers.

    Over ZLoc(p) the row scalings are units and the answer is the p-part.
    """
    data = []
    for i in range(A.rows):
        row = [Fraction(A.entry(i, j).value) for j in range(A.cols)]
        m = lcm(*(v.denominator for v in row))
        data.extend(int(v * m) for v in row)
    factors = [
        abs(int(f))
        for f in normalforms.invariant_factors(Matrix(A.rows, A.cols, data), domain=SympyZZ)
        if f != 0
    ]
    if A.ring.kind == "ZLoc":
        factors = [A.ring.p ** _p_valuation(f, A.ring.p) for f in factors]
    return factors


@pytest.mark.parametrize("ring", [ZZ, ZLoc(3)], ids=str)
def test_invariant_factors_match_snf_and_sympy(ring):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    cases = _invariant_factor_cases(ring, random.Random(61 if ring == ZZ else 67))
    for A, want in cases:
        got = invariant_factors(A)
        assert got == [int(d.value) for d in smith_normal_form(A).nonzero_diagonal()]
        assert got == _sympy_invariant_factors(A, normalforms)
        if want is not None:
            assert got == want
    # the cross-checks reach a nontrivial factor on every ring
    assert any(d > 1 for A, _ in cases for d in invariant_factors(A))


def _minor_det(int_rows):
    """|det| of the maximal minor _echelon finds on the rows, in their order."""
    return _echelon([dict(row) for row in int_rows])[1]


def _sympy_minor(data, pivot_cols):
    """|det A[I, J]| by sympy's exact DomainMatrix, for dense rows of ints or
    Fractions: I are the rows that raise the rank of the rows before them
    (the rows that become pivot rows), the pivot columns of the transpose,
    and J the given pivot columns; 1 for the empty minor."""

    def matrix(rows_):
        cells = [[SympyQQ(f.numerator, f.denominator) for f in map(Fraction, r)] for r in rows_]
        return DomainMatrix(cells, (len(rows_), len(rows_[0]) if rows_ else 0), SympyQQ)

    if not pivot_cols:
        assert not any(any(row) for row in data)
        return 1
    I = list(matrix(data).transpose().rref()[1])
    assert len(I) == len(pivot_cols)
    det = matrix([[data[i][j] for j in pivot_cols] for i in I]).det()
    return abs(Fraction(int(det.numerator), int(det.denominator)))


@pytest.mark.parametrize("ring", [ZZ, ZLoc(3)], ids=str)
def test_echelon_determinant_matches_sympy(ring):
    """_echelon reads |det A[I, J]| off its fraction-free pass, for either
    reduced flag, on rows with planted combinations (_rank_case), a zero row
    and a repeated row, in both orders.  Over ZLoc(3) the rows are the ones
    _int_rows scales to integers, and their minor has the 3-part of the
    rational one.  Mod a prime the determinant is None, not a number."""
    rng = random.Random(83 if ring == ZZ else 89)
    nontrivial = 0
    for _ in range(150):
        A = _rank_case(ring, rng)
        int_rows, _ = _int_rows(A)
        if ring.kind == "ZLoc":
            echelon, det = _echelon([dict(row) for row in int_rows])
            dense = [[Fraction(v.value) for v in row] for row in A.to_rows()]
            minor = _sympy_minor([row for row in dense if any(row)], sorted(echelon))
            assert _p_valuation(det, 3) == _p_valuation(minor.numerator, 3)
        if int_rows:
            int_rows.insert(rng.randrange(len(int_rows) + 1), {})
            int_rows.insert(rng.randrange(len(int_rows) + 1), dict(rng.choice(int_rows)))
        for ordered in (int_rows, int_rows[::-1]):
            data = [[row.get(j, 0) for j in range(A.cols)] for row in ordered]
            echelon, det = _echelon([dict(row) for row in ordered])
            assert det == _sympy_minor(data, sorted(echelon))
            reduced, reduced_det = _echelon([dict(row) for row in ordered], reduced=True)
            assert (sorted(reduced), reduced_det) == (sorted(echelon), det)
            residues = [{j: v % 5 for j, v in row.items() if v % 5} for row in ordered]
            assert _echelon(residues, 5)[1] is None
            nontrivial += det > 1
    assert nontrivial > 100


def _chain_without_units(rng, p):
    """A divisibility chain d_1 | d_2 | ... whose first factor is a product
    of two or three of the primes 2, 3, 5, 7 (one of them p, when given)."""
    primes = [2, 3, 5, 7]
    others = [q for q in primes if q != p]
    d = prod(([p] if p else []) + rng.sample(others, rng.randint(1, 2) + (not p)))
    chain = []
    for _ in range(rng.randint(1, 4)):
        chain.append(d)
        for _ in range(rng.randint(0, 2)):
            d *= rng.choice(primes)
    if rng.random() < 0.3:
        chain.append(0)  # rank deficient
    return chain


@pytest.mark.parametrize("ring", [ZZ, ZLoc(3), ZLoc(5)], ids=str)
def test_invariant_factors_with_no_unit_mod_the_minor(ring):
    """U . diag . V with every factor a multiple of d_1, which has two or more
    prime factors: each entry is a multiple of d_1, and so of a prime that
    divides the first minor's D, so the unit split pivots on nothing and the
    whole matrix goes to the Smith loop mod the gcd of the two minors."""
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    p = ring.p if ring.kind == "ZLoc" else None
    rng = random.Random({ZZ: 71, ZLoc(3): 73, ZLoc(5): 79}[ring])
    for _ in range(25):
        diag = _chain_without_units(rng, p)
        n = len(diag)
        D = SparseMatrix(ring, n, n + 1, {(i, i): d for i, d in enumerate(diag)})
        A = _unimodular(ring, rng, n) @ D @ _unimodular(ring, rng, n + 1)
        int_rows, _ = _int_rows(A)
        modulus = _minor_det(int_rows)
        if p:
            modulus = p ** _p_valuation(modulus, p)
        assert all(gcd(v, modulus) > 1 for row in int_rows for v in row.values())
        residues = [{j: v % modulus for j, v in row.items() if v % modulus} for row in int_rows]
        assert _markowitz_rank(residues, modulus)[0] == 0
        want = [d if not p else p ** _p_valuation(d, p) for d in diag if d]
        got = invariant_factors(A)
        assert got == want
        assert got == [int(d.value) for d in smith_normal_form(A).nonzero_diagonal()]
        assert got == _sympy_invariant_factors(A, normalforms)


@pytest.mark.parametrize(
    "ring, data, modulus, want",
    [(ZZ, [[1, 2], [3, 0]], 6, [1, 6]), (ZLoc(3), [[1, 3], [3, 0]], 9, [1, 9])],
    ids=["ZZ mod 6", "ZLoc(3) mod 9"],
)
def test_unit_split_update_vanishing_where_the_row_has_no_entry(ring, data, modulus, want):
    """Mod a composite D, b*v can be 0 with b, v nonzero.  Pivoting on the
    unit 1 clears row 2 with b = 3, and 3 * 2 = 0 mod 6 (3 * 3 = 0 mod 9)
    lands in column 1, where row 2 has no entry.  The row empties, so the
    Smith loop reaches no diagonal position and the last factor reads D."""
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    A = rows(ring, data)
    int_rows, _ = _int_rows(A)
    assert gcd(_minor_det(int_rows), _minor_det(int_rows[::-1])) == modulus
    assert _markowitz_rank([dict(row) for row in int_rows], modulus) == (1, [])
    assert invariant_factors(A) == want
    assert want == [int(d.value) for d in smith_normal_form(A).nonzero_diagonal()]
    assert want == _sympy_invariant_factors(A, normalforms)


def test_smith_loop_receives_no_unit_after_the_split(monkeypatch):
    """Counting guards for the modulus and the unit split: on ZZ homology of
    S2 of koszul([2, 3, 5, 7, 11]) and presented homology of the weak square
    of koszul([2, 9, 25, 49]), every entry the Smith loop receives shares a
    factor with its modulus, and the loop still runs on some rows.  The
    moduli, gcds of two minors, have at most 36 and 13 bits; the first
    minor alone gives up to 147 and 75."""
    received = []
    real = linalg_module._snf_loop

    def recording(M, ops, U=None, V=None):
        received.append((ops["mod"], [v for row in M for v in row if v]))
        return real(M, ops, U, V)

    monkeypatch.setattr(linalg_module, "_snf_loop", recording)
    homology(sym2(koszul([ZZ.scalar(v) for v in (2, 3, 5, 7, 11)])).complex)
    square = received[:]
    received.clear()
    homology_presented(weak_sym2(koszul([ZZ.scalar(v) for v in (2, 9, 25, 49)])))
    for calls, bits in ((square, 36), (received, 13)):
        assert all(1 < modulus < 2**bits for modulus, _ in calls)
        assert any(entries for _, entries in calls)
        assert all(gcd(v, modulus) > 1 for modulus, entries in calls for v in entries)


def _sympy_rank_in(M, domain):
    """Rank of an integer matrix over a sympy field."""
    data = [[domain(0)] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        data[i][j] = domain(int(v))
    return DomainMatrix(data, (M.rows, M.cols), domain).rank()


def test_zz_homology_of_sym2_koszul_of_pairwise_products_matches_sympy():
    """S2 of koszul([6, 10, 15, 21, 35]): no element is a unit mod any prime
    of the input, which took seconds in the Smith loop mod one minor.

    sympy's Smith form runs for minutes on the 60 x 110 differential, so the
    expected groups come from an isomorphic complex: gcd(6, 10, 15, 21, 35)
    = 1, so some g in GL_5(ZZ) takes the row (6, 10, 15, 21, 35) to
    (1, 0, 0, 0, 0), and the exterior power of g is an isomorphism of the two
    Koszul complexes, hence of their symmetric squares.  sympy takes the
    invariant factors on the square of koszul([1, 0, 0, 0, 0]), and its ranks
    over QQ and GF(2), GF(3), GF(5), GF(7) on the square itself agree with
    those groups by universal coefficients."""
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    elements = (6, 10, 15, 21, 35)
    X = sym2(koszul([ZZ.scalar(v) for v in elements])).complex
    Y = sym2(koszul([ZZ.scalar(v) for v in (1, 0, 0, 0, 0)])).complex
    assert X.ranks == Y.ranks

    def factors(n):
        M = Y.diff(n)
        return _sympy_invariant_factors(M, normalforms) if M.rows and M.cols else []

    want = {}
    for n in Y.degrees():
        incoming = factors(n + 1)
        free = Y.rank(n) - len(factors(n)) - len(incoming)
        torsion = tuple(f for f in incoming if f > 1)
        if free or torsion:
            want[n] = (free, torsion)
    assert want and all(torsion for _, torsion in want.values())
    h = homology(X)
    assert {n: (g.rank, tuple(g.factors)) for n, g in h.values.items()} == want

    for domain, p in [(SympyQQ, None)] + [(SympyGF(q), q) for q in (2, 3, 5, 7)]:
        ranks = {n: _sympy_rank_in(X.diff(n), domain) for n in X.degrees()}
        for n in X.degrees():
            free, torsion = want.get(n, (0, ()))
            below = want.get(n - 1, (0, ()))[1]
            divisible = sum(1 for f in torsion + below if p and f % p == 0)
            assert X.rank(n) - ranks[n] - ranks.get(n + 1, 0) == free + divisible


def test_invariant_factors_reject_fields():
    with pytest.raises(UnsupportedRingError):
        invariant_factors(rows(QQ, [[2]]))


def test_universal_coefficients_on_sym2_koszul_of_five_primes():
    """Field dimensions on the rank path agree with the ZZ invariant factors.

    This row took minutes with transforms, too slow for sympy or the SNF.
    """
    X = sym2(koszul([ZZ.scalar(v) for v in (2, 3, 5, 7, 11)])).complex
    h_z = homology(X)
    assert any(h_z.group(n).factors for n in X.degrees())
    for ring in (GF(2), GF(3), QQ):
        h = homology(base_change(X, ring))
        p = ring.p if ring.kind == "GF" else None

        def torsion(n):
            return sum(1 for f in h_z.group(n).factors if p and f % p == 0)

        for n in X.degrees():
            assert h.dimension(n) == h_z.group(n).rank + torsion(n) + torsion(n - 1)


def test_kernel_and_image_lattices():
    rng = random.Random(31)
    for _ in range(25):
        A = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        K = kernel_pid(A)
        assert (A @ K).is_zero()
        assert rank(K) == K.cols
        B = image_basis_pid(A)
        assert rank(B) == B.cols == rank(A)
        for j in range(B.cols):
            assert solve_pid(A, B.submatrix_columns([j])) is not None


def test_solve_pid_round_trip():
    rng = random.Random(37)
    for _ in range(25):
        A = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 3))
        X = _random_int_matrix(rng, A.cols, 2)
        B = A @ X
        Y = solve_pid(A, B)
        assert Y is not None and A @ Y == B
    assert solve_pid(rows(ZZ, [[2]]), rows(ZZ, [[1]])) is None


@pytest.mark.parametrize("ring", [ZZ, ZLoc(3)])
def test_solve_exact_matches_solve_pid_on_independent_columns(ring):
    rng = random.Random(43)
    outcomes = []
    for _ in range(60):
        m = rng.randint(1, 5)
        A = _random_matrix(ring, rng, m, rng.randint(0, m), 0.7)
        if rank(A) < A.cols:
            continue
        B = A @ _random_matrix(ring, rng, A.cols, 2, 0.7)
        if rng.random() < 0.5:  # may leave the lattice or the rational span
            B = B + _random_matrix(ring, rng, m, 2, 0.3)
        want = solve_pid(A, B)
        if want is None:
            with pytest.raises(LinearSolveError):
                solve_exact(A, B)
        else:
            assert solve_exact(A, B) == want
        outcomes.append(want is None)
    assert len(outcomes) > 30 and set(outcomes) == {True, False}


def test_solve_exact_rejects_fractions_and_dependent_columns():
    with pytest.raises(LinearSolveError):
        solve_exact(rows(ZZ, [[2]]), rows(ZZ, [[1]]))
    with pytest.raises(LinearSolveError):
        solve_exact(rows(ZLoc(3), [[3]]), rows(ZLoc(3), [[1]]))
    assert solve_exact(rows(ZLoc(3), [[2]]), rows(ZLoc(3), [[1]])) == rows(ZLoc(3), [["1/2"]])
    for ring in (ZZ, ZLoc(3)):
        # solvable, by (1, 0) among others, but A has dependent columns
        assert solve_pid(rows(ring, [[1, 2]]), rows(ring, [[1]])) is not None
        with pytest.raises(LinearSolveError):
            solve_exact(rows(ring, [[1, 2]]), rows(ring, [[1]]))


def test_solve_exact_over_fields_and_poly_constants():
    A = rows(QQ, [[1, 2], [3, 4]])
    B = rows(QQ, [[1], [1]])
    X = solve_exact(A, B)
    assert A @ X == B
    x = POLY.variable("x")
    C = rows(POLY, [[1, 0], [1, 1]])
    D = rows(POLY, [[x], [x]])
    Y = solve_exact(C, D)
    assert C @ Y == D


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(2, 0) == [(0, 0)]
    assert monomials_of_degree(2, -1) == []
    assert len(monomials_of_degree(3, 4)) == 15  # C(4+2, 2)


def _dense_qq_kernel_dim(matrix_rows):
    """Independent dense Gaussian elimination over QQ (test-side oracle)."""
    data = [list(map(Fraction, row)) for row in matrix_rows]
    if not data:
        return 0
    ncols = len(data[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(data)) if data[i][c] != 0), None)
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        inv = 1 / data[r][c]
        data[r] = [inv * v for v in data[r]]
        for i in range(len(data)):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        r += 1
    return ncols - r


def test_degree_slice_kernel_matches_dense_oracle():
    x = POLY.variable("x")
    y = POLY.variable("y")
    M = rows(POLY, [[x, y], [x, y]])
    # source generators in internal degree 1, targets in degree 0; the
    # coordinates of a kernel vector then live in internal degree 1
    sliced, tgt_basis, src_basis = slice_matrix(M, [1, 1], [0, 0], 2)
    assert (src_basis, tgt_basis) == (slice_basis(2, [1, 1], 2), slice_basis(2, [0, 0], 2))
    assert (sliced.cols, sliced.rows) == (len(src_basis), len(tgt_basis)) == (4, 6)
    K = kernel_basis(sliced)
    assert K.cols == 1
    # oracle: brute-force dense elimination on the same slice
    dense = [[sliced.entry(i, j).value for j in range(sliced.cols)] for i in range(sliced.rows)]
    assert _dense_qq_kernel_dim(dense) == 1
    # the kernel vector is (y, -x) in generator coordinates: the basis pairs
    # (generator 0, monomial y) and (generator 1, monomial x) with opposite signs
    coords = {src_basis[i]: v for (i, _), v in K.entries.items()}
    assert coords[(0, (0, 1))] == -coords[(1, (1, 0))]
    assert set(coords) == {(0, (0, 1)), (1, (1, 0))}


def _slice_sequences(rng):
    """Seeded homogeneous sequences in 2 and 3 variables, by kind: monomials,
    linear forms with small rational coefficients, and mixed degrees."""
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    out = []
    for names in (("x", "y"), ("x0", "x1", "x2")):
        R = graded_poly(*names)
        v = R.generators()
        k = len(v)
        out.append(("monomial", list(v)))

        def form():
            return sum((R.scalar(rng.choice(coeffs)) * g for g in v), R.zero())

        out.append(("linear", [form() for _ in range(k)]))
        out.append(("mixed", [v[0], v[1] * v[1], v[-1] * form() * form()][:k + 1]))
    return out


def _sympy_slice(M, src_degrees, tgt_degrees, d):
    """sympy's degree-d slice of M, on the slice_basis orders: the cell at
    target (i, e) and source (j, m) is the coefficient of x^e in the product
    x^m * M[i, j] in sympy's polynomial ring over QQ.  Returns its nonzero
    cells as {(row, col): sympy QQ value}."""
    import sympy

    R = sympy.ring(",".join(M.ring.variables), SympyQQ)[0]
    entries = {k: R.from_dict({e: SympyQQ(c.numerator, c.denominator) for e, c in v.items()})
               for k, v in M.entries.items()}
    tgt_rows = {}
    for r, (i, e) in enumerate(slice_basis(R.ngens, tgt_degrees, d)):
        tgt_rows.setdefault(i, []).append((r, e))
    cells = {}
    for c, (j, m) in enumerate(slice_basis(R.ngens, src_degrees, d)):
        x_m = R.from_dict({m: SympyQQ(1)})
        for i, targets in tgt_rows.items():
            if (i, j) in entries:
                product = entries[(i, j)] * x_m
                cells.update({(r, c): product[e] for r, e in targets if e in product})
    return cells


def _assert_slice_matches_sympy(M, src_degrees, tgt_degrees, d) -> int:
    """The slice slice_matrix writes against sympy's: its shape is the
    length of its two slice_basis lists, its cells are sympy's, and its
    qq_rank is sympy's rank of sympy's slice.  Returns its number of
    nonzero cells."""
    nvars = len(M.ring.variables)
    A, tgt_basis, src_basis = slice_matrix(M, src_degrees, tgt_degrees, d)
    assert (tgt_basis, src_basis) == (slice_basis(nvars, tgt_degrees, d), slice_basis(nvars, src_degrees, d))
    assert (A.rows, A.cols) == (len(tgt_basis), len(src_basis))
    want = _sympy_slice(M, src_degrees, tgt_degrees, d)
    assert {k: SympyQQ(v.numerator, v.denominator) for k, v in A.entries.items()} == want
    data = {}
    for (i, j), v in want.items():
        data.setdefault(i, {})[j] = v
    # sympy's sparse Gauss-Jordan, much faster here than its default rank
    assert qq_rank(A) == len(DomainMatrix(data, (A.rows, A.cols), SympyQQ).rref(method="GJ")[1])
    return len(A.entries)


def test_slice_matrix_matches_sympy():
    """Every slice of every differential of the Koszul complex, its S2 and
    its tensor square, in 2 and 3 variables with rational coefficients, up
    to internal degree 8, against sympy."""
    rng = random.Random(83)
    seen = {}
    for kind, elements in _slice_sequences(rng):
        K = koszul(elements)
        for X in (K, sym2(K).complex, tensor(K, K)):
            for n in range(X.support[0], X.support[1] + 2):
                for d in range(X.min_gdeg() - 1, 9):
                    nnz = _assert_slice_matches_sympy(X.diff(n), X.gdeg(n), X.gdeg(n - 1), d)
                    seen[kind] = seen.get(kind, 0) + nnz
    assert all(nnz > 5000 for nnz in seen.values()), seen


def test_slice_matrix_of_a_matrix_whose_terms_cancel():
    x, y = POLY.variable("x"), POLY.variable("y")
    # terms cancel in the ring arithmetic that builds M: x*y - y*x leaves
    # cell (0, 0) zero, and y^2 - y^2 drops out of (x+y)(x-y) + y^2; in a
    # slice, distinct terms of one column still land in distinct cells
    A = rows(POLY, [[x, y], [x + y, 0]])
    B = rows(POLY, [[y, x], [-x, y]])
    M = A @ B + rows(POLY, [[0, (x + y) * (x - y) + y * y], [x * y, 0]])
    assert (0, 0) not in M.entries
    for d in range(-1, 6):
        _assert_slice_matches_sympy(M, [2, 2], [0, 0], d)


def test_slice_matrix_rejects_a_term_outside_the_slice():
    x, y = POLY.variable("x"), POLY.variable("y")
    # entry (1, 0) must have degree 2 - 0 = 2; its term x has degree 1.  The
    # map is refused in every slice, even one whose source is empty (below
    # degree 2) and where no term lands anywhere
    M = rows(POLY, [[x * x, y * y], [x + y * y, x * y]])
    for d in (1, 2, 4):
        with pytest.raises(GradingError, match=r"entry \(1,0\)"):
            slice_matrix(M, [2, 2], [0, 0], d)
    # a term of degree 1 where the generator degrees need 2
    N = rows(POLY, [[x * x, y]])
    with pytest.raises(GradingError, match=r"entry \(0,1\)"):
        slice_matrix(N, [2, 2], [0], 3)
    # the homogeneous part slices as sympy does, and below the source
    # degrees it has no columns
    H = rows(POLY, [[x * x, y * y], [y * y, x * y]])
    sliced, tgt_basis, src_basis = slice_matrix(H, [2, 2], [0, 0], 1)
    assert src_basis == [] and sliced.cols == 0 and not sliced.entries and len(tgt_basis) == 4
    for d in range(0, 5):
        _assert_slice_matches_sympy(H, [2, 2], [0, 0], d)
    # a map over a ring that is not graded has no slices
    with pytest.raises(UnsupportedRingError):
        slice_matrix(rows(QQ, [[1]]), [0], [0], 0)


def _random_homogeneous(R, src_degrees, tgt_degrees, rng, coeffs):
    """A random homogeneous matrix from generators of degrees src_degrees
    to generators of degrees tgt_degrees over R, about half its entries
    nonzero."""
    nvars = len(R.variables)
    entries = {}
    for i, b in enumerate(tgt_degrees):
        for j, a in enumerate(src_degrees):
            monos = monomials_of_degree(nvars, a - b)
            if monos and rng.random() < 0.5:
                value = {m: Fraction(rng.choice(coeffs)) for m in rng.sample(monos, min(2, len(monos)))}
                entries[(i, j)] = value
    return SparseMatrix._of(R, len(tgt_degrees), len(src_degrees), entries)


def test_slice_matrix_matches_sympy_on_random_homogeneous_maps():
    """Random homogeneous maps with rational coefficients and negative
    generator degrees, in one, two and three variables: every slice from
    below the least degree up to 5 against sympy, and a term of the wrong
    degree names its entry."""
    rng = random.Random(97)
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(5, 6)]
    seen = fractional = 0
    for R in (graded_poly("t"), POLY, graded_poly("x0", "x1", "x2")):
        for _ in range(8):
            tgt = [rng.randint(-3, 1) for _ in range(rng.randint(1, 4))]
            src = [rng.randint(-2, 3) for _ in range(rng.randint(1, 4))]
            M = _random_homogeneous(R, src, tgt, rng, coeffs)
            fractional += any(c.denominator > 1 for v in M.entries.values() for c in v.values())
            for d in range(min(tgt + src) - 1, 6):
                seen += _assert_slice_matches_sympy(M, src, tgt, d)
        bad = SparseMatrix._of(R, 1, 2, {(0, 1): {(1,) + (0,) * (len(R.variables) - 1): Fraction(1, 2),
                                                   (0,) * len(R.variables): Fraction(1)}})
        with pytest.raises(GradingError, match=r"entry \(0,1\)"):
            slice_matrix(bad, [-1, 0], [-1], 0)
    assert seen > 1000 and fractional > 10


def test_monomials_of_degree_lists_each_monomial_once_in_descending_lex_order():
    """Against sorted d-tuples of variable indices (combinations with
    replacement), whose lex order is descending lex order on exponents."""
    for nvars in range(1, 5):
        for d in range(-2, 7):
            got = monomials_of_degree(nvars, d)
            want = []
            for combo in combinations_with_replacement(range(nvars), d) if d >= 0 else ():
                exp = [0] * nvars
                for k in combo:
                    exp[k] += 1
                want.append(tuple(exp))
            assert got == want
            assert got == sorted(set(got), reverse=True)
            assert len(got) == (comb(d + nvars - 1, d) if d >= 0 else 0)
            assert all(len(e) == nvars and sum(e) == d and min(e) >= 0 for e in got)


def test_slice_basis_lists_each_generators_monomials_in_order():
    """Generator by generator, the monomials of the complementary degree;
    generators above d, and repeated or negative degrees, included."""
    for nvars in (1, 2, 3):
        for degrees in ([], [0], [1, 1], [2, -1, 0, 2], [-3, 4, -3]):
            for d in range(-4, 5):
                want = [(j, m) for j, a in enumerate(degrees) for m in monomials_of_degree(nvars, d - a)]
                assert slice_basis(nvars, degrees, d) == want
    # X_1 = R(-1)^2 of the Koszul complex on x, y, in degree 2
    assert slice_basis(2, [1, 1], 2) == [(0, (1, 0)), (0, (0, 1)), (1, (1, 0)), (1, (0, 1))]


def _constant_slice(A):
    """The degree-0 slice of A lifted to a constant matrix between degree-0
    generators over POLY."""
    lift = SparseMatrix._of(POLY, A.rows, A.cols, {k: {(0, 0): v} for k, v in A.entries.items()})
    return slice_matrix(lift, [0] * A.cols, [0] * A.rows, 0)[0]


def test_qq_rank_matches_rref_rank():
    rng = random.Random(43)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        entries = {}
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.6:
                    entries[(i, j)] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        A = SparseMatrix(QQ, m, n, entries)
        S = _constant_slice(A)
        assert S == A
        assert qq_rank(S) == len(rref(A)[1]) == _sympy_matrix(A).rank()


def test_rank_of_integer_lift():
    rng = random.Random(41)
    for _ in range(20):
        A = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        lifted = SparseMatrix(QQ, A.rows, A.cols, {k: Fraction(v) for k, v in A.entries.items()})
        assert rank(A) == len(rref(lifted)[1])
        assert rank(A) == len(smith_normal_form(A).nonzero_diagonal())


# -- the elimination core against sympy --------------------------------------------


def _random_field_matrix(ring, rng, rows_, cols, density):
    def value():
        if ring == QQ:
            return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        return rng.randrange(ring.p)

    return SparseMatrix(
        ring, rows_, cols,
        {(i, j): value() for i in range(rows_) for j in range(cols) if rng.random() < density},
    )


def _sympy_rref(A):
    """(nonzero entries of R as raw values, pivot columns), computed by sympy."""
    if A.ring == QQ:
        R, pivots = _sympy_matrix(A).rref()
        cells = {(i, j): R[i, j] for i in range(A.rows) for j in range(A.cols)}
        return {k: Fraction(int(v.p), int(v.q)) for k, v in cells.items() if v != 0}, list(pivots)
    K = SympyGF(A.ring.p)
    data = [[K(A.entry(i, j).value) for j in range(A.cols)] for i in range(A.rows)]
    R, pivots = DomainMatrix(data, (A.rows, A.cols), K).rref()
    cells = {
        (i, j): int(v) % A.ring.p for i, row in enumerate(R.to_list()) for j, v in enumerate(row)
    }
    return {k: v for k, v in cells.items() if v}, list(pivots)


FIELDS = [QQ, GF(5), GF(7)]


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_rank_and_rref_match_sympy(ring):
    rng = random.Random(47)
    for _ in range(60):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        A = _random_field_matrix(ring, rng, m, n, rng.choice([0.0, 0.2, 0.5, 0.9]))
        R, pivots = rref(A)
        entries, pivot_cols = _sympy_rref(A)
        assert {k: v for k, v in R.entries.items()} == entries
        assert pivots == list(enumerate(pivot_cols))
        assert rank(A) == len(pivot_cols)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_solve_field_matches_sympy(ring):
    rng = random.Random(53)
    inconsistent = 0
    for _ in range(60):
        m, n, k = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 3)
        A = _random_field_matrix(ring, rng, m, n, rng.choice([0.3, 0.7]))
        if rng.random() < 0.5:
            B = A @ _random_field_matrix(ring, rng, n, k, 0.6)
        else:
            B = _random_field_matrix(ring, rng, m, k, 0.6)
        # the solution with free variables 0, read off sympy's rref of [A | B]
        entries, pivot_cols = _sympy_rref(A.hstack(B))
        if any(c >= n for c in pivot_cols):
            inconsistent += 1
            with pytest.raises(LinearSolveError):
                solve_field(A, B)
            continue
        expected = {
            (pivot_cols[i], j - n): v for (i, j), v in entries.items() if j >= n
        }
        X = solve_field(A, B)
        assert A @ X == B
        assert {key: v for key, v in X.entries.items()} == expected
    assert inconsistent > 0


def test_solve_exact_over_poly_lifts_constant_matrices():
    x, y = POLY.variable("x"), POLY.variable("y")
    rng = random.Random(59)
    choices = [POLY.zero(), POLY.one(), x, -(y + y), x * y + y * y, x * x * x]
    inconsistent = 0
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A_qq = _random_field_matrix(QQ, rng, m, n, 0.6)
        A = SparseMatrix(POLY, m, n, {key: v for key, v in A_qq.entries.items()})
        X0 = SparseMatrix.from_rows(POLY, [[rng.choice(choices) for _ in range(2)] for _ in range(n)])
        B = A @ X0
        assert A @ solve_exact(A, B) == B
        if rank(A_qq) < m:
            # x*y times a vector orthogonal to the column space of A
            K = kernel_basis(A_qq.transpose())
            bad = SparseMatrix(
                POLY, m, 1, {(i, 0): {(1, 1): v} for (i, j), v in K.entries.items() if j == 0}
            )
            inconsistent += 1
            with pytest.raises(LinearSolveError):
                solve_exact(A, bad)
    assert inconsistent > 0
    with pytest.raises(LinearSolveError):
        solve_exact(rows(POLY, [[x, 0], [0, 1]]), rows(POLY, [[x], [1]]))


# -- the Markowitz rank kernel against the echelon core and sympy --------------------


def _sympy_rank(A):
    """Rank over the fraction field (GF(p) as itself), by sympy's exact
    DomainMatrix; Matrix.rank() takes seconds on the larger slices."""
    K = SympyGF(A.ring.p) if A.ring.kind == "GF" else SympyQQ
    data = {}
    for (i, j), v in A.entries.items():
        v = Fraction(v)
        data.setdefault(i, {})[j] = K(v.numerator) / K(v.denominator)
    return DomainMatrix(data, (A.rows, A.cols), K).rank()


def _echelon_rank(A):
    return len(_echelon(*_int_rows(A))[0])


def _rank_case(ring, rng):
    """A sparse matrix with non-unit entries, and with rows that are planted
    combinations of other rows, shuffled among them."""
    kind = ring.kind

    def value():
        if kind == "GF":
            return rng.randrange(1, ring.p)
        v = rng.choice([1, -1, 2, -2, 3, -3, 4, 6, -6, 9, 10, -15])
        if kind == "QQ":
            return Fraction(v, rng.choice([1, 1, 2, 3, 7]))
        if kind == "ZLoc":
            return Fraction(v, rng.choice([1, 1, 2, 4, 5]))
        return v

    m, n = rng.randint(0, 10), rng.randint(0, 12)
    density = rng.choice([0.1, 0.25, 0.5, 0.9])
    A = SparseMatrix(
        ring, m, n, {(i, j): value() for i in range(m) for j in range(n) if rng.random() < density}
    )
    if m and n:
        k = rng.randint(1, 4)
        C = SparseMatrix(
            ring, k, m, {(i, j): value() for i in range(k) for j in range(m) if rng.random() < 0.4}
        )
        A = A.vstack(C @ A)
    order = list(range(A.rows))
    rng.shuffle(order)
    shuffled = {(order[i], j): v for (i, j), v in A.entries.items()}
    return SparseMatrix._of(ring, A.rows, A.cols, shuffled)


RANK_RINGS = [QQ, GF(2), GF(3), GF(7), ZZ, ZLoc(3)]


@pytest.mark.parametrize("ring", RANK_RINGS, ids=str)
def test_rank_matches_echelon_and_sympy(ring):
    rng = random.Random(71)
    deficient = 0
    for _ in range(150):
        A = _rank_case(ring, rng)
        r = rank(A)
        assert r == _echelon_rank(A) == _sympy_rank(A)
        deficient += r < min(A.rows, A.cols)
    # the planted rows make many cases rank deficient
    assert deficient >= 30


def _fast_path_case(ring, rng, kind):
    """A sparse matrix whose rows are all integral ("integral"), whose rows
    are integral or carry denominators at random ("mixed"), or whose
    entries are all negative, so that Markowitz pivots are too ("negative")."""
    m, n = rng.randint(1, 9), rng.randint(1, 10)
    dens = [2, 4, 5] if ring.kind == "ZLoc" else [2, 3, 7]
    entries = {}
    for i in range(m):
        fractional = kind == "mixed" and rng.random() < 0.5
        for j in range(n):
            if rng.random() < 0.4:
                v = rng.choice([1, 2, 3, 6, 9, 10]) * (-1 if kind == "negative" else rng.choice([1, -1]))
                entries[(i, j)] = Fraction(v, rng.choice(dens)) if fractional else v
    A = SparseMatrix(ring, m, n, entries)
    if kind != "negative":  # plant dependent rows
        C = SparseMatrix(ring, 2, m, {(0, rng.randrange(m)): 2, (1, rng.randrange(m)): -1})
        A = A.vstack(C @ A)
    return A


def _lcm_scaled_rows(A):
    """Rows of A scaled by the lcm of their denominators, computed apart
    from _int_rows; the rows _int_rows must return."""
    out = {}
    for (i, j), v in A.entries.items():
        out.setdefault(i, {})[j] = Fraction(v)
    rows = []
    for i in sorted(out):
        m = lcm(*(f.denominator for f in out[i].values()))
        rows.append({j: int(f * m) for j, f in out[i].items()})
    return rows


FAST_PATH_CASES = [
    (ring, kind)
    for kind, rings in (
        ("integral", [QQ, ZZ, ZLoc(3)]),
        ("mixed", [QQ, ZLoc(3)]),
        ("negative", [QQ, ZZ, ZLoc(3)]),
    )
    for ring in rings
]


@pytest.mark.parametrize(
    "ring, kind", FAST_PATH_CASES, ids=[f"{ring}-{kind}" for ring, kind in FAST_PATH_CASES]
)
def test_rank_fast_paths_match_echelon_and_sympy(ring, kind):
    rng = random.Random(89)
    integral_rows = fractional_rows = 0
    for _ in range(120):
        A = _fast_path_case(ring, rng, kind)
        assert _int_rows(A)[0] == _lcm_scaled_rows(A)
        r = rank(A)
        assert r == _echelon_rank(A) == _sympy_rank(A)
        if kind == "negative":
            assert rank(-A) == r
        for i in range(A.rows):
            row = [Fraction(v) for (k, _), v in A.entries.items() if k == i]
            integral_rows += all(f.denominator == 1 for f in row)
            fractional_rows += not all(f.denominator == 1 for f in row)
    assert integral_rows > 100
    assert (fractional_rows > 100) == (kind == "mixed")


def test_rank_of_every_sym2_koszul_slice_matches_sympy():
    R = graded_poly("x0", "x1", "x2")
    S = sym2(koszul(list(R.generators()))).complex
    checked = 0
    for n in S.degrees():
        if n - 1 not in S.degrees():
            continue
        for d in range(9):
            A = slice_matrix(S.diff(n), S.gdeg(n), S.gdeg(n - 1), d)[0]
            assert qq_rank(A) == rank(A) == _echelon_rank(A) == _sympy_rank(A)
            checked += A.rows * A.cols > 0
    assert checked >= 30


# -- initial modules ------------------------------------------------------------

R3 = graded_poly("x0", "x1", "x2")


def _sympy_leading_monomials(gens, order="grevlex"):
    """Leading exponents of sympy's reduced Groebner basis of the ideal
    spanned by gens, which are minimal generators of the initial ideal."""
    import sympy

    xs = sympy.symbols("x0 x1 x2")
    exprs = [
        sum(Rational(c.numerator, c.denominator) * prod(x**e for x, e in zip(xs, exp)) for exp, c in g.value.items())
        for g in gens
    ]
    G = sympy.groebner(exprs, *xs, order=order)
    return tuple(sorted(sympy.Poly(g, *xs).monoms(order=order)[0] for g in G.exprs))


def _random_form(rng, degree):
    """A homogeneous form of the given degree in x0, x1, x2: one to three
    distinct monomials with coefficients in +-1, +-2."""
    monomials = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    picked = rng.sample(monomials, min(len(monomials), rng.randint(1, 3)))
    return R3.scalar({m: Fraction(rng.choice((-2, -1, 1, 2))) for m in picked})


def test_initial_module_of_an_ideal_matches_sympy_groebner():
    """A one-row matrix spans an ideal; its initial module is the initial
    ideal, whose minimal generators are the leading monomials of the
    reduced degrevlex Groebner basis."""
    x0, x1, x2 = R3.generators()
    two = R3.scalar(2)
    ideals = [
        [x0 + x1],
        [x0 * x2 - x1 * x1],
        [x0 + x1, x0 * x2 - x1 * x1],
        [x0 * x2 - x1 * x1, x0 * x1 - x2 * x2, x1 * x2 - x0 * x0],
        [x0 * x0, x1 * x1, x0 * x1 + x2 * x2],
        [x0 * x1, x1 * x2, x0 * x2],
        [x0 * x0 * x0 - x1 * x1 * x1, x1 * x1 * x2 - x0 * x2 * x2, x0 + x1 - x2],
        # a kernel that drops every new pair whose lcm another new pair shares fails here
        [x0 * x0 * x1 + x0 * x1 * x1 + two * x1 * x1 * x1, two * x0 * x0 * x2 - x1 * x1 * x1 + two * x2 * x2 * x2,
         two * x0 * x0 * x2 - two * x0 * x1 * x2 - x1 * x2 * x2],
        # and one that drops an old pair whose lcm the new lead divides, even
        # when the new lead's lcm with one of its two elements is that lcm, here
        [x0 * x0 * x2 - two * x0 * x1 * x1, x0 * x2 - two * x0 * x0 - two * x1 * x1, two * x2 * x2 - x0 * x2 - x1 * x2],
    ]
    rng = random.Random(35)
    for _ in range(150):
        ideals.append([_random_form(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
    nonmonomial = 0
    for gens in ideals:
        M = SparseMatrix(R3, 1, len(gens), {(0, j): g for j, g in enumerate(gens)})
        got = _initial_module(M, (0,))
        assert got == [_sympy_leading_monomials(gens)], gens
        nonmonomial += any(len(g.value) > 1 for g in gens)
    assert nonmonomial > 100


def test_initial_module_pairs_leads_that_are_coprime():
    """The columns x e_1 and y e_1 + z e_2 of [[x, y], [0, z]] have coprime
    leads on e_1; their S-pair -xz e_2 is a new lead, which the product
    criterion would skip."""
    x, y, z = R3.generators()
    M = rows(R3, [[x, y], [R3.zero(), z]])
    assert _initial_module(M, (0, 0)) == [((0, 1, 0), (1, 0, 0)), ((1, 0, 1),)]
    # the same columns in the other order of the targets: z e_1 + y e_2 and x e_2
    M = rows(R3, [[R3.zero(), z], [x, y]])
    assert _initial_module(M, (0, 0)) == [((1, 0, 1),), ((0, 1, 0), (1, 0, 0))]


def test_initial_module_of_constant_zero_and_empty_maps():
    x0, x1, x2 = R3.generators()
    unit = rows(R3, [[R3.one(), x0], [R3.zero(), x1]])  # a unit entry: in(N)_1 = R
    assert _initial_module(unit, (0, 0)) == [((0, 0, 0),), ((0, 1, 0),)]
    assert _initial_module(SparseMatrix.zero(R3, 2, 3), (0, 4)) == [(), ()]
    assert _initial_module(SparseMatrix.zero(R3, 0, 3), ()) == []
    # negative target degrees: only differences of degrees matter
    M = rows(R3, [[x0 * x0, x1 * x1 + x0 * x2]])
    assert _initial_module(M, (-5,)) == _initial_module(M, (0,))
    with pytest.raises(UnsupportedRingError):
        _initial_module(rows(QQ, [[1, 2]]), (0,))

