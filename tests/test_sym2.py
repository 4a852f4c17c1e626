"""The symmetric square construction and its natural maps."""

import importlib
import pickle
import random
from math import comb

import pytest

from symchain import (
    ChainMap,
    FreeComplex,
    GF,
    QQ,
    SparseMatrix,
    ZLoc,
    ZZ,
    alpha,
    base_change,
    direct_sum,
    graded_poly,
    identity_map,
    induced_homotopy,
    is_chain_map,
    koszul,
    shift,
    shift_iso,
    split_decomposition,
    sum_decomposition_iso,
    sym2,
    sym2_base_change_iso,
    sym2_map,
    unit_complex,
    validate,
    weak_sym2,
    zero_complex,
    zero_map,
)
from symchain.complexes import (
    Homotopy,
    _tensor_with_bases,
    compose,
    tensor,
    tensor_basis,
    tensor_map,
)
from symchain.errors import (
    RingMismatchError,
    ShapeError,
    SymchainError,
    TwoNotUnitError,
    UnsupportedRingError,
)
from symchain.homology import homology, homology_presented, is_exact
from symchain.linalg import (
    image_basis_pid,
    kernel_basis,
    kernel_pid,
    rank,
    rref,
    solve_exact,
    solve_field,
)
from symchain.sym2 import (
    PresentedComplex,
    _alpha_bases,
    _alpha_summands,
    _pick,
    _square,
    _sym2_map,
    _walk,
    endo_image_complex,
    endo_kernel_complex,
    sym_basis,
)
from symchain.theorems import check_s2fpd01, check_s2fpd02

from oracles import reference_induced_sigma, reference_square, reference_sym_basis
from randgen import (
    conjugate,
    contractible_piece,
    cycle_map,
    random_chain_map,
    random_complex,
    random_graded_minimal,
    random_homotopic_pair,
    random_split_pair,
)

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def mat_strings(M):
    return [[str(v) for v in row] for row in M.to_rows()]


def test_alpha_on_unit_complex_is_zero():
    assert alpha(unit_complex(ZZ)).maps == {}


def test_alpha_on_two_variable_koszul_degree_two():
    al = alpha(koszul([X_VAR, Y_VAR]))
    assert mat_strings(al.component(2)) == [
        ["1", "0", "0", "0", "0", "-1"],
        ["0", "2", "0", "0", "0", "0"],
        ["0", "0", "1", "1", "0", "0"],
        ["0", "0", "1", "1", "0", "0"],
        ["0", "0", "0", "0", "2", "0"],
        ["-1", "0", "0", "0", "0", "1"],
    ]
    assert is_chain_map(al)


def test_alpha_on_odd_shift_doubles():
    al = alpha(shift(unit_complex(QQ), 1))
    assert mat_strings(al.component(2)) == [["2"]]


def test_sym2_koszul_two_variables_matches_classical_matrices():
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert mat_strings(S.diff(4)) == [["2*y"], ["-2*x"]]
    assert mat_strings(S.diff(3)) == [["x", "y"], ["x", "y"]]
    assert mat_strings(S.diff(2)) == [["y", "-y"], ["-x", "x"]]
    assert mat_strings(S.diff(1)) == [["x", "y"]]
    assert validate(S).ok


def test_sym2_of_odd_shift_vanishes():
    assert sym2(shift(unit_complex(QQ), 1)).complex.is_zero()
    assert sym2(shift(unit_complex(ZZ), 1)).complex.is_zero()


def test_sym2_two_term_ranks():
    X = FreeComplex(QQ, {1: 2, 0: 3}, {1: SparseMatrix.zero(QQ, 3, 2)})
    S = sym2(X).complex
    assert {n: S.rank(n) for n in S.degrees()} == {0: 6, 1: 6, 2: 1}


def test_sym2_projection_is_chain_map_killing_alpha():
    rng = random.Random(3)
    for ring in (ZZ, QQ, GF(5)):
        X = random_complex(ring, rng, max_rank=3, max_len=3)
        S = sym2(X)
        assert validate(S.complex).ok
        assert is_chain_map(S.proj)
        al = alpha(X)
        for n in S.tensor_square.degrees():
            assert (S.proj.component(n) @ al.component(n)).is_zero()


def test_rank_formula_on_random_profiles():
    """200 random rank profiles (negative degrees included) against the
    binomial rank formula."""
    rng = random.Random(5)
    for _ in range(200):
        degrees = sorted(rng.sample(range(-3, 6), rng.randint(1, 3)))
        ranks = {d: rng.randint(1, 4) for d in degrees}
        X = FreeComplex(QQ, ranks, {})  # zero differentials: any profile is legal
        S = sym2(X).complex
        lo = min(degrees)
        hi = max(degrees)
        for n in range(2 * lo, 2 * hi + 1):
            r = ranks.get
            expected = sum(
                r(m, 0) * r(n - m, 0) for m in range(lo, (n + 1) // 2)
            )
            if n % 2 == 0:
                h = n // 2
                if n % 4 == 0:
                    expected += comb(r(h, 0) + 1, 2)
                else:
                    expected += comb(r(h, 0), 2)
            assert S.rank(n) == expected


def test_weak_sym2_is_sym2_when_two_invertible():
    rng = random.Random(7)
    for ring in (QQ, GF(7), ZLoc(5)):
        X = random_complex(ring, rng, max_rank=3, max_len=3)
        W = weak_sym2(X)
        assert isinstance(W, FreeComplex)
        assert W == sym2(X).complex


def test_weak_sym2_of_odd_shift_presents_two_torsion():
    P = weak_sym2(shift(unit_complex(ZZ), 1))
    assert isinstance(P, PresentedComplex)
    assert P.degrees() == [2]
    assert P.relation(2) == SparseMatrix.from_rows(ZZ, [[2]])
    h = homology_presented(P)
    assert str(h.group(2)) == "Z/2"


def test_weak_sym2_of_integer_koszul_degree_two_is_z_mod_2():
    P = weak_sym2(koszul([ZZ.scalar(3)]))
    assert P.validate()
    # degree 2 has one generator carrying the relation 2g, so the module is Z/2
    assert len(P.gens(2)) == 1
    assert P.relation(2) == SparseMatrix.from_rows(ZZ, [[2]])
    h = homology_presented(P)
    assert [str(h.group(n)) for n in (0, 1, 2)] == ["Z/3", "0", "Z/2"]


def test_presented_complex_rejects_wrong_ring_and_missing_matrices():
    gens = {0: [0], 1: [0]}
    d1 = SparseMatrix.from_rows(ZZ, [[3]])
    with pytest.raises(RingMismatchError, match="relation matrix at degree 1"):
        PresentedComplex(ZZ, gens, {1: SparseMatrix.from_rows(QQ, [[2]])}, {1: d1})
    with pytest.raises(RingMismatchError, match="differential at degree 1"):
        PresentedComplex(ZZ, gens, {}, {1: SparseMatrix.from_rows(QQ, [[3]])})
    with pytest.raises(ShapeError, match="relation matrix at degree 0 is missing"):
        PresentedComplex(ZZ, gens, {0: None}, {1: d1})
    with pytest.raises(ShapeError, match="differential at degree 1 is missing"):
        PresentedComplex(ZZ, gens, {}, {1: None})


def test_presented_complex_stores_no_zero_differential():
    """Like FreeComplex and ChainMap, the constructor drops a zero matrix,
    and the differential reads as zero there."""
    zero = SparseMatrix.zero(ZZ, 1, 1)
    P = PresentedComplex(ZZ, {0: [0], 1: [0]}, {}, {1: zero})
    assert P.diffs == {}
    assert P.diff(1) == zero


def test_presented_complex_is_validated_when_built():
    # d carries the relation 2 of degree 1 to 2, outside the span of 4 in degree 0
    with pytest.raises(ShapeError, match="degree 1"):
        PresentedComplex(
            ZZ,
            {0: [0], 1: [0]},
            {0: SparseMatrix.from_rows(ZZ, [[4]]), 1: SparseMatrix.from_rows(ZZ, [[2]])},
            {1: SparseMatrix.from_rows(ZZ, [[1]])},
        )


def test_graded_presented_complex_says_what_it_cannot_decide():
    """d1 . r1 = x^2 = x . r0, so d1 carries relations into relations, but
    over a polynomial ring solve_exact decides a span only against constant
    relations.  The constructor says so and names the degrees; it used to
    claim that d1 does not carry relations into relations."""
    x = X_VAR
    gens = {0: [0], 1: [1]}
    relations = {0: SparseMatrix.from_rows(POLY, [[x]]), 1: SparseMatrix.from_rows(POLY, [[x]])}
    d1 = SparseMatrix.from_rows(POLY, [[x]])
    message = (
        "cannot decide whether the differential at degree 1 carries relations into "
        "relations: the relations at degree 0 are not constant"
    )
    with pytest.raises(UnsupportedRingError, match=message):
        PresentedComplex(POLY, gens, relations, {1: d1})
    # against constant relations the span is decided, both ways
    constant = {0: SparseMatrix.from_rows(POLY, [[1]]), 1: relations[1]}
    assert PresentedComplex(POLY, gens, constant, {1: d1}).validate()
    two = {0: [0, 1], 1: [0]}
    with pytest.raises(ShapeError, match="degree 1 does not carry relations into relations"):
        PresentedComplex(
            POLY,
            two,
            {0: SparseMatrix.from_rows(POLY, [[1], [0]]), 1: relations[1]},
            {1: SparseMatrix.from_rows(POLY, [[0], [x]])},
        )


def test_weak_square_shape_over_zz():
    """Generator/relation counts of the presentation match the classical
    degreewise decomposition: V free generators plus, in even degrees,
    C(r+1, 2) diagonal-block generators carrying r two-torsion relations
    exactly when the half-degree is odd."""
    rng = random.Random(21)
    for _ in range(15):
        X = random_complex(ZZ, rng, max_rank=4, max_len=4)
        P = weak_sym2(X)
        lo, hi = X.support
        for n in range(2 * lo, 2 * hi + 1):
            V = sum(X.rank(m) * X.rank(n - m) for m in range(lo, (n + 1) // 2))
            h = n // 2
            if n % 2:
                gens, rels = V, 0
            elif n % 4 == 0:
                gens, rels = V + comb(X.rank(h) + 1, 2), 0
            else:
                gens, rels = V + comb(X.rank(h) + 1, 2), X.rank(h)
            assert (len(P.gens(n)), P.relation(n).cols) == (gens, rels)


def test_sym_basis_excludes_odd_diagonals():
    K = koszul([X_VAR, Y_VAR])
    labels = sym_basis(K, 2)
    assert labels == [((0, 0), (2, 0)), ((1, 0), (1, 1))]
    with_diag = sym_basis(K, 2, include_odd_diagonal=True)
    assert ((1, 0), (1, 0)) in with_diag and ((1, 1), (1, 1)) in with_diag


RECORD_RINGS = [ZZ, QQ, GF(2), GF(5), ZLoc(3), POLY]


def _record_inputs(ring, seed):
    rng = random.Random(seed)
    for _ in range(6):
        if ring.kind == "Poly":
            yield random_graded_minimal(ring, rng)
        else:
            yield random_complex(ring, rng, max_rank=3, max_len=3)
    yield shift(unit_complex(ring), 1)


def _odd_diagonal_columns(X, n):
    return {col for col, (a, b) in enumerate(tensor_basis(X, X, n)) if a == b and a[0] % 2}


@pytest.mark.parametrize("ring", RECORD_RINGS, ids=str)
def test_sym2_record_labels_section_and_killed_columns(ring):
    """labels[n] is sym_basis(X, n), keyed by the degrees of T before T is
    built, proj_n . section[n] = 1, and the tensor columns that proj_n does
    not hit are exactly the odd diagonal squares."""
    for X in _record_inputs(ring, 5):
        S = sym2(X)
        assert list(S.labels) == tensor(X, X).degrees()
        T = S.tensor_square
        assert list(S.labels) == T.degrees() == list(S.section)
        for n, labs in S.labels.items():
            assert labs == sym_basis(X, n)
            assert S.complex.rank(n) == len(labs)
            rho = S.proj.component(n)
            assert rho @ S.section[n] == SparseMatrix.identity(ring, len(labs))
            hit = {c for (_, c) in rho.entries}
            assert set(range(T.rank(n))) - hit == _odd_diagonal_columns(X, n)


@pytest.mark.parametrize("ring", RECORD_RINGS, ids=str)
def test_weak_reduction_hits_every_tensor_column(ring):
    """The weak square's generators are sym_basis(X, n, True), and the
    reference reduction onto them, which the weak square's differential is
    checked against, hits every tensor column and has sigma as a section."""
    for X in _record_inputs(ring, 6):
        labels = _square(X, keep_odd_diagonal=True)[0]
        _, rho, sigma, _ = reference_square(X, keep_odd_diagonal=True)
        for n, labs in labels.items():
            assert labs == sym_basis(X, n, include_odd_diagonal=True)
            assert {c for (_, c) in rho[n].entries} == set(range(rho[n].cols))
            assert rho[n] @ sigma[n] == SparseMatrix.identity(ring, len(labs))


# the package's `sym2` attribute is the function, so fetch the module by name
sym2_module = importlib.import_module("symchain.sym2")
complexes_module = importlib.import_module("symchain.complexes")


def _walk_inputs(ring, seed):
    """The record inputs, then random complexes padded with a contractible
    piece and, off graded rings, conjugated."""
    yield from _record_inputs(ring, seed)
    rng = random.Random(seed)
    for _ in range(3):
        if ring.kind == "Poly":
            X = random_graded_minimal(ring, rng)
        else:
            X = random_complex(ring, rng, max_rank=2, max_len=3)
        padded = direct_sum(X, shift(koszul([ring.one()]), rng.randint(0, 2)))
        yield padded if ring.kind == "Poly" else conjugate(padded, rng)


@pytest.mark.parametrize("ring", RECORD_RINGS, ids=str)
def test_walk_matches_reference_square(ring):
    """The one walk of T, on the square's labels, gives the rho, sigma and
    alpha of the separate walks, matrix for matrix, on the degrees of T;
    the reference's other degrees, where T is zero, have no labels."""
    for X in _walk_inputs(ring, 8):
        T, bases, index = _tensor_with_bases(X, X)
        labels = _square(X, keep_odd_diagonal=False)[0]
        rho, sigma, al = _walk(T, bases, index, labels)
        ref_labels, ref_rho, ref_sigma, ref_alpha = reference_square(X, keep_odd_diagonal=False)
        assert list(labels) == list(rho) == list(sigma) == T.degrees() == list(ref_alpha)
        assert all(not ref_labels[n] for n in set(ref_labels) - set(labels))
        for n in T.degrees():
            assert labels[n] == ref_labels[n] == reference_sym_basis(X, n)
            assert labels[n] == sym_basis(X, n)
            assert rho[n] == ref_rho[n]
            assert sigma[n] == ref_sigma[n]
            assert al.component(n) == ref_alpha[n]


SQUARE_RINGS = [ZZ, QQ, GF(2), GF(3), ZLoc(2), ZLoc(3), POLY]


def _square_inputs(ring, seed):
    """The zero complex, a gapped one (degrees 0 and 3), then the walk's
    inputs: random complexes, an odd shift of R and padded complexes."""
    yield zero_complex(ring)
    yield direct_sum(unit_complex(ring), shift(unit_complex(ring), 3))
    yield from _walk_inputs(ring, seed)


@pytest.mark.parametrize("keep_odd_diagonal", [False, True])
@pytest.mark.parametrize("ring", SQUARE_RINGS, ids=str)
def test_square_is_the_reference_product(ring, keep_odd_diagonal):
    """The walk of X writes rho . d_T . sigma, formed by the general product
    on the reference rho and sigma: labels, ranks, generator degrees and
    every nonzero differential.  Where 2 is not a unit, weak_sym2 presents
    the same differentials on the generators with odd diagonal squares
    kept, each with the relation 2 e."""
    for X in _square_inputs(ring, 31 + SQUARE_RINGS.index(ring)):
        labels, ranks, diffs, gdegs = _square(X, keep_odd_diagonal)
        ref_labels, rho, sigma, _ = reference_square(X, keep_odd_diagonal)
        T = tensor(X, X)
        assert list(labels) == T.degrees()
        assert all(labels[n] == ref_labels[n] for n in labels)
        assert ranks == {n: len(labs) for n, labs in labels.items()}
        products = {
            n: rho[n - 1] @ T.diff(n) @ sigma[n] for n in labels if ranks[n] and ranks.get(n - 1)
        }
        nonzero = {n: M for n, M in products.items() if not M.is_zero()}
        assert diffs == nonzero
        if X.graded:
            assert gdegs == {
                n: tuple(X.gdeg(p)[i] + X.gdeg(q)[j] for ((p, i), (q, j)) in labs)
                for n, labs in labels.items()
                if labs
            }
        else:
            assert gdegs is None
        if keep_odd_diagonal and not ring.two_is_unit():
            W = weak_sym2(X)
            assert W.generators == {n: labs for n, labs in labels.items() if labs}
            assert W.diffs == nonzero
            for n, labs in W.generators.items():
                odd = [k for k, (a, b) in enumerate(labs) if a == b and a[0] % 2]
                two = {(k, c): ring.scalar(2) for c, k in enumerate(odd)}
                assert W.relation(n) == SparseMatrix(ring, len(labs), len(odd), two)


def _pick_coefficients(ring):
    """Entries for the pick oracle: 1, -1 and 2, 1/2 where 2 is a unit, and
    a few others (over the graded ring, non-constant ones too)."""
    one = ring.one()
    two = one + one
    values = [one, -one, two, ring.scalar(3), -two]
    if ring.two_is_unit():
        values.append(two.inverse())
    if ring == POLY:
        values += [X_VAR, X_VAR * ring.scalar(3) - Y_VAR]
    return [v for v in values if not v.is_zero()]


def _random_matrix(ring, rows, cols, rng, values, per_column=None):
    """rows x cols with entries drawn from values, each position filled with
    probability one half, or at most per_column entries in each column."""
    entries = {}
    for j in range(cols):
        picked = [i for i in range(rows) if rng.random() < 0.5]
        if per_column is not None:
            picked = rng.sample(picked, min(per_column, len(picked)))
        for i in picked:
            entries[(i, j)] = rng.choice(values)
    return SparseMatrix(ring, rows, cols, entries)


@pytest.mark.parametrize("ring", RECORD_RINGS, ids=str)
def test_pick_matches_the_general_product(ring):
    """_pick(L, D, B) is L @ D @ B, and _pick(L, D) is L @ D, for L with at
    most one entry per column and any D and B."""
    rng = random.Random(71 + RECORD_RINGS.index(ring))
    values = _pick_coefficients(ring)
    wide = values + [ring.scalar(k) for k in (-4, 5, 7)]
    for _ in range(60):
        r, m, p, c = (rng.randint(0, 5) for _ in range(4))
        L = _random_matrix(ring, r, m, rng, values, per_column=1)
        D = _random_matrix(ring, m, p, rng, wide)
        B = _random_matrix(ring, p, c, rng, values)
        assert _pick(L, D, B) == L @ D @ B
        assert _pick(L, D) == L @ D


def _count_matmul(monkeypatch):
    calls = []
    real = SparseMatrix.__matmul__

    def counted(A, B):
        calls.append((A.rows, A.cols, B.cols))
        return real(A, B)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    return calls


@pytest.mark.parametrize("ring", [ZLoc(3), POLY], ids=str)
def test_squares_and_summands_form_no_general_product(monkeypatch, ring):
    """sym2, weak_sym2 and the summands of alpha pick rows and columns: no
    SparseMatrix product runs on the way."""
    rng = random.Random(5)
    inputs = list(_closed_form_inputs(ring, rng))[:6]
    calls = _count_matmul(monkeypatch)
    for X in inputs:
        S = sym2(X)
        weak_sym2(X)
        _alpha_summands(S)
    assert calls == []


@pytest.mark.parametrize("ring", [ZLoc(3), POLY], ids=str)
def test_square_and_summands_group_each_matrix_once(monkeypatch, ring):
    """sym2's tensor side groups each differential of T by column once and
    keeps the groups on the square, for both summands' L . d . B;
    _alpha_summands reads its bases and q off the swap pairs, so it groups
    no component of alpha at all.  So over sym2 and _alpha_summands no
    matrix is grouped twice, and alpha is never grouped."""
    rng = random.Random(7)
    inputs = list(_closed_form_inputs(ring, rng))[:6]
    grouped = []  # the matrices themselves, so that no id is reused
    real = sym2_module._columns

    def counted(M):
        grouped.append(M)
        return real(M)

    monkeypatch.setattr(sym2_module, "_columns", counted)
    for X in inputs:
        grouped.clear()
        S = sym2(X)
        _alpha_summands(S)
        T = S.tensor_square
        assert len({id(M) for M in grouped}) == len(grouped)
        stored = [T.diff(n) for n in T.degrees()]  # a zero differential is built per call
        assert {id(D) for D in stored if not D.is_zero()} <= {id(M) for M in grouped}
        assert not {id(M) for M in S.alpha.maps.values()} & {id(M) for M in grouped}


def _count_tensor_bases(monkeypatch):
    """The degrees of every tensor_basis call, counted through both module
    bindings (sym2 imports none now; raising=False covers one it may gain)."""
    calls = []
    real = complexes_module.tensor_basis

    def counted(X, Y, n):
        calls.append(n)
        return real(X, Y, n)

    for module in (sym2_module, complexes_module):
        monkeypatch.setattr(module, "tensor_basis", counted, raising=False)
    return calls


def _read_tensor_side(S):
    return S.tensor_square, S.tensor_bases, S.tensor_index, S.proj, S.section, S.alpha


def test_sym2_walks_each_tensor_degree_once(monkeypatch):
    """sym2 and weak_sym2 walk X and build no tensor basis; reading the
    tensor side of a square builds one tensor_basis per nonzero degree of
    T, once, and so does alpha: no tensor degree is built twice per
    square."""
    calls = _count_tensor_bases(monkeypatch)
    gapped = direct_sum(unit_complex(ZZ), shift(unit_complex(ZZ), 3))  # T in degrees 0, 3, 6
    for X in (koszul([X_VAR, Y_VAR]), gapped, shift(unit_complex(QQ), 1), zero_complex(QQ)):
        degrees = tensor(X, X).degrees()
        calls.clear()
        S = sym2(X)
        weak_sym2(X)
        assert calls == [], X
        _read_tensor_side(S)
        _read_tensor_side(S)
        assert sorted(calls) == degrees, X
        calls.clear()
        alpha(X)
        assert sorted(calls) == degrees, X


def test_maps_of_squares_read_the_walks_tensor_bases(monkeypatch):
    """S2 of a map and the induced homotopy take the tensor bases of f (x) f
    off the square's tensor side: on koszul([x, y]), whose T lives in
    degrees 0..4, 5 tensor_basis calls in all, where rebuilding them for
    the map made 15.  The sum decomposition of K (+) K reads only the
    labels of its three squares, so it builds X (x) Y alone: 5 calls (20
    when each square built its tensor square, 25 when X (x) Y was built
    twice)."""
    calls = _count_tensor_bases(monkeypatch)
    K = koszul([X_VAR, Y_VAR])
    f = identity_map(K)
    S2f = sym2_map(f)
    assert sorted(calls) == [0, 1, 2, 3, 4]
    calls.clear()
    sigma, sigma_bar = induced_homotopy(f, f, Homotopy(f, f, {}))
    assert sorted(calls) == [0, 1, 2, 3, 4]
    calls.clear()
    sum_decomposition_iso(K, K)
    assert sorted(calls) == [0, 1, 2, 3, 4]
    monkeypatch.undo()
    assert S2f == identity_map(sym2(K).complex)
    assert sigma.f == tensor_map(f, f) and sigma_bar.f == S2f


def test_squares_build_no_tensor_square_until_read(monkeypatch):
    """S2(X), the weak square, check_s2fpd02, check_s2fpd01 and the homology
    of S2(X) build no tensor square, counted through both bindings of
    _tensor_with_bases.  The first read of a tensor-side field builds T
    once, for all of them, and proj lands on the square's own complex.
    Equality and a pickle round trip hold before and after that build."""
    calls = []
    real = complexes_module._tensor_with_bases

    def counted(X, Y):
        calls.append((X, Y))
        return real(X, Y)

    for module in (sym2_module, complexes_module):
        monkeypatch.setattr(module, "_tensor_with_bases", counted)
    R3 = ZLoc(3)
    local = koszul([R3.scalar(3), R3.scalar(6)])
    inputs = (koszul([X_VAR, Y_VAR]), local, koszul([ZZ.scalar(2), ZZ.scalar(3)]))
    for X in inputs:
        sym2(X).complex
        weak_sym2(X)
        homology(sym2(X).complex)
        if X.ring.is_local and X.ring.two_is_unit():
            check_s2fpd02(X)
            check_s2fpd01(X)
    assert calls == []
    for X in inputs:
        S = sym2(X)
        unbuilt = pickle.loads(pickle.dumps(S))
        assert "_tensor_side" not in vars(unbuilt)
        calls.clear()
        T = S.tensor_square
        assert calls == [(X, X)]
        _read_tensor_side(S)
        S.tensor_columns
        assert S.proj.source is T and S.proj.target is S.complex
        assert S.alpha.source is T and S.alpha.target is T
        built = pickle.loads(pickle.dumps(S))
        assert calls == [(X, X)]
        assert built.proj.target is built.complex
        assert sym2(X) == sym2(X)  # neither side built before the comparison
        assert unbuilt == S == built
        assert sym2(X) != sym2(shift(X, 2))
    monkeypatch.undo()
    assert all(sym2(X).tensor_square == tensor(X, X) for X in inputs)


@pytest.mark.parametrize("ring", [ZLoc(3), ZLoc(5)], ids=str)
def test_presented_homology_of_a_free_weak_square(ring):
    """Where 2 is a unit the weak square is the free symmetric square, and
    its presented homology is the homology of that complex."""
    rng = random.Random(40 + ring.p)
    inputs = [koszul([ring.scalar(3)])]
    inputs += [random_complex(ring, rng, max_rank=3, max_len=3) for _ in range(8)]
    for X in inputs:
        W = weak_sym2(X)
        assert isinstance(W, FreeComplex)
        assert homology_presented(W) == homology(sym2(X).complex)
    # a free weak square goes to homology() on every backend, fields too
    for field in (QQ, GF(3)):
        K = koszul([field.scalar(3), field.scalar(2)])
        assert homology_presented(weak_sym2(K)) == homology(sym2(K).complex)


def _counting_sym2(monkeypatch):
    calls = []
    real = sym2_module.sym2

    def counted(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(sym2_module, "sym2", counted)
    return calls


def test_sym2_map_of_an_endomorphism_builds_one_square(monkeypatch):
    K = koszul([X_VAR, Y_VAR])
    f = identity_map(K)
    calls = _counting_sym2(monkeypatch)
    got = sym2_map(f)
    assert len(calls) == 1
    monkeypatch.undo()
    # the same map as from two separately built squares
    SX, SY = sym2(K), sym2(K)
    assert got == _sym2_map(tensor_map(f, f), SX, SY)
    assert got == identity_map(SX.complex)


def test_induced_homotopy_of_an_endomorphism_pair_builds_one_square(monkeypatch):
    rng = random.Random(23)
    X = random_complex(GF(7), rng, max_rank=3, max_len=3)
    f, g, s = random_homotopic_pair(X, X, rng)
    calls = _counting_sym2(monkeypatch)
    sigma, sigma_bar = induced_homotopy(f, g, s)
    assert len(calls) == 1
    monkeypatch.undo()
    SX, SY = sym2(X), sym2(X)
    assert sigma_bar.f == _sym2_map(tensor_map(f, f), SX, SY)
    assert sigma_bar.g == _sym2_map(tensor_map(g, g), SX, SY)
    want = {}
    for n, M in sigma.maps.items():
        if SX.complex.rank(n) and SY.complex.rank(n + 1):
            bar = SY.proj.component(n + 1) @ M @ SX.section[n]
            if not bar.is_zero():
                want[n] = bar
    assert sigma_bar.maps == want


def test_sym2_map_identity_and_composition():
    rng = random.Random(11)
    for _ in range(10):
        X = random_complex(QQ, rng, max_rank=3, max_len=3)
        Y = random_complex(QQ, rng, max_rank=3, max_len=3)
        Z = random_complex(QQ, rng, max_rank=3, max_len=3)
        assert sym2_map(identity_map(X)) == identity_map(sym2(X).complex)
        f = random_chain_map(X, Y, rng)
        g = random_chain_map(Y, Z, rng)
        assert sym2_map(compose(g, f)) == compose(sym2_map(g), sym2_map(f))


def test_sym2_map_not_additive_on_projections():
    X = unit_complex(QQ)
    W = direct_sum(X, X)
    one = QQ.one()
    f1 = ChainMap(W, W, {0: SparseMatrix(QQ, 2, 2, {(0, 0): one})})
    f2 = ChainMap(W, W, {0: SparseMatrix(QQ, 2, 2, {(1, 1): one})})
    assert sym2_map(f1 + f2) == identity_map(sym2(W).complex)
    assert sym2_map(f1) + sym2_map(f2) != identity_map(sym2(W).complex)


def test_split_decomposition_trivial_on_unit_complex():
    d = split_decomposition(unit_complex(QQ))
    assert d.im_alpha.is_zero()
    assert d.sym2_result.complex.ranks == {0: 1}


def test_split_decomposition_on_odd_shift():
    d = split_decomposition(shift(unit_complex(QQ), 1))
    assert d.im_alpha.ranks == {2: 1}
    assert d.sym2_result.complex.is_zero()


def test_split_decomposition_rank_additivity_koszul():
    d = split_decomposition(koszul([X_VAR, Y_VAR]))
    t_ranks = [d.iota.target.rank(n) for n in range(5)]
    s_ranks = [d.sym2_result.complex.rank(n) for n in range(5)]
    im_ranks = [d.im_alpha.rank(n) for n in range(5)]
    assert t_ranks == [1, 4, 6, 4, 1]
    assert s_ranks == [1, 2, 2, 2, 1]
    assert im_ranks == [0, 2, 4, 2, 0]
    # independent check of the image ranks by exact elimination on alpha
    al = alpha(koszul([X_VAR, Y_VAR]))
    assert im_ranks == [rank(_constant_qq(al.component(n))) for n in range(5)]


def _constant_qq(M):
    from symchain.linalg import _poly_to_qq

    return _poly_to_qq(M)


@pytest.mark.parametrize("ring", [QQ, GF(7), ZLoc(3)])
def test_split_decomposition_contracts(ring):
    rng = random.Random(13)
    for _ in range(4):
        X = random_complex(ring, rng, max_rank=2, max_len=3)
        d = split_decomposition(X)
        e = d.idempotent
        T = d.iota.target
        for n in T.degrees():
            en = e.component(n)
            assert en @ en == en
        # q . (1/2 iota) = id and proj . iota = 0
        half = ring.scalar(2).inverse()
        for n in d.im_alpha.degrees():
            q_half_iota = d.q.component(n) @ d.iota.component(n).scale(half)
            assert q_half_iota == SparseMatrix.identity(ring, d.im_alpha.rank(n))
        for n in T.degrees():
            assert (d.proj.component(n) @ d.iota.component(n)).is_zero()
        assert is_chain_map(d.iso) and is_chain_map(d.iso_inverse)
        assert is_chain_map(d.q) and is_chain_map(d.iota) and is_chain_map(d.j)
        for n in T.degrees():
            fg = d.iso.component(n) @ d.iso_inverse.component(n)
            assert fg == SparseMatrix.identity(ring, fg.rows)


def _reference_image(M):
    if M.ring.is_field:
        R, pivots = rref(M.transpose())
        return R.transpose().submatrix_columns(range(len(pivots)))
    return image_basis_pid(M)


def _reference_kernel(M):
    return kernel_basis(M) if M.ring.is_field else kernel_pid(M)


@pytest.mark.parametrize("ring", [QQ, GF(7), ZLoc(3), ZLoc(5), POLY])
def test_alpha_summand_bases_match_reference_bases(ring):
    rng = random.Random(47)
    if ring == POLY:
        complexes = [koszul([X_VAR, Y_VAR]), direct_sum(koszul([X_VAR]), shift(koszul([Y_VAR]), 1))]
    else:
        complexes = [random_complex(ring, rng, max_rank=3, max_len=3) for _ in range(6)]
    lift = _constant_qq if ring == POLY else (lambda M: M)
    for X in complexes:
        S = sym2(X)
        T, al = S.tensor_square, S.alpha
        image, kernel = endo_image_complex(T, al), endo_kernel_complex(T, al)
        for n in T.degrees():
            M = lift(al.component(n))
            for got, want in ((image.bases.get(n), _reference_image(M)),
                              (kernel.bases.get(n), _reference_kernel(M))):
                if got is None:
                    assert want.cols == 0
                    continue
                got = lift(got)
                assert got.cols == want.cols
                # same lattice (or space): each basis solves against the other
                assert got @ solve_exact(got, want) == want
                assert want @ solve_exact(want, got) == got


def test_alpha_summand_complexes_need_twice_an_idempotent():
    S = sym2(koszul([QQ.scalar(3), QQ.scalar(5)]))
    T = S.tensor_square
    twice = ChainMap(T, T, {n: M.scale(2) for n, M in S.alpha.maps.items()})
    for f in (identity_map(T), twice):
        with pytest.raises(SymchainError, match="f.f != 2f"):
            endo_image_complex(T, f)
        with pytest.raises(SymchainError, match="f.f != 2f"):
            endo_kernel_complex(T, f)
    S_zz = sym2(koszul([ZZ.scalar(3)]))
    with pytest.raises(TwoNotUnitError):
        endo_image_complex(S_zz.tensor_square, S_zz.alpha)
    with pytest.raises(TwoNotUnitError):
        endo_kernel_complex(S_zz.tensor_square, S_zz.alpha)


def _closed_form_inputs(ring, rng):
    """Random complexes over ring, each also padded with a contractible
    piece, so not minimal (graded: a shifted R(-1) -1-> R(-1))."""
    pad = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (1,), 1: (1,)})
    for _ in range(6):
        if ring == POLY:
            X = random_graded_minimal(POLY, rng, max_pieces=3)
            yield X
            yield direct_sum(X, shift(pad, rng.randint(0, 2)))
        else:
            X = random_complex(ring, rng, max_rank=3, max_len=3)
            yield X
            yield conjugate(direct_sum(X, contractible_piece(ring, rng.randint(1, 3))), rng)
    if ring == POLY:
        yield koszul([X_VAR, Y_VAR])


@pytest.mark.parametrize("ring", [QQ, GF(5), ZLoc(3), ZLoc(5), POLY], ids=str)
def test_alpha_summands_closed_form_matches_the_checked_rref_path(ring):
    """The closed form of Im(alpha), Ker(alpha) and the corestriction gives,
    matrix for matrix, what the checked rref path of endo_image_complex and
    endo_kernel_complex and a solve against the image basis give."""
    rng = random.Random(61 + [QQ, GF(5), ZLoc(3), ZLoc(5), POLY].index(ring))
    for X in _closed_form_inputs(ring, rng):
        S = sym2(X)
        T, al = S.tensor_square, S.alpha
        image, kernel, q = _alpha_summands(S)
        for got, want in ((image, endo_image_complex(T, al)), (kernel, endo_kernel_complex(T, al))):
            assert got.bases == want.bases
            assert got.complex.ranks == want.complex.ranks
            for n in want.complex.degrees():
                assert got.complex.diff(n) == want.complex.diff(n)
                if ring == POLY:
                    assert got.complex.gdeg(n) == want.complex.gdeg(n)
            assert got.complex == want.complex
            assert got.inclusion == want.inclusion
        assert q.source == T and q.target == image.complex
        for n in T.degrees():
            if n in image.bases:
                assert q.component(n) == solve_exact(image.bases[n], al.component(n))
            else:
                assert q.component(n).is_zero()
        image_part, kernel_part, _ = _alpha_bases(T, S.tensor_bases, S.tensor_index)
        for part in (image_part, kernel_part):
            for n, (B, L, _) in part.items():
                assert L @ B == SparseMatrix.identity(ring, B.cols)


def test_split_decomposition_needs_two_invertible():
    with pytest.raises(TwoNotUnitError):
        split_decomposition(unit_complex(ZZ))


def test_sum_decomposition_examples():
    X = shift(unit_complex(QQ), 1)
    f = sum_decomposition_iso(X, X)
    # target collapses to the middle block: a single shifted copy of R
    assert f.target.ranks == {2: 1}
    assert is_chain_map(f)
    # signed permutation: the transpose with the same signs is the inverse
    for n in f.source.degrees():
        M = f.component(n)
        assert M.transpose() @ M == SparseMatrix.identity(QQ, M.cols)

    Y = zero_complex(QQ)
    g = sum_decomposition_iso(unit_complex(QQ), Y)
    assert g.target.ranks == sym2(unit_complex(QQ)).complex.ranks


def test_sum_decomposition_random_invertible():
    rng = random.Random(17)
    for _ in range(5):
        X = random_complex(GF(5), rng, max_rank=2, max_len=2)
        Y = random_complex(GF(5), rng, max_rank=2, max_len=2)
        f = sum_decomposition_iso(X, Y)
        assert is_chain_map(f)
        for n in f.source.degrees():
            M = f.component(n)
            assert M.rows == M.cols
            K = solve_field(M, SparseMatrix.identity(GF(5), M.rows))
            assert M @ K == SparseMatrix.identity(GF(5), M.rows)


def test_shift_iso_examples():
    X = koszul([X_VAR, Y_VAR])
    assert shift_iso(X, 0).source == sym2(X).complex
    f = shift_iso(unit_complex(QQ), 1)
    assert f.source.ranks == {4: 1} and f.target.ranks == {4: 1}
    g = shift_iso(X, 1)
    assert is_chain_map(g)
    assert g.source.support == (4, 8)


def test_induced_homotopy_zero_case():
    X = koszul([X_VAR, Y_VAR])
    f = identity_map(X)
    s = Homotopy(f, f, {})
    sigma, sigma_bar = induced_homotopy(f, f, s)
    assert sigma.maps == {} and sigma_bar.maps == {}


def test_induced_homotopy_contracts_unit_koszul_square():
    """A contracting homotopy transports to one on the symmetric square."""
    K = koszul([QQ.scalar(1), QQ.scalar(1)])
    ident = identity_map(K)
    z = zero_map(K, K)
    s_maps = {}
    s_prev = None
    lo, hi = K.support
    for n in range(lo, hi + 1):
        rhs = ident.component(n) - (
            s_prev @ K.diff(n) if s_prev is not None else SparseMatrix.zero(QQ, K.rank(n), K.rank(n))
        )
        sol = solve_field(K.diff(n + 1), rhs)
        s_maps[n] = sol
        s_prev = sol
    s = Homotopy(ident, z, s_maps)
    assert s.check()
    sigma, sigma_bar = induced_homotopy(ident, z, s)
    assert sigma.check() and sigma_bar.check()
    # the square of the identity is homotopic to zero, so the square is exact
    assert is_exact(sym2(K).complex)


def _room_for_homotopy(X, Y):
    """Some X_n and Y_{n+1} are both nonzero (over a graded ring, with a
    generator of Y_{n+1} of degree at most that of one of X_n), so that
    random_homotopic_pair draws a nonzero s."""
    return any(
        Y.rank(n + 1) and (not X.graded or min(Y.gdeg(n + 1)) <= max(X.gdeg(n)))
        for n in X.degrees()
    )


@pytest.mark.parametrize("ring", [GF(7), ZLoc(3), POLY], ids=str)
def test_induced_homotopy_random_pairs(ring):
    """sigma is built from s and f + g, so each pair is drawn with a nonzero
    f and room for a nonzero s.  Between two different complexes
    random_chain_map draws only null-homotopic maps, which are often zero;
    over GF(7) cycle_map then gives one that need not be.  cycle_map needs a
    field, so over ZLoc(3) and the graded ring the pair is drawn from
    random_split_pair, whose contractible pieces leave room for s, and f
    maps X to itself half the time, where random_chain_map adds the
    identity half the time."""
    rng = random.Random(19 + [GF(7), ZLoc(3), POLY].index(ring))
    nonzero = 0
    for _ in range(10):
        while True:
            if ring.is_field:
                X = random_complex(ring, rng, max_rank=3, max_len=3)
                Y = random_complex(ring, rng, max_rank=3, max_len=3)
                f = random_chain_map(X, Y, rng)
                f = f if f.maps else cycle_map(X, Y, rng)
            else:
                X, Y = random_split_pair(ring, rng)
                Y = rng.choice([X, Y])
                f = random_chain_map(X, Y, rng)
            if f is not None and f.maps and _room_for_homotopy(X, Y):
                break
        f, g, s = random_homotopic_pair(X, Y, rng, f)
        assert f.maps and s.maps
        sigma, sigma_bar = induced_homotopy(f, g, s)
        assert sigma.check()
        assert sigma_bar.check()
        nonzero += bool(sigma.maps)
    assert nonzero >= 8
    X, Y = shift(unit_complex(ring), 2), unit_complex(ring)
    assert not _room_for_homotopy(X, Y)
    assert not random_homotopic_pair(X, Y, rng)[2].maps


@pytest.mark.parametrize("ring", [QQ, GF(7), ZLoc(3), POLY], ids=str)
def test_induced_homotopy_matches_the_entrywise_oracle(ring):
    """sigma of induced_homotopy, from two shifted Kronecker products, is
    the sigma written entry by entry from the tensor basis labels."""
    rng = random.Random(71 + [QQ, GF(7), ZLoc(3), POLY].index(ring))
    nonzero = 0
    for _ in range(12):
        if ring == POLY:
            X = random_graded_minimal(POLY, rng, max_pieces=3)
            Y = random_graded_minimal(POLY, rng, max_pieces=3)
        else:
            X = random_complex(ring, rng, max_rank=3, max_len=3)
            Y = random_complex(ring, rng, max_rank=3, max_len=3)
        f, g, s = random_homotopic_pair(X, rng.choice([X, Y]), rng)
        sigma, _ = induced_homotopy(f, g, s)
        assert sigma.maps == reference_induced_sigma(f, g, s)
        nonzero += bool(sigma.maps)
    assert nonzero >= 6


@pytest.mark.parametrize("ring", [QQ, GF(7), ZLoc(3), POLY], ids=str)
def test_induced_homotopy_refuses_an_s_that_is_not_a_homotopy(ring):
    """s = 1 on R -1-> R contracts it: 1 - 0 = ds + sd.  Twice that, or
    that s offered between 1 and 1, is not a homotopy from f to g."""
    gdegs = {0: (1,), 1: (1,)} if ring.graded else None
    K = FreeComplex(ring, {0: 1, 1: 1}, {1: SparseMatrix.identity(ring, 1)}, gdegs)
    ident, z = identity_map(K), zero_map(K, K)
    one = SparseMatrix.identity(ring, 1)
    induced_homotopy(ident, z, Homotopy(ident, z, {0: one}))
    for f, g, s_maps in ((ident, z, {0: one + one}), (ident, ident, {0: one})):
        with pytest.raises(SymchainError, match="s is not a homotopy between f and g"):
            induced_homotopy(f, g, Homotopy(f, g, s_maps))
    with pytest.raises(SymchainError, match="s is not a homotopy between f and g"):
        induced_homotopy(ident, ident, Homotopy(ident, z, {0: one}))


def test_induced_homotopy_needs_two_invertible():
    K = koszul([ZZ.scalar(1)])
    f = identity_map(K)
    with pytest.raises(TwoNotUnitError):
        induced_homotopy(f, f, Homotopy(f, f, {}))


def test_base_change_examples():
    K = koszul([ZZ.scalar(3)])
    pushed = base_change(K, GF(5))
    assert pushed.diff(1) == SparseMatrix.from_rows(GF(5), [[3]])
    iso = sym2_base_change_iso(K, GF(5))
    assert is_chain_map(iso)
    # odd shift: both sides vanish over QQ
    sigma_z = shift(unit_complex(ZZ), 1)
    assert sym2(base_change(sigma_z, QQ)).complex.is_zero()
    assert base_change(sigma_z, QQ) == base_change(sigma_z, QQ)
    with pytest.raises(UnsupportedRingError):
        base_change(unit_complex(QQ), ZZ)


def test_base_change_zloc_to_gf():
    R = ZLoc(3)
    X = FreeComplex(R, {0: 1, 1: 1}, {1: SparseMatrix.from_rows(R, [["1/2"]])})
    pushed = base_change(X, GF(3))
    assert pushed.diff(1) == SparseMatrix.from_rows(GF(3), [[2]])  # 1/2 = 2 mod 3


def test_support_shrinks_under_sym2():
    """If the pushed complex is exact, so is its symmetric square."""
    K = koszul([ZZ.scalar(2)])
    over_q = base_change(K, QQ)
    assert is_exact(over_q)
    assert is_exact(sym2(over_q).complex)
    # same phenomenon modulo a prime where the entry becomes a unit
    over_f5 = base_change(koszul([ZZ.scalar(3)]), GF(5))
    assert is_exact(over_f5)
    assert is_exact(sym2(over_f5).complex)


def test_weak_sym2_over_characteristic_two_backends():
    # constructible witnesses for 2 not being a unit; diagonal generators
    # survive freely over GF(2) because the relation 2g collapses to 0
    for ring in (GF(2), ZLoc(2)):
        X = shift(unit_complex(ring), 1)
        P = weak_sym2(X)
        assert isinstance(P, PresentedComplex)
        assert len(P.gens(2)) == 1
        assert P.validate()


def test_base_change_identity_map_is_equality():
    K = koszul([ZZ.scalar(3)])
    assert base_change(K, ZZ) == K


def test_sum_decomposition_with_zero_summand_is_identity():
    X = koszul([X_VAR, Y_VAR])
    f = sum_decomposition_iso(X, zero_complex(POLY))
    S = sym2(X).complex
    assert f.target == S
    for n in S.degrees():
        assert f.component(n) == SparseMatrix.identity(POLY, S.rank(n))


def test_idempotent_half_alpha():
    rng = random.Random(23)
    for ring in (QQ, ZLoc(3)):
        X = random_complex(ring, rng, max_rank=3, max_len=3)
        al = alpha(X)
        half = ring.scalar(2).inverse()
        for n in al.source.degrees():
            e = al.component(n).scale(half)
            assert e @ e == e
