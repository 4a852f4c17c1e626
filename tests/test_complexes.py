"""Complexes, chain maps, homotopies, tensor products, Koszul complexes."""

import random
import re

import pytest

from symchain import (
    GF,
    ChainMap,
    FreeComplex,
    Homotopy,
    PresentedComplex,
    SparseMatrix,
    ZLoc,
    ZZ,
    QQ,
    direct_sum,
    graded_poly,
    identity_map,
    is_chain_map,
    is_homotopy,
    koszul,
    shift,
    tensor,
    tensor_map,
    unit_complex,
    validate,
    zero_complex,
    zero_map,
)
from symchain.complexes import compose, tensor_basis
from symchain.errors import GradingError, RingMismatchError, ShapeError
from symchain.homology import homology, inf_h
from symchain.linalg import solve_pid

from randgen import random_chain_map, random_complex, random_minimal_complex

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def rows(ring, data):
    return SparseMatrix.from_rows(ring, data)


def test_validate_koszul_ok():
    assert validate(koszul([X_VAR, Y_VAR])).ok


def test_validate_catches_nonzero_composite():
    ranks = {0: 1, 1: 1, 2: 1}
    diffs = {1: rows(ZZ, [[1]]), 2: rows(ZZ, [[1]])}
    # the public constructor refuses d.d != 0, naming the degree and entry
    with pytest.raises(ShapeError, match=r"at degree 2: .* at entry \(0,0\)"):
        FreeComplex(ZZ, ranks, diffs)
    # the trusted builder checks nothing; validate reports the same witness
    report = validate(FreeComplex._of(ZZ, ranks, diffs))
    assert not report.ok
    assert report.first_failure == (2, (0, 0))


def test_free_complex_rejects_missing_differential():
    with pytest.raises(ShapeError, match="differential at degree 1 is missing"):
        FreeComplex(ZZ, {0: 1, 1: 1}, {1: None})


def test_chain_map_rejects_missing_component():
    with pytest.raises(ShapeError, match="map at degree 0 is missing"):
        ChainMap(unit_complex(ZZ), unit_complex(ZZ), {0: None})


def _one_element_koszul(ring):
    """0 -> R -(a)-> R -> 0, with a = x over POLY and a = 2 otherwise."""
    return koszul([X_VAR if ring.graded else ring.scalar(2)])


def _gdegs(K):
    return {n: K.gdeg(n) for n in K.degrees()} if K.graded else None


# name: (family built on K from {degree: matrix}, what its messages call a
# matrix, a degree where the matrix is 1x1, a degree with a zero module)
FAMILIES = {
    "FreeComplex": (
        lambda K, maps: FreeComplex(K.ring, K.ranks, maps, _gdegs(K)), "differential", 1, 2
    ),
    "ChainMap": (lambda K, maps: ChainMap(K, K, maps), "map", 1, 2),
    "Homotopy": (
        lambda K, maps: Homotopy(zero_map(K, K), zero_map(K, K), maps), "homotopy component", 0, 1
    ),
    "PresentedComplex": (
        lambda K, maps: PresentedComplex(
            K.ring, {n: list(range(K.rank(n))) for n in K.degrees()}, {}, maps
        ),
        "presented differential",
        1,
        2,
    ),
}
# name: (error, the malformed matrix over ring, the message after the degree)
MALFORMED = {
    "missing": (ShapeError, lambda ring: None, " is missing"),
    "wrong ring": (RingMismatchError, lambda ring: rows(GF(3), [[1]]), " is over GF(3), not"),
    "wrong shape": (ShapeError, lambda ring: rows(ring, [[1], [1]]), " is 2x1, expected 1x1"),
    "zero module": (ShapeError, lambda ring: rows(ring, [[1]]), " maps to/from a zero module"),
    "not homogeneous": (
        GradingError,
        lambda ring: rows(ring, [[ring.scalar("x^2 + 1")]]),
        ": entry (0,0) is not homogeneous",
    ),
}
# presented complexes carry no generator degrees to check homogeneity against
MALFORMED_FAMILIES = [
    pytest.param(ring, family, case, id=f"{ring}-{family}-{case}")
    for ring in (QQ, POLY)
    for family in FAMILIES
    for case in MALFORMED
    if case != "not homogeneous" or (ring.graded and family != "PresentedComplex")
]


@pytest.mark.parametrize("ring, family, case", MALFORMED_FAMILIES)
def test_every_family_from_outside_is_checked_naming_the_degree(ring, family, case):
    """One validator checks the differentials of a FreeComplex and of a
    PresentedComplex and the components of a ChainMap and of a Homotopy:
    each malformed matrix raises its own error, naming the family and the
    degree."""
    build, what, n, zero_n = FAMILIES[family]
    error, matrix, rest = MALFORMED[case]
    if case == "zero module":
        n = zero_n
    with pytest.raises(error, match="^" + re.escape(f"{what} at degree {n}{rest}")):
        build(_one_element_koszul(ring), {n: matrix(ring)})


def test_validate_empty_complex():
    assert validate(zero_complex(ZZ)).ok


def test_validate_graded_homogeneity():
    # a degree-0 entry between generators of different internal degrees
    # is refused when the complex is built
    message = "differential at degree 1: entry \\(0,0\\) is not homogeneous of degree 1"
    with pytest.raises(GradingError, match=message):
        FreeComplex(POLY, {0: 1, 1: 1}, {1: rows(POLY, [[1]])}, {0: (0,), 1: (1,)})
    # so is x + x*y, whose x*y term slices once dropped: homology() read
    # the Hilbert table of R/(x) and symm09 held
    d1 = rows(POLY, [[X_VAR + X_VAR * Y_VAR]])
    with pytest.raises(GradingError, match=message):
        FreeComplex(POLY, {0: 1, 1: 1}, {1: d1}, {0: (0,), 1: (1,)})
    good = FreeComplex(POLY, {0: 1, 1: 1}, {1: rows(POLY, [[X_VAR]])}, {0: (0,), 1: (1,)})
    assert validate(good).ok


def test_shift_examples():
    R0 = unit_complex(ZZ)
    assert shift(R0, 1).ranks == {1: 1}
    K = koszul([X_VAR])
    assert shift(K, 2).diff(3) == K.diff(1)
    assert shift(K, 1).diff(2) == -K.diff(1)


def test_grading_required_and_forbidden():
    with pytest.raises(GradingError):
        FreeComplex(POLY, {0: 1}, {})
    with pytest.raises(GradingError):
        FreeComplex(ZZ, {0: 1}, {}, {0: (0,)})


def test_direct_sum_examples():
    X = koszul([ZZ.scalar(3)])
    assert direct_sum(X, zero_complex(ZZ)) == X
    S = direct_sum(shift(unit_complex(ZZ), 1), shift(unit_complex(ZZ), 3))
    assert S.ranks == {1: 1, 3: 1}
    assert validate(direct_sum(X, X)).ok
    with pytest.raises(RingMismatchError):
        direct_sum(X, unit_complex(QQ))


def test_tensor_one_variable_square():
    K = koszul([X_VAR])
    T = tensor(K, K)
    assert T.ranks == {0: 1, 1: 2, 2: 1}
    # global convention: degree-1 basis is [e1(x)e0, e0(x)e1]
    assert [[str(v) for v in row] for row in T.diff(2).to_rows()] == [["-x"], ["x"]]
    assert [[str(v) for v in row] for row in T.diff(1).to_rows()] == [["x", "x"]]
    # swapping the degree-1 basis reproduces the classical (x, -x) display
    P = rows(POLY, [[0, 1], [1, 0]])
    assert [[str(v) for v in row] for row in (P @ T.diff(2)).to_rows()] == [["x"], ["-x"]]


def test_tensor_unit_is_identity_blockwise():
    X = random_complex(ZZ, random.Random(5))
    T = tensor(unit_complex(ZZ), X)
    assert T.ranks == X.ranks
    assert all(T.diff(n) == X.diff(n) for n in X.degrees())


def test_tensor_two_variable_matches_koszul_up_to_signed_permutation():
    KX = koszul([X_VAR])
    KY = koszul([Y_VAR])
    T = tensor(KX, KY)
    K = koszul([X_VAR, Y_VAR])
    # explicit signed identification: top generator flips sign
    one = POLY.one()
    maps = {
        0: SparseMatrix.identity(POLY, 1),
        1: SparseMatrix.identity(POLY, 2),
        2: rows(POLY, [[-1]]),
    }
    f = ChainMap(T, K, maps)
    assert is_chain_map(f)


def test_koszul_integer_example():
    K = koszul([ZZ.scalar(3)])
    assert K.ranks == {0: 1, 1: 1}
    assert K.diff(1) == rows(ZZ, [[3]])


def test_koszul_three_elements_is_iterated_tensor():
    K = koszul([X_VAR, Y_VAR, X_VAR])
    assert [K.rank(n) for n in range(4)] == [1, 3, 3, 1]
    assert validate(K).ok
    assert K == tensor(tensor(koszul([X_VAR]), koszul([Y_VAR])), koszul([X_VAR]))


def test_koszul_rejects_empty_and_inhomogeneous():
    with pytest.raises(Exception):
        koszul([])
    with pytest.raises(GradingError):
        koszul([X_VAR + POLY.one()])


def test_tensor_map_laws():
    rng = random.Random(9)
    for _ in range(10):
        X = random_complex(ZZ, rng, max_rank=3, max_len=3)
        Y = random_complex(ZZ, rng, max_rank=3, max_len=3)
        idX = identity_map(X)
        idY = identity_map(Y)
        assert tensor_map(idX, idY) == identity_map(tensor(X, Y))
        f = random_chain_map(X, Y, rng)
        g = random_chain_map(Y, X, rng)
        zf = zero_map(X, Y)
        assert tensor_map(zf, g).maps == {}
        # (g.f) (x) (f.g) = (g (x) f) . (f (x) g)
        left = tensor_map(compose(g, f), compose(f, g))
        right = compose(tensor_map(g, f), tensor_map(f, g))
        assert left == right


def test_identity_and_zero_are_chain_maps():
    X = random_complex(QQ, random.Random(13))
    assert is_chain_map(identity_map(X))
    assert is_chain_map(zero_map(X, X))
    f = identity_map(X)
    s = Homotopy(f, f, {})
    assert is_homotopy(s, f, f)


def test_contracting_homotopy_of_unit_koszul_over_zz():
    """Greedy degreewise solve of the homotopy equations, then the contract."""
    K = koszul([ZZ.scalar(1), ZZ.scalar(1)])
    ident = identity_map(K)
    z = zero_map(K, K)
    s_maps = {}
    prev = SparseMatrix.zero(ZZ, K.rank(0), 0)
    lo, hi = K.support
    s_prev = None
    for n in range(lo, hi + 1):
        rhs = ident.component(n) - (s_prev @ K.diff(n) if s_prev is not None else
                                    SparseMatrix.zero(ZZ, K.rank(n), K.rank(n)))
        sol = solve_pid(K.diff(n + 1), rhs)
        assert sol is not None
        s_maps[n] = sol
        s_prev = sol
    s = Homotopy(ident, z, s_maps)
    assert s.check()
    assert is_homotopy(s, ident, z)


def test_tensor_associativity_up_to_permutation():
    rng = random.Random(17)
    for _ in range(6):
        X = random_complex(QQ, rng, max_rank=2, max_len=2)
        Y = random_complex(QQ, rng, max_rank=2, max_len=2)
        Z = random_complex(QQ, rng, max_rank=2, max_len=2)
        L = tensor(tensor(X, Y), Z)
        R = tensor(X, tensor(Y, Z))
        assert L.ranks == R.ranks
        maps = {}
        for n in L.degrees():
            XY = tensor(X, Y)
            YZ = tensor(Y, Z)
            src_index = {}
            for k, ((pq, a), (r, c)) in enumerate(tensor_basis(XY, Z, n)):
                (p, i), (q, j) = tensor_basis(X, Y, pq)[a]
                src_index[((p, i), (q, j), (r, c))] = k
            entries = {}
            for k2, ((p, i), (qr, b)) in enumerate(tensor_basis(X, YZ, n)):
                (q, j), (r, c) = tensor_basis(Y, Z, qr)[b]
                entries[(k2, src_index[((p, i), (q, j), (r, c))])] = QQ.one()
            maps[n] = SparseMatrix(QQ, R.rank(n), L.rank(n), entries)
        f = ChainMap(L, R, maps)
        assert is_chain_map(f)


def test_lowest_homology_of_tensor_is_additive_over_zloc():
    """Over a local backend the infima of minimal complexes add under tensor,
    and the lowest homology is the tensor of the lowest homologies."""
    rng = random.Random(19)
    R = ZLoc(3)
    for _ in range(8):
        P = random_minimal_complex(R, rng, max_rank=2, max_len=2)
        Q = random_minimal_complex(R, rng, max_rank=2, max_len=2)
        iP, iQ = inf_h(P), inf_h(Q)
        T = tensor(P, Q)
        assert inf_h(T) == iP + iQ
        hP = homology(P).group(iP)
        hQ = homology(Q).group(iQ)
        hT = homology(T).group(iP + iQ)
        want = _tensor_invariants(hP, hQ)
        assert (hT.rank, tuple(sorted(hT.factors))) == want


def _tensor_invariants(a, b):
    comps_a = [None] * a.rank + list(a.factors)
    comps_b = [None] * b.rank + list(b.factors)
    out = []
    for u in comps_a:
        for v in comps_b:
            if u is None and v is None:
                out.append(None)
            elif u is None:
                out.append(v)
            elif v is None:
                out.append(u)
            else:
                out.append(min(u, v))
    rank = sum(1 for c in out if c is None)
    return rank, tuple(sorted(c for c in out if c is not None))


def test_lowest_homology_of_tensor_is_additive_over_graded():
    """Graded analog, verified to a degree bound: the infima add under
    tensor, and the lowest Hilbert table equals that of the module tensor
    product, computed independently from the slice data of each factor."""
    from oracles import graded_homology_module, module_pair_table
    from randgen import random_graded_minimal

    rng = random.Random(47)
    for _ in range(4):
        P = random_graded_minimal(POLY, rng, max_pieces=1)
        Q = random_graded_minimal(POLY, rng, max_pieces=1)
        D = 2 * (P.max_gdeg() + Q.max_gdeg()) + P.total_rank() + Q.total_rank() + 2
        iP, iQ = inf_h(P), inf_h(Q)
        assert (iP, iQ) == (homology(P, bound=D).inf, homology(Q, bound=D).inf)
        T = tensor(P, Q)
        assert inf_h(T) == iP + iQ == homology(T, bound=D).inf
        dimsP, multsP, dminP = graded_homology_module(P, iP, D)
        dimsQ, multsQ, dminQ = graded_homology_module(Q, iQ, D)
        want = module_pair_table(dimsP, multsP, dimsQ, multsQ, 2, dminP, dminQ, D)
        got = homology(T, bound=D).table(iP + iQ)
        assert want == got, (P.ranks, Q.ranks, want, got)


def test_every_operation_produces_valid_complexes():
    rng = random.Random(23)
    for _ in range(8):
        X = random_complex(ZZ, rng, max_rank=3, max_len=3)
        Y = random_complex(ZZ, rng, max_rank=3, max_len=3)
        assert validate(X).ok
        assert validate(shift(X, rng.randint(-2, 2))).ok
        assert validate(direct_sum(X, Y)).ok
        assert validate(tensor(X, Y)).ok
