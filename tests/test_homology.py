"""Homology over each backend, presented complexes, quasi-isomorphism tests."""

import random
from math import gcd

import pytest

from symchain import (
    ChainMap,
    FpAbelianGroup,
    FreeComplex,
    GF,
    QQ,
    SparseMatrix,
    ZLoc,
    ZZ,
    base_change,
    direct_sum,
    graded_poly,
    homology,
    homology_presented,
    identity_map,
    inf_h,
    is_exact,
    is_quasi_iso,
    koszul,
    mapping_cone,
    shift,
    sym2,
    tensor,
    unit_complex,
    validate,
    weak_sym2,
    zero_map,
)
from symchain.errors import GradingError, ShapeError, SymchainError, UnsupportedRingError
from symchain.homology import _presented_cone
from symchain.linalg import (
    image_basis_pid,
    kernel_basis,
    kernel_pid,
    rref,
    slice_matrix,
    smith_normal_form,
    solve_field,
    solve_pid,
)
from symchain.sym2 import PresentedComplex
from symchain.sym2 import _pivot_columns

from oracles import homology_representatives
from randgen import (
    conjugate,
    random_chain_map,
    random_complex,
    random_graded_minimal,
    random_minimal_complex,
    summand_inclusion,
    two_term,
)

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def test_homology_of_integer_koszul():
    h = homology(koszul([ZZ.scalar(3)]))
    assert str(h.group(0)) == "Z/3"
    assert h.is_zero_at(1)
    assert h.inf == 0


def test_homology_of_unit_koszul_square_over_zz():
    S = sym2(koszul([ZZ.scalar(1), ZZ.scalar(1)])).complex
    h = homology(S)
    assert str(h.group(3)) == "Z/2"
    assert h.nonzero_degrees() == [3]


def test_graded_homology_of_koszul_square():
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    h = homology(S, bound=6)
    assert h.table(0) == {0: 1}
    assert h.table(2) == {2: 1}
    assert h.is_zero_at(1) and h.is_zero_at(3) and h.is_zero_at(4)
    assert h.bound == 6
    assert h.inf == 0


def test_graded_homology_builds_each_slice_once(monkeypatch):
    import importlib

    module = importlib.import_module("symchain.homology")
    built = []

    def counting_slice_matrix(M, src, tgt, d):
        built.append((tuple(src), tuple(tgt), d))
        return slice_matrix(M, src, tgt, d)

    monkeypatch.setattr(module, "slice_matrix", counting_slice_matrix)
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert homology(S, bound=6).table(2) == {2: 1}
    # one slice of d_n per (n, d): n runs over the degrees of S and one above
    assert len(built) == len(set(built)) == (len(S.degrees()) + 1) * 7
    built.clear()
    cone = mapping_cone(identity_map(S))  # exact, so every slice is scanned
    lo, hi = cone.support
    assert homology(cone, bound=6).is_exact()
    assert len(built) == (hi - lo + 2) * (6 - cone.min_gdeg() + 1)


def test_graded_homology_needs_grading_info():
    with pytest.raises(GradingError):
        FreeComplex(POLY, {0: 1}, {})


def test_homology_zloc_reports_prime_powers():
    R = ZLoc(3)
    X = FreeComplex(R, {0: 1, 1: 1}, {1: SparseMatrix.from_rows(R, [[9]])})
    h = homology(X)
    assert h.group(0) == FpAbelianGroup(0, (9,))
    Y = FreeComplex(R, {0: 1, 1: 1}, {1: SparseMatrix.from_rows(R, [[2]])})
    assert homology(Y).is_exact()  # 2 is a unit there


def test_homology_presented_examples():
    P = weak_sym2(koszul([ZZ.scalar(3)]))
    h = homology_presented(P)
    assert [str(h.group(n)) for n in (0, 1, 2)] == ["Z/3", "0", "Z/2"]
    P2 = weak_sym2(shift(unit_complex(ZZ), 1))
    h2 = homology_presented(P2)
    assert h2.nonzero_degrees() == [2]
    assert str(h2.group(2)) == "Z/2"


def test_homology_presented_requires_zz():
    P = PresentedComplex(QQ, {0: [0]}, {}, {})
    with pytest.raises(UnsupportedRingError):
        homology_presented(P)
    # a GF(2) weak square has zero relation columns, so its cone is no complex
    with pytest.raises(UnsupportedRingError):
        homology_presented(weak_sym2(shift(unit_complex(GF(2)), 1)))
    with pytest.raises(UnsupportedRingError):
        homology_presented(PresentedComplex(POLY, {0: [0]}, {}, {}))


def _cokernel_invariants(A):
    """Oracle: (free rank, invariant factors > 1) of coker(A) over ZZ or
    ZLoc(p), read off the Smith diagonal of the transform path."""
    diagonal = [int(d.value) for d in smith_normal_form(A).nonzero_diagonal()]
    return A.rows - len(diagonal), tuple(d for d in diagonal if d > 1)


def _presented_homology_oracle(P):
    """Oracle over ZZ or ZLoc(p): H_n = cycles / boundaries as lattices.  Cycles are
    the v with d(v) in the span of the lower relations, taken as a lattice
    basis L; boundaries and relations are written in L's coordinates, and
    the group is the cokernel of that coordinate matrix."""
    values = {}
    for n in P.degrees():
        dn, rel_prev = P.diff(n), P.relation(n - 1)
        stacked = dn.hstack(-rel_prev) if rel_prev.cols else dn
        full_kernel = kernel_pid(stacked)
        v_part = SparseMatrix(
            P.ring, P.rank_free_cover(n), full_kernel.cols,
            {(i, j): v for (i, j), v in full_kernel.entries.items() if i < P.rank_free_cover(n)},
        )
        L = image_basis_pid(v_part)
        if L.cols == 0:
            continue
        coords = solve_pid(L, P.diff(n + 1).hstack(P.relation(n)))
        assert coords is not None, "boundaries escape the cycle lattice"
        g = FpAbelianGroup(*_cokernel_invariants(coords))
        if not g.is_zero():
            values[n] = g
    return values


def test_presented_homology_matches_lattice_oracle_on_random_weak_squares():
    rng = random.Random(41)
    torsion = twisted = 0
    for _ in range(100):
        P = weak_sym2(random_complex(ZZ, rng, max_rank=3, max_len=3))
        h = homology_presented(P)
        assert h.values == _presented_homology_oracle(P)
        torsion += any(g.factors for g in h.values.values())
        twisted += any(not (P.diff(n - 1) @ P.diff(n)).is_zero() for n in P.degrees())
    # both torsion and a nonzero d.d (the cone's correction term) occur
    assert torsion > 20 and twisted > 5


def test_presented_homology_over_zloc_matches_lattice_oracle():
    rng = random.Random(43)
    R = ZLoc(2)
    torsion = 0
    for _ in range(60):
        pick = random_complex if rng.random() < 0.5 else random_minimal_complex
        P = weak_sym2(pick(R, rng, max_rank=3, max_len=3))
        h = homology_presented(P)
        assert h.values == _presented_homology_oracle(P)
        torsion += any(g.factors for g in h.values.values())
    assert torsion > 30


def test_presented_homology_matches_lattice_oracle_on_koszul_weak_square():
    P = weak_sym2(koszul([ZZ.scalar(v) for v in (2, 9, 25, 49)]))
    assert homology_presented(P).values == _presented_homology_oracle(P)


def test_presented_cone_needs_the_correction_term():
    # d.d lands in the relations but is not zero, so the cone needs h
    P = weak_sym2(koszul([ZZ.scalar(2), ZZ.scalar(9)]))
    assert not (P.diff(3) @ P.diff(4)).is_zero()
    assert validate(_presented_cone(P)).ok
    assert homology_presented(P).values == _presented_homology_oracle(P)


def test_presented_homology_of_four_element_koszul_weak_square():
    h = homology_presented(weak_sym2(koszul([ZZ.scalar(v) for v in (3, 5, -7, 11)])))
    assert h.values == {2: FpAbelianGroup(0, (2,)), 6: FpAbelianGroup(0, (2, 2, 2))}


def test_free_complex_wrapped_as_presented_agrees():
    rng = random.Random(3)
    for _ in range(8):
        X = random_complex(ZZ, rng, max_rank=3, max_len=3)
        P = PresentedComplex(
            ZZ,
            {n: list(range(X.rank(n))) for n in X.degrees()},
            {},
            {n: X.diff(n) for n in X.degrees() if X.rank(n - 1)},
        )
        hp = homology_presented(P)
        hf = homology(X)
        degrees = set(hp.values) | set(hf.values)
        for n in degrees:
            assert hp.group(n) == hf.group(n)


def _prime_powers(c: int):
    out, p = [], 2
    while c > 1:
        q = 1
        while c % p == 0:
            c, q = c // p, q * p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def _invariant_form(rank: int, orders) -> FpAbelianGroup:
    """Z^rank (+) the cyclic groups Z/c, c in orders, in invariant-factor form."""
    by_prime = {}
    for c in orders:
        for p, q in _prime_powers(c):
            by_prime.setdefault(p, []).append(q)
    factors = [1] * max((len(qs) for qs in by_prime.values()), default=0)
    for qs in by_prime.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            factors[k] *= q
    return FpAbelianGroup(rank, tuple(sorted(factors)))


def _kunneth(hX, hY, n: int):
    """H_n(X (x) Y) over a PID, from the groups of X and Y by hand:
    sum over i + j = n of H_i (x) H_j, plus sum over i + j = n - 1 of
    Tor(H_i, H_j); Z (x) A = A, Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b)."""
    rank, orders = 0, []
    for i in hX.values:
        a = hX.group(i)
        b = hY.group(n - i)
        rank += a.rank * b.rank
        orders += [f for f in b.factors for _ in range(a.rank)]
        orders += [f for f in a.factors for _ in range(b.rank)]
        orders += [gcd(f, g) for f in a.factors for g in b.factors]
        t = hY.group(n - 1 - i)
        orders += [gcd(f, g) for f in a.factors for g in t.factors]
    return _invariant_form(rank, [c for c in orders if c > 1])


def test_homology_of_tensor_matches_kunneth_oracle():
    rng = random.Random(53)
    torsion = tor_terms = 0
    for k in range(120):
        ring = ZZ if k % 2 else ZLoc(3)
        pair = []
        for _ in range(2):
            if ring == ZZ:
                X = random_complex(ZZ, rng, max_rank=3, max_len=3)
                if rng.random() < 0.5:
                    piece = two_term(ZZ, rng.randint(1, 3), rng.choice([3, 4, 6, 9, 12]))
                    X = conjugate(direct_sum(X, piece), rng)
            else:
                X = random_minimal_complex(ring, rng, max_rank=3, max_len=3)
            pair.append(X)
        X, Y = pair
        hX, hY, hT = homology(X), homology(Y), homology(tensor(X, Y))
        degrees = set(hT.values)
        for i in hX.values:
            degrees |= {i + j + e for j in hY.values for e in (0, 1)}
        for n in degrees:
            assert hT.group(n) == _kunneth(hX, hY, n), (ring, X, Y, n)
        torsion += any(g.factors for g in hT.values.values())
        tor_terms += any(
            gcd(f, g) > 1
            for i in hX.values
            for j in hY.values
            for f in hX.group(i).factors
            for g in hY.group(j).factors
        )
    assert torsion > 60 and tor_terms > 25


def test_identity_is_quasi_iso():
    rng = random.Random(5)
    for ring in (ZZ, QQ, GF(5), ZLoc(3)):
        X = random_complex(ring, rng, max_rank=3, max_len=3)
        assert is_quasi_iso(identity_map(X))


def test_projection_onto_sym2_not_quasi_iso_graded():
    S = sym2(koszul([X_VAR, Y_VAR]))
    verdict = is_quasi_iso(S.proj)
    assert not verdict
    # the verdict is exact: it carries no degree bound at all
    assert not hasattr(verdict, "bound") and not hasattr(verdict, "bounded")
    # H_1 of the tensor square is two copies of QQ in internal degree 1 and
    # H_1 of S2 vanishes: H_1(proj) is not injective, so the cone fails at (2, 1)
    assert verdict.failures == [(2, 1)]
    oracle = homology(mapping_cone(S.proj), bound=6)
    assert oracle.nonzero_degrees()[0] == 2 and oracle.table(2)[1] == 2


def test_augmentation_of_split_exact_complex_is_quasi_iso():
    K = koszul([QQ.scalar(1), QQ.scalar(1)])
    f = zero_map(K, FreeComplex(QQ, {}, {}))
    assert is_quasi_iso(f)


def test_inf_examples():
    assert inf_h(koszul([X_VAR, Y_VAR])) == 0
    assert inf_h(shift(unit_complex(QQ), 2)) == 2
    assert is_exact(koszul([QQ.scalar(1), QQ.scalar(1)]))
    assert inf_h(FreeComplex(ZZ, {}, {})) is None


def test_euler_characteristic_matches_homology():
    rng = random.Random(7)
    for ring in (QQ, GF(7)):
        for _ in range(10):
            X = random_complex(ring, rng, max_rank=4, max_len=4)
            h = homology(X)
            chi_ranks = sum((-1) ** n * X.rank(n) for n in X.degrees())
            chi_h = sum((-1) ** n * h.dimension(n) for n in h.values)
            assert chi_ranks == chi_h
    for _ in range(10):
        X = random_complex(ZZ, rng, max_rank=4, max_len=4)
        h = homology(X)
        chi_ranks = sum((-1) ** n * X.rank(n) for n in X.degrees())
        chi_h = sum((-1) ** n * h.group(n).rank for n in h.values)
        assert chi_ranks == chi_h


def _p_torsion_count(group, p):
    return sum(1 for f in group.factors if f % p == 0)


def test_base_change_consistency_with_universal_coefficients():
    rng = random.Random(11)
    for _ in range(12):
        X = random_complex(ZZ, rng, max_rank=3, max_len=3)
        h_z = homology(X)
        h_q = homology(base_change(X, QQ))
        degrees = set(X.degrees())
        for n in degrees:
            assert h_q.dimension(n) == h_z.group(n).rank
        p = 3
        h_p = homology(base_change(X, GF(p)))
        for n in degrees:
            want = (
                h_z.group(n).rank
                + _p_torsion_count(h_z.group(n), p)
                + _p_torsion_count(h_z.group(n - 1), p)
            )
            assert h_p.dimension(n) == want


def test_quasi_iso_detects_failure_over_zz():
    K = koszul([ZZ.scalar(1), ZZ.scalar(1)])
    S = sym2(K).complex
    z = zero_map(S, S)
    verdict = is_quasi_iso(z)
    assert not verdict
    # H3 = Z/2 is neither hit (cone degree 3) nor injected (cone degree 4)
    assert verdict.failures == [3, 4]
    assert is_quasi_iso(zero_map(K, K))


def _mapping_cone(f):
    """Independent oracle: cone(f)_n = X_{n-1} (+) Y_n with
    d(x, y) = (-dX(x), f(x) + dY(y)); f is a quasi-isomorphism exactly
    when the cone is exact."""
    X, Y = f.source, f.target
    ring = X.ring
    degrees = sorted(set(d + 1 for d in X.degrees()) | set(Y.degrees()))
    ranks = {n: X.rank(n - 1) + Y.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        rows = X.rank(n - 2) + Y.rank(n - 1)
        if rows == 0:
            continue
        entries = {}
        for (i, j), v in X.diff(n - 1).entries.items():
            entries[(i, j)] = -v
        for (i, j), v in f.component(n - 1).entries.items():
            entries[(i + X.rank(n - 2), j)] = v
        for (i, j), v in Y.diff(n).entries.items():
            entries[(i + X.rank(n - 2), j + X.rank(n - 1))] = v
        diffs[n] = SparseMatrix(ring, rows, ranks[n], entries)
    return FreeComplex(ring, ranks, diffs)


def test_quasi_iso_agrees_with_mapping_cone_exactness():
    rng = random.Random(17)
    for ring in (ZZ, QQ, GF(5), ZLoc(3)):
        for _ in range(10):
            X = random_complex(ring, rng, max_rank=3, max_len=3)
            same = rng.random() < 0.5
            Y = X if same else random_complex(ring, rng, max_rank=3, max_len=3)
            f = random_chain_map(X, Y, rng)
            cone = _mapping_cone(f)
            from symchain import validate

            assert validate(cone).ok
            assert bool(is_quasi_iso(f)) == is_exact(cone)


def test_quasi_iso_requires_matching_backend():
    with pytest.raises(SymchainError):
        is_quasi_iso(
            identity_map(unit_complex(ZZ)).__class__(
                unit_complex(ZZ), unit_complex(QQ), {}
            )
        )


def _field_induced_bijective(dXn, dXn1, dYn, dYn1, fn) -> bool:
    """Independent oracle over a field: compare homology dimensions, then
    write f on chosen homology bases and test the induced matrix for full
    rank."""
    repsX = homology_representatives(dXn1, kernel_basis(dXn))
    repsY = homology_representatives(dYn1, kernel_basis(dYn))
    hX, hY = repsX.cols, repsY.cols
    if hX != hY:
        return False
    if hX == 0:
        return True
    BY = _pivot_columns(dYn1)
    coeffs = solve_field(BY.hstack(repsY), fn @ repsX)
    induced = SparseMatrix(
        fn.ring, hY, hX,
        {(i - BY.cols, j): v for (i, j), v in coeffs.entries.items() if i >= BY.cols},
    )
    return len(rref(induced)[1]) == hX


def _pid_induced_bijective(dXn, dXn1, dYn, dYn1, fn) -> bool:
    """Independent oracle over ZZ or ZLoc: write f and the boundaries in
    cycle-lattice coordinates, then test the induced map of quotients for
    trivial cokernel and trivial kernel."""
    KX, KY = kernel_pid(dXn), kernel_pid(dYn)
    RX = solve_pid(KX, dXn1) if KX.cols else SparseMatrix.zero(dXn.ring, 0, dXn1.cols)
    RY = solve_pid(KY, dYn1) if KY.cols else SparseMatrix.zero(dYn.ring, 0, dYn1.cols)
    M = solve_pid(KY, fn @ KX) if KY.cols else SparseMatrix.zero(dYn.ring, 0, KX.cols)
    assert RX is not None and RY is not None and M is not None
    if _cokernel_invariants(M.hstack(RY)) != (0, ()):
        return False
    # trivial kernel: {v : Mv in im(RY)} is contained in im(RX)
    full_kernel = kernel_pid(M.hstack(-RY) if RY.cols else M)
    v_part = SparseMatrix(
        M.ring, KX.cols, full_kernel.cols,
        {(i, j): v for (i, j), v in full_kernel.entries.items() if i < KX.cols},
    )
    columns = (v_part.submatrix_columns([j]) for j in range(v_part.cols))
    return all(col.is_zero() or solve_pid(RX, col) is not None for col in columns)


def _induced_map_oracle(f) -> bool:
    """H_n(f) is bijective in every degree n (ungraded backends)."""
    X, Y = f.source, f.target
    check = _field_induced_bijective if X.ring.is_field else _pid_induced_bijective
    degrees = sorted(set(X.degrees()) | set(Y.degrees()))
    return all(
        check(X.diff(n), X.diff(n + 1), Y.diff(n), Y.diff(n + 1), f.component(n))
        for n in degrees
    )


def _graded_slice_oracle(f, n: int, d: int) -> bool:
    """H_n(f) is bijective in internal degree d (graded backends)."""
    X, Y = f.source, f.target

    def sl(M, src, tgt):
        return slice_matrix(M, src, tgt, d)[0]

    return _field_induced_bijective(
        sl(X.diff(n), X.gdeg(n), X.gdeg(n - 1)),
        sl(X.diff(n + 1), X.gdeg(n + 1), X.gdeg(n)),
        sl(Y.diff(n), Y.gdeg(n), Y.gdeg(n - 1)),
        sl(Y.diff(n + 1), Y.gdeg(n + 1), Y.gdeg(n)),
        sl(f.component(n), X.gdeg(n), Y.gdeg(n)),
    )


def test_quasi_iso_agrees_with_induced_map_oracle():
    rng = random.Random(29)
    for ring in (ZZ, QQ, GF(5), ZLoc(3)):
        seen = set()
        for _ in range(12):
            X = random_complex(ring, rng, max_rank=3, max_len=3)
            Y = X if rng.random() < 0.5 else random_complex(ring, rng, max_rank=3, max_len=3)
            f = random_chain_map(X, Y, rng)
            want = _induced_map_oracle(f)
            assert bool(is_quasi_iso(f)) == want
            seen.add(want)
        assert seen == {True, False}


def test_graded_quasi_iso_agrees_with_induced_map_oracle_per_slice():
    f = sym2(koszul([X_VAR, Y_VAR])).proj
    cone = homology(mapping_cone(f), bound=6)
    failing = {(n, d) for n in cone.nonzero_degrees() for d in cone.table(n)}
    failing_slices = {d for _, d in failing}
    degrees = sorted(set(f.source.degrees()) | set(f.target.degrees()))
    for d in range(0, 7):
        bijective = all(_graded_slice_oracle(f, n, d) for n in degrees)
        assert bijective == (d not in failing_slices)
    assert failing_slices and set(range(7)) - failing_slices  # both outcomes
    verdict = is_quasi_iso(f)
    assert not verdict
    assert len(verdict.failures) == 1 and verdict.failures[0] in failing


def _graded_contractible(rng):
    """0 -> R(-e) -(1)-> R(-e) -> 0 in a random degree: exact, not minimal."""
    e = rng.randint(0, 2)
    C = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (e,), 1: (e,)})
    return shift(C, rng.randint(0, 2))


def _twisted_minimal(rng):
    """random_graded_minimal with every internal degree raised by 0, 1 or 2."""
    X = random_graded_minimal(POLY, rng)
    t = rng.randint(0, 2)
    gdegs = {n: tuple(d + t for d in X.gdeg(n)) for n in X.degrees()}
    return FreeComplex(POLY, X.ranks, {n: X.diff(n) for n in X.degrees()}, gdegs)


def _random_graded_map(rng):
    """A homogeneous chain map: a perturbed self-map, a null-homotopic map,
    or a summand inclusion, whose complement is exact half of the time."""
    X = _twisted_minimal(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return random_chain_map(X, X, rng)
    if kind == 1:
        return random_chain_map(X, _twisted_minimal(rng), rng)
    Y = _graded_contractible(rng) if rng.random() < 0.5 else _twisted_minimal(rng)
    return summand_inclusion(X, Y, 0) if rng.random() < 0.5 else summand_inclusion(Y, X, 1)


def test_graded_quasi_iso_by_minimal_model_matches_bounded_cone_oracle():
    """The unbounded verdict against homology of the cone to its default
    bound: the same outcome, and each witness (n0, d0) is a nonzero slice
    of the cone's homology with nothing nonzero in a degree below n0."""
    rng = random.Random(2024)
    outcomes = []
    for _ in range(110):
        f = _random_graded_map(rng)
        verdict = is_quasi_iso(f)
        oracle = homology(mapping_cone(f))
        assert bool(verdict) == oracle.is_exact()
        outcomes.append(bool(verdict))
        if not verdict:
            [(n0, d0)] = verdict.failures
            assert oracle.table(n0).get(d0, 0) > 0
            assert oracle.nonzero_degrees()[0] == n0
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def test_graded_exactness_needs_homogeneous_differentials():
    # the constant 1 from a generator of degree 0 to one of degree 1 is not
    # homogeneous; neither a minimal model nor a slice means anything then,
    # so the map is refused when it is built
    X = FreeComplex(POLY, {0: 1}, {}, {0: (0,)})
    Y = FreeComplex(POLY, {0: 1}, {}, {0: (1,)})
    with pytest.raises(GradingError, match="entry \\(0,0\\) is not homogeneous of degree -1"):
        ChainMap(X, Y, {0: SparseMatrix.identity(POLY, 1)})
    # the same map between generators of equal degree is an isomorphism
    assert is_quasi_iso(ChainMap(X, X, {0: SparseMatrix.identity(POLY, 1)}))


def test_mapping_cone_matches_oracle_construction():
    rng = random.Random(31)
    for ring in (ZZ, QQ, GF(5), ZLoc(3)):
        for _ in range(5):
            X = random_complex(ring, rng, max_rank=3, max_len=3)
            Y = random_complex(ring, rng, max_rank=3, max_len=3)
            f = random_chain_map(X, Y, rng)
            assert mapping_cone(f) == _mapping_cone(f)


def test_graded_mapping_cone_generator_degrees():
    f = sym2(koszul([X_VAR, Y_VAR])).proj
    X, Y = f.source, f.target
    cone = mapping_cone(f)
    for n in cone.degrees():
        assert cone.gdeg(n) == X.gdeg(n - 1) + Y.gdeg(n)
    assert validate(cone).ok


def test_mapping_cone_rejects_non_chain_map():
    K = koszul([ZZ.scalar(3)])
    # the identity in degree 0 alone does not commute with d1 = (3)
    f = ChainMap(K, K, {0: SparseMatrix.identity(ZZ, 1)})
    with pytest.raises(ShapeError):
        mapping_cone(f)
    with pytest.raises(ShapeError):
        is_quasi_iso(f)
