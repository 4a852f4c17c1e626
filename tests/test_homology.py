"""Homology over each backend, presented complexes, quasi-isomorphism tests."""

import random
import re
import sys
from fractions import Fraction
from importlib import import_module
from math import comb, gcd

import pytest
from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

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
    check_symm07pp,
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
    minimal_model,
    shift,
    sym2,
    tensor,
    unit_complex,
    validate,
    weak_sym2,
    zero_map,
)
from symchain.complexes import compose, zero_complex
from symchain.errors import GradingError, ShapeError, SymchainError, UnsupportedRingError
from symchain.homology import _exactness_failures, _presented_cone
from symchain.linalg import (
    image_basis_pid,
    kernel_basis,
    kernel_pid,
    qq_rank,
    rank,
    rref,
    slice_matrix,
    smith_normal_form,
    solve_field,
    solve_pid,
)
from symchain.sym2 import PresentedComplex
from symchain.sym2 import _pivot_columns

import oracles
from oracles import (
    homology_representatives,
    reference_field_homology,
    reference_graded_tables,
    reference_quotient_complex,
    reference_split_units,
)
from randgen import (
    conjugate,
    contractible_piece,
    null_homotopic_map,
    random_chain_map,
    random_complex,
    random_graded_minimal,
    random_minimal_complex,
    random_split_pair,
    summand_inclusion,
    summand_projection,
    two_term,
)

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")
# the package's `homology` is the function, which shadows the submodule
homology_module = import_module("symchain.homology")
linalg_module = import_module("symchain.linalg")


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


def test_slice_oracle_builds_each_slice_once(monkeypatch):
    built, ranked = [], []

    def counting_slice_matrix(M, src_degrees, tgt_degrees, d):
        written = slice_matrix(M, src_degrees, tgt_degrees, d)
        built.append(((tuple(src_degrees), tuple(tgt_degrees), d), written[0]))
        return written

    def counting_qq_rank(A):
        ranked.append(A)
        return qq_rank(A)

    monkeypatch.setattr(oracles, "slice_matrix", counting_slice_matrix)
    monkeypatch.setattr(oracles, "qq_rank", counting_qq_rank)
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert reference_graded_tables(S, *S.support, 6)[2] == {2: 1}
    # one slice of d_n per (n, d): n runs over the degrees of S and one above
    assert len(built) == len({key for key, _ in built}) == (len(S.degrees()) + 1) * 7
    # each slice is ranked once, right after it is written
    assert len(ranked) == len(built) and all(A is B for A, (_, B) in zip(ranked, built))
    built.clear()
    cone = mapping_cone(identity_map(S))  # exact, so every slice is scanned
    lo, hi = cone.support
    assert reference_graded_tables(cone, lo, hi, 6) == {}
    assert len(built) == (hi - lo + 2) * (6 - cone.min_gdeg() + 1)


def test_graded_homology_ranks_no_slice(monkeypatch):
    """homology() reads its graded tables off Hilbert series: no slice is
    written or ranked, and each differential's initial module is computed
    once per table."""
    def refuse(*args):
        raise AssertionError("a slice was written or ranked")

    for name in ("slice_matrix", "qq_rank"):
        monkeypatch.setattr(linalg_module, name, refuse)
    built = []
    real = homology_module._initial_module

    def counting(M, tgt_degrees):
        built.append(M)
        return real(M, tgt_degrees)

    monkeypatch.setattr(homology_module, "_initial_module", counting)
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert homology(S, bound=6).table(2) == {2: 1}
    assert len(built) == len(S.degrees()) + 1
    assert not any(hasattr(homology_module, name) for name in ("slice_matrix", "qq_rank"))


def _reference_tables(X, D):
    return reference_graded_tables(X, *X.support, D) if X.support else {}


def _graded_table_inputs(rng):
    """(complex, bound) pairs: random minimal and padded graded complexes,
    cones of random graded maps, S2 of Koszul complexes on two and three
    variables and on three linear forms, a complex with a gap in its
    degrees, and the zero complex."""
    R = graded_poly("x0", "x1", "x2")
    v = R.generators()
    forms = [v[0] + v[1], v[0] - v[2], v[1] + R.scalar(2) * v[2]]
    inputs = []
    for _ in range(10):
        inputs.append((random_graded_minimal(POLY, rng), None))
        inputs.extend((X, None) for X in random_split_pair(POLY, rng))
        inputs.append((mapping_cone(_random_graded_map(rng)), None))
    inputs += [
        (sym2(koszul([X_VAR, Y_VAR])).complex, None),
        (sym2(koszul([X_VAR * X_VAR, Y_VAR])).complex, None),
        (sym2(koszul(list(v))).complex, 10),
        (sym2(koszul(forms)).complex, 8),
        (direct_sum(koszul([X_VAR]), shift(koszul([Y_VAR]), 3)), None),
        (zero_complex(POLY), None),
    ]
    return inputs


def test_graded_tables_match_the_whole_slice_oracle():
    """homology() reads its tables off the Hilbert series of the cokernels;
    the oracle ranks every whole slice."""
    rng = random.Random(241)
    nonminimal = 0
    for X, bound in _graded_table_inputs(rng):
        h = homology(X, bound=bound)
        assert h.values == _reference_tables(X, h.bound), X.ranks
        nonminimal += minimal_model(X).total_rank() < X.total_rank()
    assert nonminimal >= 10


def test_graded_tables_of_a_gap_and_of_the_zero_complex():
    gap = direct_sum(koszul([X_VAR]), shift(koszul([Y_VAR]), 3))
    assert gap.degrees() == [0, 1, 3, 4]
    row = {d: 1 for d in range(8)}  # R/(x) and R/(y) have one monomial per degree
    assert homology(gap).values == {0: row, 3: row}
    h = homology(zero_complex(POLY))
    assert (h.kind, h.values, h.bound) == ("hilbert", {}, 2)
    assert homology(zero_complex(POLY), bound=5).values == {}


def _raise_internal_degrees(X, t):
    """X with every internal degree raised by t (lowered when t < 0)."""
    gdegs = {n: tuple(d + t for d in X.gdeg(n)) for n in X.degrees()}
    return FreeComplex(X.ring, X.ranks, {n: X.diff(n) for n in X.degrees()}, gdegs)


def _graded_sweep(rng):
    """Random graded complexes over two and three variables: minimal ones
    (random_graded_minimal), both of random_split_pair's padded ones, the
    symmetric and tensor square of each minimal one, and each minimal one
    shifted down in homological degree with its internal degrees lowered
    below zero; then cones of random graded maps and the zero complex."""
    R3 = graded_poly("x0", "x1", "x2")
    inputs = []
    for R in (POLY, R3):
        for _ in range(12):
            X = random_graded_minimal(R, rng)
            inputs += [X, *random_split_pair(R, rng), sym2(X).complex, tensor(X, X),
                       shift(_raise_internal_degrees(X, -rng.randint(1, 3)), -1)]
    inputs += [mapping_cone(_random_graded_map(rng)) for _ in range(8)]
    inputs.append(zero_complex(R3))
    return inputs


def test_graded_tables_match_the_slice_oracle_on_a_randgen_sweep():
    """The series path against the slice path it replaced, to each
    complex's default bound, from its lowest internal degree."""
    inputs = _graded_sweep(random.Random(35))
    assert len(inputs) >= 150
    assert any(X.min_gdeg() < 0 for X in inputs)
    nonzero = 0
    for X in inputs:
        h = homology(X)
        assert h.bound == X.max_gdeg() + X.total_rank() + 2
        want = _reference_tables(X, h.bound)
        assert h.values == want, (X.ranks, {n: X.gdeg(n) for n in X.degrees()})
        nonzero += bool(want)
    assert nonzero > 100


def test_graded_tables_keep_the_euler_characteristic():
    """sum_n (-1)^n dim H_n(X)_d = sum_n (-1)^n dim X_{n,d} in every internal
    degree d up to the bound, with dim R(-g)_d = C(d - g + v - 1, v - 1)."""
    R3 = graded_poly("x0", "x1", "x2")
    v = R3.generators()
    forms = [v[0] + v[1], v[0] - v[2], v[1] + R3.scalar(Fraction(1, 2)) * v[2]]
    inputs = _graded_sweep(random.Random(36)) + [
        sym2(koszul(forms)).complex,
        tensor(koszul(forms[:2]), koszul([v[2] * v[2], v[0]])),
        sym2(koszul([v[0] * v[1], v[1] * v[2], v[0] * v[2]])).complex,
    ]
    for X in inputs:
        h = homology(X)
        nvars = len(X.ring.variables)
        for d in range(X.min_gdeg(), h.bound + 1):
            chain = sum((-1) ** n * comb(d - g + nvars - 1, nvars - 1)
                        for n in X.degrees() for g in X.gdeg(n) if g <= d)
            assert sum((-1) ** n * t.get(d, 0) for n, t in h.values.items()) == chain


def test_cokernel_whose_columns_have_coprime_leads():
    """coker [[x, y], [0, z]] over QQ[x, y, z], generated in degree 0: the
    columns x e_1 and y e_1 + z e_2 have coprime leads on e_1, and their
    S-pair gives the lead xz e_2, which a kernel using the product criterion
    misses (it reads 7 in degree 2)."""
    R3 = graded_poly("x", "y", "z")
    x, y, z = R3.generators()
    d1 = SparseMatrix.from_rows(R3, [[x, y], [R3.zero(), z]])
    X = FreeComplex(R3, {0: 2, 1: 2}, {1: d1}, {0: (0, 0), 1: (1, 1)})
    want = {0: {0: 2, 1: 4, 2: 6, 3: 8, 4: 10}}
    assert homology(X, bound=4).values == want
    assert reference_graded_tables(X, 0, 1, 4) == want
    for d, dim in want[0].items():  # dim coker = dim X_{0,d} - rank, by sympy
        A = slice_matrix(d1, (1, 1), (0, 0), d)[0]
        assert A.rows - _sympy_field_rank(A) == dim


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5), ZLoc(3)], ids=str)
def test_homology_refuses_a_bound_off_graded_complexes(ring):
    X = koszul([ring.scalar(2)])
    for bound in (-5, 0, 7):
        with pytest.raises(GradingError, match=re.escape(f"applies only to graded complexes; homology over {ring} ")):
            homology(X, bound=bound)
    assert homology(X, bound=None) == homology(X)
    P = weak_sym2(koszul([ring.scalar(3), ring.scalar(3)]))
    if not isinstance(P, FreeComplex):
        with pytest.raises(GradingError, match=re.escape(f"homology over {ring} ")):
            homology_presented(P, bound=3)
    with pytest.raises(GradingError, match=re.escape(f"homology over {ring} ")):
        homology_presented(X, bound=3)
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert homology_presented(S, bound=3) == homology(S, bound=3)


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


def test_homology_presented_refuses_graded_rings():
    with pytest.raises(UnsupportedRingError):
        homology_presented(PresentedComplex(POLY, {0: [0]}, {}, {}))


def _presented_over(P, ring):
    """A presented complex over ZZ with its entries read in ring."""
    def base(M):
        return SparseMatrix(ring, M.rows, M.cols, {k: ring.scalar(int(v)) for k, v in M.entries.items()})

    return PresentedComplex(ring, P.generators, {n: base(M) for n, M in P.relations.items()},
                            {n: base(M) for n, M in P.diffs.items()})


def _random_field_presentations(ring, rng, count):
    """Presented complexes over a field: X / im g for random chain maps
    g: Z -> X (relations may be dependent or zero), and weak squares of
    integer complexes read in ring, whose relation columns are 2 times a
    generator (zero over GF(2))."""
    for _ in range(count):
        X = random_complex(ring, rng, max_rank=3, max_len=3)
        g = random_chain_map(random_complex(ring, rng, max_rank=3, max_len=3), X, rng)
        yield PresentedComplex(
            ring, {n: list(range(X.rank(n))) for n in X.degrees()},
            {n: g.component(n) for n in X.degrees()},
            {n: X.diff(n) for n in X.degrees() if X.rank(n - 1)},
        )
        yield _presented_over(weak_sym2(random_complex(ZZ, rng, max_rank=3, max_len=3)), ring)


def _sympy_field_rank(M):
    K = SympyGF(M.ring.p) if M.ring.kind == "GF" else SympyQQ
    data = [[K(0)] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        v = Fraction(v)
        data[i][j] = K(v.numerator) / K(v.denominator)
    return DomainMatrix(data, (M.rows, M.cols), K).rank()


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_field_homology_matches_the_rank_of_each_differential(ring):
    """homology() over a field reads the ranks of the minimal complex; the
    oracle ranks every differential of X."""
    rng = random.Random(61)
    for _ in range(10):
        X, Y = random_split_pair(ring, rng)
        for Z in (X, Y, random_minimal_complex(ring, rng), sym2(X).complex):
            h = homology(Z)
            assert h.kind == "dimensions" and h.ring == ring
            assert h.values == reference_field_homology(Z)
    # the square of a contractible complex is exact exactly when 2 is a unit
    S = sym2(koszul([ring.one()] * 4)).complex
    assert homology(S).values == reference_field_homology(S)
    assert homology(S).is_exact() == ring.two_is_unit()


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_presented_homology_over_a_field_matches_the_quotient_complex(ring):
    """Over a field the dimensions come from ranks alone; they are those of
    the quotient complex on complement bases, and of sympy's ranks."""
    rng = random.Random(232 + [GF(2), GF(3), GF(5), QQ].index(ring))
    nonzero = relations = 0
    for P in _random_field_presentations(ring, rng, 15):
        h = homology_presented(P)
        assert h.kind == "dimensions"
        assert h.values == homology(reference_quotient_complex(P)).values
        rel = {n: _sympy_field_rank(P.relation(n)) for n in P.degrees()}
        want = {}
        for n in P.degrees():
            dbar = [_sympy_field_rank(P.diff(m).hstack(P.relation(m - 1))) - rel.get(m - 1, 0)
                    for m in (n, n + 1)]
            if dim := P.rank_free_cover(n) - rel[n] - sum(dbar):
                want[n] = dim
        assert h.values == want
        nonzero += bool(h.values)
        relations += any(P.relation(n).cols for n in P.degrees())
    assert nonzero > 5 and relations > 10


@pytest.mark.parametrize("ring", [GF(2), GF(3), QQ], ids=str)
def test_presented_homology_of_the_weak_square_of_koszul_one_one(ring):
    """The weak square of koszul([1, 1]): over GF(2) a presented complex
    whose degree-2 relations are a zero 4 x 2 matrix, over GF(3) and QQ
    the free square.  The square of an exact complex is exact when 2 is a
    unit; over GF(2) the kept diagonal squares of the degree-1 generators
    carry homology."""
    K = koszul([ring.scalar(1), ring.scalar(1)])
    W = weak_sym2(K)
    h = homology_presented(W)
    assert h.values == homology(reference_quotient_complex(W) if ring == GF(2) else W).values
    if ring == GF(2):
        assert W.relation(2).cols == 2 and W.relation(2).is_zero()
        assert h.values
    else:
        assert h.values == {}


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


def _padded(X, rng):
    """X plus a contractible R -1-> R in a random degree, basis mixed."""
    return conjugate(direct_sum(X, contractible_piece(X.ring, rng.randint(1, 3))), rng)


def _padded_map(f, rng):
    """f between X + C and Y + C' for contractible C, C': the same homology
    of the cone, which is no longer minimal."""
    X, Y = f.source, f.target
    C = contractible_piece(X.ring, rng.randint(1, 3))
    C2 = contractible_piece(X.ring, rng.randint(1, 3))
    return compose(summand_inclusion(Y, C2, 0), compose(f, summand_projection(X, C, 0)))


def test_local_exactness_witnesses_match_homology_of_the_unreduced_complex():
    """Over fields and ZLoc(p) the witnesses come from the minimal model;
    they must be exactly the degrees where the whole complex has homology.
    Over ZLoc(p), random_minimal_complex brings p-torsion, so the minimal
    model is nonzero in degrees where the homology vanishes."""
    rng = random.Random(43)
    for ring in (QQ, GF(5), ZLoc(3), ZLoc(5)):
        outcomes = []
        for k in range(4):
            pick = random_minimal_complex if k % 2 else random_complex
            X = _padded(pick(ring, rng, max_rank=3, max_len=3), rng)
            Y = X if rng.random() < 0.5 else _padded(random_complex(ring, rng, max_rank=2), rng)
            S = sym2(X)
            for C in (X, S.complex):
                assert minimal_model(C).total_rank() < C.total_rank()
                assert _exactness_failures(C) == homology(C).nonzero_degrees()
                outcomes.append(not homology(C).nonzero_degrees())
            for f in (S.proj, S.alpha, _padded_map(random_chain_map(X, Y, rng), rng)):
                cone = mapping_cone(f)
                assert minimal_model(cone).total_rank() < cone.total_rank()
                want = homology(cone).nonzero_degrees()
                assert is_quasi_iso(f).failures == want
                assert _exactness_failures(cone) == want
                outcomes.append(not want)
        assert True in outcomes and False in outcomes, ring


def _zz_verdict_inputs(rng):
    """(maps, complexes) over ZZ: random and null-homotopic chain maps,
    summand inclusions and projections, and the identities of padded,
    conjugated complexes; the complexes are their sources and targets."""
    X = random_complex(ZZ, rng, max_rank=3, max_len=3)
    Y = X if rng.random() < 0.5 else random_complex(ZZ, rng, max_rank=3, max_len=3)
    C = contractible_piece(ZZ, rng.randint(1, 3))
    padded = conjugate(direct_sum(X, C), rng)
    which = rng.randint(0, 1)
    maps = [
        random_chain_map(X, Y, rng),
        null_homotopic_map(X, Y, rng),
        summand_inclusion(X, rng.choice([C, Y]), 0),
        summand_projection(rng.choice([C, Y]), X, 1),
        summand_inclusion(X, Y, which),
        summand_projection(X, Y, which),
        identity_map(padded),
    ]
    return maps, [X, Y, padded, direct_sum(X, Y)]


def test_zz_verdicts_match_the_mapping_cone_oracle():
    """Over ZZ is_quasi_iso reads the groups off the cone's entries (d^X
    in place of -d^X) and is_exact off the complex's own differentials;
    mapping_cone and homology() stay the oracle.  The failures are the
    degrees where homology(mapping_cone(f)) is nonzero, and is_exact(X) is
    homology(X).is_exact(), on both outcomes."""
    rng = random.Random(34)
    maps_seen, exact_seen = set(), set()
    for _ in range(25):
        maps, complexes = _zz_verdict_inputs(rng)
        for f in maps:
            cone = mapping_cone(f)
            want = homology(cone).nonzero_degrees()
            assert is_quasi_iso(f).failures == want
            assert _exactness_failures(cone) == want
            maps_seen.add(not want)
        for Z in complexes + [mapping_cone(f) for f in maps]:
            assert is_exact(Z) == homology(Z).is_exact()
            exact_seen.add(is_exact(Z))
    assert maps_seen == exact_seen == {True, False}


def test_zz_exactness_witnesses_of_a_complex_are_its_nonzero_groups():
    """Over ZZ, _exactness_failures hands X's own entries to _failures, as
    it does a cone's: the witnesses are exactly the degrees where
    homology(X) is nonzero, degrees whose group is only torsion among
    them."""
    rng = random.Random(53)
    complexes = [koszul([ZZ.scalar(2)]), sym2(koszul([ZZ.scalar(2), ZZ.scalar(3)])).complex,
                 sym2(koszul([ZZ.scalar(4)])).complex, zero_complex(ZZ)]
    for _ in range(12):
        complexes += _zz_verdict_inputs(rng)[1]
    complexes.append(sym2(complexes[-4]).complex)
    outcomes, torsion_only = set(), 0
    for Z in complexes:
        h = homology(Z)
        want = h.nonzero_degrees()
        assert _exactness_failures(Z) == want
        outcomes.add(not want)
        torsion_only += sum(h.group(n).rank == 0 for n in want)
    assert outcomes == {True, False} and torsion_only > 0


def _count_invariant_factors(monkeypatch):
    """Record the shape of every matrix homology() hands to the Smith loop."""
    seen = []
    real = homology_module.invariant_factors

    def counting(M):
        seen.append((M.rows, M.cols))
        return real(M)

    monkeypatch.setattr(homology_module, "invariant_factors", counting)
    return seen


def test_zloc_exact_verdicts_run_no_smith_loop(monkeypatch):
    R = ZLoc(3)
    X = direct_sum(shift(unit_complex(R), 1), contractible_piece(R, 2))
    seen = _count_invariant_factors(monkeypatch)
    report = check_symm07pp(X)
    assert report.holds is True
    assert seen == []


def _count_markowitz_ranks(monkeypatch):
    """Record the (rows, columns) of every row set the exactness verdict
    hands to _markowitz_rank."""
    seen = []
    real_rank = homology_module._markowitz_rank

    def counting(rows, p=None):
        seen.append((len([r for r in rows if r]), len({c for r in rows for c in r})))
        return real_rank(rows, p)

    monkeypatch.setattr(homology_module, "_markowitz_rank", counting)
    return seen


def test_zloc_non_exact_verdict_ranks_only_the_minimal_model(monkeypatch):
    """The witnesses of a non-exact ZLoc(p) verdict are read off the ranks
    of the rows the unit split leaves, which have the shapes of the minimal
    model's differentials, with no Smith loop and no cone built: the
    homology module does not even import mapping_cone."""
    R = ZLoc(3)
    rng = random.Random(8)
    X = _padded(direct_sum(two_term(R, 1, R.scalar(3)), shift(unit_complex(R), 2)), rng)
    f = zero_map(X, X)
    cone = mapping_cone(f)
    M = minimal_model(cone)
    smith = _count_invariant_factors(monkeypatch)
    ranked = _count_markowitz_ranks(monkeypatch)
    verdict = is_quasi_iso(f)
    assert verdict.failures == [0, 1, 2, 3]
    assert smith == [] and not hasattr(homology_module, "mapping_cone")
    # one row set per degree of M, no larger than M's differential there
    # (zero rows and columns are not handed over), and together smaller
    # than the cone's differentials
    assert len(ranked) == len(M.degrees())
    for (rows, cols), n in zip(ranked, M.degrees()):
        D = M.diff(n)
        assert (rows, cols) == (len({i for i, _ in D.entries}), len({j for _, j in D.entries}))
        assert rows <= M.rank(n - 1) and cols <= M.rank(n)
    assert sum(r * c for r, c in ranked) < sum(
        cone.rank(n - 1) * cone.rank(n) for n in cone.degrees()
    )


def _minimal_model_route(C):
    """Exactness witnesses as they were read before the split rows were:
    the fraction-kernel minimal model of C, each differential ranked."""
    M = reference_split_units(C, with_q=False)[0]
    if M.is_zero():
        return []
    if M.graded:
        n0 = M.degrees()[0]
        return [(n0, min(M.gdeg(n0)))]
    return [n for n in M.degrees() if rank(M.diff(n)) < M.rank(n)]


def _counting_complexes(monkeypatch):
    """Record every complex built through FreeComplex._of."""
    built = []
    original = FreeComplex._of.__func__

    def counting(cls, *args):
        built.append(original(cls, *args))
        return built[-1]

    monkeypatch.setattr(FreeComplex, "_of", classmethod(counting))
    return built


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(5), ZLoc(2), ZLoc(3), POLY], ids=str)
def test_verdicts_off_the_split_rows_match_the_minimal_model_route(monkeypatch, ring):
    """is_quasi_iso, which writes f's cone straight into the unit split, and
    _exactness_failures give the witnesses of the old route: the oracle
    split of mapping_cone(f) or X, then the ranks of M.  Neither builds a
    complex, so neither a cone nor a minimal model."""
    rng = random.Random(231 + [QQ, GF(2), GF(5), ZLoc(2), ZLoc(3), POLY].index(ring))
    outcomes = []
    for k in range(12):
        X, Y = random_split_pair(ring, rng)
        maps = [random_chain_map(X, rng.choice([X, Y]), rng), zero_map(X, Y)]
        if k < 3:
            maps.append(sym2(X).proj)
        wants = [_minimal_model_route(mapping_cone(f)) for f in maps]
        exact_wants = [_minimal_model_route(C) for C in (X, Y)]
        built = _counting_complexes(monkeypatch)
        assert [is_quasi_iso(f).failures for f in maps] == wants
        assert [_exactness_failures(C) for C in (X, Y)] == exact_wants
        assert built == []
        monkeypatch.undo()
        outcomes += [not want for want in wants]
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("ring", [ZLoc(3), ZLoc(5), QQ, GF(5)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_witnesses_match_homology_of_the_minimal_model(ring, seed):
    """On a minimal model over a DVR or a field, H_n != 0 exactly where
    d_n has a kernel: the rank witnesses are the degrees homology() finds."""
    rng = random.Random(100 * seed + [ZLoc(3), ZLoc(5), QQ, GF(5)].index(ring))
    complexes = []
    for _ in range(6):
        X = random_minimal_complex(ring, rng) if rng.random() < 0.5 else random_complex(ring, rng)
        X = _padded(X, rng) if rng.random() < 0.5 else X
        complexes.append(X)
        Y = random_complex(ring, rng, max_rank=3)
        complexes.append(mapping_cone(random_chain_map(X, Y, rng)))
    nonexact = 0
    for C in complexes:
        M = minimal_model(C)
        want = homology(M).nonzero_degrees()
        assert _exactness_failures(C) == want
        assert want == homology(C).nonzero_degrees()
        nonexact += bool(want)
    assert nonexact


@pytest.mark.parametrize("ring", [ZLoc(3), ZLoc(5), QQ, GF(5), POLY], ids=str)
def test_local_verdicts_run_no_smith_loop(monkeypatch, ring):
    """is_quasi_iso and is_exact call invariant_factors on no local backend,
    on exact and on non-exact inputs."""
    rng = random.Random(31)
    if ring == POLY:
        Xs = [koszul([X_VAR, Y_VAR]), sym2(koszul([X_VAR])).complex]
    else:
        Xs = [_padded(random_minimal_complex(ring, rng), rng) for _ in range(3)]
    seen = []
    real = linalg_module.invariant_factors

    def counting(M):
        seen.append(M)
        return real(M)

    for module in [m for name, m in sys.modules.items() if name.startswith("symchain")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)
    outcomes = set()
    for X in Xs:
        S = sym2(X)
        outcomes.add(is_exact(X))
        outcomes.add(bool(is_quasi_iso(S.proj)))
        outcomes.add(bool(is_quasi_iso(identity_map(X))))
    assert outcomes == {True, False}
    assert seen == []


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
            assert min(oracle.table(n0)) == d0
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def test_graded_witness_is_the_lowest_internal_degree_of_the_lowest_live_degree():
    """M_{n0} has generators in internal degrees 2 and 1, in that order;
    H_{n0} first shows in degree 1, below which M_{n0} has no generator."""
    one = POLY.scalar(1)
    # degree 0: generators of internal degree 0, 2, 1; degree 1: 0 and 2.
    # Entry (0, 0) is a unit that splits off; entry (2, 1) is x.
    d1 = SparseMatrix(POLY, 3, 2, {(0, 0): one, (2, 1): X_VAR})
    X = FreeComplex(POLY, {0: 3, 1: 2}, {1: d1}, {0: (0, 2, 1), 1: (0, 2)})
    assert minimal_model(X).gdeg(0) == (2, 1)
    assert _exactness_failures(X) == [(0, 1)]
    # the cone of X -> 0 is X shifted up by one
    assert is_quasi_iso(zero_map(X, zero_complex(POLY))).failures == [(1, 1)]
    h = homology(X)
    assert h.nonzero_degrees() == [0] and min(h.table(0)) == 1


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
    # the identity in degree 0 alone does not commute with d1 = (3); the
    # ChainMap constructor refuses it, so no cone of it is ever built
    message = r"map at degree 1 does not commute with the differentials at entry \(0,0\)"
    with pytest.raises(ShapeError, match=message):
        ChainMap(K, K, {0: SparseMatrix.identity(ZZ, 1)})


def test_graded_homology_rejects_a_bound_below_the_lowest_generator_degree():
    # every slice below degree 0 is empty: the tables would read exact
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert not is_exact(S)
    message = "degree bound -1 is below the lowest generator degree 0"
    with pytest.raises(GradingError, match=message):
        homology(S, bound=-1)
    assert inf_h(S) == homology(S, bound=0).inf == 0


LOCAL_RINGS = [QQ, GF(2), GF(5), ZLoc(2), ZLoc(3), POLY]
series_module = import_module("symchain.series")


def _rank_inputs(ring, rng):
    """Complexes with units to split on a local backend: randgen complexes,
    split pairs, cones of random maps between them, and exact cones."""
    for k in range(8):
        X, Y = random_split_pair(ring, rng)
        yield X
        yield mapping_cone(random_chain_map(X, rng.choice([X, Y]), rng))
        yield mapping_cone(identity_map(Y))
        if ring.graded:
            yield random_graded_minimal(ring, rng)
        else:
            yield random_complex(ring, rng, max_rank=3, max_len=3)
            yield random_minimal_complex(ring, rng, max_rank=3, max_len=3)


@pytest.mark.parametrize("ring", LOCAL_RINGS, ids=str)
def test_minimal_ranks_are_the_ranks_of_the_minimal_model(ring):
    """_minimal_ranks splits X (x) k over the residue field k; minimize
    splits X itself.  The survivors agree, so the ranks do."""
    rng = random.Random(311 + LOCAL_RINGS.index(ring))
    exact, split = set(), 0
    for X in _rank_inputs(ring, rng):
        M = minimal_model(X)
        assert series_module._minimal_ranks(X) == M.ranks, X.ranks
        exact.add(M.is_zero())
        split += M.total_rank() < X.total_rank()
    assert exact == {True, False} and split >= 8


def _high_generator():
    """R(-5) (+) (R --1--> R) over QQ[x]: H_0 = R(-5), zero below degree 5."""
    R = graded_poly("x")
    d1 = SparseMatrix.from_rows(R, [[0], [1]])
    return FreeComplex(R, {0: 2, 1: 1}, {1: d1}, {0: (5, 0), 1: (0,)})


def test_inf_h_needs_no_bound():
    """inf_h against the bounded oracle: homology() to its default bound,
    past the lowest generator degree of every module, on graded inputs,
    and homology().inf on every other backend.  A bound below the
    homology misses it; inf_h does not."""
    X = _high_generator()
    assert homology(X, bound=3).inf is None
    assert inf_h(X) == homology(X, bound=5).inf == 0
    assert not is_exact(X)
    seen = {}
    for ring in [ZZ, *LOCAL_RINGS]:
        rng = random.Random(337 + [ZZ, *LOCAL_RINGS].index(ring))
        inputs = (random_complex(ZZ, rng) for _ in range(12)) if ring == ZZ else _rank_inputs(ring, rng)
        for C in inputs:
            want = homology(C).inf
            assert inf_h(C) == want, (ring, C.ranks)
            seen.setdefault(ring, set()).add(want)
    assert all(None in s and len(s) > 2 for s in seen.values()), seen
