"""Rank series, the square identity, the series dichotomy, minimalization."""

import itertools
import random
from math import comb

import pytest

from symchain import (
    FreeComplex,
    GF,
    QQ,
    ZLoc,
    ZZ,
    direct_sum,
    graded_poly,
    is_minimal,
    is_quasi_iso,
    koszul,
    mapping_cone,
    minimal_model,
    minimize,
    poinc_check,
    rank_series,
    serialize,
    shift,
    sym2,
    tensor,
    unit_complex,
    verify_series_identity,
    zero_complex,
)
from symchain.errors import SymchainError, UnsupportedRingError
from symchain.linalg import SparseMatrix, kernel_basis
from symchain.series import RankSeries, _hilbert_numerator, _square_ranks
from symchain.sym2 import alpha

from oracles import reference_split_units, stepwise_minimize
from randgen import (
    contractible_piece,
    conjugate,
    random_complex,
    random_graded_minimal,
    random_chain_map,
    random_minimal_complex,
    random_split_pair,
)

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def test_rank_series_examples():
    assert str(rank_series(koszul([X_VAR, Y_VAR]))) == "1 + 2*t + t^2"
    S = sym2(koszul([X_VAR, Y_VAR])).complex
    assert str(rank_series(S)) == "1 + 2*t + 2*t^2 + 2*t^3 + t^4"
    assert str(rank_series(zero_complex(ZZ))) == "0"
    assert rank_series(shift(unit_complex(ZZ), -2)).as_dict() == {-2: 1}


def test_series_identity_small_profile():
    # ranks 3 and 2 in degrees 0 and 1: both sides are 6 + 6t + t^2
    X = FreeComplex(QQ, {0: 3, 1: 2}, {})
    assert verify_series_identity(X)
    assert rank_series(sym2(X).complex).as_dict() == {0: 6, 1: 6, 2: 1}


def test_series_identity_koszul_and_zero():
    assert verify_series_identity(koszul([X_VAR, Y_VAR]))
    assert verify_series_identity(zero_complex(ZZ))


def test_series_identity_random_backends():
    rng = random.Random(3)
    for ring in (ZZ, QQ, GF(5), ZLoc(3)):
        for _ in range(10):
            assert verify_series_identity(random_complex(ring, rng))


def test_series_identity_in_negative_degrees():
    # sign bookkeeping of P(-t^2) must stay exact for negative exponents
    rng = random.Random(5)
    for shift_by in (-5, -3, -2, -1):
        X = shift(random_complex(ZZ, rng, max_rank=3, max_len=3), shift_by)
        assert verify_series_identity(X)


def test_square_ranks_by_hand():
    # P = 2t^-1 + 1 + 3t^2: cross terms 2 t^-1, 6 t, 3 t^2; the diagonal
    # r(r + sign (-1)^p)/2 gives 1 or 3 at t^-2, 1 or 0 at 1, 6 or 3 at t^4
    ranks = {-1: 2, 0: 1, 2: 3}
    assert _square_ranks(ranks) == {-2: 1, -1: 2, 0: 1, 1: 6, 2: 3, 4: 6}
    assert _square_ranks(ranks, -1) == {-2: 3, -1: 2, 1: 6, 2: 3, 4: 3}
    assert _square_ranks({}) == {} and _square_ranks({1: 1}) == {}


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(5), ZLoc(2), ZLoc(3), POLY], ids=str)
def test_square_ranks_are_the_ranks_of_the_built_square(ring):
    """On randgen complexes shifted into negative degrees and with a gap
    of at least one zero degree before an added shift of R."""
    rng = random.Random(41)
    for _ in range(6):
        if ring == POLY:
            X = random_graded_minimal(POLY, rng, max_pieces=3)
        else:
            X = random_complex(ring, rng, max_rank=3, max_len=3)
        X = shift(X, rng.randint(-4, 1))
        X = direct_sum(X, shift(unit_complex(ring), X.support[1] + rng.randint(2, 3)))
        assert _square_ranks(X.ranks) == sym2(X).complex.ranks


def test_square_ranks_with_either_sign_double_to_the_brute_force_combination():
    for r0 in (1, 2, 3):
        for tail in itertools.product((0, 1, 2), repeat=4):
            r = [r0, *tail]
            order = 2 * (len(r) - 1)
            for sign, s in (("+", 1), ("-", -1)):
                square = _square_ranks(dict(enumerate(r)), s)
                assert [2 * square.get(i, 0) for i in range(order + 1)] == _brute_force_combo(r, sign, order)
                assert max(square, default=0) <= order


def test_poinc_dichotomy_cases():
    r = poinc_check([1], "-", 10)
    assert r.constant and r.constant_value == 0 and r.case == "b" and r.forced_value_holds
    r = poinc_check([2], "-", 10)
    assert r.constant and r.constant_value == 2 and r.case == "d" and r.forced_value_holds
    r = poinc_check([1], "+", 10)
    assert r.constant and r.constant_value == 2 and r.case in ("a", "c")
    r = poinc_check([1, 1], "-", 10)
    assert not r.constant and not r.tail_zero
    with pytest.raises(SymchainError):
        poinc_check([0, 1], "-", 10)
    with pytest.raises(SymchainError):
        poinc_check([1], "-", 1)


def _brute_force_combo(r, sign, order):
    """Independent expansion of Q(t)^2 +/- Q(-t^2) truncated to the order."""
    r = list(r) + [0] * (order + 1 - len(r))
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += r[i] * r[j]
    for i in range(order + 1):
        if 2 * i <= order:
            out[2 * i] += r[i] * (-1) ** i if sign == "+" else -(r[i] * (-1) ** i)
    return out


def test_poinc_matches_brute_force_everywhere():
    order = 20
    for r0 in (1, 2, 3):
        for tail in itertools.product((0, 1, 2), repeat=4):
            coeffs = [r0, *tail]
            for sign in ("+", "-"):
                combo = _brute_force_combo(coeffs, sign, order)
                report = poinc_check(coeffs, sign, order)
                assert report.constant == all(c == 0 for c in combo[1:])
                if report.constant:
                    assert report.constant_value == combo[0]
                assert report.tail_zero == all(c == 0 for c in coeffs[1:])


def test_minimize_split_exact_koszul():
    M, q = minimize(koszul([QQ.scalar(1), QQ.scalar(1)]))
    assert M.is_zero()
    assert is_quasi_iso(q)


def test_minimize_drops_contractible_summand_exactly():
    rng = random.Random(7)
    X = random_minimal_complex(ZLoc(3), rng)
    bigger = direct_sum(X, contractible_piece(ZLoc(3), 2))
    M, q = minimize(bigger)
    assert M == X
    assert is_quasi_iso(q)


def test_koszul_is_minimal_over_graded():
    assert is_minimal(koszul([X_VAR, Y_VAR]))
    assert not is_minimal(koszul([QQ.scalar(1)]))
    with pytest.raises(UnsupportedRingError):
        is_minimal(koszul([ZZ.scalar(2)]))


def test_minimize_invariants():
    rng = random.Random(11)
    for ring in (QQ, ZLoc(3), GF(5)):
        for _ in range(8):
            X = random_complex(ring, rng, max_rank=3, max_len=3)
            M, q = minimize(X)
            assert is_minimal(M)
            assert is_quasi_iso(q)
            rx = rank_series(X).as_dict()
            rm = rank_series(M).as_dict()
            assert all(rm.get(n, 0) <= rx.get(n, 0) for n in rx)
            again, q2 = minimize(M)
            assert again == M
    # over a field, minimal means zero differentials
    X = random_complex(QQ, random.Random(13))
    M, _ = minimize(X)
    assert all(M.diff(n).is_zero() for n in M.degrees())


def _oracle_inputs():
    """Seeded complexes with unit entries to split off, on every local backend."""
    rng = random.Random(29)
    for ring in (QQ, GF(5), ZLoc(3)):
        for k in range(30):
            X = random_complex(ring, rng, max_rank=5, max_len=4)
            yield X
            padded = direct_sum(X, contractible_piece(ring, rng.randint(1, 4)))
            yield conjugate(direct_sum(padded, contractible_piece(ring, rng.randint(1, 4))), rng)
            if k < 6:  # pivots in adjacent degrees that compete for generators
                S = sym2(X)
                yield S.complex
                yield mapping_cone(S.proj)
    # R(-1) -> R(-1): a contractible graded piece with a unit differential
    pad = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (1,), 1: (1,)})
    for _ in range(15):
        X = random_graded_minimal(POLY, rng)
        yield direct_sum(shift(pad, rng.randint(0, 2)), direct_sum(X, shift(pad, rng.randint(0, 2))))
    three = graded_poly("x0", "x1", "x2")
    for K in (koszul([X_VAR, Y_VAR]), koszul(list(three.generators()))):
        S = sym2(K)
        yield K
        yield S.complex
        yield tensor(K, K)
        yield mapping_cone(S.proj)
        yield mapping_cone(alpha(K))


def test_minimal_model_matches_stepwise_oracle():
    """The one-pass elimination picks the stepwise oracle's pivots: the same
    minimal complex and the same projection, entry for entry."""
    split = 0
    for X in _oracle_inputs():
        M, q = stepwise_minimize(X)
        expected_M, expected_q = serialize(M), serialize(q)
        assert serialize(minimal_model(X)) == expected_M
        got_M, got_q = minimize(X)
        assert serialize(got_M) == expected_M
        assert serialize(got_q) == expected_q
        split += M.total_rank() < X.total_rank()
    assert split >= 100


LOCAL_RINGS = [QQ, GF(2), GF(5), ZLoc(2), ZLoc(3), POLY]


def local_split_inputs(ring, rng, count=12):
    """Seeded complexes over a local backend with units to split: those of
    random_split_pair, the cones of random chain maps between them, and a
    few symmetric squares."""
    for k in range(count):
        X, Y = random_split_pair(ring, rng)
        yield X
        yield mapping_cone(random_chain_map(X, rng.choice([X, Y]), rng))
        if k < 3:
            yield sym2(X).complex


@pytest.mark.parametrize("ring", LOCAL_RINGS, ids=str)
def test_integer_row_split_matches_the_fraction_kernel(ring):
    """minimal_model and minimize, whose split holds rows as integers over
    QQ and ZLoc(p), give the complex and projection of the split on exact
    values, entry for entry and in the same raw form."""
    rng = random.Random(230 + LOCAL_RINGS.index(ring))
    split = 0
    for X in local_split_inputs(ring, rng):
        M, q = reference_split_units(X, with_q=True)
        assert serialize(minimal_model(X)) == serialize(M)
        got_M, got_q = minimize(X)
        assert got_M == M and got_q == q
        assert serialize(got_M) == serialize(M) and serialize(got_q) == serialize(q)
        split += M.total_rank() < X.total_rank()
    assert split >= 8


def test_minimal_model_checks_homogeneity_once_per_result_differential(monkeypatch):
    cone = mapping_cone(alpha(sym2(koszul([X_VAR, Y_VAR])).complex))
    built = []
    original = FreeComplex._of.__func__

    def counting(cls, *args):
        result = original(cls, *args)
        built.append(result)
        return result

    monkeypatch.setattr(FreeComplex, "_of", classmethod(counting))
    M = minimal_model(cone)
    assert cone.total_rank() - M.total_rank() >= 2 * 5  # several pivots
    # one complex per result, by the trusted builder, and none per pivot
    assert len(built) == 1 and built[0] is M


def _chain_iso_exists(A, B, rng, tries=60):
    """Search for a degreewise-invertible chain map A -> B by exact linear
    algebra: solve the commuting equations over the fraction field, then try
    small combinations of the solution space until all blocks are invertible."""
    if A.ranks != B.ranks:
        return False
    degrees = A.degrees()
    if not degrees:
        return True
    from fractions import Fraction

    from symchain.linalg import SparseMatrix as SM

    # unknowns: entries of P_n, stacked; equations: P_{n-1} dA_n = dB_n P_n
    positions = []
    offset = {}
    for n in degrees:
        offset[n] = len(positions)
        positions.extend((n, i, j) for i in range(A.rank(n)) for j in range(A.rank(n)))
    rows = []
    for n in degrees:
        if A.rank(n - 1) == 0:
            continue
        dA = A.diff(n)
        dB = B.diff(n)
        for i in range(A.rank(n - 1)):
            for j in range(A.rank(n)):
                row = {}
                for k in range(A.rank(n - 1)):
                    v = dA.entry(k, j)
                    if not v.is_zero():
                        idx = offset[n - 1] + i * A.rank(n - 1) + k
                        row[idx] = row.get(idx, Fraction(0)) + Fraction(v.value)
                for k in range(A.rank(n)):
                    v = dB.entry(i, k)
                    if not v.is_zero():
                        idx = offset[n] + k * A.rank(n) + j
                        row[idx] = row.get(idx, Fraction(0)) - Fraction(v.value)
                if row:
                    rows.append(row)
    total = len(positions)
    entries = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            entries[(r, c)] = v
    system = SM(QQ, len(rows), total, entries)
    K = kernel_basis(system) if rows else SM.identity(QQ, total)
    if K.cols == 0:
        return False
    for _ in range(tries):
        combo = [rng.randint(-2, 2) for _ in range(K.cols)]
        flat = [Fraction(0)] * total
        for c, w in enumerate(combo):
            if w:
                for (i, j), v in K.entries.items():
                    if j == c:
                        flat[i] += w * v
        ok = True
        for n in degrees:
            size = A.rank(n)
            block = [
                [flat[offset[n] + i * size + j] for j in range(size)] for i in range(size)
            ]
            det = _det(block)
            if det == 0 or (A.ring.kind == "ZLoc" and (det.numerator % A.ring.p == 0)):
                ok = False
                break
        if ok:
            return True
    return False


def _det(block):
    from fractions import Fraction

    n = len(block)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in block]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_minimal_complexes_unique_up_to_isomorphism():
    """Different elimination histories land in isomorphic minimal complexes."""
    rng = random.Random(17)
    for _ in range(5):
        M0 = random_minimal_complex(ZLoc(3), rng, max_rank=2, max_len=3)
        X1 = conjugate(direct_sum(M0, contractible_piece(ZLoc(3), 1)), rng)
        X2 = conjugate(direct_sum(contractible_piece(ZLoc(3), 3), M0), rng)
        M1, _ = minimize(X1)
        M2, _ = minimize(X2)
        assert M1.ranks == M2.ranks
        assert _chain_iso_exists(M1, M2, rng)


def test_rank_series_str_is_canonical():
    s = RankSeries.from_dict({0: 1, 2: 0, 5: 3})
    assert str(s) == "1 + 3*t^5"
    assert RankSeries.from_dict({}) == RankSeries(())


# -- Hilbert numerators of monomial quotients ------------------------------------


def _standard_monomials(gens, nvars, d):
    """How many monomials of degree d no generator divides, by listing them."""
    count = 0
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for k in combo:
            exp[k] += 1
        count += not any(all(a <= b for a, b in zip(g, exp)) for g in gens)
    return count


def _series_coefficient(N, nvars, d):
    return sum(c * comb(d - k + nvars - 1, nvars - 1) for k, c in enumerate(N) if k <= d)


def test_hilbert_numerator_examples():
    assert _hilbert_numerator([]) == (1,)
    assert _hilbert_numerator([(0, 0)]) == (0,)  # the unit ideal
    assert _hilbert_numerator([(1, 0), (0, 1)]) == (1, -2, 1)
    assert _hilbert_numerator([(2, 0, 0)]) == (1, 0, -1)
    # (xy, x^2, y^3): R/I has the basis 1, x, y, y^2, so N = (1 + 2t + t^2)(1 - t)^2
    assert _hilbert_numerator([(1, 1), (2, 0), (0, 3), (2, 1)]) == (1, 0, -2, 0, 1)


def test_hilbert_numerator_counts_standard_monomials():
    """N(I) / (1 - t)^v against a count of the monomials outside I, on random
    monomial ideals in one to four variables, generators not minimal."""
    rng = random.Random(35)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 6))]
        N = _hilbert_numerator(gens)
        for d in range(9):
            assert _series_coefficient(N, nvars, d) == _standard_monomials(gens, nvars, d), (gens, d)


def test_hilbert_numerator_memoises_on_minimal_generators():
    memo = {}
    first = _hilbert_numerator([(2, 1), (1, 1), (0, 2), (1, 2)], memo)
    assert ((0, 2), (1, 1)) in memo  # (2, 1) and (1, 2) are not minimal
    assert all(key == tuple(sorted(key)) for key in memo)
    assert _hilbert_numerator([(0, 2), (1, 1)], memo) is first
    assert _hilbert_numerator([(1, 1), (0, 2)]) == first

