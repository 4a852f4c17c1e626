"""Raw ring values inside SparseMatrix: matrix arithmetic against a Scalar
oracle, validation at the public constructors, and no Scalar on the
computational paths."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchain import (
    GF,
    QQ,
    FreeComplex,
    SparseMatrix,
    ZLoc,
    ZZ,
    base_change,
    graded_poly,
    homology,
    koszul,
    parse,
    serialize,
    sym2,
)
from symchain.errors import (
    RingMismatchError,
    ScalarParseError,
    ShapeError,
    SymchainError,
    UnsupportedRingError,
)
from symchain.scalars import Scalar

POLY = graded_poly("x", "y")
RINGS = [ZZ, QQ, GF(2), GF(5), ZLoc(3), POLY]
CANONICAL_TYPE = {"ZZ": int, "GF": int, "QQ": Fraction, "ZLoc": Fraction, "Poly": dict}


def _random_value(ring, rng):
    """A small value of the ring, as an int, Fraction or monomial dict."""
    if ring.kind == "Poly":
        return {(rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.choice((1, -1, 2)))
                for _ in range(rng.randint(1, 2))}
    if ring.kind == "QQ":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if ring.kind == "ZLoc":
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
    return rng.randint(-3, 3)


def _random_matrix(ring, rows, cols, rng, density=0.6):
    entries = {
        (i, j): _random_value(ring, rng)
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    }
    return SparseMatrix(ring, rows, cols, entries)


def _dense(M):
    return [[M.entry(i, j) for j in range(M.cols)] for i in range(M.rows)]


def _assert_canonical(M):
    """No stored zero, and every stored value has its ring's canonical type."""
    kind = CANONICAL_TYPE[M.ring.kind]
    for v in M.entries.values():
        assert v and type(v) is kind
        assert M.ring.raw(v) == v  # validating again changes nothing


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_matrix_arithmetic_matches_scalar_oracle(ring):
    rng = random.Random(7)
    cancelled = 0  # result entries that are zero although a term was not
    for _ in range(60):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = _random_matrix(ring, m, k, rng)
        A2 = _random_matrix(ring, m, k, rng)
        B = _random_matrix(ring, k, n, rng)
        zero = ring.zero()

        product = A @ B
        want = []
        for i in range(m):
            row = []
            for j in range(n):
                terms = [A.entry(i, t) * B.entry(t, j) for t in range(k)]
                total = sum(terms, zero)
                cancelled += total.is_zero() and any(not s.is_zero() for s in terms)
                row.append(total)
            want.append(row)
        assert _dense(product) == want

        total = A + A2
        want = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(_dense(A), _dense(A2))]
        assert _dense(total) == want
        cancelled += sum(
            1 for (i, j) in set(A.entries) & set(A2.entries) if (i, j) not in total.entries
        )
        difference = A - A2
        assert _dense(difference) == [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(_dense(A), _dense(A2))
        ]
        assert (A - A).is_zero() and (A + (-A)).is_zero()

        c = ring.scalar(_random_value(ring, rng))
        scaled = A.scale(c)
        assert _dense(scaled) == [[c * a for a in row] for row in _dense(A)]

        assert _dense(A.hstack(A2)) == [ra + rb for ra, rb in zip(_dense(A), _dense(A2))]
        assert _dense(A.vstack(A2)) == _dense(A) + _dense(A2)
        assert _dense(A.transpose()) == [list(col) for col in zip(*_dense(A))]
        js = rng.sample(range(k), rng.randint(0, k))
        js += js[::2]  # repeated columns, each copied to several positions
        assert _dense(A.submatrix_columns(js)) == [[row[j] for j in js] for row in _dense(A)]

        for M in (product, total, difference, scaled, A.hstack(A2), A.vstack(A2),
                  A.transpose(), A.submatrix_columns(js)):
            _assert_canonical(M)
    # GF(p) sums wrap around to 0 and polynomial terms cancel; so do the others
    assert cancelled > 0


def test_entry_values_are_the_raw_values():
    M = SparseMatrix(GF(5), 1, 2, {(0, 0): 7, (0, 1): Fraction(1, 2)})
    assert M.entries == {(0, 0): 2, (0, 1): 3}
    assert M.entry(0, 0) == GF(5).scalar(2) and M.entry(0, 1).value == 3
    P = SparseMatrix(POLY, 1, 1, {(0, 0): "x*y - 1/2"})
    assert P.entries == {(0, 0): {(1, 1): Fraction(1), (0, 0): Fraction(-1, 2)}}
    assert P.to_rows() == [[POLY.scalar("x*y - 1/2")]]
    assert P.column_vector(0) == [POLY.scalar("x*y - 1/2")]
    Q = SparseMatrix.from_rows(QQ, [[3, 0], [0, Fraction(1, 2)]])
    assert Q.entries == {(0, 0): Fraction(3), (1, 1): Fraction(1, 2)}
    _assert_canonical(Q)


@pytest.mark.parametrize(
    "source, target",
    [(ZZ, QQ), (ZZ, GF(5)), (ZZ, ZLoc(3)), (ZLoc(3), QQ), (ZLoc(3), GF(3)), (ZLoc(5), GF(5))],
    ids=str,
)
def test_base_change_gives_canonical_values(source, target):
    values = [-7, -1, 3, 5, 10] if source == ZZ else [
        Fraction(-1, 2), Fraction(5, 4), Fraction(-9, 7), Fraction(6), Fraction(-10, 13)
    ]
    X = FreeComplex(source, {0: 1, 1: len(values)}, {1: SparseMatrix.from_rows(source, [values])})
    pushed = base_change(X, target).diff(1)
    want = {(0, j): target.raw(v) for j, v in enumerate(values)}  # the validating coercion
    assert pushed.entries == {k: v for k, v in want.items() if v}
    _assert_canonical(pushed)


@pytest.mark.parametrize(
    "ring, value, error",
    [
        (QQ, 0.5, ScalarParseError),
        (ZZ, 2.0, ScalarParseError),
        (POLY, {(1, 0): 0.5}, ScalarParseError),
        (QQ, ZZ.scalar(1), RingMismatchError),
        (GF(5), GF(7).scalar(1), RingMismatchError),
        (GF(5), Fraction(1, 5), UnsupportedRingError),
        (ZLoc(3), Fraction(2, 9), UnsupportedRingError),
        (ZLoc(3), "1/3", UnsupportedRingError),
        (ZZ, Fraction(1, 2), SymchainError),
        (POLY, {(1,): 1}, SymchainError),
    ],
    ids=repr,
)
def test_public_constructors_reject_malformed_values(ring, value, error):
    with pytest.raises(error):
        SparseMatrix(ring, 1, 1, {(0, 0): value})
    with pytest.raises(error):
        SparseMatrix.from_rows(ring, [[value]])
    with pytest.raises(error):
        SparseMatrix.column(ring, [value])


def test_public_constructor_rejects_bad_shapes():
    for key in ((1, 0), (0, 1), (-1, 0)):
        with pytest.raises(ShapeError):
            SparseMatrix(ZZ, 1, 1, {key: 1})
    with pytest.raises(ShapeError):
        SparseMatrix(ZZ, -1, 1)
    with pytest.raises(ShapeError):
        SparseMatrix.identity(ZZ, -1)
    with pytest.raises(ShapeError):
        SparseMatrix.from_rows(ZZ, [[1, 2], [3]])


@pytest.fixture
def scalar_count(monkeypatch):
    """Counts Scalars built by the validating constructor or the trusted wrap."""
    count = [0]
    init, wrap = Scalar.__init__, Scalar._wrap.__func__

    def counting_init(self, ring, value):
        count[0] += 1
        init(self, ring, value)

    def counting_wrap(cls, ring, value):
        count[0] += 1
        return wrap(cls, ring, value)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(Scalar, "_wrap", classmethod(counting_wrap))
    return count


def test_homology_paths_build_no_scalar(scalar_count):
    integers = [ZZ.scalar(v) for v in (3, 5, -7, 11)]
    ring = graded_poly("x0", "x1", "x2")
    variables = list(ring.generators())
    scalar_count[0] = 0
    QQ.scalar(1)
    SparseMatrix.identity(QQ, 1).entry(0, 0)
    assert scalar_count[0] == 2  # the counter sees both ways of building one
    scalar_count[0] = 0

    h = homology(sym2(koszul(integers)).complex)
    assert scalar_count[0] == 0
    # the document codec writes and reads raw values, so a round trip adds none
    assert homology(parse(serialize(sym2(koszul(integers)).complex))).values == h.values
    assert scalar_count[0] == 0
    assert {n: (g.rank, g.factors) for n, g in h.values.items()} == {
        3: (0, (2, 2, 2)),
        7: (0, (2,)),
    }
    h = homology(sym2(koszul(variables)).complex, bound=8)
    assert scalar_count[0] == 0
    assert h.table(0) == {0: 1}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(ring=st.sampled_from(RINGS), seed=st.integers(0, 2**32 - 1))
def test_equal_matrices_hash_equal(ring, seed):
    rng = random.Random(seed)
    A = _random_matrix(ring, rng.randint(0, 4), rng.randint(0, 4), rng)
    rebuilt = [
        SparseMatrix(ring, A.rows, A.cols, dict(reversed(A.entries.items()))),
        SparseMatrix.from_rows(ring, A.to_rows()) if A.rows else A,
        A.transpose().transpose(),
        (A + A) - A,
        A @ SparseMatrix.identity(ring, A.cols),
    ]
    for B in rebuilt:
        assert B == A and hash(B) == hash(A)
