"""Document serialization: canonical form, round trips, error reporting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchain import (
    FreeComplex,
    GF,
    PresentedComplex,
    QQ,
    SparseMatrix,
    ZLoc,
    ZZ,
    direct_sum,
    graded_poly,
    koszul,
    parse,
    serialize,
    shift,
    sym2,
    unit_complex,
    weak_sym2,
    zero_complex,
)
from symchain.errors import DocumentError, ShapeError
from symchain.io import _matrix_to_rows, parse_ring_string, ring_from_obj, ring_to_obj

from oracles import reference_matrix_rows
from randgen import random_chain_map, random_complex, random_graded_minimal, random_homogeneous

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def test_complex_round_trip():
    K = koszul([X_VAR, Y_VAR])
    text = serialize(K)
    back = parse(text)
    assert back == K
    assert serialize(back) == text


def test_round_trip_all_backends():
    rng = random.Random(3)
    for ring in (ZZ, QQ, GF(5), ZLoc(3)):
        X = random_complex(ring, rng)
        assert parse(serialize(X)) == X
    assert parse(serialize(zero_complex(ZZ))) == zero_complex(ZZ)
    assert parse(serialize(shift(unit_complex(QQ), -3))).support == (-3, -3)


def test_equal_objects_serialize_identically():
    A = koszul([ZZ.scalar(6)])
    B = FreeComplex(ZZ, {0: 1, 1: 1}, {1: SparseMatrix.from_rows(ZZ, [[6]])})
    assert A == B
    assert serialize(A) == serialize(B)


def test_map_round_trip():
    rng = random.Random(5)
    X = random_complex(QQ, rng)
    f = random_chain_map(X, X, rng)
    text = serialize(f)
    back = parse(text)
    assert back == f
    assert serialize(back) == text
    g = sym2(koszul([X_VAR, Y_VAR])).proj
    assert parse(serialize(g)) == g


def test_presented_round_trip():
    P = weak_sym2(koszul([ZZ.scalar(3)]))
    text = serialize(P)
    back = parse(text)
    assert back.degrees() == P.degrees()
    for n in P.degrees():
        assert back.relation(n) == P.relation(n)
        assert back.diff(n) == P.diff(n)
    assert serialize(back) == text


def test_malformed_scalar_reports_token():
    K = koszul([X_VAR])
    text = serialize(K).replace('"x"', '"x^"')
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert "x^" in str(err.value) or "position" in str(err.value)


def test_ring_mismatch_between_header_and_entries():
    K = koszul([X_VAR])
    text = serialize(K).replace('"GradedPoly"', '"ZZ"').replace(
        '"variables": [\n      "x",\n      "y"\n    ]', '"ignored": 0'
    )
    with pytest.raises(DocumentError):
        parse(text)


def test_invalid_complex_rejected_with_degree_witness():
    bad = {
        "format": "symchain-complex-v1",
        "ring": {"kind": "ZZ"},
        "support": [0, 2],
        "ranks": [1, 1, 1],
        "differentials": [[["1"]], [["1"]]],
    }
    import json

    with pytest.raises(DocumentError) as err:
        parse(json.dumps(bad))
    assert "degree" in str(err.value)


def test_not_json_reports_position():
    with pytest.raises(DocumentError) as err:
        parse("{nope")
    assert err.value.line == 1


def test_ring_string_grammar():
    assert parse_ring_string("ZZ") == ZZ
    assert parse_ring_string("QQ") == QQ
    assert parse_ring_string("GF(7)") == GF(7)
    assert parse_ring_string("ZLoc(3)") == ZLoc(3)
    assert parse_ring_string("GradedPoly(x,y)") == POLY
    with pytest.raises(DocumentError):
        parse_ring_string("Zmod(4)")


def test_ring_obj_round_trip():
    for ring in (ZZ, QQ, GF(5), ZLoc(3), POLY):
        assert ring_from_obj(ring_to_obj(ring)) == ring


def test_unknown_format_rejected():
    with pytest.raises(DocumentError):
        parse('{"format": "mystery"}')


def test_matrix_rows_must_be_lists_of_scalars():
    import json

    doc = json.loads(serialize(koszul([ZZ.scalar(3)])))
    cases = [
        ([1, 1], ["12"], "row 0"),
        ([1, 1], [[True]], "entry (0,0)"),
        ([1, 1], [[None]], "entry (0,0)"),
        # true equals 1, so a cell read before it must not answer for it
        ([1, 2], [[1, True]], "entry (0,1)"),
        ([1, 2], [["1", True]], "entry (0,1)"),
        # a malformed string is reported where it first appears
        ([2, 2], [["1", "2/"], ["2/", "2/"]], "entry (0,1)"),
    ]
    for ranks, rows, where in cases:
        doc["ranks"], doc["differentials"] = ranks, [rows]
        with pytest.raises(DocumentError) as err:
            parse(json.dumps(doc))
        assert "differential at degree 1" in str(err.value) and where in str(err.value)


def test_negative_rank_rejected():
    import json

    doc = json.loads(serialize(koszul([ZZ.scalar(3)])))
    doc["ranks"] = [1, -1]
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert "ranks[1]" in str(err.value)
    with pytest.raises(ShapeError):
        FreeComplex(ZZ, {0: 1, 1: -1})


ROUND_TRIP_RINGS = [ZZ, QQ, GF(2), GF(5), ZLoc(3), POLY]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(ring=st.sampled_from(ROUND_TRIP_RINGS), seed=st.integers(0, 2**32 - 1))
def test_parse_inverts_serialize_on_random_complexes(ring, seed):
    rng = random.Random(seed)
    if ring.kind == "Poly":
        X = random_graded_minimal(ring, rng)
    else:
        X = random_complex(ring, rng)
        f = random_chain_map(X, X, rng)
        assert parse(serialize(f)) == f
    back = parse(serialize(X))
    assert back == X
    assert all(back.diff(n).entries == X.diff(n).entries for n in X.degrees())


def test_parse_reads_each_distinct_nonzero_string_once_per_matrix(monkeypatch):
    import json

    from symchain import scalars

    text = serialize(sym2(koszul([ZZ.scalar(p) for p in (2, 3, 5)])).complex)
    matrices = json.loads(text)["differentials"]
    cells = [t for rows in matrices for row in rows for t in row]
    assert cells.count("0") > len(cells) // 2  # a dense document, mostly zeros
    calls = []
    tokenize = scalars._tokenize

    def counting_tokenize(s):
        calls.append(s)
        return tokenize(s)

    monkeypatch.setattr(scalars, "_tokenize", counting_tokenize)
    parse(text)
    expected = [sorted({t for row in rows for t in row} - {"0"}) for rows in matrices]
    assert "0" not in calls
    assert sorted(calls) == sorted(t for distinct in expected for t in distinct)


WRITER_RINGS = [ZZ, QQ, GF(2), GF(3), ZLoc(2), ZLoc(3), POLY]


def _written_matrices(ring, rng):
    """Every matrix the writers write for a randgen complex X over ring,
    chain maps out of X, and X presented modulo c times each generator."""
    if ring.graded:
        forms = [random_homogeneous(ring, rng.randint(1, 2), rng) for _ in range(2)]
        forms[0] = forms[0] * ring.scalar(Fraction(1, 2))
        X = direct_sum(random_graded_minimal(ring, rng), koszul(forms))
        maps = [sym2(X).proj, sym2(X).alpha]
    else:
        X = random_complex(ring, rng)
        maps = [random_chain_map(X, X, rng)]
    c = ring.scalar(rng.choice([-1, 2, 3]))
    presented = [
        PresentedComplex(
            ring,
            {n: list(range(X.rank(n))) for n in X.degrees()},
            {n: SparseMatrix.identity(ring, X.rank(n)).scale(c) for n in X.degrees()},
            {n: X.diff(n) for n in X.degrees() if X.rank(n - 1)},
        )
    ]
    if not ring.two_is_unit():
        presented.append(weak_sym2(X))
    yield from (X.diff(n) for n in X.degrees())
    for f in maps:
        yield from (f.component(n) for n in sorted(f.maps))
    for P in presented:
        yield from (P.relation(n) for n in P.degrees())
        yield from (P.diff(n) for n in P.degrees())


@pytest.mark.parametrize("ring", WRITER_RINGS, ids=str)
def test_writer_matches_the_dense_reference(ring):
    """The writer formats only stored entries and writes "0" elsewhere; its
    rows equal the dense form formatted cell by cell."""
    rng = random.Random(33 + WRITER_RINGS.index(ring))
    written = 0
    for _ in range(6):
        for M in _written_matrices(ring, rng):
            assert _matrix_to_rows(M) == reference_matrix_rows(M)
            written += bool(M.entries)
    assert written
