"""Scalar arithmetic, unit detection, and the textual grammar."""

import random
from fractions import Fraction

import pytest

from symchain import GF, QQ, ZLoc, ZZ, graded_poly, two_is_unit
from symchain.errors import (
    NonUnitError,
    RingMismatchError,
    ScalarParseError,
    UnsupportedRingError,
)
from symchain.io import parse_ring_string as io_parse_ring_string
from symchain.scalars import Scalar, format_scalar, parse_ring_string, parse_scalar

from randgen import random_homogeneous, random_scalar, unit_scalar

POLY = graded_poly("x", "y")


def test_fraction_addition():
    a = QQ.scalar(Fraction(1, 2))
    b = QQ.scalar(Fraction(1, 3))
    assert a + b == QQ.scalar(Fraction(5, 6))


def test_poly_product_degree():
    x = POLY.variable("x")
    y = POLY.variable("y")
    xy = x * y
    assert xy.homogeneous_degree() == 2
    assert str(xy) == "x*y"


def test_gf_multiplication_wraps():
    F5 = GF(5)
    assert F5.scalar(2) * F5.scalar(3) == F5.scalar(1)


def test_unit_detection():
    assert not ZZ.scalar(2).is_unit()
    two_loc = ZLoc(3).scalar(2)
    assert two_loc.is_unit()
    assert two_loc.inverse() == ZLoc(3).scalar(Fraction(1, 2))
    assert not POLY.variable("x").is_unit()
    assert POLY.scalar(3).is_unit()
    assert ZZ.scalar(-1).is_unit()


def test_inverse_of_nonunit_raises():
    with pytest.raises(NonUnitError):
        ZZ.scalar(2).inverse()
    with pytest.raises(NonUnitError):
        POLY.variable("x").inverse()


def test_two_is_unit_table():
    assert not two_is_unit(ZZ)
    assert two_is_unit(QQ)
    assert not two_is_unit(GF(2))
    assert two_is_unit(GF(5))
    assert not two_is_unit(ZLoc(2))
    assert two_is_unit(ZLoc(3))
    assert two_is_unit(POLY)


def test_primality_checked_eagerly():
    with pytest.raises(UnsupportedRingError):
        GF(4)
    with pytest.raises(UnsupportedRingError):
        ZLoc(1)
    GF(2)  # constructible, needed as a 2-not-unit witness
    ZLoc(2)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ZZ.scalar(1) + QQ.scalar(1)


def test_zloc_rejects_bad_denominator():
    with pytest.raises(UnsupportedRingError):
        ZLoc(3).scalar(Fraction(1, 3))


def test_gf_rejects_denominator_divisible_by_p():
    with pytest.raises(UnsupportedRingError):
        parse_scalar(GF(5), "1/5")
    with pytest.raises(UnsupportedRingError):
        GF(5).scalar(Fraction(3, 10))
    # a denominator prime to p is inverted: 3 * 2 = 1 and 3 * 5 = 1 in GF(5), GF(7)
    assert parse_scalar(GF(5), "1/3") == GF(5).scalar(2)
    assert GF(7).scalar(Fraction(-1, 3)) == GF(7).scalar(2)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5), ZLoc(3), POLY], ids=str)
def test_floats_are_rejected(ring):
    for value in (2.7, 0.5, 2.0):
        with pytest.raises(ScalarParseError):
            ring.scalar(value)
    if ring == POLY:
        with pytest.raises(ScalarParseError):
            ring.scalar({(1, 0): 0.5})


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5), ZLoc(3), POLY])
def test_ring_axioms_on_random_triples(ring):
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_scalar(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ring.zero()
        if a.is_unit():
            assert a * a.inverse() == ring.one()


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5), ZLoc(3), POLY])
def test_canonical_form_idempotent(ring):
    rng = random.Random(11)
    for _ in range(40):
        a = random_scalar(ring, rng)
        assert Scalar(ring, a.value) == a
        assert parse_scalar(ring, format_scalar(a)) == a


def test_homogeneous_products():
    rng = random.Random(3)
    for _ in range(30):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        a = random_homogeneous(POLY, d1, rng)
        b = random_homogeneous(POLY, d2, rng)
        assert a.homogeneous_degree() == d1
        assert (a * b).homogeneous_degree() == d1 + d2


def test_grammar_round_trip_examples():
    s = parse_scalar(POLY, "3*x^2*y - y^3")
    assert str(s) == "3*x^2*y - y^3"
    assert parse_scalar(QQ, "-5/3") == QQ.scalar(Fraction(-5, 3))
    assert parse_scalar(ZZ, "-17") == ZZ.scalar(-17)
    assert parse_scalar(POLY, "1/2*x + y") == POLY.scalar(
        {(1, 0): Fraction(1, 2), (0, 1): 1}
    )
    assert str(parse_scalar(POLY, "y + x")) == "x + y"


def test_grammar_errors_carry_position():
    with pytest.raises(ScalarParseError):
        parse_scalar(POLY, "x^")
    with pytest.raises(ScalarParseError):
        parse_scalar(POLY, "3*z")
    with pytest.raises(ScalarParseError):
        parse_scalar(ZZ, "1/2")
    with pytest.raises(ScalarParseError):
        parse_scalar(QQ, "")


def test_monomial_serialization_order():
    # descending total degree, then descending exponent vector in variable order
    s = POLY.scalar({(0, 3): -1, (2, 1): 3, (1, 0): -1})
    assert str(s) == "3*x^2*y - y^3 - x"


def test_ring_properties_by_kind():
    # is_field, is_local, is_dvr, graded, proper_subring_of_qq, fraction_values, residue_field
    expected = {
        ZZ: (False, False, False, False, True, False, None),
        QQ: (True, True, False, False, False, True, QQ),
        GF(5): (True, True, False, False, False, False, GF(5)),
        ZLoc(3): (False, True, True, False, True, True, GF(3)),
        POLY: (False, True, False, True, False, False, QQ),
    }
    for ring, props in expected.items():
        assert (
            ring.is_field, ring.is_local, ring.is_dvr, ring.graded,
            ring.proper_subring_of_qq, ring.fraction_values, ring.residue_field,
        ) == props, ring


@pytest.mark.parametrize(
    "ring", [ZZ, QQ, GF(2), GF(7), ZLoc(3), graded_poly("x"), POLY, graded_poly("a", "b", "c")], ids=str
)
def test_ring_string_round_trip(ring):
    assert parse_ring_string(str(ring)) == ring
    assert io_parse_ring_string is parse_ring_string


RESIDUE_RINGS = [GF(2), GF(5), QQ, ZLoc(2), ZLoc(3), POLY]


@pytest.mark.parametrize("ring", RESIDUE_RINGS, ids=str)
def test_residue_is_a_ring_map_onto_the_residue_field(ring):
    rng = random.Random(5)
    k, residue = ring.residue_field, ring.ops.residue
    assert residue(ring.one().value) == k.ops.one and residue(ring.zero().value) == k.ops.zero
    for _ in range(80):
        a, b = random_scalar(ring, rng), rng.choice([random_scalar, unit_scalar])(ring, rng)
        ra, rb = residue(a.value), residue(b.value)
        assert Scalar(k, ra).value == ra  # canonical in the residue field
        assert residue((a + b).value) == k.ops.add(ra, rb)
        assert residue((a * b).value) == k.ops.mul(ra, rb)


@pytest.mark.parametrize("ring", RESIDUE_RINGS, ids=str)
def test_units_are_the_homogeneous_values_with_nonzero_residue(ring):
    rng = random.Random(9)
    values = [ring.zero()]
    for _ in range(80):
        if ring.graded:
            values.append(random_homogeneous(ring, rng.randint(0, 2), rng))
        else:
            values += [random_scalar(ring, rng), unit_scalar(ring, rng)]
    assert any(a.is_unit() for a in values) and not all(a.is_unit() for a in values)
    for a in values:
        assert a.is_unit() == (ring.ops.residue(a.value) != 0), a
    if ring.graded:  # off homogeneous values the rule fails: 1 + x has residue 1
        a = ring.one() + ring.variable("x")
        assert ring.ops.residue(a.value) == 1 and not a.is_unit()


def test_zz_has_no_residue_field():
    assert not ZZ.is_local
    assert ZZ.residue_field is None and ZZ.ops.residue is None
