"""Exact scalar arithmetic over the supported coefficient rings.

Rings: the integers ZZ, the rationals QQ, prime fields GF(p), the integers
localized at a prime ZLoc(p) (fractions with denominator coprime to p), and
graded polynomial rings over QQ with a fixed ordered variable list.

Every ring element has one canonical raw value, which is what Scalar.value
holds and what SparseMatrix stores for each nonzero entry:

  * ZZ: an int;
  * GF(p): an int residue in [0, p);
  * QQ and ZLoc(p): a Fraction (normalized, positive denominator; over
    ZLoc(p) the denominator is prime to p);
  * polynomials: a dict from exponent tuples (in the declared variable
    order) to nonzero Fraction coefficients.

Zero is the only falsy raw value.  Ring.ops is the one table of arithmetic
on raw values (add, mul, neg, is_unit, inverse); Scalar arithmetic and the
matrix kernels both use it.  Ring.raw and the Scalar constructor coerce and
validate outside input; results of ring operations are canonical already
and are not checked again.  Serialization lists polynomial terms by
descending (total degree, exponent vector).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, NamedTuple

from .errors import (
    DocumentError,
    NonUnitError,
    RingMismatchError,
    ScalarParseError,
    SymchainError,
    UnsupportedRingError,
)

__all__ = [
    "Ring",
    "Scalar",
    "ZZ",
    "QQ",
    "GF",
    "ZLoc",
    "graded_poly",
    "parse_ring_string",
    "two_is_unit",
    "is_prime",
]


def is_prime(p: int) -> bool:
    """Trial-division primality test; inputs are desk-scale."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Ring:
    """Descriptor of a supported coefficient ring.

    kind is one of "ZZ", "QQ", "GF", "ZLoc", "Poly".  GF/ZLoc carry the
    prime p; Poly carries the ordered variable names.  Only this module
    reads kind; the library asks a ring for the property a branch relies on:

      kind  is_field  is_local       graded  residue_field  raw value
      ZZ    no        no             no      None           int
      QQ    yes       yes            no      QQ             Fraction
      GF    yes       yes            no      GF(p)          int in [0, p)
      ZLoc  no        yes, a DVR     no      GF(p)          Fraction
      Poly  no        graded-local   yes     QQ             monomial dict

    is_dvr holds for ZLoc(p) only; proper_subring_of_qq for ZZ and ZLoc(p),
    the rings where Smith forms run; fraction_values for QQ and ZLoc(p).
    They are plain attributes, set once.
    """

    kind: str
    p: int | None = None
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("ZZ", "QQ", "GF", "ZLoc", "Poly"):
            raise UnsupportedRingError(f"unknown ring kind {self.kind!r}")
        if self.kind in ("GF", "ZLoc"):
            if self.p is None or not is_prime(self.p):
                raise UnsupportedRingError(f"{self.kind} requires a prime, got {self.p!r}")
        elif self.p is not None:
            raise UnsupportedRingError(f"ring kind {self.kind} takes no prime")
        if self.kind == "Poly":
            if not self.variables:
                raise UnsupportedRingError("polynomial ring needs at least one variable")
            for name in self.variables:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                    raise UnsupportedRingError(f"bad variable name {name!r}")
            if len(set(self.variables)) != len(self.variables):
                raise UnsupportedRingError("variable names must be distinct")
        elif self.variables:
            raise UnsupportedRingError(f"ring kind {self.kind} takes no variables")
        kind, set_ = self.kind, partial(object.__setattr__, self)
        set_("is_field", kind in ("QQ", "GF"))
        # ZLoc is local at (p), Poly graded-local at the irrelevant ideal
        set_("is_local", kind != "ZZ")
        set_("is_dvr", kind == "ZLoc")
        set_("graded", kind == "Poly")
        set_("proper_subring_of_qq", kind in ("ZZ", "ZLoc"))
        set_("fraction_values", kind in ("QQ", "ZLoc"))

    # -- constructors -----------------------------------------------------

    def zero(self) -> "Scalar":
        return Scalar._wrap(self, self.ops.zero)

    def one(self) -> "Scalar":
        return Scalar._wrap(self, self.ops.one)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, str, monomial dict, or Scalar into this ring."""
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatchError(f"scalar of {value.ring} used in {self}")
            return value
        if isinstance(value, str):
            return parse_scalar(self, value)
        return Scalar(self, value)

    def raw(self, value):
        """The canonical raw value of what scalar() accepts, validated alike.

        A string is read once into its raw value (see _read): one pass of
        the tokenizer, one _canon for a number, and no Scalar built."""
        if isinstance(value, str):
            return _read(self, value)
        if isinstance(value, Scalar):
            return self.scalar(value).value
        return _canon(self, value)

    def __reduce__(self):
        # rebuilt from its fields: the cached ops hold local lambdas
        return Ring, (self.kind, self.p, self.variables)

    @cached_property
    def ops(self) -> "RingOps":
        return _ring_ops(self)

    @cached_property
    def var_index(self) -> dict:
        """The position of each variable name in variables."""
        return {name: i for i, name in enumerate(self.variables)}

    @cached_property
    def residue_field(self) -> "Ring | None":
        """R/m for the maximal (graded: irrelevant) ideal m, the target of
        ops.residue; None over ZZ, which is not local."""
        if self.is_field:
            return self
        if self.graded:
            return QQ
        return GF(self.p) if self.is_dvr else None

    def map_to(self, target: "Ring"):
        """The coefficient map self -> target on raw values: the identity,
        ZZ into QQ, ZLoc(q) and GF(q), ZLoc(p) into QQ and onto its residue
        field.  Raises UnsupportedRingError for any other pair."""
        if self == target:
            return lambda v: v
        if self.is_dvr and target == self.residue_field:
            return self.ops.residue
        if self.kind == "ZZ" and target.kind == "GF":
            p = target.p
            return lambda v: v % p
        if self.kind == "ZZ" and target.fraction_values or self.is_dvr and target == QQ:
            return Fraction  # ints become fractions, fractions stay
        raise UnsupportedRingError(f"no supported map {self} -> {target}")

    def variable(self, name: str) -> "Scalar":
        if not self.graded:
            raise UnsupportedRingError("variables only exist in polynomial rings")
        i = self.variables.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return Scalar(self, {exp: Fraction(1)})

    def generators(self) -> tuple["Scalar", ...]:
        return tuple(self.variable(v) for v in self.variables)

    def two_is_unit(self) -> bool:
        return self.kind != "ZZ" and self.p != 2

    def __str__(self):
        """The ring grammar parse_ring_string reads: ZZ, QQ, GF(p), ZLoc(p),
        GradedPoly(x,y)."""
        if self.kind in ("GF", "ZLoc"):
            return f"{self.kind}({self.p})"
        if self.graded:
            return f"GradedPoly({','.join(self.variables)})"
        return self.kind


def parse_ring_string(text: str) -> Ring:
    """The ring str() prints, read back; raises DocumentError."""
    text = text.strip()
    if text in ("ZZ", "QQ"):
        return Ring(text)
    try:
        if text.startswith("GF(") and text.endswith(")"):
            return GF(int(text[3:-1]))
        if text.startswith("ZLoc(") and text.endswith(")"):
            return ZLoc(int(text[5:-1]))
    except ValueError as exc:
        raise DocumentError(f"cannot parse ring {text!r}: the prime is not an integer") from exc
    if text.startswith("GradedPoly(") and text.endswith(")"):
        names = [v.strip() for v in text[11:-1].split(",") if v.strip()]
        return graded_poly(*names)
    raise DocumentError(f"cannot parse ring {text!r}")


ZZ = Ring("ZZ")
QQ = Ring("QQ")


def GF(p: int) -> Ring:
    return Ring("GF", p=p)


def ZLoc(p: int) -> Ring:
    return Ring("ZLoc", p=p)


def graded_poly(*variables: str) -> Ring:
    return Ring("Poly", variables=tuple(variables))


def two_is_unit(ring: Ring) -> bool:
    return ring.two_is_unit()


def _canon_fraction(ring: Ring, value) -> Fraction:
    f = Fraction(value)
    if ring.p and f.denominator % ring.p == 0:
        raise UnsupportedRingError(
            f"denominator {f.denominator} not invertible in {ring}"
        )
    return f


def _canon_poly(ring: Ring, value) -> dict:
    nvars = len(ring.variables)
    if isinstance(value, (int, Fraction)):
        c = Fraction(value)
        return {} if c == 0 else {(0,) * nvars: c}
    out = {}
    for exp, coeff in value.items():
        exp = tuple(int(e) for e in exp)
        if len(exp) != nvars or any(e < 0 for e in exp):
            raise SymchainError(f"bad exponent vector {exp} for {ring}")
        if isinstance(coeff, float):
            raise ScalarParseError(f"float coefficient {coeff!r} is not exact")
        c = Fraction(coeff)
        if c != 0:
            out[exp] = out.get(exp, Fraction(0)) + c
            if out[exp] == 0:
                del out[exp]
    return out


def _mod_p(f: Fraction, p: int) -> int:
    """The residue in GF(p) of a fraction whose denominator is prime to p."""
    return f.numerator * pow(f.denominator, -1, p) % p


def _canon(ring: Ring, value):
    """Validate an int, Fraction or monomial dict and return its raw value."""
    if isinstance(value, float):
        raise ScalarParseError(f"float {value!r} is not an exact scalar of {ring}")
    if ring.kind == "ZZ":
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise SymchainError(f"{value} is not an integer")
            value = value.numerator
        return int(value)
    if ring.fraction_values:
        return _canon_fraction(ring, value)
    if ring.is_field:  # GF(p)
        if isinstance(value, Fraction):
            return _mod_p(_canon_fraction(ring, value), ring.p)
        return int(value) % ring.p
    return _canon_poly(ring, value)


# -- arithmetic on raw values ---------------------------------------------------


class RingOps(NamedTuple):
    """Arithmetic on one ring's canonical raw values; results are canonical.

    inverse takes a unit.  residue maps a raw value to its image in
    ring.residue_field (None over ZZ): the identity on fields, num * den^-1
    mod p on ZLoc(p), the constant term on graded rings.  is_unit(a) is
    residue(a) != 0 only on homogeneous values (1 + x is no unit).
    Polynomial values are never mutated in place, so matrices and Scalars
    may share them.
    """

    zero: object
    one: object
    add: Callable
    mul: Callable
    neg: Callable
    is_unit: Callable
    inverse: Callable
    residue: Callable | None


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            del out[exp]
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(operator.add, e1, e2))
            s = out.get(exp, 0) + c1 * c2
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def _ring_ops(ring: Ring) -> RingOps:
    kind, p = ring.kind, ring.p
    if kind == "ZZ":
        return RingOps(0, 1, operator.add, operator.mul, operator.neg,
                       lambda a: a in (1, -1), lambda a: a, None)
    if kind == "GF":
        return RingOps(0, 1, lambda a, b: (a + b) % p, lambda a, b: a * b % p,
                       lambda a: -a % p, bool, lambda a: pow(a, -1, p), lambda a: a)
    if kind in ("QQ", "ZLoc"):
        is_unit = bool if kind == "QQ" else (lambda a: a.numerator % p != 0)
        residue = (lambda a: a) if kind == "QQ" else (lambda a: _mod_p(a, p))
        return RingOps(Fraction(0), Fraction(1), operator.add, operator.mul, operator.neg,
                       is_unit, lambda a: 1 / a, residue)
    const, zero = (0,) * len(ring.variables), Fraction(0)
    return RingOps(
        {}, {const: Fraction(1)}, _poly_add, _poly_mul,
        lambda a: {e: -c for e, c in a.items()},
        lambda a: len(a) == 1 and const in a,
        lambda a: {const: 1 / a[const]},
        lambda a: a.get(const, zero),
    )


class Scalar:
    """An element of one of the supported rings, in canonical form."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", _canon(ring, value))

    @classmethod
    def _wrap(cls, ring: Ring, value) -> "Scalar":
        """The Scalar of a value already in ring's canonical raw form; no checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "value", value)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.ring, self.value)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError(f"cannot mix {self.ring} and {other.ring}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Scalar._wrap(self.ring, self.ring.ops.add(self.value, other.value))

    def __neg__(self):
        return Scalar._wrap(self.ring, self.ring.ops.neg(self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        return Scalar._wrap(self.ring, self.ring.ops.mul(self.value, other.value))

    def is_zero(self) -> bool:
        return not self.value

    def is_unit(self) -> bool:
        return self.ring.ops.is_unit(self.value)

    def inverse(self) -> "Scalar":
        if not self.is_unit():
            raise NonUnitError(f"{self} is not a unit in {self.ring}")
        return Scalar._wrap(self.ring, self.ring.ops.inverse(self.value))

    def divide_exact(self, other: "Scalar") -> "Scalar":
        """Exact division; raises unless other divides self in the ring."""
        other = self._check(other)
        if other.is_unit():
            return self * other.inverse()
        if self.ring.kind == "ZZ":
            if other.value == 0 or self.value % other.value != 0:
                raise SymchainError(f"{other} does not divide {self} in ZZ")
            return Scalar(self.ring, self.value // other.value)
        if self.ring.is_dvr:
            if other.value == 0:
                raise SymchainError("division by zero")
            q = self.value / other.value
            return Scalar(self.ring, _canon_fraction(self.ring, q))
        raise SymchainError(f"exact division by non-unit unsupported over {self.ring}")

    # -- grading ------------------------------------------------------------

    def homogeneous_degree(self):
        """Total degree of a homogeneous polynomial; None if inhomogeneous.

        Zero is homogeneous of every degree and reports None.  Non-Poly
        scalars report 0.
        """
        if not self.ring.graded:
            return 0
        degrees = {sum(e) for e in self.value}
        if not degrees:
            return None
        if len(degrees) > 1:
            return None
        return degrees.pop()

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self):
        if self.ring.graded:
            return hash((self.ring, frozenset(self.value.items())))
        return hash((self.ring, self.value))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.ring}, {format_scalar(self)})"


# -- textual grammar ---------------------------------------------------------
#
# integers  -?[0-9]+        fractions  a/b        polynomials  sums of terms
# ±c*x^e*y^f with coefficient 1 and exponent 1 elided, e.g. 3*x^2*y - y^3.


def _sort_key(exp):
    # Descending (total degree, lex on the exponent vector).
    return (-sum(exp), tuple(-e for e in exp))


def _format_monomial(ring: Ring, exp, coeff: Fraction) -> str:
    parts = []
    if all(e == 0 for e in exp):
        return str(coeff)
    if coeff != 1:
        parts.append(str(coeff))
    for name, e in zip(ring.variables, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_scalar(a: Scalar) -> str:
    return format_raw(a.ring, a.value)


def format_raw(ring: Ring, value) -> str:
    """The grammar's text of a canonical raw value of ring."""
    if not ring.graded:
        return str(value)
    if not value:
        return "0"
    out = []
    for exp in sorted(value, key=_sort_key):
        coeff = value[exp]
        term = _format_monomial(ring, exp, abs(coeff))
        if not out:
            out.append(term if coeff > 0 else f"-{term}")
        else:
            out.append(f" + {term}" if coeff > 0 else f" - {term}")
    return "".join(out)


_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ScalarParseError("unexpected character", text, pos)
        if m.group("num"):
            tokens.append(("num", int(m.group("num")), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def parse_scalar(ring: Ring, text: str) -> Scalar:
    """Parse a scalar string in the textual grammar for the given ring.

    Costs what Ring.raw does on a string: one pass of the tokenizer and one
    reading of its tokens into the canonical raw value, which is wrapped
    without a second canonicalisation."""
    return Scalar._wrap(ring, _read(ring, text))


def _read(ring: Ring, text: str):
    """The canonical raw value of a scalar string; the one reader of the
    grammar.  Numbers are validated by _canon (integrality over ZZ,
    denominators over ZLoc(p), residues over GF(p)); polynomial terms are
    summed with zero terms dropped.  Raises ScalarParseError with the
    offending position, or the ring's error from _canon."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar", text, 0)
    if ring.graded:
        return _read_poly(ring, tokens, text)
    return _read_numeric(ring, tokens, text)


def _read_numeric(ring: Ring, tokens, text):
    pos = 0
    sign = 1
    while pos < len(tokens) and tokens[pos][:2] in (("op", "-"), ("op", "+")):
        if tokens[pos][1] == "-":
            sign = -sign
        pos += 1
    if pos >= len(tokens) or tokens[pos][0] != "num":
        where = tokens[min(pos, len(tokens) - 1)][2]
        raise ScalarParseError("expected an integer", text, where)
    num = tokens[pos][1]
    pos += 1
    if pos < len(tokens) and tokens[pos][:2] == ("op", "/"):
        pos += 1
        if pos >= len(tokens) or tokens[pos][0] != "num":
            raise ScalarParseError("expected a denominator", text, tokens[pos - 1][2])
        den = tokens[pos][1]
        pos += 1
        if ring.kind == "ZZ":
            raise ScalarParseError(f"fractions are not elements of {ring}", text, 0)
        if den == 0:
            raise ScalarParseError("zero denominator", text, tokens[pos - 1][2])
        value = Fraction(sign * num, den)
    else:
        value = sign * num
    if pos != len(tokens):
        raise ScalarParseError("trailing input", text, tokens[pos][2])
    return _canon(ring, value)


def _read_poly(ring: Ring, tokens, text) -> dict:
    var_index = ring.var_index
    terms: dict = {}
    pos = 0
    first = True
    while pos < len(tokens):
        sign = 1
        saw_sign = False
        while pos < len(tokens) and tokens[pos][:2] in (("op", "-"), ("op", "+")):
            if tokens[pos][1] == "-":
                sign = -sign
            saw_sign = True
            pos += 1
        if not first and not saw_sign:
            raise ScalarParseError("expected + or - between terms", text, tokens[pos][2])
        first = False
        coeff = 1  # an int until a factor has a denominator
        exp = [0] * len(var_index)
        saw_factor = False
        while True:
            if pos >= len(tokens):
                break
            kind, val, where = tokens[pos]
            if kind == "num":
                c = val
                pos += 1
                if pos < len(tokens) and tokens[pos][:2] == ("op", "/"):
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "num":
                        raise ScalarParseError("expected a denominator", text, where)
                    if tokens[pos][1] == 0:
                        raise ScalarParseError("zero denominator", text, tokens[pos][2])
                    c = Fraction(val, tokens[pos][1])
                    pos += 1
                coeff *= c
            elif kind == "name":
                if val not in var_index:
                    raise ScalarParseError(f"unknown variable {val!r}", text, where)
                e = 1
                pos += 1
                if pos < len(tokens) and tokens[pos][:2] == ("op", "^"):
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "num":
                        raise ScalarParseError("expected an exponent", text, where)
                    e = tokens[pos][1]
                    pos += 1
                exp[var_index[val]] += e
            else:
                raise ScalarParseError("expected a factor", text, where)
            saw_factor = True
            if pos < len(tokens) and tokens[pos][:2] == ("op", "*"):
                pos += 1
                continue
            break
        if not saw_factor:
            where = tokens[pos][2] if pos < len(tokens) else len(text)
            raise ScalarParseError("empty term", text, where)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + sign * coeff
    return {exp: Fraction(c) for exp, c in terms.items() if c}
