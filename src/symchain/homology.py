"""Exact homology of free and presented complexes, per coefficient backend.

Over ZZ and ZLoc(p) homology groups are reported as invariant factors,
the Smith diagonal computed modulo a determinant without transforms; over
QQ and GF(p) as dimensions; over graded polynomial rings as Hilbert tables
(dimension of each internal-degree slice over QQ) up to a degree bound,
which every such report carries.  Presented homology over ZZ and
ZLoc(p) is the homology of a free complex, a twisted cone of the
relations, so it builds no lattice bases and no transforms.

Exactness and quasi-isomorphism (exactness of the mapping cone) are exact
verdicts on every backend.  Over a graded ring they need no degree
bound: a bounded complex of graded free modules with homogeneous
differentials is exact exactly when its minimal model is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import ChainMap, FreeComplex, mapping_cone
from .errors import GradingError, SymchainError, UnsupportedRingError
from .linalg import invariant_factors, qq_rank, rank, slice_matrix, solve_exact
from .series import minimal_model
from .sym2 import PresentedComplex

__all__ = [
    "FpAbelianGroup",
    "HomologyReport",
    "check_bound",
    "QuasiIsoVerdict",
    "default_bound",
    "homology",
    "homology_presented",
    "is_quasi_iso",
    "is_exact",
    "inf_h",
]


@dataclass(frozen=True)
class FpAbelianGroup:
    """Finitely generated abelian group in canonical invariant-factor form."""

    rank: int
    factors: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise SymchainError(f"factors {self.factors} violate divisibility")
        if any(f < 2 for f in self.factors):
            raise SymchainError("factors below 2 are not stored")

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.factors

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{f}" for f in self.factors)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FpAbelianGroup(0, ())


@dataclass
class HomologyReport:
    """Per-degree homology values; kind determines the value type.

    kind "invariant_factors": FpAbelianGroup per degree (ZZ, ZLoc).
    kind "dimensions": int per degree (QQ, GF).
    kind "hilbert": {internal degree: dimension} per degree, up to `bound`.
    """

    kind: str
    ring: object
    values: dict = field(default_factory=dict)
    bound: int | None = None

    def is_zero_at(self, n: int) -> bool:
        v = self.values.get(n)
        if v is None:
            return True
        if self.kind == "invariant_factors":
            return v.is_zero()
        if self.kind == "dimensions":
            return v == 0
        return not v

    def nonzero_degrees(self):
        return sorted(n for n in self.values if not self.is_zero_at(n))

    @property
    def inf(self):
        """Least degree with nonzero homology; None when acyclic (within bound)."""
        degs = self.nonzero_degrees()
        return degs[0] if degs else None

    def is_exact(self) -> bool:
        return not self.nonzero_degrees()

    def group(self, n: int) -> FpAbelianGroup:
        if self.kind != "invariant_factors":
            raise SymchainError(f"report of kind {self.kind} has no groups")
        return self.values.get(n, ZERO_GROUP)

    def dimension(self, n: int) -> int:
        if self.kind != "dimensions":
            raise SymchainError(f"report of kind {self.kind} has no dimensions")
        return self.values.get(n, 0)

    def table(self, n: int) -> dict:
        if self.kind != "hilbert":
            raise SymchainError(f"report of kind {self.kind} has no Hilbert tables")
        return dict(self.values.get(n, {}))


def check_bound(X: FreeComplex, bound: int | None) -> None:
    """Reject a graded bound below the lowest generator degree of X.

    Every slice such a bound admits is empty, so each table would be empty
    and each verdict vacuous; raises GradingError.
    """
    if bound is not None and X.graded and not X.is_zero() and bound < X.min_gdeg():
        raise GradingError(
            f"degree bound {bound} is below the lowest generator degree {X.min_gdeg()}"
        )


def default_bound(X: FreeComplex) -> int:
    """Internal-degree bound heuristic: max generator degree + total rank + 2."""
    return X.max_gdeg() + X.total_rank() + 2


def homology(X: FreeComplex, bound: int | None = None) -> HomologyReport:
    """Exact homology per backend; graded complexes honor the degree bound."""
    ring = X.ring
    if ring.kind in ("ZZ", "ZLoc"):
        values = {}
        diag = {n: invariant_factors(X.diff(n)) for n in X.degrees()}
        for n in X.degrees():
            z = X.rank(n) - len(diag.get(n, []))
            incoming = diag.get(n + 1, [])
            torsion = tuple(d for d in incoming if d > 1)
            g = FpAbelianGroup(z - len(incoming), torsion)
            if not g.is_zero():
                values[n] = g
        return HomologyReport("invariant_factors", ring, values)
    if ring.is_field:
        values = {}
        ranks = {n: rank(X.diff(n)) for n in X.degrees()}
        for n in X.degrees():
            h = X.rank(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
            if h:
                values[n] = h
        return HomologyReport("dimensions", ring, values)
    if ring.kind == "Poly":
        if not X.graded:
            raise GradingError("graded homology needs generator degrees")
        D = default_bound(X) if bound is None else bound
        slices = {}
        values = {n: t for n in X.degrees() if (t := _graded_table(X, n, D, slices))}
        return HomologyReport("hilbert", ring, values, bound=D)
    raise UnsupportedRingError(f"homology unsupported over {ring}")


def _slice_rank(X: FreeComplex, n: int, d: int, slices: dict):
    """(dimension of X_n in internal degree d, rank of d_n there), built once.

    slices holds the pairs already computed, keyed by (n, d); H_n and
    H_{n+1} both need the slice of d_{n+1}.
    """
    if (n, d) not in slices:
        dn, _, src = slice_matrix(X.diff(n), X.gdeg(n), X.gdeg(n - 1), d)
        slices[(n, d)] = (len(src), qq_rank(dn))
    return slices[(n, d)]


def _graded_slice_dim(X: FreeComplex, n: int, d: int, slices: dict) -> int:
    size, r = _slice_rank(X, n, d, slices)
    return size - r - _slice_rank(X, n + 1, d, slices)[1]


def _graded_table(X: FreeComplex, n: int, D: int, slices=None) -> dict:
    """{d: dim H_n(X)_d} for d <= D; slices may carry ranks shared between calls."""
    slices = {} if slices is None else slices
    table = {}
    for d in range(X.min_gdeg(), D + 1):
        h = _graded_slice_dim(X, n, d, slices)
        if h:
            table[d] = h
    return table


def homology_presented(P: PresentedComplex) -> HomologyReport:
    """Homology of a complex of finitely presented modules over ZZ or ZLoc(p).

    Fields and graded rings are refused: the cone needs injective relations,
    and there a weak square's relation columns can be zero (2 = 0 in GF(2)).
    """
    if P.ring.kind not in ("ZZ", "ZLoc"):
        raise UnsupportedRingError("presented homology is implemented over ZZ and ZLoc(p)")
    return homology(_presented_cone(P))


def _presented_cone(P: PresentedComplex) -> FreeComplex:
    """A free complex quasi-isomorphic to P; P's relations must be injective.

    With r_n: G_n -> F_n the relations and d the map on generators, C_n is
    G_{n-1} (+) F_n and d(g, f) = (-d^G g + h f, r g + d f), where
    r_{n-2} d^G_{n-1} = d_{n-1} r_{n-1} and r_{n-2} h_n = -d_{n-1} d_n.
    P only asks d.d to land in the relations, and h corrects for that.  C
    squares to zero because r is injective, and (g, f) -> [f] is a
    quasi-isomorphism onto P because its kernel is acyclic (a twisted
    mapping cone of r; cf. Weibel, section 1.5).
    """
    if P.support is None:
        return FreeComplex(P.ring, {})
    lo, hi = P.support
    ranks, diffs = {}, {}
    for n in range(lo, hi + 2):
        ranks[n] = P.relation(n - 1).cols + P.rank_free_cover(n)
        bottom = P.relation(n - 1).hstack(P.diff(n))  # (g, f) -> r g + d f
        # (g, f) -> -d^G g + h f, solved in one go: r_{n-2} top = -d_{n-1} bottom
        top = solve_exact(P.relation(n - 2), -(P.diff(n - 1) @ bottom))
        diffs[n] = top.vstack(bottom)
    return FreeComplex(P.ring, ranks, diffs)


@dataclass
class QuasiIsoVerdict:
    """Outcome of a quasi-isomorphism test, exact on every backend.

    The test decides whether the mapping cone of f is exact.  Each failure
    is a degree n with H_n(cone f) != 0: there H_n(f) is not onto or
    H_{n-1}(f) is not injective.  A graded failure (n, d) says the same
    in internal degree d.
    """

    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _exactness_failures(X: FreeComplex) -> list:
    """Witnesses that X is not exact; empty exactly when X is exact.

    Over ZZ, QQ, GF(p) and ZLoc(p): every degree with nonzero homology.
    Over a graded ring, with no degree bound: X is exact exactly when its
    minimal model M is zero (graded Nakayama).  Otherwise the witness is
    [(n0, d0)], n0 the lowest degree where M is nonzero and d0 the lowest
    generator degree of M_{n0}; H_{n0}(X)_{d0} != 0, since the image of
    the next differential lies in the maximal ideal times M_{n0}.  Both
    facts need homogeneous entries, which FreeComplex enforces.
    """
    if X.ring.kind != "Poly":
        return homology(X).nonzero_degrees()
    M = minimal_model(X)
    if M.is_zero():
        return []
    n0 = M.degrees()[0]
    return [(n0, min(M.gdeg(n0)))]


def is_quasi_iso(f: ChainMap) -> QuasiIsoVerdict:
    """Does f induce bijections on all homology?

    Decided as exactness of the mapping cone (see _exactness_failures);
    raises ShapeError when f is not a chain map.
    """
    failures = _exactness_failures(mapping_cone(f))
    return QuasiIsoVerdict(not failures, failures=failures)


def is_exact(X: FreeComplex) -> bool:
    """True when all homology vanishes; graded complexes need no bound."""
    return not _exactness_failures(X)


def inf_h(X: FreeComplex, bound: int | None = None):
    """Least degree with nonzero homology; None when acyclic (within bound)."""
    return homology(X, bound=bound).inf
