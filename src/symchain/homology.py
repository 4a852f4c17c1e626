"""Exact homology of free and presented complexes, per coefficient backend.

Over ZZ and ZLoc(p) homology groups are reported as invariant factors,
the Smith diagonal computed modulo a determinant without transforms, by
one helper (_groups) on the differentials of the complex; over
QQ and GF(p) as dimensions, the ranks of the minimal complex (d = 0 there)
from series._minimal_ranks; over graded polynomial rings as Hilbert tables
(the dimension over QQ of each internal degree) up to a degree bound,
which every such report carries.  The tables are read off the exact
Hilbert series of the cokernel of each differential: the initial module
of its columns (linalg._initial_module, Buchberger over QQ) and the
Hilbert numerator of each monomial quotient (series._hilbert_numerator),
expanded up to the bound (see _graded_tables); no degree slice is
written or ranked.  A bound on a complex that is not graded is refused.
Presented homology
is read off ranks over a field, and over ZZ and ZLoc(p) is the homology
of a free complex, a twisted cone of the relations: no lattice bases, no
transforms.

Exactness and quasi-isomorphism (exactness of the mapping cone) are exact
verdicts on every backend.  Over every local backend (QQ, GF(p), ZLoc(p)
and graded rings) a bounded complex of finite free modules is exact
exactly when its minimal model is zero (Nakayama; graded Nakayama for
homogeneous differentials), so the verdict runs a unit split, needs no
degree bound, and builds no minimal complex and, for a chain map, no cone
(see _exactness_failures).  Over QQ, GF(p) and graded rings that is
series._survivors, the split of X (x) k over the residue field k (over a
graded ring, the QQ split of the constant terms), and the witnesses are
read off the generators it leaves.  Over ZLoc(p) it is series._split_units
on X itself, whose rows the witnesses need.  inf_h is the lowest degree of
the minimal model, from series._minimal_ranks, with no bound; the Hilbert
tables of homology() are the only bounded answer.  Over ZZ, which is not
local, the verdicts read the groups of _groups: off the complex's own
differentials, or for a chain map off the cone's entries that
_cone_entries writes, wrapped as matrices, so no verdict builds a
mapping cone or a HomologyReport.  inf_h reads homology() there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .complexes import ChainMap, FreeComplex, _cone_entries
from .errors import GradingError, SymchainError, UnsupportedRingError
from .linalg import (
    SparseMatrix,
    _initial_module,
    _markowitz_rank,
    invariant_factors,
    rank,
    solve_exact,
)
from .series import _hilbert_numerator, _minimal_ranks, _split_units, _survivors
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
    """Exact homology per backend.

    Over ZZ and ZLoc(p) the groups come from the invariant factors of the
    differentials (_groups).  Over a field dim H_n(X) is the rank of M_n
    for the minimal complex M of X, as d = 0 on M: series._minimal_ranks,
    with no differential ranked and no M built.  A graded complex gets
    Hilbert tables up to the bound (default_bound when None; one below the
    lowest generator degree raises GradingError), expanded from the exact
    Hilbert series of the cokernel of each differential (_graded_tables):
    the bound only says how far the series is written out.  A bound on a
    complex that is not graded raises GradingError, as nothing there is
    bounded.
    """
    ring = X.ring
    if not X.graded:
        _refuse_bound(ring, bound)
    if ring.proper_subring_of_qq:
        return HomologyReport("invariant_factors", ring, _groups(X.ranks, X._diffs))
    if ring.is_field:
        return HomologyReport("dimensions", ring, _minimal_ranks(X))
    if X.graded:
        check_bound(X, bound)
        D = default_bound(X) if bound is None else bound
        values = _graded_tables(X, *X.support, D) if X.support else {}
        return HomologyReport("hilbert", ring, values, bound=D)
    raise UnsupportedRingError(f"homology unsupported over {ring}")


def _refuse_bound(ring, bound: int | None) -> None:
    """Raise GradingError for a degree bound off graded complexes, whose
    homology is exact and unbounded."""
    if bound is not None:
        raise GradingError(
            f"a degree bound applies only to graded complexes; homology over {ring} "
            "needs no degree bound"
        )


def _groups(ranks: dict, diffs: dict) -> dict:
    """{n: H_n} over ZZ or ZLoc(p), nonzero groups only, ascending in n, for
    the complex with the given positive ranks and differentials {n: d_n}
    (absent degrees are zero maps): H_n has rank ranks[n] - rank d_n -
    rank d_{n+1} and the invariant factors of d_{n+1} above 1 as torsion."""
    diag = {n: invariant_factors(D) for n, D in diffs.items() if D.entries}
    groups = {}
    for n in sorted(ranks):
        incoming = diag.get(n + 1, [])
        g = FpAbelianGroup(ranks[n] - len(diag.get(n, [])) - len(incoming),
                           tuple(d for d in incoming if d > 1))
        if not g.is_zero():
            groups[n] = g
    return groups


def _graded_tables(X: FreeComplex, lo: int, hi: int, D: int) -> dict:
    """{n: {d: dim H_n(X)_d}} for lo <= n <= hi and X.min_gdeg() <= d <= D,
    nonzero only, read off the exact Hilbert series of each cokernel.

    For d_n : X_n -> X_(n-1), dim H_n = dim X_n - rank d_n - rank d_(n+1)
    and rank d_n = dim X_(n-1) - dim coker d_n in each internal degree, so
    HS(H_n) = HS(coker d_(n+1)) - HS(X_(n-1)) + HS(coker d_n).  coker d_n
    has the Hilbert function of F / in(N), for F = (+)_i R(-g_i) the
    target of d_n and N its column module, and in(N) = (+)_i I_i e_i
    (linalg._initial_module, once per differential), so its series is
    sum_i t^(g_i) N(I_i) / (1 - t)^v (series._hilbert_numerator, memoised
    across the table).  The t^d coefficient of Q(t) / (1 - t)^v is
    sum_k Q_k C(d - k + v - 1, v - 1) over k <= d.
    """
    v = len(X.ring.variables)
    memo = {}
    coker = {}
    for n in range(lo, hi + 2):
        P = coker[n] = {}
        tgt = X.gdeg(n - 1)
        for g, gens in zip(tgt, _initial_module(X.diff(n), tgt)):
            for k, c in enumerate(_hilbert_numerator(gens, memo), g):
                P[k] = P.get(k, 0) + c
    tables = {}
    for n in range(lo, hi + 1):
        Q = dict(coker[n + 1])
        for k, c in coker[n].items():
            Q[k] = Q.get(k, 0) + c
        for g in X.gdeg(n - 1):
            Q[g] = Q.get(g, 0) - 1
        Q = [(k, c) for k, c in sorted(Q.items()) if c]
        for d in range(X.min_gdeg(), D + 1):
            if h := sum(c * comb(d - k + v - 1, v - 1) for k, c in Q if k <= d):
                tables.setdefault(n, {})[d] = h
    return tables


def homology_presented(P: PresentedComplex | FreeComplex, bound: int | None = None) -> HomologyReport:
    """Homology of a complex of finitely presented modules.

    A free complex, which weak_sym2 returns when 2 is a unit, goes to
    homology() with the bound; a presented complex is never graded and
    takes no bound.  Over ZZ and ZLoc(p) P goes to its twisted cone.  Over a
    field Q_n = F_n / im r_n, for the free cover F_n and relations r_n, has
    dim H_n = rank F_n - rank r_n - rank dbar_n - rank dbar_{n+1}, where
    rank dbar_n = rank [d_n | r_{n-1}] - rank r_{n-1}: ranks alone, so zero
    relation columns (2 = 0 in GF(2)) do no harm.  Graded rings are refused.
    """
    if isinstance(P, FreeComplex):
        return homology(P, bound)
    _refuse_bound(P.ring, bound)
    if P.ring.is_field:
        rel = {n: rank(P.relation(n)) for n in P.degrees()}
        dbar = {n: rank(P.diff(n).hstack(P.relation(n - 1))) - rel.get(n - 1, 0) for n in [*rel, *(n + 1 for n in rel)]}
        return HomologyReport("dimensions", P.ring, {
            n: h for n in rel if (h := P.rank_free_cover(n) - rel[n] - dbar[n] - dbar[n + 1])})
    if P.ring.proper_subring_of_qq:
        return homology(_presented_cone(P))
    raise UnsupportedRingError("presented homology is implemented over ZZ, ZLoc(p) and fields")


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
        return FreeComplex._of(P.ring, {}, {})
    lo, hi = P.support
    ranks, diffs = {}, {}
    for n in range(lo, hi + 2):
        ranks[n] = P.relation(n - 1).cols + P.rank_free_cover(n)
        bottom = P.relation(n - 1).hstack(P.diff(n))  # (g, f) -> r g + d f
        # (g, f) -> -d^G g + h f, solved in one go: r_{n-2} top = -d_{n-1} bottom
        top = solve_exact(P.relation(n - 2), -(P.diff(n - 1) @ bottom))
        diffs[n] = top.vstack(bottom)
    return FreeComplex._of(P.ring, ranks, diffs)


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


def _failures(ring, ranks: dict, entries: dict, gdeg) -> list:
    """_exactness_failures' witnesses for the complex with the given ranks
    and entries of its differentials (X's or a cone's): over ZZ the degrees
    of its nonzero groups (_groups, on the entries wrapped as matrices),
    over ZLoc(p) read off the rows _split_units leaves, over a field or a
    graded ring off the generators _survivors leaves."""
    if not ring.is_local:
        return list(_groups(ranks, {n: SparseMatrix._of(ring, ranks.get(n - 1, 0), ranks[n], E)
                                    for n, E in entries.items()}))
    if ring.is_dvr:
        alive, d, _, _ = _split_units(ring, ranks, entries)
        return [n for n in sorted(alive) if alive[n] and _markowitz_rank(
            [{c: v for c, v in row.items() if c in alive[n]} for row in d[n].values()])[0] < len(alive[n])]
    if not (ring.is_field or gdeg):
        raise UnsupportedRingError(f"no exactness rule over {ring}")
    alive = _survivors(ring, ranks, entries)
    live = [n for n in sorted(alive) if alive[n]]
    if gdeg:
        return live and [(live[0], min(gdeg(live[0])[k] for k in alive[live[0]]))]
    return live


def _exactness_failures(X: FreeComplex) -> list:
    """Witnesses that X is not exact; empty exactly when X is exact.

    Over a local backend (QQ, GF(p), ZLoc(p), graded): X is exact exactly
    when its minimal model M is zero (Nakayama; graded Nakayama needs the
    homogeneous entries that the FreeComplex constructor checks and every
    library builder keeps).  X is M plus a contractible summand, so
    H(X) = H(M), and the witnesses are every degree where H(M) is nonzero:
    M is never built.  Over a field d = 0 on M, so every degree with a
    generator that series._survivors leaves is one.  Over the discrete
    valuation ring ZLoc(p) the split is series._split_units on X itself,
    and degree n is one when the live rows it leaves of d_n, on the live
    columns, have rank below rank M_n: the image of d_{n+1} lies in
    p ker d_n, as ker d_n is a direct summand of M_n, so H_n(M) != 0
    exactly when ker d_n != 0 (Nakayama; Eisenbud, GTM 150, Cor. 4.8).  No
    Smith loop runs.  Over a graded ring, with no degree bound, the witness
    is [(n0, d0)], read off series._survivors, the QQ split of the constant
    terms, which multiplies no polynomial: n0 the lowest degree where M is
    nonzero and d0 the lowest generator degree of M_{n0}; H_{n0}(X)_{d0}
    != 0, since the image of the next differential lies in the maximal
    ideal times M_{n0}.  Over ZZ, which is not local: every degree where
    the groups that _groups reads off the differentials of X are nonzero,
    with no HomologyReport built.
    """
    entries = {n: D.entries for n, D in X._diffs.items()}
    return _failures(X.ring, X.ranks, entries, X.graded and X.gdeg)


def is_quasi_iso(f: ChainMap) -> QuasiIsoVerdict:
    """Does f induce bijections on all homology?

    Decided as exactness of the mapping cone (see _exactness_failures); the
    failures are the cone degrees with nonzero homology, or one (n0, d0)
    over a graded ring.  No cone is built on any backend: the blocks of f
    and of the stored differentials go straight into the verdict as the
    entries of cone(f)_n = X_{n-1} (+) Y_n (_cone_entries), with d^X in
    place of -d^X.  That is a unit scaling of rows, which keeps every
    pivot, every rank and every invariant factor, and so every witness:
    over ZZ the degrees of the cone's nonzero groups (_groups), on a local
    backend the unit split.
    """
    X, Y = f.source, f.target
    gdeg = X.graded and (lambda n: X.gdeg(n - 1) + Y.gdeg(n))
    failures = _failures(X.ring, *_cone_entries(f), gdeg)
    return QuasiIsoVerdict(not failures, failures=failures)


def is_exact(X: FreeComplex) -> bool:
    """True when all homology vanishes; graded complexes need no bound."""
    return not _exactness_failures(X)


def inf_h(X: FreeComplex):
    """Least degree with nonzero homology; None when X is exact.

    Exact on every backend, with no bound.  Over a local ring it is the
    lowest degree of the minimal model M (_minimal_ranks): there d = 0 on
    M and the image of the next differential lies in the maximal ideal
    times M, so H is nonzero by Nakayama (graded Nakayama over a graded
    ring).  Over ZZ it is homology(X).inf.
    """
    return min(_minimal_ranks(X), default=None) if X.ring.is_local else homology(X).inf
