"""Rank generating series, a power-series dichotomy checker, and
minimalization of complexes over local backends.

The rank series of a complex is the Laurent polynomial whose t^n
coefficient is the rank in degree n.  For every free complex the symmetric
square satisfies

    P_{S2(X)}(t) = (1/2) * [P_X(t)^2 + P_X(-t^2)]

which verify_series_identity checks exactly.  Minimalization repeatedly
splits off contractible two-term summands at unit differential entries; it
is the workhorse behind the "quasi-isomorphic to a shifted copy of R"
decisions of the theorem checkers and behind graded exactness.  minimize
also composes the projection onto the minimal complex; minimal_model,
which the checkers and exactness tests call, builds no projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import ChainMap, FreeComplex, compose, identity_map
from .errors import SymchainError, UnsupportedRingError
from .linalg import SparseMatrix
from .sym2 import sym2

__all__ = [
    "RankSeries",
    "rank_series",
    "verify_series_identity",
    "PoincReport",
    "poinc_check",
    "is_minimal",
    "minimal_model",
    "minimize",
    "PdReport",
    "pd_finite",
]


@dataclass(frozen=True)
class RankSeries:
    """Laurent polynomial with nonnegative integer coefficients."""

    coeffs: tuple  # sorted tuple of (exponent, coefficient), coefficient > 0

    @classmethod
    def from_dict(cls, data: dict) -> "RankSeries":
        items = []
        for e, c in sorted(data.items()):
            c = int(c)
            if c < 0:
                raise SymchainError("rank series coefficients are nonnegative")
            if c:
                items.append((int(e), c))
        return cls(tuple(items))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coefficient(self, e: int) -> int:
        return dict(self.coeffs).get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(str(c))
            else:
                t = "t" if e == 1 else f"t^{e}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts)


def rank_series(X: FreeComplex) -> RankSeries:
    return RankSeries.from_dict(X.ranks)


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def verify_series_identity(X: FreeComplex) -> bool:
    """Exact comparison of the rank series of S2(X) with (P^2 + P(-t^2))/2.

    The left side is read from the constructed symmetric square; the right
    side is a Laurent-polynomial computation from the ranks of X alone.
    """
    left = rank_series(sym2(X).complex).as_dict()
    P = {e: Fraction(c) for e, c in rank_series(X).as_dict().items()}
    square = _poly_mul(P, P)
    sub = {2 * e: (-c if e % 2 else c) for e, c in P.items()}
    right = {}
    for e in set(square) | set(sub):
        v = Fraction(square.get(e, 0) + sub.get(e, 0), 2)
        if v:
            right[e] = v
    return {e: Fraction(c) for e, c in left.items()} == right


@dataclass
class PoincReport:
    """Truncated-series dichotomy report for Q(t)^2 +/- Q(-t^2).

    tail_zero records whether r_i = 0 for 0 < i <= order, the conclusion
    forced whenever the combination is constant.  When the combination is
    constant to the requested order, `case` is one of "a".."d":
    "a" sign +, value nonzero (always); "b" sign -, value 0, forcing Q = 1;
    "c" sign +, value 2, forcing Q = 1; "d" sign -, value 2, forcing Q = 2.
    All verdicts are "consistent to the given order", never unconditional.
    """

    order: int
    sign: str
    constant: bool
    constant_value: int | None
    case: str | None
    forced_value_holds: bool | None
    tail_zero: bool


def poinc_check(coeffs, sign: str, order: int) -> PoincReport:
    if sign not in ("+", "-"):
        raise SymchainError("sign must be '+' or '-'")
    if order < 2:
        raise SymchainError("order must be at least 2")
    r = [int(c) for c in coeffs]
    if not r or r[0] <= 0:
        raise SymchainError("the constant coefficient must be positive")
    if any(c < 0 for c in r):
        raise SymchainError("coefficients must be nonnegative")
    r = r + [0] * (order + 1 - len(r))
    r = r[: order + 1]
    combo = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            combo[i + j] += r[i] * r[j]
    for i in range(order + 1):
        if 2 * i <= order:
            term = r[i] * (-1) ** i
            combo[2 * i] += term if sign == "+" else -term
    constant = all(c == 0 for c in combo[1:])
    value = combo[0] if constant else None
    case = None
    forced = None
    if constant:
        if sign == "+" and value != 0:
            case = "a"
            forced = True
        elif sign == "-" and value == 0:
            case = "b"
            forced = r[0] == 1 and all(c == 0 for c in r[1:])
        elif sign == "+" and value == 2:
            case = "c"
            forced = r[0] == 1 and all(c == 0 for c in r[1:])
        elif sign == "-" and value == 2:
            case = "d"
            forced = r[0] == 2 and all(c == 0 for c in r[1:])
    tail_zero = all(c == 0 for c in r[1:])
    return PoincReport(
        order=order,
        sign=sign,
        constant=constant,
        constant_value=value,
        case=case,
        forced_value_holds=forced,
        tail_zero=tail_zero,
    )


# -- minimality ---------------------------------------------------------------


def _require_local(X: FreeComplex):
    if not X.ring.is_local:
        raise UnsupportedRingError(
            f"minimality needs a local backend (field, ZLoc, or graded), not {X.ring}"
        )


def is_minimal(X: FreeComplex) -> bool:
    """No differential entry is a unit (entries lie in the maximal ideal)."""
    _require_local(X)
    is_unit = X.ring.ops.is_unit
    return not any(is_unit(v) for n in X.degrees() for v in X.diff(n).entries.values())


def _first_unit_pivot(X: FreeComplex):
    # scan degrees ascending, then rows, then columns: first unit entry wins
    is_unit = X.ring.ops.is_unit
    for n in X.degrees():
        M = X.diff(n)
        units = [key for key, v in M.entries.items() if is_unit(v)]
        if units:
            return (n, *min(units))
    return None


def _eliminate(X: FreeComplex, n: int, i: int, j: int) -> FreeComplex:
    """Split off the contractible summand at the unit entry (i, j) of d_n.

    The new degree-n module drops generator j, the new degree-(n-1) module
    drops generator i, and the differential at n picks up the
    Schur-complement correction.
    """
    ring = X.ring
    add, mul, neg = ring.ops.add, ring.ops.mul, ring.ops.neg
    M = X.diff(n)
    u_inv = ring.ops.inverse(M.entries[(i, j)])
    keep_cols = [c for c in range(X.rank(n)) if c != j]
    keep_rows = [r for r in range(X.rank(n - 1)) if r != i]
    col_pos = {c: k for k, c in enumerate(keep_cols)}
    row_pos = {r: k for k, r in enumerate(keep_rows)}
    # d'_n = D - v u^{-1} w on the kept generators
    entries = {}
    col_j = {r: v for (r, c), v in M.entries.items() if c == j}
    row_i = {c: v for (r, c), v in M.entries.items() if r == i}
    for (r, c), v in M.entries.items():
        if r == i or c == j:
            continue
        entries[(row_pos[r], col_pos[c])] = v
    for r, vr in col_j.items():
        if r == i:
            continue
        for c, wc in row_i.items():
            if c == j:
                continue
            key = (row_pos[r], col_pos[c])
            corr = neg(mul(mul(vr, u_inv), wc))
            prev = entries.get(key)
            entries[key] = corr if prev is None else add(prev, corr)
    new_dn = SparseMatrix._of(ring, len(keep_rows), len(keep_cols), entries)

    ranks = X.ranks
    ranks[n] -= 1
    ranks[n - 1] -= 1
    diffs = {}
    for m in X.degrees():
        if m == n:
            diffs[m] = new_dn
        elif m == n + 1:
            # drop row j of d_{n+1}; the killed row is forced by d.d = 0
            D = X.diff(m)
            diffs[m] = SparseMatrix._of(
                ring, len(keep_cols), D.cols,
                {(col_pos[r], c): v for (r, c), v in D.entries.items() if r != j},
            )
        elif m == n - 1:
            D = X.diff(m)
            diffs[m] = SparseMatrix._of(
                ring, D.rows, len(keep_rows),
                {(r, row_pos[c]): v for (r, c), v in D.entries.items() if c != i},
            )
        else:
            diffs[m] = X.diff(m)
    gdegs = None
    if X.graded:
        gdegs = {}
        for m in X.degrees():
            degs = X.gdeg(m)
            if m == n:
                gdegs[m] = tuple(d for c, d in enumerate(degs) if c != j)
            elif m == n - 1:
                gdegs[m] = tuple(d for c, d in enumerate(degs) if c != i)
            else:
                gdegs[m] = degs
    return FreeComplex(ring, ranks, diffs, gdegs)


def _projection(X: FreeComplex, smaller: FreeComplex, n: int, i: int, j: int) -> ChainMap:
    """The projection X -> smaller of the step _eliminate(X, n, i, j).

    Identity on the kept generators, except that X_{n-1} -> smaller_{n-1}
    sends generator i to -u^{-1} v, the column of d_n at j outside row i
    scaled by the inverse of the pivot u.
    """
    ring = X.ring
    one, mul, neg = ring.ops.one, ring.ops.mul, ring.ops.neg
    M = X.diff(n)
    u_inv = ring.ops.inverse(M.entries[(i, j)])
    keep_cols = [c for c in range(X.rank(n)) if c != j]
    keep_rows = [r for r in range(X.rank(n - 1)) if r != i]
    row_pos = {r: k for k, r in enumerate(keep_rows)}
    proj_maps = {}
    for m in smaller.degrees():
        if m == n:
            proj_maps[m] = SparseMatrix._of(
                ring, len(keep_cols), X.rank(n),
                {(k, c): one for k, c in enumerate(keep_cols)},
            )
        elif m == n - 1:
            entries = {(k, r): one for k, r in enumerate(keep_rows)}
            for (r, c), v in M.entries.items():
                if c == j and r != i:
                    entries[(row_pos[r], i)] = neg(mul(u_inv, v))
            proj_maps[m] = SparseMatrix._of(ring, len(keep_rows), X.rank(n - 1), entries)
        else:
            proj_maps[m] = SparseMatrix.identity(ring, X.rank(m))
    return ChainMap(X, smaller, proj_maps)


def minimal_model(X: FreeComplex) -> FreeComplex:
    """The minimal complex of minimize(X), without building its projection.

    X is exact exactly when this is zero: over a field, over ZLoc(p) by
    Nakayama, and over a graded ring, for homogeneous differentials, by
    graded Nakayama (Eisenbud, Commutative Algebra, GTM 150, sections 19-20).
    """
    _require_local(X)
    while (pivot := _first_unit_pivot(X)) is not None:
        X = _eliminate(X, *pivot)
    return X


def minimize(X: FreeComplex):
    """Gaussian-eliminate unit pivots until minimal.

    Returns (M, q) with M minimal and q : X -> M the composite projection,
    a quasi-isomorphism (each step splits off a contractible summand).
    """
    _require_local(X)
    current = X
    q = identity_map(X)
    while (pivot := _first_unit_pivot(current)) is not None:
        smaller = _eliminate(current, *pivot)
        q = compose(_projection(current, smaller, *pivot), q)
        current = smaller
    return current, q


@dataclass
class PdReport:
    """Minimal lengths of X and S2(X), plus the rank inequality check.

    Both lengths are finite for finitely supported complexes, so
    finite_pd is always True; the inequality
    rank(S2(P)_{p+q}) >= r_p * r_q for p < q over the minimal complex P is
    the mechanism that forces the lengths to diverge together.
    """

    finite_pd: bool
    x_length: int | None
    sym2_length: int | None
    rank_inequality_holds: bool


def pd_finite(X: FreeComplex) -> PdReport:
    _require_local(X)
    M = minimal_model(X)
    SM = minimal_model(sym2(X).complex)
    S_of_minimal = sym2(M).complex
    ok = True
    degrees = M.degrees()
    for a in range(len(degrees)):
        for b in range(a + 1, len(degrees)):
            p, q = degrees[a], degrees[b]
            if S_of_minimal.rank(p + q) < M.rank(p) * M.rank(q):
                ok = False
    return PdReport(
        finite_pd=True,
        x_length=M.length(),
        sym2_length=SM.length(),
        rank_inequality_holds=ok,
    )
