"""Rank generating series, a power-series dichotomy checker, and
minimalization of complexes over local backends.

The rank series of a complex is the Laurent polynomial whose t^n
coefficient is the rank in degree n.  For every free complex the symmetric
square satisfies

    P_{S2(X)}(t) = (1/2) * [P_X(t)^2 + P_X(-t^2)]

which verify_series_identity checks exactly.  Minimalization splits off
contractible two-term summands at unit differential entries in one
in-place pass over the rows of the differentials, held as integers over
QQ and ZLoc(p); it is the workhorse behind the "quasi-isomorphic to a
shifted copy of R" decisions of the theorem checkers, the minimal lengths
s2fpd01 compares, and exactness on every local backend, which reads the
rows the pass leaves.  minimize also tracks the projection q onto the
minimal complex; minimal_model, which the checkers call, builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .complexes import ChainMap, FreeComplex
from .errors import SymchainError, UnsupportedRingError
from .linalg import SparseMatrix, _integer_row
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


def _add_scaled(target: dict, s, source: dict, ops) -> None:
    """target += s * source, on sparse {index: raw value} rows."""
    for c, v in source.items():
        t = ops.add(target[c], ops.mul(s, v)) if c in target else ops.mul(s, v)
        if t:
            target[c] = t
        else:
            target.pop(c, None)


def _split_units(ring, ranks: dict, entries: dict, with_q: bool = False):
    """Split off the contractible summand at every unit entry, in one pass.

    d_n = entries[n], {(row, col): raw value}, is held as {row: {col:
    value}}.  Degrees go ascending; while d_n has a unit, its least unit
    u = w[j], w = row i, is the pivot: row i, row j of d_{n+1} and column
    i of d_{n-1} go, and each row with v = row[j] != 0 gets row - v u^{-1} w.
    No lower degree gains a unit, so these are the pivots of splitting the
    first unit of the whole complex each time.  A min-heap holds the unit
    positions (stale ones are skipped), a column -> rows index the rows an
    update touches.  Over QQ and ZLoc(p) row r holds integers, lam[n][r]
    (a unit) times the exact row: scaled to integers by _integer_row,
    updated fraction-free as row <- (u/g) row - (v/g) w, g = gcd(u, v)
    (Bareiss, Math. Comp. 22, 1968), then divided by its unit content (the
    gcd over QQ, its part prime to p over ZLoc(p)).  Unit scalings keep
    each entry's unit status, so the pivots are those of the exact rows.
    GF(p) keeps residues, graded rings polynomials.  With q, q_{n-1} gets
    row_r += s row_i, s = -v lam_i / (u lam_r), and loses row i; q_n loses
    row j.  Returns (alive, d, lam or False off QQ and ZLoc, q or None),
    alive the generators left.
    """
    ops, is_unit, p = ring.ops, ring.ops.is_unit, ring.p
    integral = ring.fraction_values
    degrees = sorted(ranks)
    d = {n: {} for n in degrees}
    for n, E in entries.items():
        for (r, c), v in E.items():
            d[n].setdefault(r, {})[c] = v
    alive = {n: set(range(ranks[n])) for n in degrees}
    q = {n: {r: {r: ops.one} for r in alive[n]} for n in degrees} if with_q else None
    lam = {n: {} for n in degrees}
    for n in degrees:
        D, L, units, col_rows = d[n], lam[n], [], {}
        for r, row in D.items():
            if integral:
                L[r], row = _integer_row(row)
                D[r] = row
            for c, v in row.items():
                if is_unit(v):
                    units.append((r, c))
                col_rows.setdefault(c, set()).add(r)
        heapify(units)
        while units:
            i, j = heappop(units)
            w = D.get(i)
            if w is None or j not in w or not is_unit(w[j]):
                continue  # stale: the entry changed or left since it was pushed
            del D[i]
            for c in w:
                col_rows[c].discard(i)
            u = w.pop(j) if integral else ops.inverse(w.pop(j))
            for r in col_rows.pop(j):
                row = D[r]
                if integral:  # row <- a row + b w
                    g = gcd(u, row[j])
                    a, b = u // g, -row.pop(j) // g
                    if a != 1:
                        for c in row:
                            row[c] *= a
                else:
                    a, b = 1, ops.neg(ops.mul(row.pop(j), u))
                for c, v in w.items():
                    t = ops.add(row[c], ops.mul(b, v)) if c in row else ops.mul(b, v)
                    if t:
                        if c not in row:
                            col_rows[c].add(r)
                        row[c] = t
                        if is_unit(t):
                            heappush(units, (r, c))
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(r)
                if with_q:
                    _add_scaled(q[n - 1][r], Fraction(b * L[i], a * L[r]) if integral else b, q[n - 1][i], ops)
                if not row:
                    del D[r]
                elif integral:  # divide by the unit content h
                    h = gcd(*row.values())
                    while p and h % p == 0:
                        h //= p
                    if h != 1:
                        D[r] = {c: x // h for c, x in row.items()}
                    if h != 1 or a != 1:
                        L[r] = Fraction(L[r] * a, h)
            d.get(n + 1, {}).pop(j, None)
            alive[n - 1].discard(i)
            alive[n].discard(j)
            if with_q:
                del q[n - 1][i], q[n][j]
    return alive, d, integral and lam, q


def _minimal(X: FreeComplex, with_q: bool):
    """(M, q or None): M is X, or d / lam on the generators _split_units leaves."""
    alive, d, lam, q = _split_units(X.ring, X.ranks, {n: D.entries for n, D in X._diffs.items()}, with_q)
    pos = {n: {k: p for p, k in enumerate(sorted(alive[n]))} for n in alive}
    M = X
    if sum(map(len, alive.values())) < X.total_rank():
        diffs = {
            n: SparseMatrix._of(X.ring, len(pos[n - 1]), len(pos[n]), {
                (pos[n - 1][r], pos[n][c]): Fraction(v, lam[n][r]) if lam else v
                for r, row in d[n].items() for c, v in row.items() if c in pos[n]
            })
            for n in pos if n - 1 in pos
        }
        gdegs = {n: tuple(X.gdeg(n)[k] for k in pos[n]) for n in pos} if X.graded else None
        M = FreeComplex._of(X.ring, {n: len(pos[n]) for n in pos}, diffs, gdegs)
    if not with_q:
        return M, None
    maps = {
        n: SparseMatrix._of(X.ring, len(pos[n]), X.rank(n), {
            (pos[n][r], c): v for r, row in q[n].items() for c, v in row.items()
        })
        for n in pos if pos[n]
    }
    return M, ChainMap._of(X, M, maps)


def minimal_model(X: FreeComplex) -> FreeComplex:
    """The minimal complex of minimize(X), without building its projection.

    X is exact exactly when this is zero: over a field, over ZLoc(p) by
    Nakayama, and over a graded ring, for homogeneous differentials, by
    graded Nakayama (Eisenbud, Commutative Algebra, GTM 150, sections 19-20).
    """
    _require_local(X)
    return _minimal(X, with_q=False)[0]


def minimize(X: FreeComplex):
    """Gaussian-eliminate unit pivots until minimal.

    Returns (M, q) with M minimal and q : X -> M the projection, a
    quasi-isomorphism (each pivot splits off a contractible summand).
    """
    _require_local(X)
    return _minimal(X, with_q=True)

