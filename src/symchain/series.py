"""Rank generating series, a power-series dichotomy checker, and
minimalization of complexes over local backends.

The rank series of a complex is the Laurent polynomial whose t^n
coefficient is the rank in degree n.  For every free complex the symmetric
square satisfies

    P_{S2(X)}(t) = (1/2) * [P_X(t)^2 + P_X(-t^2)]

and _square_ranks, the one expansion of the right side, computes it in
integers from the ranks alone.  verify_series_identity compares it with
the ranks of the built square, poinc_check reads twice its truncation
(with either sign of P(-t^2)), and s2fpd01 reads the ranks of the square
of the minimal complex from it, without building either.  Minimalization
splits off contractible two-term summands at unit differential entries in
one in-place pass over the rows of the differentials, held as integers
over QQ and ZLoc(p) (_split_units).  minimize, the one builder of minimal
complexes, runs it on X itself, with the projection q onto the minimal
complex; minimal_model is minimize(X)[0].  Every question that needs only
which generators survive (the ranks of the minimal complex: the theorem
checkers' shift conditions, lengths and infima, inf_h, exactness over
fields and graded rings, and homology over fields, where d = 0 on the
minimal complex) is answered by _survivors, which runs the same split
without q on X (x) k for the residue field k: on X over QQ and GF(p), on
its GF(p) reduction over ZLoc(p), on its QQ constant terms over a graded
ring, where no polynomial is multiplied.  For the same reason the graded
theorem checkers build on _degree_zero_part(X), the constant entries of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import le

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


def _square_ranks(ranks: dict, sign: int = 1) -> dict:
    """{n: c} for the nonzero coefficients c of (P(t)^2 + sign P(-t^2))/2,
    P the Laurent polynomial sum r_n t^n of ranks {n: r_n}.  With sign 1
    and the ranks of X these are the ranks of S2(X).  Both signs give
    integers: the t^n coefficient is the sum of r_p r_q over p < q with
    p + q = n, plus, when n = 2p, r_p (r_p + sign (-1)^p) / 2, and
    r (r +- 1) is even.  This is the one place the identity is expanded.
    """
    out, degrees = {}, sorted(ranks)
    for k, p in enumerate(degrees):
        r = ranks[p]
        out[2 * p] = out.get(2 * p, 0) + (r * r + (-sign if p % 2 else sign) * r) // 2
        for q in degrees[k + 1:]:
            out[p + q] = out.get(p + q, 0) + r * ranks[q]
    return {n: c for n, c in sorted(out.items()) if c}


def verify_series_identity(X: FreeComplex) -> bool:
    """Exact comparison of the ranks of S2(X) with (P^2 + P(-t^2))/2.

    The left side is read from the constructed symmetric square; the right
    side is _square_ranks, a computation from the ranks of X alone.
    """
    return sym2(X).complex.ranks == _square_ranks(X.ranks)


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
    r = r[: order + 1]
    square = _square_ranks(dict(enumerate(r)), 1 if sign == "+" else -1)
    combo = [2 * square.get(i, 0) for i in range(order + 1)]
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


# -- Hilbert series of monomial quotients -------------------------------------


def _minimal_monomials(gens) -> tuple:
    """The minimal generators among the exponent vectors gens, sorted."""
    kept = []
    for m in sorted(set(gens), key=sum):
        if not any(all(map(le, k, m)) for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _hilbert_numerator(gens, memo=None) -> tuple:
    """(c_0, c_1, ...): the numerator N(I) = sum_k c_k t^k of the Hilbert
    series HS(R/I) = N(I) / (1 - t)^v of R = QQ[x_1..x_v] modulo the
    monomial ideal I spanned by the exponent vectors gens.

    With I = I' + (m), multiplication by m gives the exact sequence
    0 -> R/(I' : m)(-deg m) -> R/I' -> R/I -> 0, so N(I) = N(I') -
    t^(deg m) N(I' : m) (Bayer and Stillman, J. Symbolic Comput. 14, 1992).
    Adding the minimal generators m_1, .., m_r of I one at a time from
    N(0) = 1 gives N(I) = 1 - sum_j t^(deg m_j) N((m_1, .., m_(j-1)) : m_j),
    and the colon ideals are spanned by the monomials m_k / gcd(m_k, m_j).
    Results are memoised in memo (a dict, fresh when None) on the minimal
    generators.
    """
    gens = _minimal_monomials(gens)
    memo = {} if memo is None else memo
    N = memo.get(gens)
    if N is None:
        N = [1]
        for j, m in enumerate(gens):
            colon = [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens[:j]]
            N = _sub_shifted(N, _hilbert_numerator(colon, memo), sum(m))
        memo[gens] = N = tuple(N)
    return N


def _sub_shifted(N, P, e: int) -> list:
    """The coefficients of N(t) - t^e P(t), trailing zeros dropped."""
    out = list(N) + [0] * max(0, e + len(P) - len(N))
    for k, c in enumerate(P, e):
        out[k] -= c
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


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


def _survivors(ring, ranks: dict, entries: dict) -> dict:
    """{n: generators of degree n that survive the unit split}: the ranks
    of the minimal complex, from the split of X (x) k without q.

    k = ring.residue_field, and entries go through ring.ops.residue unless
    the ring is a field.  The survivors are those of the split of X: a
    unit of a local ring is an entry whose residue is nonzero (always over
    ZLoc(p); over a graded ring on homogeneous entries, which the public
    constructors enforce and every Schur update keeps), and the residue
    map is a ring map, so the residue of each Schur update is the update
    of the residues.  Each step therefore sees the same units and takes
    the same pivot, in the same order.  Over a graded ring this is the QQ
    integer-row split of the constant terms: no polynomial is multiplied.
    """
    if not ring.is_field:
        entries = {n: {rc: r for rc, v in E.items() if (r := ring.ops.residue(v))} for n, E in entries.items()}
    return _split_units(ring.residue_field, ranks, entries)[0]


def _degree_zero_part(X: FreeComplex) -> FreeComplex:
    """X with the same ranks and generator degrees, each differential
    keeping only its entries of internal degree 0 (the constants); X
    itself off graded rings.

    The graded checkers run on it, and their reports are those of X:
    - every entry of a homogeneous differential has degree gdeg(col) -
      gdeg(row) >= 0, so the product of the degree-0 parts d0_n d0_{n+1}
      is the degree-0 part of d_n d_{n+1} = 0: d0 is a differential on the
      same generator degrees;
    - each builder the checkers call (sym2._square, complexes.
      _tensor_with_bases, sym2._walk, the _pick of sym2._alpha_summands and
      complexes._cone_entries) writes each entry as a sum of constants
      times entries of X, all of one internal degree, so each commutes
      with taking the degree-0 part;
    - _survivors reads only constant terms, and the graded witness (n0, d0)
      only generator degrees, so every condition and every witness is that
      of X.
    """
    if not X.graded:
        return X
    residue = X.ring.ops.residue
    diffs = {
        n: SparseMatrix._of(X.ring, D.rows, D.cols, {rc: v for rc, v in D.entries.items() if residue(v)})
        for n, D in X._diffs.items()
    }
    return FreeComplex._of(X.ring, X._ranks, diffs, X._gdegs)


def _minimal_ranks(X: FreeComplex) -> dict:
    """{n: rank M_n} over the degrees where the minimal complex M of X is
    nonzero, without building M (see _survivors); X is over a local ring."""
    alive = _survivors(X.ring, X.ranks, {n: D.entries for n, D in X._diffs.items()})
    return {n: len(a) for n, a in alive.items() if a}


def minimal_model(X: FreeComplex) -> FreeComplex:
    """The minimal complex of X: minimize(X)[0].

    X is exact exactly when this is zero: over a field, over ZLoc(p) by
    Nakayama, and over a graded ring, for homogeneous differentials, by
    graded Nakayama (Eisenbud, Commutative Algebra, GTM 150, sections 19-20).
    Its ranks alone are _minimal_ranks(X), which builds nothing.
    """
    return minimize(X)[0]


def minimize(X: FreeComplex):
    """Gaussian-eliminate unit pivots until minimal.

    Returns (M, q) with M minimal and q : X -> M the projection, a
    quasi-isomorphism (each pivot splits off a contractible summand).  M is
    X when nothing splits, else d / lam on the generators _split_units
    leaves.
    """
    _require_local(X)
    alive, d, lam, q = _split_units(X.ring, X.ranks, {n: D.entries for n, D in X._diffs.items()}, with_q=True)
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
    maps = {
        n: SparseMatrix._of(X.ring, len(pos[n]), X.rank(n), {
            (pos[n][r], c): v for r, row in q[n].items() for c, v in row.items()
        })
        for n in pos if pos[n]
    }
    return M, ChainMap._of(X, M, maps)
