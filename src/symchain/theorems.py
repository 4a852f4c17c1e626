"""Independent checkers for the paper's theorems, plus a replayable corpus
of worked examples with frozen expected values.

Each of the five checkers evaluates every condition of its theorem by a
separate computation (no condition is derived from another) and returns
a VerdictReport from one builder, _verdict.  The equivalence theorems
symm07, symm07pp and s2fpd02 report whether their condition vector is
constant; the implications s2fpd01 and symm09 hold when every condition
does.  Every condition is exact on every backend, and no checker takes a
degree bound.  A condition on a minimal complex that reads only its ranks
takes them from series._minimal_ranks, which builds no complex; symm09,
which needs q, builds the minimal model by minimize.  symm07, symm07pp
and s2fpd02, which need 2 to be a unit, build T, alpha, S2, the summands
of alpha and every cone on series._minimal_part(X), the minimal complex M
of X built without q, on every local backend: X = M (+) C with C
contractible, and once 2 is a unit every cross term and S2(C) is
contractible, so no report changes.  s2fpd01 does not need 2 to be a
unit, and builds on series._degree_zero_part(X), the constant entries of
a graded X (X itself elsewhere), whose minimal ranks and those of its
square are those of X.  It reads the lengths of two minimal models and a
rank inequality whose ranks of S2(M) come from the rank identity
(series._square_ranks), with no square of M built.
symm09 reads both infima from minimal models, and checks the
lowest module of the square through the natural map S2(q) to the square
of the minimal model, whose lowest differential it compares entry for
entry with a presentation of S2 or Lambda2 of the lowest homology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .complexes import (
    ChainMap,
    FreeComplex,
    direct_sum,
    koszul,
    shift,
    tensor,
    unit_complex,
    zero_map,
)
from .errors import SymchainError, TwoNotUnitError, UnsupportedRingError
from .homology import _exactness_failures, homology, homology_presented, is_quasi_iso
from .io import _matrix_to_rows
from .linalg import SparseMatrix
from .scalars import QQ, Ring, ZZ, graded_poly
from .series import (
    _degree_zero_part,
    _minimal_part,
    _minimal_ranks,
    _require_local,
    _square_ranks,
    minimize,
    rank_series,
    verify_series_identity,
)
from .sym2 import Sym2Result, _alpha_summands, _square_map, _sym2_map
from .sym2 import alpha, sym2, sym2_map, weak_sym2

__all__ = [
    "VerdictReport",
    "check_symm07",
    "check_symm07pp",
    "check_s2fpd01",
    "check_s2fpd02",
    "check_symm09",
    "CorpusReport",
    "run_paper_corpus",
]


@dataclass
class VerdictReport:
    """Condition vector of one theorem checker on one complex.  Every
    condition is an exact verdict: no report carries a degree bound."""

    theorem: str
    labels: tuple
    conditions: tuple
    equivalent: bool | None  # all conditions agree (equivalence theorems only)
    holds: bool | None
    witnesses: dict = field(default_factory=dict)
    backend: str = ""
    note: str | None = None

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "conditions": dict(zip(self.labels, self.conditions)),
            "equivalent": self.equivalent,
            "holds": self.holds,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "backend": self.backend,
            "note": self.note,
        }


def _require_local_two_unit(ring: Ring):
    if not ring.is_local:
        raise UnsupportedRingError(f"{ring} is not a local backend")
    if not ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {ring}")


def _is_zero_or_single_shift(ranks: dict, parity: int | None):
    """Is the minimal complex, given by its ranks {n: rank M_n > 0}, zero,
    or a single rank-1 module in a degree of the given parity (None for any
    parity)?  Returns (bool, degree|None)."""
    if not ranks:
        return True, None
    if list(ranks.values()) != [1]:
        return False, None
    [n] = ranks
    if parity is not None and n % 2 != parity:
        return False, None
    return True, n


def _is_two_odd_shifts(ranks: dict) -> bool:
    """Total rank 2, all in odd degrees: as odd degrees are never adjacent,
    no differential of the minimal complex can be nonzero."""
    return sum(ranks.values()) == 2 and all(n % 2 for n in ranks)


def _verdict(theorem, X, conditions, witnesses=None, *, equivalence=True, note=None):
    """The report of a theorem from its conditions, label -> value in order.

    A value is a bool or a failure list, which holds when empty and gives
    its first three entries as the witnesses of its label, after the given
    witnesses.  An equivalence holds or fails when all its conditions
    agree, and is undecided otherwise; an implication (equivalence=False)
    holds when every condition does.
    """
    witnesses = dict(witnesses or {})
    values = []
    for label, value in conditions.items():
        if isinstance(value, list):
            if value:
                witnesses[label] = value[:3]
            value = not value
        values.append(value)
    if equivalence:
        equivalent = len(set(values)) == 1
        holds = values[0] if equivalent else None
    else:
        equivalent, holds = None, all(values)
    return VerdictReport(
        theorem=theorem,
        labels=tuple(conditions),
        conditions=tuple(values),
        equivalent=equivalent,
        holds=holds,
        witnesses=witnesses,
        backend=str(X.ring),
        note=note,
    )


def check_symm07(X: FreeComplex) -> VerdictReport:
    """Four equivalent statements characterizing even single-shift complexes.

    (i) the projection of the tensor square onto the symmetric square is a
    quasi-isomorphism; (ii) the image of the alternation is exact;
    (iii) the kernel inclusion into the tensor square is a quasi-isomorphism;
    (iv) the minimal complex is zero or a single rank-1 module in even degree.
    It builds on the minimal complex of X, which gives the same report
    (series._minimal_part).
    """
    _require_local_two_unit(X.ring)
    X = _minimal_part(X)
    S = sym2(X)
    image, kernel, _q = _alpha_summands(S)
    return _verdict(
        "symm07",
        X,
        {
            "i": is_quasi_iso(S.proj).failures,
            "ii": _exactness_failures(image.complex),
            "iii": is_quasi_iso(kernel.inclusion).failures,
            "iv": _is_zero_or_single_shift(_minimal_ranks(X), parity=0)[0],
        },
    )


def check_symm07pp(X: FreeComplex) -> VerdictReport:
    """Six equivalent statements characterizing odd single-shift complexes.

    (i) the alternation is a quasi-isomorphism; (ii) its corestriction onto
    its image is one; (iii) the image inclusion is one; (iv) the symmetric
    square is exact; (v) the kernel of the alternation is exact; (vi) the
    minimal complex is zero or a single rank-1 module in odd degree.
    It builds on the minimal complex of X, which gives the same report
    (series._minimal_part).
    """
    _require_local_two_unit(X.ring)
    X = _minimal_part(X)
    S = sym2(X)
    image, kernel, q = _alpha_summands(S)
    return _verdict(
        "symm07pp",
        X,
        {
            "i": is_quasi_iso(S.alpha).failures,
            "ii": is_quasi_iso(q).failures,
            "iii": is_quasi_iso(image.inclusion).failures,
            "iv": _exactness_failures(S.complex),
            "v": _exactness_failures(kernel.complex),
            "vi": _is_zero_or_single_shift(_minimal_ranks(X), parity=1)[0],
        },
    )


def check_s2fpd02(X: FreeComplex) -> VerdictReport:
    """Three equivalent statements: the symmetric square is a single shift.

    (i) the minimal complex of X is a single even shift of R, or a sum of
    two odd shifts; (ii) the minimal complex of S2(X) is a single rank-1
    module in even degree; (iii) same with the parity unconstrained.
    Reports the shift degree j when the conditions hold.  It squares the
    minimal complex of X, which gives the same report
    (series._minimal_part).
    """
    _require_local_two_unit(X.ring)
    X = _minimal_part(X)
    M = _minimal_ranks(X)
    SM = _minimal_ranks(sym2(X).complex)
    even_shift = _is_zero_or_single_shift(M, parity=0)[0]
    any_shift, j = _is_zero_or_single_shift(SM, parity=None)
    cond3 = any_shift and bool(SM)
    return _verdict(
        "s2fpd02",
        X,
        {
            "i": (even_shift and bool(M)) or _is_two_odd_shifts(M),
            "ii": _is_zero_or_single_shift(SM, parity=0)[0] and bool(SM),
            "iii": cond3,
        },
        {"j": j} if cond3 else None,
    )


def check_s2fpd01(X: FreeComplex) -> VerdictReport:
    """pd X is finite exactly when pd S2(X) is: the rank inequality.

    Every complex held here is bounded, so both minimal models have finite
    length; the mechanism that forces the lengths to diverge together is
    rank S2(M)_{p+q} >= r_p * r_q for p < q over the minimal complex M of
    X.  The witnesses are the lengths of M and of the minimal model of
    S2(X).  It needs a local ring, but not that 2 is a unit.

    Everything is read off ranks, and neither M nor S2(M) is built: the
    ranks r of M and of the minimal model of S2(X) are _minimal_ranks,
    and those of S2(M) are _square_ranks(r), the rank identity.  S2(M)_{p+q}
    contains M_p (x) M_q by construction, so the inequality holds on every
    bounded complex: the report always holds, `check s2fpd01` exits only 0
    or 2, and what it shows is the two lengths.  Over a graded ring it
    squares the degree-zero part of X, whose minimal ranks, and those of
    its square, are those of X (series._degree_zero_part).  Not the
    minimal complex: where 2 is not a unit S2 of a contractible complex
    need not be contractible, and for X = R (+) Sigma(R --1--> R) over GF(2)
    or ZLoc(2) the minimal model of S2(X) has length 4, that of S2(R) 0.
    """
    _require_local(X)
    X = _degree_zero_part(X)
    M = _minimal_ranks(X)
    S = _square_ranks(M)
    SM = _minimal_ranks(sym2(X).complex)
    return _verdict(
        "s2fpd01",
        X,
        {"rank_inequality": all(S.get(p + q, 0) >= M[p] * M[q] for p, q in combinations(M, 2))},
        {
            "minimal_length": max(M) - min(M) if M else None,
            "square_minimal_length": max(SM) - min(SM) if SM else None,
        },
        equivalence=False,
    )


# -- lowest homology of the symmetric square ---------------------------------------


def _square_pairs(r: int, even: bool) -> list:
    """The (k, l) of the f_k f_l in S2(R^r), k <= l, or of the f_k ^ f_l
    in Lambda2(R^r), k < l, in lexicographic order."""
    return [(k, l) for k in range(r) for l in range(k if even else k + 1, r)]


def _square_presentation(M: FreeComplex, i: int, even: bool) -> FreeComplex:
    """A two-term complex whose H_0 is S2 (even) or Lambda2 (odd) of the
    cokernel of d = d_{i+1} : G = M_{i+1} -> F = M_i.

    S2(coker d) is S2(F) modulo the products d(e).f, and Lambda2(coker d)
    is Lambda2(F) modulo the d(e)^f, for generators e of G and f of F
    (Eisenbud, Commutative Algebra, GTM 150, Appendix A2).  Degree 1 is
    G (x) F, generator (e, f) at e * rank F + f; degree 0 is S2(F) on the
    f_k f_l with k <= l, or Lambda2(F) on the f_k ^ f_l with k < l
    (_square_pairs), where f_l ^ f_k = -f_k ^ f_l and f_k ^ f_k = 0.  It is
    written from the entries of d, not through sym2, which it checks.
    """
    ring = M.ring
    r0, r1 = M.rank(i), M.rank(i + 1)
    pairs = _square_pairs(r0, even)
    row = {kl: r for r, kl in enumerate(pairs)}
    neg = ring.ops.neg
    entries = {}
    # d(e) f = sum_k d[k, e] f_k f
    for (k, e), v in M.diff(i + 1).entries.items():
        for f in range(r0):
            if k == f and not even:
                continue
            w = neg(v) if k > f and not even else v
            entries[(row[(min(k, f), max(k, f))], e * r0 + f)] = w
    gdegs = None
    if M.graded:
        g0, g1 = M.gdeg(i), M.gdeg(i + 1)
        gdegs = {
            0: tuple(g0[k] + g0[l] for k, l in pairs),
            1: tuple(g1[e] + g0[f] for e in range(r1) for f in range(r0)),
        }
    d = SparseMatrix._of(ring, len(pairs), r1 * r0, entries)
    return FreeComplex._of(ring, {0: len(pairs), 1: r1 * r0}, {1: d}, gdegs)


def _lowest_mismatch(M: FreeComplex, i: int, even: bool, SM: Sym2Result, P: SparseMatrix):
    """Where d_{2i+1} of SM = sym2(M) differs from P, the matrix of
    _square_presentation(M, i, even): None when they are equal, else
    ("entry", row label, column label, entry of P, entry of SM), or
    ("generators", SM's labels in degrees 2i and 2i+1) if those are not
    the ((i,k),(i,l)) of P's rows (k,l) and the ((i,f),(i+1,e)) of P's
    columns e * rank M_i + f.
    """
    r0, r1 = M.rank(i), M.rank(i + 1)
    rows = [((i, k), (i, l)) for k, l in _square_pairs(r0, even)]
    cols = [((i, f), (i + 1, e)) for f in range(r0) for e in range(r1)]
    labels = SM.labels.get(2 * i, []), SM.labels.get(2 * i + 1, [])
    if labels != (rows, cols):
        return ("generators", *labels)
    D = SM.complex.diff(2 * i + 1)
    # P's column e * r0 + f is cols[f * r1 + e]
    moved = {(r, c % r0 * r1 + c // r0): v for (r, c), v in P.entries.items()}
    W = SparseMatrix._of(D.ring, D.rows, D.cols, moved)
    if W == D:
        return None
    r, c = min(k for k in moved.keys() | D.entries.keys() if moved.get(k) != D.entries.get(k))
    return ("entry", rows[r], cols[c], W.entry(r, c), D.entry(r, c))


def check_symm09(X: FreeComplex) -> VerdictReport:
    """Lower bound and lowest-degree formula for homology of the square.

    Checks inf H(S2 X) >= 2i for i = inf H(X); equality when i is even; and
    that H_2i(S2 X) is S2(H_i X) (even i) or Lambda2(H_i X) (odd i).  Over a
    local ring minimize(X) gives the minimal model M, which starts in
    degree i (Nakayama), and a homotopy equivalence q : X -> M.  Both
    infima are read off minimal models: that of S2 X is the lowest degree
    of _minimal_ranks, and no minimal complex of S2 X is built.

    The lowest module is checked exactly, with no degree bound.  As 2 is a
    unit, S2(q) is a homotopy equivalence too (induced_homotopy); the
    exact verdict that it is a quasi-isomorphism gives H(S2 X) = H(S2 M).
    S2 M starts in degree 2i, so H_2i(S2 M) is the cokernel of its
    d_{2i+1} : M_i (x) M_{i+1} -> S2(M_i), or Lambda2(M_i) for odd i.  That
    matrix must equal, entry for entry (_lowest_mismatch), the presentation
    of S2 or Lambda2 of H_i X = coker d_{i+1} (_square_presentation), whose
    rows carry the same internal degrees: equal presentations give
    isomorphic modules, not only equal Hilbert functions.

    No column needs a sign.  d(f (x) e) = (-1)^i sum_k d[k,e] f (x) f_k for
    f in M_i and e in M_{i+1}, as d f = 0; rho sends f (x) f_k to f f_k when
    f <= k, to (-1)^{i*i} f_k f when f > k, and kills f (x) f for odd i.
    Even i: every sign is +1, giving the products d(e).f.  Odd i: the entry
    at f ^ f_k (f < k) is -d[k,e] and at f_k ^ f (k < f) it is
    (-1)(-1) d[k,e], the terms of d(e) ^ f with f_k ^ f = -f ^ f_k.

    A failure is the witness "lowest": S2(q)'s failures, or the first
    entry that differs, with its labels.
    """
    _require_local_two_unit(X.ring)
    M, q = minimize(X)
    if M.is_zero():
        return _verdict(
            "symm09", X, {}, equivalence=False, note="input complex is exact; nothing to check"
        )
    i = M.degrees()[0]
    even = i % 2 == 0
    SX = sym2(X)
    SM = SX if M is X else sym2(M)
    s_inf = min(_minimal_ranks(SX.complex), default=None)
    witnesses = {}
    failures = is_quasi_iso(_sym2_map(_square_map(q, SX, SM), SX, SM)).failures
    if failures:
        witnesses["lowest"] = ("S2(q) is not a quasi-isomorphism", failures[:3])
    elif mismatch := _lowest_mismatch(M, i, even, SM, _square_presentation(M, i, even).diff(1)):
        witnesses["lowest"] = mismatch

    conditions = {"inf_lower_bound": s_inf is None or s_inf >= 2 * i}
    if not conditions["inf_lower_bound"]:
        witnesses["inf"] = (i, s_inf)
    if even:
        conditions["inf_equality_even"] = s_inf == 2 * i
        if s_inf != 2 * i:
            witnesses["inf_equality"] = (i, s_inf)
    conditions["lowest_module_matches"] = "lowest" not in witnesses
    return _verdict("symm09", X, conditions, witnesses, equivalence=False)


# -- worked-example corpus -----------------------------------------------------------


@dataclass
class CorpusReport:
    results: list  # (fixture name, ok, detail)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def __str__(self):
        lines = [
            f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in self.results
        ]
        return "\n".join(lines)


_KOSZUL2_FROZEN = {
    "k_d2": [["y"], ["-x"]],
    "k_d1": [["x", "y"]],
    "t_d4": [["y"], ["-x"], ["y"], ["-x"]],
    "t_d3": [
        ["x", "y", "0", "0"],
        ["y", "0", "-y", "0"],
        ["0", "y", "x", "0"],
        ["-x", "0", "0", "-y"],
        ["0", "-x", "0", "x"],
        ["0", "0", "x", "y"],
    ],
    "t_d2": [
        ["y", "-x", "-y", "0", "0", "0"],
        ["-x", "0", "0", "-x", "-y", "0"],
        ["0", "x", "0", "y", "0", "y"],
        ["0", "0", "x", "0", "y", "-x"],
    ],
    "t_d1": [["x", "y", "x", "y"]],
    "a_4": [["0"]],
    "a_3": [
        ["1", "0", "-1", "0"],
        ["0", "1", "0", "-1"],
        ["-1", "0", "1", "0"],
        ["0", "-1", "0", "1"],
    ],
    "a_2": [
        ["1", "0", "0", "0", "0", "-1"],
        ["0", "2", "0", "0", "0", "0"],
        ["0", "0", "1", "1", "0", "0"],
        ["0", "0", "1", "1", "0", "0"],
        ["0", "0", "0", "0", "2", "0"],
        ["-1", "0", "0", "0", "0", "1"],
    ],
    "a_1": [
        ["1", "0", "-1", "0"],
        ["0", "1", "0", "-1"],
        ["-1", "0", "1", "0"],
        ["0", "-1", "0", "1"],
    ],
    "a_0": [["0"]],
    "s_d4": [["2*y"], ["-2*x"]],
    "s_d3": [["x", "y"], ["x", "y"]],
    "s_d2": [["y", "-y"], ["-x", "x"]],
    "s_d1": [["x", "y"]],
}


def _fixture_koszul_two_variable_matrices():
    ring = graded_poly("x", "y")
    x, y = ring.generators()
    K = koszul([x, y])
    T = tensor(K, K)
    al = alpha(K)
    S = sym2(K).complex
    got = {
        "k_d2": _matrix_to_rows(K.diff(2)),
        "k_d1": _matrix_to_rows(K.diff(1)),
        "t_d4": _matrix_to_rows(T.diff(4)),
        "t_d3": _matrix_to_rows(T.diff(3)),
        "t_d2": _matrix_to_rows(T.diff(2)),
        "t_d1": _matrix_to_rows(T.diff(1)),
        "a_4": _matrix_to_rows(al.component(4)),
        "a_3": _matrix_to_rows(al.component(3)),
        "a_2": _matrix_to_rows(al.component(2)),
        "a_1": _matrix_to_rows(al.component(1)),
        "a_0": _matrix_to_rows(al.component(0)),
        "s_d4": _matrix_to_rows(S.diff(4)),
        "s_d3": _matrix_to_rows(S.diff(3)),
        "s_d2": _matrix_to_rows(S.diff(2)),
        "s_d1": _matrix_to_rows(S.diff(1)),
    }
    bad = [k for k in _KOSZUL2_FROZEN if got[k] != _KOSZUL2_FROZEN[k]]
    if bad:
        return False, f"matrices differ from frozen forms: {bad}"
    return True, f"{len(_KOSZUL2_FROZEN)} matrices byte-equal to frozen forms"


def _fixture_koszul_one_variable_torsion():
    K = koszul([ZZ.scalar(3)])
    P = weak_sym2(K)
    h = homology_presented(P)
    want = {0: "Z/3", 2: "Z/2"}
    got = {n: str(h.group(n)) for n in (0, 1, 2) if not h.is_zero_at(n)}
    if got != want:
        return False, f"weak square homology {got} != {want}"
    S = sym2(K).complex
    if S.ranks != {0: 1, 1: 1} or _matrix_to_rows(S.diff(1)) != [["3"]]:
        return False, "symmetric square of a one-element Koszul complex is wrong"
    hs = homology(S)
    if str(hs.group(0)) != "Z/3" or not hs.is_zero_at(1):
        return False, "homology of the two-term symmetric square is wrong"
    return True, "torsion column (Z/3, 0, Z/2) and two-term square reproduced"


def _fixture_koszul_two_variable_homology():
    ring = graded_poly("x", "y")
    x, y = ring.generators()
    S = sym2(koszul([x, y])).complex
    h = homology(S, bound=6)
    ok = (
        h.table(0) == {0: 1}
        and h.table(2) == {2: 1}
        and h.is_zero_at(1)
        and h.is_zero_at(3)
        and h.is_zero_at(4)
    )
    if not ok:
        return False, f"tables H0={h.table(0)} H1={h.table(1)} H2={h.table(2)} H3={h.table(3)} H4={h.table(4)}"
    return True, "H0, H2 cyclic and killed by the variables; H1 = H3 = H4 = 0 (bound 6)"


def _fixture_projection_not_quasi_iso():
    ring = graded_poly("x", "y")
    x, y = ring.generators()
    S = sym2(koszul([x, y]))
    v = is_quasi_iso(S.proj)
    # H_1 of the tensor square is QQ^2 in internal degree 1, H_1 of S2 is 0
    if bool(v) or v.failures != [(2, 1)]:
        return False, f"projection onto the symmetric square: {v}"
    return True, f"projection fails at (degree, internal degree) {v.failures[0]}"


def _fixture_split_exact_two_torsion():
    K = koszul([ZZ.scalar(1), ZZ.scalar(1)])
    S = sym2(K).complex
    h = homology(S)
    if str(h.group(3)) != "Z/2":
        return False, f"H3 of the square is {h.group(3)}, expected Z/2"
    z = zero_map(K, K)
    if not is_quasi_iso(z):
        return False, "zero map on a split exact complex should be a quasi-isomorphism"
    if is_quasi_iso(sym2_map(z)):
        return False, "square of the zero map must not be a quasi-isomorphism"
    return True, "H3 = Z/2; zero map quasi-iso upstairs but not on the square"


def _fixture_projection_sum_not_identity():
    X = unit_complex(QQ)
    W = direct_sum(X, X)
    one = QQ.one()
    f1 = ChainMap(W, W, {0: SparseMatrix(QQ, 2, 2, {(0, 0): one})})
    f2 = ChainMap(W, W, {0: SparseMatrix(QQ, 2, 2, {(1, 1): one})})
    total = sym2_map(f1 + f2)
    summed = sym2_map(f1) + sym2_map(f2)
    SW = sym2(W).complex
    ident = SparseMatrix.identity(QQ, SW.rank(0))
    if total.component(0) != ident:
        return False, "square of the identity is not the identity"
    if summed.component(0) == ident:
        return False, "sum of the squared projections must not be the identity"
    return True, "squaring is functorial but not additive on the two projections"


def _fixture_two_term_rank_table():
    m, n = 2, 3
    X = FreeComplex(QQ, {1: m, 0: n}, {1: SparseMatrix.zero(QQ, n, m)})
    S = sym2(X).complex
    want = {2: comb(m, 2), 1: m * n, 0: comb(n + 1, 2)}
    got = {d: S.rank(d) for d in (2, 1, 0)}
    if got != want:
        return False, f"ranks {got} != {want}"
    return True, f"two-term square ranks {got[2], got[1], got[0]} match the binomial table"


def _fixture_odd_shift_squares():
    sigma_z = shift(unit_complex(ZZ), 1)
    P = weak_sym2(sigma_z)
    h = homology_presented(P)
    if h.nonzero_degrees() != [2] or str(h.group(2)) != "Z/2":
        return False, f"weak square of an odd shift has homology {h.values}"
    if not sym2(sigma_z).complex.is_zero():
        return False, "symmetric square of an odd shift of R must vanish"
    sigma3 = shift(unit_complex(ZZ), 3)
    h3 = homology_presented(weak_sym2(sigma3))
    if h3.nonzero_degrees() != [6] or str(h3.group(6)) != "Z/2":
        return False, "weak square of the third shift is not 2-torsion in degree 6"
    return True, "weak squares of odd shifts are shifted Z/2; strict squares vanish"


def _fixture_series_identity_on_koszul():
    ring = graded_poly("x", "y")
    x, y = ring.generators()
    K = koszul([x, y])
    if not verify_series_identity(K):
        return False, "rank series identity fails on the two-variable Koszul complex"
    s = str(rank_series(sym2(K).complex))
    if s != "1 + 2*t + 2*t^2 + 2*t^3 + t^4":
        return False, f"rank series of the square prints as {s}"
    return True, f"series identity holds: {s}"


_FIXTURES = (
    ("koszul_two_variable_matrices", _fixture_koszul_two_variable_matrices),
    ("koszul_one_variable_torsion", _fixture_koszul_one_variable_torsion),
    ("koszul_two_variable_homology", _fixture_koszul_two_variable_homology),
    ("projection_not_quasi_iso", _fixture_projection_not_quasi_iso),
    ("split_exact_two_torsion", _fixture_split_exact_two_torsion),
    ("projection_sum_not_identity", _fixture_projection_sum_not_identity),
    ("two_term_rank_table", _fixture_two_term_rank_table),
    ("odd_shift_squares", _fixture_odd_shift_squares),
    ("series_identity_on_koszul", _fixture_series_identity_on_koszul),
)


def run_paper_corpus() -> CorpusReport:
    """Replay the worked-example corpus; every fixture must pass."""
    results = []
    for name, fn in _FIXTURES:
        try:
            ok, detail = fn()
        except SymchainError as exc:
            ok, detail = False, f"error: {exc}"
        results.append((name, ok, detail))
    return CorpusReport(results)
