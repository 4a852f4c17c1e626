"""Independent checkers for the structural equivalence theorems, plus a
replayable corpus of worked examples with frozen expected values.

Each checker evaluates every condition of its theorem by a separate
computation (no condition is derived from another), reports the condition
vector, and flags whether the vector is constant.  The exactness and
quasi-isomorphism conditions of symm07, symm07pp and s2fpd02 are exact on
every backend and take no degree bound.  symm09 reads both infima from
minimal models, so they are exact too; on graded polynomial backends only
its comparison of two Hilbert tables stops at a degree bound, which its
report carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .homology import (
    _exactness_failures,
    _graded_table,
    check_bound,
    homology,
    homology_presented,
    is_quasi_iso,
)
from .linalg import SparseMatrix
from .scalars import QQ, Ring, ZZ, graded_poly
from .series import minimal_model, rank_series, verify_series_identity
from .sym2 import (
    _corestriction,
    _endo_summands,
    alpha,
    sym2,
    sym2_map,
    weak_sym2,
)

__all__ = [
    "VerdictReport",
    "check_symm07",
    "check_symm07pp",
    "check_s2fpd02",
    "check_symm09",
    "CorpusReport",
    "run_paper_corpus",
]


@dataclass
class VerdictReport:
    """Condition vector of one theorem checker on one complex."""

    theorem: str
    labels: tuple
    conditions: tuple
    equivalent: bool | None  # all conditions agree (equivalence theorems only)
    holds: bool | None
    witnesses: dict = field(default_factory=dict)
    backend: str = ""
    bounded: bool = False
    bound: int | None = None
    note: str | None = None

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "conditions": dict(zip(self.labels, self.conditions)),
            "equivalent": self.equivalent,
            "holds": self.holds,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "backend": self.backend,
            "bounded": self.bounded,
            "bound": self.bound,
            "note": self.note,
        }


def _require_local_two_unit(ring: Ring):
    if not ring.is_local:
        raise UnsupportedRingError(f"{ring} is not a local backend")
    if not ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {ring}")


def _graded(ring: Ring) -> bool:
    return ring.kind == "Poly"


def _is_zero_or_single_shift(M: FreeComplex, parity: int | None):
    """Is the minimal complex zero, or a single rank-1 module in a degree of
    the given parity (None for any parity)?  Returns (bool, degree|None)."""
    if M.is_zero():
        return True, None
    degs = M.degrees()
    if len(degs) != 1 or M.rank(degs[0]) != 1:
        return False, None
    if parity is not None and degs[0] % 2 != parity:
        return False, None
    return True, degs[0]


def _is_two_odd_shifts(M: FreeComplex) -> bool:
    degs = M.degrees()
    if any(d % 2 == 0 for d in degs):
        return False
    total = sum(M.rank(d) for d in degs)
    if total != 2 or len(degs) not in (1, 2):
        return False
    # odd degrees are never adjacent, so no differential can survive
    return all(M.diff(n).is_zero() for n in degs)


def check_symm07(X: FreeComplex) -> VerdictReport:
    """Four equivalent statements characterizing even single-shift complexes.

    (i) the projection of the tensor square onto the symmetric square is a
    quasi-isomorphism; (ii) the image of the alternation is exact;
    (iii) the kernel inclusion into the tensor square is a quasi-isomorphism;
    (iv) the minimal complex is zero or a single rank-1 module in even degree.
    """
    _require_local_two_unit(X.ring)
    S = sym2(X)
    T = S.tensor_square
    witnesses = {}

    v1 = is_quasi_iso(S.proj)
    if v1.failures:
        witnesses["i"] = v1.failures[:3]

    image, kernel = _endo_summands(T, S.alpha)
    fail2 = _exactness_failures(image.complex)
    if fail2:
        witnesses["ii"] = fail2[:3]

    v3 = is_quasi_iso(kernel.inclusion)
    if v3.failures:
        witnesses["iii"] = v3.failures[:3]

    cond4, _deg = _is_zero_or_single_shift(minimal_model(X), parity=0)

    conditions = (bool(v1), not fail2, bool(v3), cond4)
    return VerdictReport(
        theorem="symm07",
        labels=("i", "ii", "iii", "iv"),
        conditions=conditions,
        equivalent=len(set(conditions)) == 1,
        holds=conditions[0] if len(set(conditions)) == 1 else None,
        witnesses=witnesses,
        backend=str(X.ring),
    )


def check_symm07pp(X: FreeComplex) -> VerdictReport:
    """Six equivalent statements characterizing odd single-shift complexes.

    (i) the alternation is a quasi-isomorphism; (ii) its corestriction onto
    its image is one; (iii) the image inclusion is one; (iv) the symmetric
    square is exact; (v) the kernel of the alternation is exact; (vi) the
    minimal complex is zero or a single rank-1 module in odd degree.
    """
    _require_local_two_unit(X.ring)
    S = sym2(X)
    T = S.tensor_square
    witnesses = {}

    al = S.alpha
    v1 = is_quasi_iso(al)
    if v1.failures:
        witnesses["i"] = v1.failures[:3]

    image, kernel = _endo_summands(T, al)
    q = _corestriction(T, al, image)
    v2 = is_quasi_iso(q)
    if v2.failures:
        witnesses["ii"] = v2.failures[:3]

    v3 = is_quasi_iso(image.inclusion)
    if v3.failures:
        witnesses["iii"] = v3.failures[:3]

    fail4 = _exactness_failures(S.complex)
    if fail4:
        witnesses["iv"] = fail4[:3]

    fail5 = _exactness_failures(kernel.complex)
    if fail5:
        witnesses["v"] = fail5[:3]

    cond6, _deg = _is_zero_or_single_shift(minimal_model(X), parity=1)

    conditions = (bool(v1), bool(v2), bool(v3), not fail4, not fail5, cond6)
    return VerdictReport(
        theorem="symm07pp",
        labels=("i", "ii", "iii", "iv", "v", "vi"),
        conditions=conditions,
        equivalent=len(set(conditions)) == 1,
        holds=conditions[0] if len(set(conditions)) == 1 else None,
        witnesses=witnesses,
        backend=str(X.ring),
    )


def check_s2fpd02(X: FreeComplex) -> VerdictReport:
    """Three equivalent statements: the symmetric square is a single shift.

    (i) the minimal complex of X is a single even shift of R, or a sum of
    two odd shifts; (ii) the minimal complex of S2(X) is a single rank-1
    module in even degree; (iii) same with the parity unconstrained.
    Reports the shift degree j when the conditions hold.
    """
    _require_local_two_unit(X.ring)
    M = minimal_model(X)
    even_shift, _d = _is_zero_or_single_shift(M, parity=0)
    cond1 = (even_shift and not M.is_zero()) or _is_two_odd_shifts(M)

    SM = minimal_model(sym2(X).complex)
    even_s, j_even = _is_zero_or_single_shift(SM, parity=0)
    cond2 = even_s and not SM.is_zero()
    any_s, j_any = _is_zero_or_single_shift(SM, parity=None)
    cond3 = any_s and not SM.is_zero()

    conditions = (cond1, cond2, cond3)
    witnesses = {}
    if cond3:
        witnesses["j"] = j_any
    return VerdictReport(
        theorem="s2fpd02",
        labels=("i", "ii", "iii"),
        conditions=conditions,
        equivalent=len(set(conditions)) == 1,
        holds=conditions[0] if len(set(conditions)) == 1 else None,
        witnesses=witnesses,
        backend=str(X.ring),
    )


# -- lowest homology of the symmetric square ---------------------------------------


def _square_presentation(M: FreeComplex, i: int, even: bool) -> FreeComplex:
    """A two-term complex whose H_0 is S2 (even) or Lambda2 (odd) of the
    cokernel of d = d_{i+1} : G = M_{i+1} -> F = M_i.

    S2(coker d) is S2(F) modulo the products d(e).f, and Lambda2(coker d)
    is Lambda2(F) modulo the d(e)^f, for generators e of G and f of F
    (Eisenbud, Commutative Algebra, GTM 150, Appendix A2).  Degree 1 is
    G (x) F, generator (e, f) at e * rank F + f; degree 0 is S2(F) on the
    f_k f_l with k <= l, or Lambda2(F) on the f_k ^ f_l with k < l, where
    f_l ^ f_k = -f_k ^ f_l and f_k ^ f_k = 0.  It is written from the
    entries of d, not through sym2, which it checks.
    """
    ring = M.ring
    r0, r1 = M.rank(i), M.rank(i + 1)
    pairs = [(k, l) for k in range(r0) for l in range(k if even else k + 1, r0)]
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
    if ring.kind == "Poly":
        g0, g1 = M.gdeg(i), M.gdeg(i + 1)
        gdegs = {
            0: tuple(g0[k] + g0[l] for k, l in pairs),
            1: tuple(g1[e] + g0[f] for e in range(r1) for f in range(r0)),
        }
    d = SparseMatrix._of(ring, len(pairs), r1 * r0, entries)
    return FreeComplex(ring, {0: len(pairs), 1: r1 * r0}, {1: d}, gdegs)


def _homology_value(C: FreeComplex, n: int, D: int | None):
    """H_n(C) as symm09 compares it: the Hilbert table up to D on a graded
    ring, (rank, invariant factors) over ZLoc(p), the dimension over a field."""
    if _graded(C.ring):
        return _graded_table(C, n, D)
    h = homology(C)
    if h.kind == "dimensions":
        return h.dimension(n)
    g = h.group(n)
    return g.rank, g.factors


def check_symm09(X: FreeComplex, bound: int | None = None) -> VerdictReport:
    """Lower bound and lowest-degree formula for homology of the square.

    Checks inf H(S2 X) >= 2i for i = inf H(X); equality when i is even; and
    that H_2i(S2 X) is S2(H_i X) (even i) or Lambda2(H_i X) (odd i).  Over a
    local ring the minimal model M of X starts in degree i (Nakayama), so
    H_i X = coker(M_{i+1} -> M_i), and the prediction is the homology of
    one free presentation built from M (_square_presentation).  Both infima
    come from minimal models and are exact; on a graded ring only the
    comparison of the two Hilbert tables stops at the bound.
    """
    _require_local_two_unit(X.ring)
    ring = X.ring
    # a bound below X's lowest generator degree is rejected; the graded
    # default is the top generator degree of X (x) X plus the rank of X
    check_bound(X, bound)
    D = 2 * X.max_gdeg() + X.total_rank() + 2 if bound is None and _graded(ring) else bound
    report = VerdictReport(
        theorem="symm09",
        labels=(),
        conditions=(),
        equivalent=None,
        holds=True,
        backend=str(ring),
        bounded=_graded(ring),
        bound=D,
    )
    M = minimal_model(X)
    if M.is_zero():
        report.note = "input complex is exact; nothing to check"
        return report
    i = M.degrees()[0]
    even = i % 2 == 0
    S = sym2(X).complex
    SM = minimal_model(S)
    s_inf = None if SM.is_zero() else SM.degrees()[0]
    witnesses = report.witnesses
    want = _homology_value(_square_presentation(M, i, even), 0, D)
    got = _homology_value(S, 2 * i, D)
    if want != got:
        witnesses["lowest"] = (want, got)

    labels = ["inf_lower_bound", "lowest_module_matches"]
    conds = [s_inf is None or s_inf >= 2 * i]
    if not conds[0]:
        witnesses["inf"] = (i, s_inf)
    if even:
        labels.insert(1, "inf_equality_even")
        conds.append(s_inf == 2 * i)
        if s_inf != 2 * i:
            witnesses["inf_equality"] = (i, s_inf)
    conds.append(want == got)
    report.labels, report.conditions, report.holds = tuple(labels), tuple(conds), all(conds)
    return report


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


def _matrix_strings(M: SparseMatrix):
    return [[str(v) for v in row] for row in M.to_rows()]


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
        "k_d2": _matrix_strings(K.diff(2)),
        "k_d1": _matrix_strings(K.diff(1)),
        "t_d4": _matrix_strings(T.diff(4)),
        "t_d3": _matrix_strings(T.diff(3)),
        "t_d2": _matrix_strings(T.diff(2)),
        "t_d1": _matrix_strings(T.diff(1)),
        "a_4": _matrix_strings(al.component(4)),
        "a_3": _matrix_strings(al.component(3)),
        "a_2": _matrix_strings(al.component(2)),
        "a_1": _matrix_strings(al.component(1)),
        "a_0": _matrix_strings(al.component(0)),
        "s_d4": _matrix_strings(S.diff(4)),
        "s_d3": _matrix_strings(S.diff(3)),
        "s_d2": _matrix_strings(S.diff(2)),
        "s_d1": _matrix_strings(S.diff(1)),
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
    if S.ranks != {0: 1, 1: 1} or _matrix_strings(S.diff(1)) != [["3"]]:
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
