"""Independent checkers for the structural equivalence theorems, plus a
replayable corpus of worked examples with frozen expected values.

Each checker evaluates every condition of its theorem by a separate
computation (no condition is derived from another), reports the condition
vector, and flags whether the vector is constant.  The exactness and
quasi-isomorphism conditions of symm07, symm07pp and s2fpd02 are exact on
every backend and take no degree bound; over graded polynomial backends
only symm09, which compares Hilbert tables, is bounded verification, and
its report carries the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    _graded_inf,
    _graded_table,
    check_bound,
    homology,
    homology_presented,
    is_quasi_iso,
)
from .linalg import (
    SparseMatrix,
    kernel_basis,
    qq_rank,
    rref,
    slice_matrix,
    solve_exact,
    solve_field,
)
from .scalars import QQ, Ring, ZZ, graded_poly
from .series import minimal_model, rank_series, verify_series_identity
from .sym2 import (
    _endo_summands,
    _pivot_columns,
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


def _corestriction(T, al, image):
    maps = {}
    for n in image.complex.degrees():
        maps[n] = solve_exact(image.bases[n], al.component(n))
    return ChainMap(T, image.complex, maps)


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


def _tensor_of_cyclics(a, b):
    # a, b: None for R, or a prime power for R/(p^e) over ZLoc
    if a is None and b is None:
        return None
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _predicted_lowest_invariants(group, parity_even: bool):
    """Invariant factors of the predicted lowest homology over ZLoc.

    Components of the input group: `rank` copies of R and one cyclic
    R/(p^e) per factor.  The prediction is the symmetric square of the
    group (even inf) or the quotient of the tensor square by the symmetric
    elements (odd inf; with 2 invertible this is the alternating square).
    """
    comps = [None] * group.rank + list(group.factors)
    out = []
    for k in range(len(comps)):
        for l in range(k, len(comps)):
            if k == l:
                if parity_even:
                    out.append(comps[k])  # S2 of a cyclic module is itself
            else:
                out.append(_tensor_of_cyclics(comps[k], comps[l]))
    rank = sum(1 for c in out if c is None)
    factors = tuple(sorted(c for c in out if c is not None))
    return rank, factors


def _homology_representatives(boundaries, cycles) -> SparseMatrix:
    """Columns of `cycles` extending a basis of the boundary space."""
    B = _pivot_columns(boundaries)
    stacked = B.hstack(cycles)
    _, pivots = rref(stacked)
    reps = [c - B.cols for _, c in pivots if c >= B.cols]
    return cycles.submatrix_columns(reps)


def _graded_homology_module(X: FreeComplex, n: int, D: int):
    """Slicewise structure of H_n(X) over a graded backend: dimensions,
    chosen representative cycles, and the action of each variable."""
    ring = X.ring
    nvars = len(ring.variables)
    dmin = X.min_gdeg()
    dims = {}
    reps = {}
    basis_data = {}
    for d in range(dmin, D + 2):
        dn, _, src = slice_matrix(X.diff(n), X.gdeg(n), X.gdeg(n - 1), d)
        dn1, _, _ = slice_matrix(X.diff(n + 1), X.gdeg(n + 1), X.gdeg(n), d)
        Z = kernel_basis(dn)
        R = _homology_representatives(dn1, Z)
        B = _pivot_columns(dn1)
        dims[d] = R.cols
        reps[d] = R
        basis_data[d] = (B, src)
    mults = {}
    for v in range(nvars):
        for d in range(dmin, D + 1):
            R = reps[d]
            if R.cols == 0 or dims.get(d + 1, 0) == 0:
                mults[(v, d)] = SparseMatrix(QQ, dims.get(d + 1, 0), R.cols)
                continue
            B1, src1 = basis_data[d + 1]
            index1 = {key: r for r, key in enumerate(src1)}
            _, src0 = basis_data[d]
            entries = {}
            for (i, j), val in R.entries.items():
                gen, mono = src0[i]
                target = list(mono)
                target[v] += 1
                r = index1.get((gen, tuple(target)))
                if r is not None:
                    entries[(r, j)] = entries.get((r, j), 0) + val
            moved = SparseMatrix._of(QQ, len(src1), R.cols, entries)
            basisY = B1.hstack(reps[d + 1])
            coeffs = solve_field(basisY, moved)
            mults[(v, d)] = SparseMatrix._of(
                QQ, reps[d + 1].cols, R.cols,
                {(i - B1.cols, j): val for (i, j), val in coeffs.entries.items() if i >= B1.cols},
            )
    return dims, mults, dmin


def _module_pair_table(dimsA, multsA, dimsB, multsB, nvars, dminA, dminB, D, sign=None):
    """Hilbert table of M (x)_R N from slice data, optionally symmetrized.

    Generators in internal degree e are the blocks M_a (x) N_b with
    a + b = e; relations impose bilinearity over the ring generators,
    (x_v u) (x) w = u (x) (x_v w), and, when sign is given (requires
    M = N), the symmetry u (x) w = sign * w (x) u.
    """
    table = {}
    for e in range(dminA + dminB, D + 1):
        blocks = [
            (a, e - a)
            for a in range(dminA, e - dminB + 1)
            if dimsA.get(a) and dimsB.get(e - a)
        ]
        offsets = {}
        total = 0
        for (a, b) in blocks:
            offsets[(a, b)] = total
            total += dimsA[a] * dimsB[b]
        if total == 0:
            continue
        rel_cols = []

        def gen_index(a, b, i, j):
            return offsets[(a, b)] + i * dimsB[b] + j

        # bilinearity over the ring: (x_v u) (x) w = u (x) (x_v w)
        for v in range(nvars):
            for a in range(dminA, e - dminB):
                b = e - 1 - a
                if not dimsA.get(a) or not dimsB.get(b):
                    continue
                Ma = multsA[(v, a)]
                Mb = multsB[(v, b)]
                for i in range(dimsA[a]):
                    for j in range(dimsB[b]):
                        col = {}
                        if (a + 1, b) in offsets:
                            for (r, c), val in Ma.entries.items():
                                if c == i:
                                    key = gen_index(a + 1, b, r, j)
                                    col[key] = col.get(key, Fraction(0)) + val
                        if (a, b + 1) in offsets:
                            for (r, c), val in Mb.entries.items():
                                if c == j:
                                    key = gen_index(a, b + 1, i, r)
                                    col[key] = col.get(key, Fraction(0)) - val
                        if col:
                            rel_cols.append(col)
        if sign is not None:
            # symmetry relations u (x) w - sign * w (x) u
            for (a, b) in blocks:
                for i in range(dimsA[a]):
                    for j in range(dimsB[b]):
                        col = {gen_index(a, b, i, j): Fraction(1)}
                        if (b, a) in offsets:
                            key = gen_index(b, a, j, i)
                            col[key] = col.get(key, Fraction(0)) - Fraction(sign)
                        if any(v != 0 for v in col.values()):
                            rel_cols.append(col)
        entries = {}
        for c, col in enumerate(rel_cols):
            for r, val in col.items():
                if val:
                    entries[(r, c)] = val
        rel = SparseMatrix._of(QQ, total, len(rel_cols), entries)
        dim = total - qq_rank(rel)
        if dim:
            table[e] = dim
    return table


def _module_square_table(dims, mults, nvars, sign: int, dmin: int, D: int):
    """Hilbert table of (M (x)_R M) / <u(x)w - sign * w(x)u> from slice data."""
    return _module_pair_table(dims, mults, dims, mults, nvars, dmin, dmin, D, sign=sign)


def check_symm09(X: FreeComplex, bound: int | None = None) -> VerdictReport:
    """Lower bound and lowest-degree formula for homology of the square.

    Checks inf(H(S2 X)) >= 2 inf(H(X)); equality when the infimum is even;
    and that the lowest homology of the square matches the symmetric square
    (even infimum) or the quotient by symmetric elements (odd infimum) of
    the lowest homology of X, computed from an independent presentation.
    """
    _require_local_two_unit(X.ring)
    ring = X.ring
    S = sym2(X).complex
    # a bound below X's lowest generator degree is rejected; the graded
    # default is the top generator degree of X (x) X plus the rank of X
    check_bound(X, bound)
    D = 2 * X.max_gdeg() + X.total_rank() + 2 if bound is None and _graded(ring) else bound

    def trivial():
        return VerdictReport(
            theorem="symm09",
            labels=(),
            conditions=(),
            equivalent=None,
            holds=True,
            backend=str(ring),
            bounded=_graded(ring),
            bound=D,
            note="input complex is exact; nothing to check",
        )

    witnesses = {}
    if _graded(ring):
        i = _graded_inf(X, D)
        if i is None:
            return trivial()
        s_inf = _graded_inf(S, D)
        even = i % 2 == 0
        dims, mults, dmin = _graded_homology_module(X, i, D)
        sign = 1 if even else -1
        want = _module_square_table(dims, mults, len(ring.variables), sign, dmin, D)
        got = _graded_table(S, 2 * i, D)
        lowest_ok = want == got
        if not lowest_ok:
            witnesses["lowest"] = (want, got)
    else:
        hX = homology(X)
        if hX.is_exact():
            return trivial()
        i = hX.inf
        hS = homology(S)
        s_inf = hS.inf
        even = i % 2 == 0
        if hX.kind == "invariant_factors":
            want = _predicted_lowest_invariants(hX.group(i), parity_even=even)
            got_group = hS.group(2 * i)
            got = (got_group.rank, tuple(sorted(got_group.factors)))
        else:
            h = hX.dimension(i)
            want = comb(h + 1, 2) if even else comb(h, 2)
            got = hS.dimension(2 * i)
        lowest_ok = want == got
        if not lowest_ok:
            witnesses["lowest"] = (want, got)

    labels = ["inf_lower_bound", "lowest_module_matches"]
    cond_bound = s_inf is None or s_inf >= 2 * i
    if not cond_bound:
        witnesses["inf"] = (i, s_inf)
    conds = [cond_bound]
    if even:
        labels.insert(1, "inf_equality_even")
        conds.append(s_inf == 2 * i)
        if s_inf != 2 * i:
            witnesses["inf_equality"] = (i, s_inf)
    conds.append(lowest_ok)
    return VerdictReport(
        theorem="symm09",
        labels=tuple(labels),
        conditions=tuple(conds),
        equivalent=None,
        holds=all(conds),
        witnesses=witnesses,
        backend=str(ring),
        bounded=_graded(ring),
        bound=D,
    )


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
