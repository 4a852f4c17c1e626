"""Theorem checkers: condition vectors must be constant; corpus must pass."""

import importlib
import random
import sys

import pytest

from symchain import (
    GF,
    ChainMap,
    FpAbelianGroup,
    FreeComplex,
    QQ,
    SparseMatrix,
    ZLoc,
    ZZ,
    check_s2fpd01,
    check_s2fpd02,
    check_symm07,
    check_symm07pp,
    check_symm09,
    direct_sum,
    graded_poly,
    homology,
    inf_h,
    is_exact,
    is_quasi_iso,
    koszul,
    mapping_cone,
    minimal_model,
    minimize,
    run_paper_corpus,
    shift,
    split_decomposition,
    sym2,
    sym2_map,
    unit_complex,
    zero_complex,
    zero_map,
)
from symchain.complexes import compose
from symchain.errors import TwoNotUnitError, UnsupportedRingError
from symchain.series import _degree_zero_part, _minimal_part, _minimal_ranks
from symchain.theorems import _verdict

from oracles import lowest_square_oracle, reference_local_checkers
from randgen import (
    conjugate,
    contractible_piece,
    graded_contractible_piece,
    null_homotopic_map,
    random_complex,
    random_graded_minimal,
    random_minimal_complex,
    random_padded_graded,
    summand_inclusion,
    summand_projection,
    two_term,
)

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def curated_family(ring):
    R0 = unit_complex(ring)
    return [
        zero_complex(ring),
        R0,
        shift(R0, 1),
        shift(R0, 2),
        direct_sum(R0, R0),
        direct_sum(shift(R0, 1), shift(R0, 3)),
    ]


def test_symm07_even_shift_all_true():
    report = check_symm07(shift(unit_complex(ZLoc(3)), 2))
    assert report.conditions == (True, True, True, True)
    assert report.equivalent and report.holds


def test_symm07_koszul_all_false_graded():
    report = check_symm07(koszul([X_VAR, Y_VAR]))
    assert report.conditions == (False, False, False, False)
    assert report.equivalent and report.holds is False
    # exact verdicts over the graded ring: no report carries a bound
    assert not hasattr(report, "bound") and not hasattr(report, "bounded")
    assert "bound" not in report.as_dict() and "bounded" not in report.as_dict()


def test_three_variable_koszul_verdicts_need_no_bound():
    """koszul([x0, x1, x2]): the condition vectors a bounded check found
    (all False, equivalent), and the two quasi-isomorphism witnesses, each
    a nonzero slice of the cone's homology with nothing below it."""
    R = graded_poly("x0", "x1", "x2")
    K = koszul(list(R.generators()))
    r07 = check_symm07(K)
    assert r07.conditions == (False,) * 4 and r07.equivalent
    r07pp = check_symm07pp(K)
    assert r07pp.conditions == (False,) * 6 and r07pp.equivalent
    assert not any(hasattr(r, "bound") for r in (r07, r07pp))
    S = sym2(K)
    for f, witness in ((S.proj, (2, 1)), (S.alpha, (0, 0))):
        verdict = is_quasi_iso(f)
        assert not verdict and verdict.failures == [witness]
        n0, d0 = witness
        oracle = homology(mapping_cone(f), bound=2)
        assert oracle.nonzero_degrees()[0] == n0 and oracle.table(n0)[d0] > 0


def test_symm07_odd_shift_all_false():
    report = check_symm07(shift(unit_complex(ZLoc(3)), 1))
    assert report.conditions == (False, False, False, False)
    assert report.equivalent


def test_symm07pp_examples():
    r = check_symm07pp(shift(unit_complex(QQ), 1))
    assert r.conditions == (True,) * 6 and r.equivalent
    r = check_symm07pp(unit_complex(QQ))
    assert r.conditions == (False,) * 6 and r.equivalent
    both = direct_sum(shift(unit_complex(QQ), 1), shift(unit_complex(QQ), 3))
    r = check_symm07pp(both)
    assert r.conditions == (False,) * 6 and r.equivalent


def test_s2fpd02_single_even_shift():
    r = check_s2fpd02(shift(unit_complex(QQ), 2))
    assert r.conditions == (True, True, True) and r.equivalent
    assert r.witnesses["j"] == 4


def test_s2fpd02_two_odd_shifts():
    X = direct_sum(shift(unit_complex(QQ), 1), shift(unit_complex(QQ), 3))
    r = check_s2fpd02(X)
    assert r.conditions == (True, True, True) and r.equivalent
    # the square of an odd pair lands in the tensor degree: 1 + 3
    assert r.witnesses["j"] == 4
    M, _ = minimize(sym2(X).complex)
    assert M.ranks == {4: 1}


def test_s2fpd02_koszul_all_false():
    r = check_s2fpd02(koszul([X_VAR, Y_VAR]))
    assert r.conditions == (False, False, False) and r.equivalent


def test_s2fpd01_reports():
    r = check_s2fpd01(shift(unit_complex(QQ), 2))
    assert r.witnesses == {"minimal_length": 0, "square_minimal_length": 0}
    assert r.labels == ("rank_inequality",) and r.conditions == (True,)
    assert r.holds and r.equivalent is None and "bound" not in r.as_dict()
    r = check_s2fpd01(koszul([X_VAR, Y_VAR]))
    assert r.witnesses == {"minimal_length": 2, "square_minimal_length": 4}
    assert r.holds
    # nonzero ranks in degrees 1 and 3 force rank(S2)_4 >= r1*r3
    X = FreeComplex(ZLoc(3), {1: 2, 3: 1}, {})
    S = sym2(X).complex
    assert S.rank(4) >= X.rank(1) * X.rank(3)
    # a local ring is needed, but not that 2 is a unit
    r = check_s2fpd01(koszul([GF(2).scalar(0)]))
    assert r.holds and r.backend == str(GF(2))
    assert r.witnesses == {"minimal_length": 1, "square_minimal_length": 1}
    with pytest.raises(UnsupportedRingError):
        check_s2fpd01(unit_complex(ZZ))


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(5), ZLoc(2), ZLoc(3), POLY], ids=str)
def test_s2fpd01_holds_on_every_bounded_complex(ring):
    """S2(M)_{p+q} contains M_p (x) M_q by construction, so rank_inequality
    holds on every bounded complex and the report's content is its two
    witnesses: the lengths of the minimal models of X and of S2(X)."""
    rng = random.Random(83)
    for _ in range(8):
        if ring == POLY:
            X = random_graded_minimal(POLY, rng, max_pieces=3)
        else:
            X = random_complex(ring, rng, max_rank=3, max_len=3)
        r = check_s2fpd01(X)
        assert r.holds is True and r.conditions == (True,)
        assert r.witnesses == {
            "minimal_length": minimal_model(X).length(),
            "square_minimal_length": minimal_model(sym2(X).complex).length(),
        }


def test_checkers_reject_bad_backends():
    with pytest.raises(UnsupportedRingError):
        check_symm07(unit_complex(ZZ))
    with pytest.raises(TwoNotUnitError):
        check_symm07(unit_complex(GF(2)))


def test_equivalence_on_curated_family():
    for ring in (QQ, ZLoc(3)):
        for X in curated_family(ring):
            for checker in (check_symm07, check_symm07pp, check_s2fpd02):
                report = checker(X)
                assert report.equivalent, (
                    f"{report.theorem} non-constant on {X!r}: {report.conditions}"
                )


def test_equivalence_on_random_minimal_zloc():
    rng = random.Random(29)
    for _ in range(12):
        X = random_minimal_complex(ZLoc(3), rng, max_rank=3, max_len=4)
        for checker in (check_symm07, check_symm07pp, check_s2fpd02):
            report = checker(X)
            assert report.equivalent, (
                f"{report.theorem} non-constant on {X!r}: {report.conditions}"
            )


def _checker_oracle_inputs():
    """Graded complexes with and without constant entries: Koszul complexes
    in 2-4 variables, the padded two-variable one, and random minimal
    graded complexes plus contractible pieces, conjugated."""
    rings = [graded_poly(*"abcd"[:v]) for v in (2, 3, 4)]
    rng = random.Random(43)
    return [
        *(koszul(list(R.generators())) for R in rings),
        direct_sum(koszul([X_VAR, Y_VAR]), graded_contractible_piece(POLY, 2, 1)),
        *(random_padded_graded(POLY, rng) for _ in range(8)),
        *(random_padded_graded(rings[1], rng) for _ in range(4)),
    ]


def test_graded_checkers_report_what_the_full_entries_give():
    """symm07, symm07pp and s2fpd02 build on the minimal part of X,
    s2fpd01 on its degree-zero part, and each report, witnesses included,
    is that of the checker's body run on X itself."""
    inputs = _checker_oracle_inputs()
    # the Koszul complexes have no constant entry, every padded input has one
    constants = [
        any(X.diff(n).entry(*rc).is_unit() for n in X.degrees() for rc in X.diff(n).entries) for X in inputs
    ]
    assert constants == [False] * 3 + [True] * 13
    for X in inputs:
        want = reference_local_checkers(X)
        for checker in (check_symm07, check_symm07pp, check_s2fpd01, check_s2fpd02):
            got = checker(X)
            assert got.as_dict() == want[got.theorem].as_dict(), (X, got.theorem)


def _local_oracle_inputs(ring, rng) -> list:
    """40 complexes over a local ring: random_minimal_complex plus 0-2
    contractible pieces, conjugated."""
    inputs = []
    for _ in range(40):
        X = random_minimal_complex(ring, rng)
        for _ in range(rng.randint(0, 2)):
            X = direct_sum(X, contractible_piece(ring, rng.randint(0, 4)))
        inputs.append(conjugate(X, rng))
    return inputs


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(5), ZLoc(3), ZLoc(5)], ids=str)
def test_local_checkers_report_what_the_full_complex_gives(ring):
    """Off graded rings too, each checker's report, witnesses included, is
    that of its body run on X itself, padded or not."""
    rng = random.Random(59)
    witnessed = padded = 0
    for X in _local_oracle_inputs(ring, rng):
        padded += _minimal_part(X).total_rank() < X.total_rank()
        want = reference_local_checkers(X)
        for checker in (check_symm07, check_symm07pp, check_s2fpd01, check_s2fpd02):
            got = checker(X).as_dict()
            assert got == want[got["theorem"]].as_dict(), (X, got["theorem"])
            witnessed += bool(got["witnesses"])
    assert padded > 20 and witnessed > 100


def test_checkers_that_need_two_square_the_minimal_part_once(monkeypatch):
    """symm07, symm07pp and s2fpd02 each square _minimal_part(X) once, X
    itself when X is minimal off graded rings, and call no minimize."""
    squares = _record_calls(monkeypatch, sym2)
    minimized = _record_calls(monkeypatch, minimize)
    rng = random.Random(61)
    K = koszul([X_VAR, Y_VAR])
    minimal_zloc = random_minimal_complex(ZLoc(3), rng)
    inputs = [
        K,
        direct_sum(K, graded_contractible_piece(POLY, 2, 1)),
        minimal_zloc,
        conjugate(direct_sum(minimal_zloc, contractible_piece(ZLoc(3), 2)), rng),
        conjugate(direct_sum(shift(unit_complex(QQ), 1), contractible_piece(QQ, 1)), rng),
    ]
    for X in inputs:
        M = _minimal_part(X)
        for checker in (check_symm07, check_symm07pp, check_s2fpd02):
            squares.clear()
            checker(X)
            assert squares == [M], checker.__name__
            if X is minimal_zloc:
                assert squares[0] is X
    assert minimized == []


def test_s2fpd01_keeps_the_degree_zero_part_where_two_is_not_a_unit():
    """Over GF(2) and ZLoc(2) the square of a contractible piece need not
    be contractible: X = R (+) Sigma(R --1--> R) has a minimal model of S2(X)
    of length 4, while S2 of its minimal complex R is R.  s2fpd01, which
    does not need 2 to be a unit, squares X and reports 4."""
    for ring in (GF(2), ZLoc(2)):
        X = direct_sum(unit_complex(ring), contractible_piece(ring, 2))
        assert _minimal_ranks(sym2(X).complex) == {0: 1, 3: 1, 4: 1}
        assert _minimal_ranks(sym2(_minimal_part(X)).complex) == {0: 1}
        report = check_s2fpd01(X)
        assert report.holds
        assert report.as_dict()["witnesses"] == {"minimal_length": "0", "square_minimal_length": "4"}
        with pytest.raises(TwoNotUnitError):
            check_s2fpd02(X)


def test_symm09_koszul_graded():
    report = check_symm09(koszul([X_VAR, Y_VAR]))
    assert report.holds, report.witnesses
    assert "inf_equality_even" in report.labels


def test_symm09_odd_shift():
    report = check_symm09(shift(unit_complex(QQ), 1))
    assert report.holds, report.witnesses
    assert "inf_equality_even" not in report.labels


def test_symm09_even_shift():
    report = check_symm09(shift(unit_complex(ZLoc(3)), 2))
    assert report.holds
    report = check_symm09(zero_complex(QQ))
    assert report.holds and report.note


def test_symm09_random_minimal():
    rng = random.Random(31)
    for _ in range(8):
        X = random_minimal_complex(ZLoc(3), rng, max_rank=2, max_len=3)
        report = check_symm09(X)
        assert report.holds, (X, report.witnesses)


def test_symm09_graded_koszul_pieces():
    for X in (koszul([X_VAR]), koszul([X_VAR, Y_VAR]), shift(koszul([X_VAR]), 2)):
        report = check_symm09(X)
        assert report.holds, report.witnesses


def test_symm09_random_graded_minimal():
    from randgen import random_graded_minimal

    rng = random.Random(41)
    for _ in range(5):
        X = random_graded_minimal(POLY, rng)
        report = check_symm09(X)
        assert report.holds, (X, report.witnesses)


def _dense_column(ring, entries, gdegs=None):
    """0 -> R -> R^3 -> 0 in degrees 1, 0 with d = (a, b, c)^T: the case
    where the sign of f_l ^ f_k = -f_k ^ f_l changes Lambda2 of the cokernel."""
    d = SparseMatrix.from_rows(ring, [[v] for v in entries])
    return FreeComplex(ring, {0: 3, 1: 1}, {1: d}, gdegs)


def _symm09_inputs():
    """Seeded inputs for symm09 on every backend: graded sums of shifted
    Koszul pieces (some padded with a contractible R(-1) -> R(-1), so not
    minimal), dense columns, and random minimal or arbitrary complexes over
    ZLoc(3), ZLoc(5), QQ, GF(5) and GF(7)."""
    rng = random.Random(59)
    x, y = X_VAR, Y_VAR
    pad = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (1,), 1: (1,)})
    for _ in range(40):
        yield random_graded_minimal(POLY, rng, max_pieces=3)
    for _ in range(20):
        yield direct_sum(random_graded_minimal(POLY, rng), shift(pad, rng.randint(0, 2)))
    for s in (0, 1):
        yield shift(_dense_column(POLY, [x, y, x + y], {0: (0, 0, 0), 1: (1,)}), s)
        for R in (ZLoc(3), ZLoc(5)):
            yield shift(_dense_column(R, [R.p, R.p, R.p * R.p]), s)
    for R in (ZLoc(3), ZLoc(5), QQ, GF(5), GF(7)):
        for _ in range(55):
            pick = random_minimal_complex if rng.random() < 0.6 else random_complex
            yield pick(R, rng, max_rank=3, max_len=3)


def _presentation_h0(P, D):
    """H_0 of a square presentation in the form of lowest_square_oracle:
    the Hilbert table up to D on a graded ring, (rank, invariant factors)
    over ZLoc(p), the dimension over a field."""
    if P.graded:
        return homology(P, bound=D).table(0)
    h = homology(P)
    if h.kind == "dimensions":
        return h.dimension(0)
    return h.group(0).rank, h.group(0).factors


def test_symm09_prediction_matches_oracles(monkeypatch):
    """The presentation that check_symm09 compares with the square of the
    minimal model, against the slow oracles: module tables from slice data
    up to a degree bound (graded), S2/Lambda2 of a sum of cyclic groups
    (ZLoc), a binomial coefficient (fields).  The checker takes no bound;
    the graded comparison here reads the tables up to the top generator
    degree of X (x) X plus the rank of X plus 2."""
    theorems = importlib.import_module("symchain.theorems")
    built = []
    square_presentation = theorems._square_presentation

    def recording(M, i, even):
        P = square_presentation(M, i, even)
        built.append((i, even, P))
        return P

    monkeypatch.setattr(theorems, "_square_presentation", recording)
    parities, zloc_torsion, multi_slice, padded, cases = set(), 0, 0, 0, 0
    for X in _symm09_inputs():
        built.clear()
        report = check_symm09(X)
        assert report.holds, (X, report.witnesses)
        D = 2 * X.max_gdeg() + X.total_rank() + 2 if X.graded else None
        oracle = lowest_square_oracle(X, D)
        if oracle is None:
            assert report.note and not built
            continue
        [(i, even, P)] = built
        oi, want = oracle
        assert (i, even) == (oi, oi % 2 == 0), X
        assert _presentation_h0(P, D) == want, (X, i)
        cases += 1
        kind = X.ring.kind
        parities.add((kind, even))
        if kind == "ZLoc" and want[1]:
            zloc_torsion += 1
        if kind == "Poly":
            multi_slice += len(want) > 1
            padded += X.degrees()[0] < i
    assert cases >= 300
    assert parities == {(k, e) for k in ("Poly", "ZLoc", "QQ", "GF") for e in (True, False)}
    assert zloc_torsion >= 20 and multi_slice >= 20 and padded >= 3


def test_symm09_lowest_module_by_hand_over_zloc():
    # coker (3, 3, 3)^T is R^2 + R/3: its S2 is R^3 + (R/3)^3 and its Lambda2,
    # which the sign f_l ^ f_k = -f_k ^ f_l decides, is R + (R/3)^2
    theorems = importlib.import_module("symchain.theorems")
    R = ZLoc(3)
    X = _dense_column(R, [3, 3, 3])
    for s, (rank, factors) in ((0, (3, (3, 3, 3))), (1, (1, (3, 3)))):
        P = theorems._square_presentation(shift(X, s), s, s % 2 == 0)
        assert homology(P).group(0) == FpAbelianGroup(rank, factors)
        assert check_symm09(shift(X, s)).holds


def test_symm09_infimum_is_not_read_to_the_bound():
    # R(-3) (+) (R --1--> R): H_0 = R(-3) lives above the degree 1, which
    # once made the report say "input complex is exact" when it was read to
    # a bound of 1
    X = FreeComplex(
        POLY, {0: 2, 1: 1},
        {1: SparseMatrix.from_rows(POLY, [[0], [1]])},
        {0: (3, 0), 1: (0,)},
    )
    assert not is_exact(X)
    report = check_symm09(X)
    assert report.labels == ("inf_lower_bound", "inf_equality_even", "lowest_module_matches")
    assert report.conditions == (True, True, True)
    assert report.note is None


def test_symm09_reports_no_bound_on_any_ring():
    # the lowest module is compared exactly: no ring takes or reports a bound
    for X in (koszul([ZLoc(3).scalar(3)]), koszul([X_VAR, Y_VAR])):
        report = check_symm09(X)
        assert report.holds and "bound" not in report.as_dict() and "bounded" not in report.as_dict()
        with pytest.raises(TypeError):
            check_symm09(X, bound=5)


def test_default_graded_bounds_counted_by_hand():
    # koszul([x, y^2]) has generators of internal degree 0 in X_0, 1 and 2
    # in X_1 and 3 in X_2: top generator degree 3, total rank 4
    K = koszul([X_VAR, Y_VAR * Y_VAR])
    assert [K.gdeg(n) for n in (0, 1, 2)] == [(0,), (1, 2), (3,)]
    # homology(): the top generator degree plus the total rank plus 2
    assert homology(K).bound == 3 + 4 + 2


def test_square_preserves_quasi_isos_over_qq():
    """Quasi-isomorphisms built from minimal cores and contractible padding."""
    rng = random.Random(37)
    for _ in range(6):
        core = random_minimal_complex(QQ, rng, max_rank=2, max_len=3)
        C1 = contractible_piece(QQ, rng.randint(1, 3))
        C2 = contractible_piece(QQ, rng.randint(1, 3))
        X = conjugate(direct_sum(core, C1), rng)
        Y = conjugate(direct_sum(core, C2), rng)
        # build the quasi-isomorphism through the shared core
        pX = summand_projection(core, C1, 0)
        iY = summand_inclusion(core, C2, 0)
        # transport through the conjugations via minimize-projections
        MX, qX = minimize(X)
        MY, qY = minimize(Y)
        assert MX.ranks == core.ranks and MY.ranks == core.ranks
        assert is_quasi_iso(qX) and is_quasi_iso(qY)
        f = compose(iY, pX)
        assert is_quasi_iso(f)
        assert is_quasi_iso(sym2_map(f))
        g = f + null_homotopic_map(f.source, f.target, rng)
        assert is_quasi_iso(sym2_map(g))


def test_negative_control_over_zz():
    K = koszul([ZZ.scalar(1), ZZ.scalar(1)])
    z = zero_map(K, K)
    assert is_quasi_iso(z)
    assert not is_quasi_iso(sym2_map(z))


def test_corpus_all_pass():
    report = run_paper_corpus()
    assert report.all_pass, str(report)
    assert len(report.results) >= 8


def test_checkers_trust_alpha_and_endo_functions_check_once(monkeypatch):
    """The checkers and split_decomposition read the summands of the alpha
    that sym2 built off its closed form: no check of alpha.alpha = 2 alpha
    and no pivot search.  endo_image_complex and endo_kernel_complex take
    an outside f, so each checks f.f = 2f exactly once."""
    sym2_module = importlib.import_module("symchain.sym2")  # the name sym2 is the function
    calls = {"_check_twice_idempotent": 0, "_pivot_columns": 0}
    for name in calls:
        function = getattr(sym2_module, name)

        def counting(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(sym2_module, name, counting)
    x, y = POLY.generators()
    for X in (koszul([ZLoc(3).scalar(3), ZLoc(3).scalar(1)]), koszul([x, y])):
        for run in (check_symm07, check_symm07pp, split_decomposition):
            calls.update(dict.fromkeys(calls, 0))
            run(X)
            assert calls == {"_check_twice_idempotent": 0, "_pivot_columns": 0}, run.__name__
        S = sym2(X)
        T = S.tensor_square
        for run in (sym2_module.endo_image_complex, sym2_module.endo_kernel_complex):
            calls.update(dict.fromkeys(calls, 0))
            run(T, S.alpha)
            assert calls == {"_check_twice_idempotent": 1, "_pivot_columns": len(T.degrees())}


def test_symm09_runs_no_smith_loop_over_zloc(monkeypatch):
    """Over ZLoc(p) check_symm09 reads no homology: S2(q) is an exactness
    verdict and the lowest module an entrywise comparison, so neither
    invariant_factors nor the Smith loop runs, even on an input that is
    not minimal."""
    homology_module = importlib.import_module("symchain.homology")
    linalg_module = importlib.import_module("symchain.linalg")
    calls = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    for module, name in (
        (homology_module, "invariant_factors"),
        (linalg_module, "invariant_factors"),
        (linalg_module, "_snf_loop"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    R = ZLoc(3)
    rng = random.Random(37)
    pieces = direct_sum(contractible_piece(R, 1), contractible_piece(R, 2))
    X = conjugate(direct_sum(two_term(R, 1, R.scalar(3)), pieces), rng)
    assert minimal_model(X).total_rank() < X.total_rank()
    for Y in (X, shift(_dense_column(R, [3, 3, 3]), 1)):
        report = check_symm09(Y)
        assert report.holds and report.conditions[-1]
    assert calls == []


def test_symm09_catches_a_sign_flipped_in_the_odd_presentation(monkeypatch):
    """Mutation: one entry of the odd (Lambda2) presentation negated.  The
    cokernel of (3, 3, 3)^T shifted to degree 1 has a Lambda2 that the
    sign decides, and the comparison names the entry."""
    theorems = importlib.import_module("symchain.theorems")
    square_presentation = theorems._square_presentation

    def flipped(M, i, even):
        P = square_presentation(M, i, even)
        if even:
            return P
        d = P.diff(1)
        key = min(d.entries)
        entries = {**d.entries, key: M.ring.ops.neg(d.entries[key])}
        return FreeComplex(M.ring, P.ranks, {1: SparseMatrix(M.ring, d.rows, d.cols, entries)})

    X = shift(_dense_column(ZLoc(3), [3, 3, 3]), 1)
    assert check_symm09(X).holds
    monkeypatch.setattr(theorems, "_square_presentation", flipped)
    report = check_symm09(X)
    assert dict(zip(report.labels, report.conditions))["lowest_module_matches"] is False
    assert report.holds is False
    kind, row, col, want, got = report.witnesses["lowest"]
    # the shift negates d, so d(e) ^ f_0 = -3 f_1 ^ f_0 - 3 f_2 ^ f_0
    # = 3 f_0 ^ f_1 + 3 f_0 ^ f_2: the first entry, at f_0 ^ f_1, is 3
    assert (kind, row, col) == ("entry", ((1, 0), (1, 1)), ((1, 0), (2, 0)))
    assert (str(want), str(got)) == ("-3", "3")
    assert "entry" in report.as_dict()["witnesses"]["lowest"]


def test_symm09_catches_a_square_of_q_that_drops_a_component(monkeypatch):
    """Mutation: S2(q) with one component zeroed is no quasi-isomorphism,
    and the witness names its failures."""
    theorems = importlib.import_module("symchain.theorems")
    sym2_map_of = theorems._sym2_map

    def dropping(ff, SX, SY):
        f = sym2_map_of(ff, SX, SY)
        n = min(f.maps)
        return ChainMap._of(f.source, f.target, {k: C for k, C in f.maps.items() if k != n})

    X = koszul([X_VAR, Y_VAR])
    assert check_symm09(X).holds
    monkeypatch.setattr(theorems, "_sym2_map", dropping)
    report = check_symm09(X)
    assert dict(zip(report.labels, report.conditions))["lowest_module_matches"] is False
    assert report.holds is False
    what, failures = report.witnesses["lowest"]
    assert what == "S2(q) is not a quasi-isomorphism" and failures
    assert "quasi-isomorphism" in report.as_dict()["witnesses"]["lowest"]


def test_symm09_holds_on_the_five_variable_koszul_complex():
    """The Koszul complex on five variables, where the lowest module was
    once compared through Hilbert tables to a degree bound of 44."""
    R = graded_poly("a", "b", "c", "d", "e")
    report = check_symm09(koszul(list(R.generators())))
    assert report.holds and report.witnesses == {}
    assert dict(zip(report.labels, report.conditions)) == {
        "inf_lower_bound": True,
        "inf_equality_even": True,
        "lowest_module_matches": True,
    }


def test_equivalence_report_reads_failure_lists_and_bools():
    """A failure list holds when empty and gives its first three entries as
    witnesses; a bool is taken as it is; the given witnesses come first.
    An implication report holds when every condition does."""
    X = unit_complex(QQ)
    r = _verdict("t", X, {"a": [], "b": True})
    assert (r.labels, r.conditions) == (("a", "b"), (True, True))
    assert (r.equivalent, r.holds) == (True, True)
    assert (r.witnesses, r.backend, r.theorem) == ({}, str(QQ), "t")
    given = {"j": 0}
    r = _verdict("t", X, {"a": [1, 2, 3, 4], "b": False}, given)
    assert (r.conditions, r.equivalent, r.holds) == ((False, False), True, False)
    assert list(r.witnesses.items()) == [("j", 0), ("a", [1, 2, 3])]
    assert given == {"j": 0}
    r = _verdict("t", X, {"a": [5], "b": True})
    assert (r.conditions, r.equivalent, r.holds) == ((False, True), False, None)
    assert r.witnesses == {"a": [5]}
    r = _verdict("t", X, {"a": [], "b": False}, equivalence=False, note="n")
    assert (r.conditions, r.equivalent, r.holds, r.note) == ((True, False), None, False, "n")
    r = _verdict("t", X, {}, equivalence=False)
    assert (r.conditions, r.equivalent, r.holds, r.note) == ((), None, True, None)


def test_graded_verdicts_multiply_no_polynomial(monkeypatch):
    """Every _split_units call on a graded ring, through every binding of
    the name: the verdicts, inf_h and the checkers that read only ranks,
    s2fpd01 among them, make none, since they split the constant terms
    over QQ; symm09 makes exactly one, with q, which is minimize."""
    real = importlib.import_module("symchain.series")._split_units
    graded_calls = []

    def counting(ring, ranks, entries, with_q=False):
        if ring.graded:
            graded_calls.append(with_q)
        return real(ring, ranks, entries, with_q)

    for module in [m for name, m in sys.modules.items() if name.startswith("symchain")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)
    pad = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (1,), 1: (1,)})
    K = koszul([X_VAR, Y_VAR])
    other = random_graded_minimal(POLY, random.Random(3))
    for X in (K, direct_sum(K, shift(pad, 1)), direct_sum(shift(pad, 2), other)):
        S = sym2(X)
        for run, args in (
            (is_exact, (X,)),
            (is_exact, (S.complex,)),
            (is_quasi_iso, (S.proj,)),
            (is_quasi_iso, (S.alpha,)),
            (inf_h, (X,)),
            (check_symm07, (X,)),
            (check_symm07pp, (X,)),
            (check_s2fpd02, (X,)),
            (check_s2fpd01, (X,)),
        ):
            graded_calls.clear()
            run(*args)
            assert graded_calls == [], run.__name__
        graded_calls.clear()
        check_symm09(X)
        assert graded_calls == [True], check_symm09.__name__


def _record_calls(monkeypatch, real) -> list:
    """Rebind every binding of `real` in the symchain modules to a wrapper
    that records the first argument of each call; returns the record."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("symchain")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, recording)
    return calls


def test_s2fpd01_builds_one_square_and_no_minimal_complex(monkeypatch):
    """s2fpd01 squares X once, for the minimal model of S2(X), and reads
    the ranks of M and of S2(M) by counting: no minimize, no sym2(M).  The
    square is of the degree-zero part of a graded X, of X itself over
    ZLoc(p)."""
    squares = _record_calls(monkeypatch, sym2)
    minimized = _record_calls(monkeypatch, minimize)
    pad = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (1,), 1: (1,)})
    rng = random.Random(17)
    padded_zloc = direct_sum(random_minimal_complex(ZLoc(3), rng), contractible_piece(ZLoc(3), 2))
    for X in (koszul([X_VAR, Y_VAR]), direct_sum(koszul([X_VAR, Y_VAR]), shift(pad, 1)), padded_zloc):
        squares.clear()
        report = check_s2fpd01(X)
        assert report.holds
        assert len(squares) == 1
        assert squares[0] == _degree_zero_part(X) if X.graded else squares[0] is X
        assert minimized == []


def test_symm09_squares_x_once_when_x_is_minimal(monkeypatch):
    """minimize returns X itself when nothing splits, and symm09 then uses
    S2(X) as the square of the minimal model; a padded X needs both."""
    squares = _record_calls(monkeypatch, sym2)
    pad = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (1,), 1: (1,)})
    K = koszul([X_VAR, Y_VAR])
    assert check_symm09(K).holds
    assert len(squares) == 1 and squares[0] is K
    squares.clear()
    padded = direct_sum(K, shift(pad, 1))
    assert check_symm09(padded).holds
    assert len(squares) == 2 and squares[0] is padded and squares[1] == K
