"""Theorem checkers: condition vectors must be constant; corpus must pass."""

import importlib
import random

import pytest

from symchain import (
    GF,
    FreeComplex,
    QQ,
    SparseMatrix,
    ZLoc,
    ZZ,
    check_s2fpd02,
    check_symm07,
    check_symm07pp,
    check_symm09,
    direct_sum,
    graded_poly,
    homology,
    is_exact,
    is_quasi_iso,
    koszul,
    mapping_cone,
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

from oracles import lowest_square_oracle
from randgen import (
    conjugate,
    contractible_piece,
    null_homotopic_map,
    random_complex,
    random_graded_minimal,
    random_minimal_complex,
    summand_inclusion,
    summand_projection,
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
    # exact verdicts over the graded ring: no bound, and none reported
    assert not report.bounded and report.bound is None
    assert report.as_dict()["bounded"] is False and report.as_dict()["bound"] is None


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
    assert not r07.bounded and not r07pp.bounded and r07.bound is r07pp.bound is None
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


def test_symm09_prediction_matches_oracles(monkeypatch):
    """The presentation built from the minimal model against the slow
    oracles: module tables from slice data (graded), S2/Lambda2 of a sum of
    cyclic groups (ZLoc), a binomial coefficient (fields)."""
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
        oracle = lowest_square_oracle(X, report.bound)
        if oracle is None:
            assert report.note and not built
            continue
        [(i, even, P)] = built
        oi, want = oracle
        assert (i, even) == (oi, oi % 2 == 0), X
        assert theorems._homology_value(P, 0, report.bound) == want, (X, i)
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
    for s, want in ((0, (3, (3, 3, 3))), (1, (1, (3, 3)))):
        P = theorems._square_presentation(shift(X, s), s, s % 2 == 0)
        assert theorems._homology_value(P, 0, None) == want
        assert check_symm09(shift(X, s)).holds


def test_symm09_infimum_is_not_read_to_the_bound():
    # R(-3) (+) (R --1--> R): H_0 = R(-3) lives above the bound 1, which
    # once made the report say "input complex is exact"
    X = FreeComplex(
        POLY, {0: 2, 1: 1},
        {1: SparseMatrix.from_rows(POLY, [[0], [1]])},
        {0: (3, 0), 1: (0,)},
    )
    assert not is_exact(X)
    report = check_symm09(X, bound=1)
    assert report.labels == ("inf_lower_bound", "inf_equality_even", "lowest_module_matches")
    assert report.conditions == (True, True, True)
    assert report.note is None and report.bound == 1 and report.bounded


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


def test_checkers_check_twice_idempotence_once(monkeypatch):
    sym2_module = importlib.import_module("symchain.sym2")  # the name sym2 is the function
    calls = []
    check = sym2_module._check_twice_idempotent

    def counting(T, f):
        calls.append(T)
        check(T, f)

    monkeypatch.setattr(sym2_module, "_check_twice_idempotent", counting)
    x, y = POLY.generators()
    for X in (koszul([ZLoc(3).scalar(3), ZLoc(3).scalar(1)]), koszul([x, y])):
        for run in (check_symm07, check_symm07pp, split_decomposition):
            calls.clear()
            run(X)
            assert len(calls) == 1, run.__name__
