"""Checker reports and serialized squares, byte for byte against recorded files.

tests/golden/<ring>.json holds, for a fixed set of seeded complexes, the
as_dict() of symm07, symm07pp, s2fpd01, s2fpd02 and symm09, and the
SHA-256 of the serialize() text of the input and of sym2, its proj, alpha
and weak_sym2 (the texts themselves would make the record about 1.7 MB).  The inputs
are sums of elementary pieces over QQ, GF(5), ZLoc(3) and ZLoc(5), each
plain, padded with a contractible piece, and padded then conjugated by a
random basis change; graded sums of Koszul pieces over QQ[x, y], plain
and padded; and Koszul complexes over ZZ, squares only.  A change that
is meant to alter one of these values regenerates the files with
`PYTHONPATH=src python tests/test_golden.py --write`.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from randgen import conjugate, contractible_piece, random_graded_minimal, two_term
from symchain import (
    GF,
    QQ,
    FreeComplex,
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
    koszul,
    serialize,
    shift,
    sym2,
    unit_complex,
    weak_sym2,
    zero_complex,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
POLY = graded_poly("x", "y")
CHECKERS = {
    "symm07": check_symm07,
    "symm07pp": check_symm07pp,
    "s2fpd01": check_s2fpd01,
    "s2fpd02": check_s2fpd02,
    "symm09": check_symm09,
}


def _entry(ring, rng):
    """A differential entry: zero, a unit or, over ZLoc(p), a multiple of p."""
    choices = [0, 1, -1, 2]
    if ring.kind == "ZLoc":
        choices += [ring.p, -ring.p, 2 * ring.p, ring.p**2]
    return ring.scalar(rng.choice(choices))


def _plain(ring, rng):
    """A sum of one to three shifted copies of R and two-term pieces."""
    out = zero_complex(ring)
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(0, 3)
        if d and rng.random() < 0.6:
            piece = two_term(ring, d, _entry(ring, rng))
        else:
            piece = shift(unit_complex(ring), d)
        if all(r <= 2 for r in direct_sum(out, piece).ranks.values()):
            out = direct_sum(out, piece)
    return out if not out.is_zero() else unit_complex(ring)


def _graded_contractible(rng):
    e = rng.randint(0, 2)
    C = FreeComplex(POLY, {0: 1, 1: 1}, {1: SparseMatrix.identity(POLY, 1)}, {0: (e,), 1: (e,)})
    return shift(C, rng.randint(0, 2))


def _cases(label):
    """(name, complex, run the checkers) for one ring of the record."""
    if label == "ZZ":
        yield from (
            (f"koszul{xs}", koszul([ZZ.scalar(x) for x in xs]), False)
            for xs in ((3,), (2, 3), (2, 9, 25), (3, 5, -7))
        )
        return
    if label == "Poly":
        rng = random.Random(17)
        x, y = POLY.generators()
        yield "koszul[x]", koszul([x]), True
        yield "koszul[x,y]", koszul([x, y]), True
        for k in range(3):
            X = random_graded_minimal(POLY, rng)
            yield f"plain{k}", X, True
            yield f"padded{k}", direct_sum(X, _graded_contractible(rng)), True
        return
    ring = {"QQ": QQ, "GF5": GF(5), "ZLoc3": ZLoc(3), "ZLoc5": ZLoc(5)}[label]
    rng = random.Random(131 + len(label))
    for k in range(4):
        X = _plain(ring, rng)
        padded = direct_sum(X, contractible_piece(ring, rng.randint(1, 3)))
        yield f"plain{k}", X, True
        yield f"padded{k}", padded, True
        yield f"conjugated{k}", conjugate(padded, rng), True


LABELS = ["QQ", "GF5", "ZLoc3", "ZLoc5", "Poly", "ZZ"]


def _digest(value):
    return hashlib.sha256(serialize(value).encode()).hexdigest()


def _record(X, checks):
    S = sym2(X)
    out = {"input": _digest(X)}
    if checks:
        out.update({name: check(X).as_dict() for name, check in CHECKERS.items()})
    out.update(
        {
            "sym2": _digest(S.complex),
            "proj": _digest(S.proj),
            "alpha": _digest(S.alpha),
            "weak_sym2": _digest(weak_sym2(X)),
        }
    )
    return out


def _records(label):
    return {name: _record(X, checks) for name, X, checks in _cases(label)}


@pytest.mark.parametrize("label", LABELS)
def test_reports_and_squares_match_the_record(label):
    want = json.loads((GOLDEN / f"{label}.json").read_text())
    got = _records(label)
    assert list(got) == list(want)
    for name, record in got.items():
        assert record["input"] == want[name]["input"], (name, "the input changed")
        for key, value in record.items():
            assert value == want[name][key], (name, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for label in LABELS:
        text = json.dumps(_records(label), indent=1, sort_keys=False) + "\n"
        (GOLDEN / f"{label}.json").write_text(text)
