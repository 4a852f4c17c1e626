"""Inputs, user-facing calls and correctness oracles of the four workloads.

A workload is a fixed job: a list of items, each one user-facing call into
symchain plus an oracle that checks its answer without using the code path
being timed.  ``build(name, seed, workdir)`` makes the job; the seed reaches
only this module's generators, never the library.

Generators use plain ``Fraction`` arithmetic and symchain's constructors
only, so a change to the library's algorithms cannot move set-up time.
Timed calls look their function up in the ``symchain`` namespaces when they
run, so the span wrappers of a traced run see them.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import symchain
import symchain.cli
from symchain import ZZ, FreeComplex, SparseMatrix, ZLoc, graded_poly, koszul, serialize

@dataclass
class Item:
    """One user-facing call and the oracle that judges its result."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def build(name: str, seed: int, workdir: Path) -> list[Item]:
    """The workload's job; same name and seed give the same inputs."""
    if name == "zloc_theorems":
        return zloc_items(seed)
    if name == "graded_theorems_cli":
        return cli_items(workdir)
    if name == "graded_homology":
        return graded_items(seed)
    if name == "integer_homology":
        return integer_items()
    raise ValueError(f"unknown workload {name!r}")


# -- zloc_theorems ------------------------------------------------------------------

ZLOC_P = 3
# (minimal shape, contractible pieces added, count): 60 minimal, 40 not
ZLOC_QUOTAS = (
    ("shift", 0, 20),
    ("two_odd", 0, 10),
    ("rank3", 0, 15),
    ("rank4", 0, 15),
    ("zero", 1, 4),
    ("shift", 1, 10),
    ("two_odd", 1, 6),
    ("rank3", 1, 10),
    ("rank4", 1, 10),
)
MAX_DEGREE = 4  # pieces live in degrees 0..4: length at most 5
SHAPE_SEED = 0  # draws the degrees of the pieces, the same for every seed
UNITS = [Fraction(n, d) for n in (1, -1, 2, -2, 4, -5) for d in (1, 2, 5)]


@dataclass
class ZLocCase:
    """A seeded complex and the ranks of the minimal part it was summed from."""

    ranks: dict  # degree -> rank
    diffs: dict  # degree -> list of rows of Fractions
    minimal_ranks: dict  # degree -> rank of the minimal summand

    def complex(self) -> FreeComplex:
        R = ZLoc(ZLOC_P)
        mats = {n: SparseMatrix.from_rows(R, rows) for n, rows in self.diffs.items()}
        return FreeComplex(R, self.ranks, mats)


def predicted_verdicts(minimal_ranks: dict) -> dict:
    """Verdicts of the three checkers, read off the minimal summand's ranks.

    symm07: zero or one rank-1 module in even degree.  symm07pp: zero or
    one rank-1 module in odd degree.  s2fpd02: one rank-1 module in even
    degree, or rank 2 in odd degrees only (odd degrees are never adjacent).
    """
    degs = {n: r for n, r in minimal_ranks.items() if r}
    total = sum(degs.values())
    single_even = total == 1 and all(n % 2 == 0 for n in degs)
    single_odd = total == 1 and all(n % 2 == 1 for n in degs)
    two_odd = total == 2 and all(n % 2 == 1 for n in degs)
    return {
        "symm07": total == 0 or single_even,
        "symm07pp": total == 0 or single_odd,
        "s2fpd02": single_even or two_odd,
    }


def _minimal_pieces(kind: str, shape: random.Random, rng: random.Random) -> list:
    """Pieces of a minimal complex: ("shift", d) or ("term", d, non-unit entry).

    ``shape`` draws the kind and degree of each piece, ``rng`` the entries.
    """
    if kind == "zero":
        return []
    if kind == "shift":
        return [("shift", shape.randint(0, MAX_DEGREE))]
    if kind == "two_odd":
        return [("shift", shape.choice((1, 3))), ("shift", shape.choice((1, 3)))]
    target = {"rank3": 3, "rank4": 4}[kind]
    pieces = []
    rank = 0
    while rank < target:
        if target - rank >= 2 and shape.random() < 0.5:
            entry = rng.choice(UNITS) * ZLOC_P ** rng.randint(1, 2)
            pieces.append(("term", shape.randint(1, MAX_DEGREE), entry))
            rank += 2
        else:
            pieces.append(("shift", shape.randint(0, MAX_DEGREE)))
            rank += 1
    return pieces


def _sum_pieces(pieces: list):
    """Block sum of the pieces: (ranks, differential blocks, minimal ranks)."""
    ranks = {}
    minimal = {}
    blocks = []  # (degree, row, column, entry)
    for piece in pieces:
        d = piece[1]
        if piece[0] == "shift":
            ranks[d] = ranks.get(d, 0) + 1
            minimal[d] = minimal.get(d, 0) + 1
            continue
        entry = piece[2]
        row, col = ranks.get(d - 1, 0), ranks.get(d, 0)
        ranks[d - 1] = row + 1
        ranks[d] = col + 1
        blocks.append((d, row, col, entry))
        if entry.numerator % ZLOC_P == 0:
            minimal[d - 1] = minimal.get(d - 1, 0) + 1
            minimal[d] = minimal.get(d, 0) + 1
    diffs = {}
    for d, row, col, entry in blocks:
        rows = diffs.setdefault(d, [[Fraction(0)] * ranks[d] for _ in range(ranks[d - 1])])
        rows[row][col] = entry
    return ranks, diffs, minimal


def _basis_change(n: int, rng: random.Random):
    """A unimodular matrix over ZLoc(p) and its inverse, from elementary steps."""
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]  # Q = P^-1 throughout
    for _ in range(2 * n):
        kind = rng.randrange(3) if n > 1 else 2
        if kind == 0:  # row_i += c * row_j; inverse: col_j -= c * col_i
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.choice((-2, -1, 1, 2, 3)))
            P[i] = [a + c * b for a, b in zip(P[i], P[j])]
            for row in Q:
                row[j] -= c * row[i]
        elif kind == 1:  # swap rows i, j; inverse swaps columns
            i, j = rng.sample(range(n), 2)
            P[i], P[j] = P[j], P[i]
            for row in Q:
                row[i], row[j] = row[j], row[i]
        else:  # row_i *= u; inverse: col_i /= u
            i = rng.randrange(n)
            u = rng.choice(UNITS)
            P[i] = [u * a for a in P[i]]
            for row in Q:
                row[i] /= u
    return P, Q


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def zloc_case(kind: str, contractible: int, shape: random.Random, rng: random.Random) -> ZLocCase:
    pieces = _minimal_pieces(kind, shape, rng)
    for _ in range(contractible):
        pieces.append(("term", shape.randint(1, MAX_DEGREE), rng.choice(UNITS)))
    ranks, diffs, minimal_ranks = _sum_pieces(pieces)
    change = {n: _basis_change(r, rng) for n, r in sorted(ranks.items())}
    conjugated = {}
    for n, rows in sorted(diffs.items()):
        P_below, _ = change[n - 1]
        _, Q_here = change[n]
        conjugated[n] = _matmul(_matmul(P_below, rows), Q_here)
    return ZLocCase(ranks, conjugated, minimal_ranks)


def zloc_cases(seed: int) -> list[ZLocCase]:
    """100 complexes in fixed quotas of shape, so the mix is the same per seed.

    The degrees of the pieces are the same for every seed: where ranks
    bunch in two adjacent degrees a case costs up to three times more, and
    drawing them per seed moved the job's time by 25%.  The seed draws the
    entries and the basis changes.
    """
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    return [
        zloc_case(kind, contractible, shape, rng)
        for kind, contractible, count in ZLOC_QUOTAS
        for _ in range(count)
    ]


def zloc_items(seed: int) -> list[Item]:
    items = []
    for k, case in enumerate(zloc_cases(seed)):
        X = case.complex()
        expected = predicted_verdicts(case.minimal_ranks)
        for theorem in ("symm07", "symm07pp", "s2fpd02"):
            items.append(
                Item(
                    f"{theorem}#{k}",
                    lambda fn=f"check_{theorem}", X=X: getattr(symchain, fn)(X),
                    lambda rep, want=expected[theorem]: rep.equivalent is True and rep.holds is want,
                )
            )
    return items


# -- graded_theorems_cli ------------------------------------------------------------


def run_cli(argv: list) -> tuple[int, str]:
    """``symchain.cli.main`` in-process, with its standard output captured."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = symchain.cli.main(argv)
    return code, out.getvalue()


def cli_report_ok(result: tuple[int, str]) -> bool:
    code, text = result
    return code == 0 and "equivalent: true" in text.splitlines()


def cli_items(workdir: Path) -> list[Item]:
    R = graded_poly("x", "y")
    path = workdir / "koszul_xy.json"
    path.write_text(serialize(koszul([R.variable("x"), R.variable("y")])), encoding="utf-8")
    return [
        Item(f"check {theorem}", lambda t=theorem: run_cli(["check", t, str(path)]), cli_report_ok)
        for theorem in ("symm07", "symm07pp")
    ]


# -- graded_homology ----------------------------------------------------------------

GRADED_VARS = ("x0", "x1", "x2")
MONOMIAL_BOUND = 16
LINEAR_BOUND = 12


def linear_forms(seed: int) -> list:
    """Three forms x_i + s x_j (s = +-1), one for each pair i < j in order.

    A linear change of variables is then a graded automorphism of the ring,
    so the homology tables must equal those of the monomial generators.
    The seed draws the signs, of which four patterns give independent
    forms; each of the four costs 4.4-4.7 s.  The pairs and their order are
    fixed: using one pair twice, or another order, moves the cost anywhere
    from 3.0 to 5.6 s, which spread the seeded runs past their bound.
    Returns (i, j, s) triples.
    """
    rng = random.Random(seed)
    while True:
        forms = [(i, j, rng.choice((1, -1))) for i, j in ((0, 1), (0, 2), (1, 2))]
        if det3(form_matrix(forms)):
            return forms


def form_matrix(forms) -> list:
    rows = []
    for i, j, s in forms:
        row = [0, 0, 0]
        row[i], row[j] = 1, s
        rows.append(row)
    return rows


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def koszul_sym2_slice_dims(bound: int) -> dict:
    """Slice sizes of S^2 of a Koszul complex on three linear forms.

    Counted from monomials: the Koszul generators in homological degree k
    are the k-subsets of three letters, of internal degree k.  S^2 has one
    generator per unordered pair, minus the diagonal of odd degree.  Returns
    {(n, d): dim of the degree-(n, d) slice} for internal degrees d <= bound.
    """
    subsets = [(k, s) for k in range(4) for s in range(comb(3, k))]
    dims = {}
    for a, (ka, sa) in enumerate(subsets):
        for kb, sb in subsets[a:]:
            if (ka, sa) == (kb, sb) and ka % 2 == 1:
                continue
            n = ka + kb
            for d in range(n, bound + 1):
                dims[(n, d)] = dims.get((n, d), 0) + comb(d - n + 2, 2)
    return dims


def euler_ok(values: dict, bound: int) -> bool:
    """Euler characteristic of each internal degree matches the slice sizes."""
    dims = koszul_sym2_slice_dims(bound)
    for d in range(bound + 1):
        chi_chain = sum((-1) ** n * dim for (n, dd), dim in dims.items() if dd == d)
        chi_homology = sum((-1) ** n * table.get(d, 0) for n, table in values.items())
        if chi_chain != chi_homology:
            return False
    return True


def graded_table(elements: list, bound: int) -> dict:
    S = symchain.sym2(symchain.koszul(elements)).complex
    return symchain.homology(S, bound=bound).values


def graded_items(seed: int) -> list[Item]:
    R = graded_poly(*GRADED_VARS)
    x = R.generators()
    linear = [x[i] + R.scalar(s) * x[j] for i, j, s in linear_forms(seed)]
    tables = {}

    def check_monomial(values):
        tables["monomial"] = values
        return euler_ok(values, MONOMIAL_BOUND)

    def check_linear(values):
        truncated = {}
        for n, table in tables.get("monomial", {}).items():
            kept = {d: h for d, h in table.items() if d <= LINEAR_BOUND}
            if kept:
                truncated[n] = kept
        return "monomial" in tables and values == truncated and euler_ok(values, LINEAR_BOUND)

    return [
        Item(f"monomial bound {MONOMIAL_BOUND}", lambda: graded_table(list(x), MONOMIAL_BOUND), check_monomial),
        Item(f"linear bound {LINEAR_BOUND}", lambda: graded_table(linear, LINEAR_BOUND), check_linear),
    ]


# -- integer_homology ---------------------------------------------------------------

SYM2_ELEMENTS = (3, 5, -7, 11)
WEAK_ELEMENTS = (2, 9, 25, 49)
# degree -> (free rank, invariant factors); cross-checked against sympy in the tests
SYM2_INVARIANTS = {3: (0, (2, 2, 2)), 7: (0, (2,))}
WEAK_INVARIANTS = {2: (0, (2,)), 6: (0, (2, 2, 2))}


def invariants(report) -> dict:
    return {n: (g.rank, tuple(g.factors)) for n, g in report.values.items()}


def integer_items() -> list[Item]:
    sym2_input = [ZZ.scalar(v) for v in SYM2_ELEMENTS]
    weak_input = [ZZ.scalar(v) for v in WEAK_ELEMENTS]
    return [
        Item(
            "sym2 homology",
            lambda: symchain.homology(symchain.sym2(symchain.koszul(sym2_input)).complex),
            lambda report: invariants(report) == SYM2_INVARIANTS,
        ),
        Item(
            "weak sym2 presented homology",
            lambda: symchain.homology_presented(symchain.weak_sym2(symchain.koszul(weak_input))),
            lambda report: invariants(report) == WEAK_INVARIANTS,
        ),
    ]
