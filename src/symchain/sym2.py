"""Second symmetric powers of complexes and the surrounding natural maps.

For a complex X, the tensor square T = X (x) X carries the endomorphism
alpha with alpha(x (x) x') = x (x) x' - (-1)^{|x||x'|} x' (x) x.  The weak
symmetric square is coker(alpha); the symmetric square additionally kills
the squares x (x) x of odd-degree generators.  Both quotients are computed
on a canonical generator basis:

  * a degree-n generator is an ordered pair of labels ((p,i),(q,j)) with
    (p,i) <= (q,j) lexicographically and p+q = n; diagonal pairs with p odd
    are dropped (symmetric square) or retained and given the relation
    2*(generator) (weak square over rings where 2 is not a unit);
  * generators are listed in lexicographic order of the pair;
  * rewriting a tensor generator to canonical form contributes the sign
    (-1)^{pq} when the two factors must be swapped.

The square is computed from X alone.  On the canonical generators its
differential is d(a.b) = da.b + (-1)^{|a|} a.db, so one walk over the
pairs (a, b) of generators of X in each degree (_square) reads the
columns a and b of the differentials of X and writes each term on its
canonical label, with its swap sign, for the symmetric square and the
weak square's presentation alike.  That is rho . d . sigma for the
reduction rho and the section sigma of T below, which the tests check
with the general product, and it reproduces the classical small matrices
for Koszul complexes on one and two elements exactly; no tensor square
is built for it.

The tensor side is built on first use.  One involution fixes it: the
signed swap c = a (x) b -> (-1)^{|a||b|} b (x) a.  One walk over the
generators of each degree of T (_walk), on the bases that built T, looks
up each swap and its sign once and writes alpha, rho (tensor coordinates
onto canonical generators) and sigma (each generator as its canonical
tensor generator).  A Sym2Result keeps the complex and the labels of the
square, and builds rho as the chain map `proj`, sigma as `section[n]`,
`tensor_square`, `alpha` and the tensor bases with their index when the
first of them is read; alpha(X) is sym2(X).alpha.  Each column of rho has
at most one entry, so products with rho are formed with no general
product (_pick): rho sends each row to one generator, with a sign.  The
same picking forms the summands' L . d . B, the maps S2(f) and the
induced homotopy on S2 below.  f (x) f and the homotopy transported to T are the
one Kronecker loop of complexes._kronecker on the same bases.

When 2 is a unit, alpha/2 is idempotent, so Im(alpha) and Ker(alpha) =
Im(2 - alpha) are direct summands of T.  For the alpha of a square both,
and the corestriction q = L alpha, have closed forms read off the pairs
{c, c'} of swapped tensor generators, on the tensor bases and their index
as the walk reads them: no elimination, no solve, no product with alpha
and no check of alpha.alpha = 2 alpha, since the library built alpha
itself (_alpha_summands).  endo_image_complex and
endo_kernel_complex take any endomorphism f with f.f = 2f; they check that
and take as bases the columns of f and 2 - f at their pivots over the
residue field, so no lattice transform is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .complexes import (
    ChainMap,
    FreeComplex,
    Homotopy,
    _checked_family,
    _kronecker,
    _tensor_with_bases,
    direct_sum,
    is_homotopy,
    shift,
)
from .errors import (
    GradingError,
    LinearSolveError,
    RingMismatchError,
    ShapeError,
    SymchainError,
    TwoNotUnitError,
    UnsupportedRingError,
)
from .linalg import SparseMatrix, _columns, _poly_to_qq, rank, rref, solve_exact
from .scalars import Ring

__all__ = [
    "Sym2Result",
    "PresentedComplex",
    "sym_basis",
    "alpha",
    "sym2",
    "weak_sym2",
    "sym2_map",
    "SplitDecomposition",
    "split_decomposition",
    "sum_decomposition_iso",
    "shift_iso",
    "induced_homotopy",
    "base_change",
    "base_change_matrix",
    "sym2_base_change_iso",
    "endo_image_complex",
    "endo_kernel_complex",
    "SubcomplexData",
]


# -- canonical bases -----------------------------------------------------------


def _blocks(X: FreeComplex, n: int, keep_odd_diagonal: bool):
    """The canonical generators of degree n by block: [(p, q, labels)] for
    the degrees p <= q = n - p of X, ascending in p, each block's labels
    ((p, i), (q, j)) row-major.  On the diagonal block p = q they have
    i <= j, and i < j when p is odd and its squares are dropped."""
    blocks = []
    for p in X.degrees():
        q = n - p
        if p > q:
            break
        if not X.rank(q):
            continue
        if p < q:
            labs = [((p, i), (q, j)) for i in range(X.rank(p)) for j in range(X.rank(q))]
        else:
            skip = 1 if p % 2 and not keep_odd_diagonal else 0
            labs = [((p, i), (p, j)) for i in range(X.rank(p)) for j in range(i + skip, X.rank(p))]
        blocks.append((p, q, labs))
    return blocks


def sym_basis(X: FreeComplex, n: int, include_odd_diagonal: bool = False):
    """Ordered canonical generator labels of the degree-n symmetric square.

    Labels are pairs ((p,i),(q,j)) with (p,i) <= (q,j), listed in
    lexicographic order.  Diagonal labels with p odd appear only when
    include_odd_diagonal is set (the weak-square presentation basis).
    """
    return [lab for _, _, labs in _blocks(X, n, include_odd_diagonal) for lab in labs]


def _square(X: FreeComplex, keep_odd_diagonal: bool):
    """(labels, ranks, diffs, gdegs) of the symmetric square of X, or of the
    weak square's presentation with keep_odd_diagonal, from one walk over
    the canonical generators a.b of each degree, reading only X.

    labels[n] is sym_basis(X, n, keep_odd_diagonal), for every degree n of
    T = X (x) X, empty where only odd diagonal squares live.  The column
    of a.b, with a = (p, i) <= b = (q, j), is d(a.b) = da.b + (-1)^p a.db:
    each term x.y is written on its canonical label, times the swap sign
    (-1)^{|x||y|} when y < x, and the killed odd diagonal squares are
    dropped.  Terms meet only on a diagonal generator, where da.a and
    (-1)^p a.da add up to 2 da.a for even p and to 0 for odd p.  Columns
    are walked block by block by decreasing p, as T lists its tensor
    generators, so each matrix holds its entries in the order rho . d . sigma
    wrote them.  diffs holds the nonzero differentials only.
    """
    ring = X.ring
    add, neg = ring.ops.add, ring.ops.neg
    d_cols = {p: _columns(X.diff(p)) for p in X.degrees()}
    degrees = sorted({p + q for p in X.degrees() for q in X.degrees()})
    blocks = {n: _blocks(X, n, keep_odd_diagonal) for n in degrees}
    labels = {n: [lab for _, _, labs in bs for lab in labs] for n, bs in blocks.items()}
    ranks = {n: len(labs) for n, labs in labels.items()}
    diffs = {}
    for n in degrees:
        if not ranks[n] or not ranks.get(n - 1):
            continue
        row_of = {lab: k for k, lab in enumerate(labels[n - 1])}
        entries = {}
        col = ranks[n]
        for p, q, labs in reversed(blocks[n]):
            col -= len(labs)
            for c, ((_, i), (_, j)) in enumerate(labs, col):
                if p == q and i == j:
                    if p % 2 == 0:
                        for k, v in d_cols[p].get(i, ()):
                            entries[(row_of[((p - 1, k), (p, i))], c)] = add(v, v)
                    continue
                for k, v in d_cols[p].get(i, ()):
                    entries[(row_of[((p - 1, k), (q, j))], c)] = v
                for l, v in d_cols[q].get(j, ()):
                    a, b = (p, i), (q - 1, l)
                    odd = p % 2
                    if b < a:  # (-1)^p times the swap sign (-1)^{p(q-1)}
                        a, b, odd = b, a, (p * q) % 2
                    row = row_of.get((a, b))
                    if row is not None:  # else an odd diagonal square, killed
                        entries[(row, c)] = neg(v) if odd else v
        D = SparseMatrix._of(ring, ranks[n - 1], ranks[n], entries)
        if D.entries:  # 2 da.a is 0 in characteristic 2
            diffs[n] = D
    gdegs = None
    if X.graded:
        gdegs = {
            n: tuple(X.gdeg(p)[i] + X.gdeg(q)[j] for ((p, i), (q, j)) in labs)
            for n, labs in labels.items()
            if labs
        }
    return labels, ranks, diffs, gdegs


def _walk(T: FreeComplex, bases: dict, indices: dict, labels: dict):
    """(rho, sigma, alpha) from one walk of each degree of T = X (x) X,
    given T with its tensor bases and their indices (_tensor_with_bases)
    and the labels of the symmetric square (_square).

    Each tensor generator c = a (x) b is visited once, with its swap
    c' = b (x) a and the sign v = (-1)^{|a||b|}.  alpha(e_c) is e_c - v e_c'
    off the diagonal and (1 - v) e_c on it: 2 e_c for odd |a|, 0 for even.
    rho[n] sends e_c to its canonical generator, times v when c is the
    swapped one (a > b), and kills the odd diagonal squares; sigma[n]
    embeds each generator as its canonical tensor generator, so
    rho[n] @ sigma[n] = 1.  The dicts are keyed by T.degrees(); alpha is a
    chain map of T.
    """
    ring = T.ring
    ops = ring.ops
    one, minus_one = ops.one, ops.neg(ops.one)
    two = ops.add(one, one)
    rho, sigma, al = {}, {}, {}
    for n, tbasis in bases.items():
        index = indices[n]
        labs = labels[n]
        row_of = {lab: k for k, lab in enumerate(labs)}
        rho_entries, sigma_entries, alpha_entries = {}, {}, {}
        for col, (a, b) in enumerate(tbasis):
            odd = (a[0] * b[0]) % 2
            if a != b:
                alpha_entries[(col, col)] = one
                alpha_entries[(index[(b, a)], col)] = one if odd else minus_one
            elif odd:
                alpha_entries[(col, col)] = two
            if a > b:
                rho_entries[(row_of[(b, a)], col)] = minus_one if odd else one
            elif (row := row_of.get((a, b))) is not None:  # else an odd diagonal square, killed
                rho_entries[(row, col)] = one
                sigma_entries[(col, row)] = one
        r = len(tbasis)
        rho[n] = SparseMatrix._of(ring, len(labs), r, rho_entries)
        sigma[n] = SparseMatrix._of(ring, r, len(labs), sigma_entries)
        al[n] = SparseMatrix._of(ring, r, r, alpha_entries)
    return rho, sigma, ChainMap._of(T, T, al)


def _pick(
    L: SparseMatrix, D: SparseMatrix, B: SparseMatrix | None = None, d_cols: dict | None = None
) -> SparseMatrix:
    """L @ D @ B (L @ D without B) for L with at most one entry per column.

    Such an L sends row k of D to one row i of the product, times c: a
    row map k -> (i, c) read off L.  The walk goes over the columns of B,
    then over the entries of D in those columns, so only the columns of D
    that B picks are read.  A coefficient of L or B that is 1 or -1 costs
    no product, and the two signs make at most one negation; the others
    (2 and 1/2 in the bases of the square) are multiplied in.  d_cols,
    when given, is _columns(D), grouped once by a caller that picks from
    the same D again.
    """
    ops = D.ring.ops
    one, add, mul, neg = ops.one, ops.add, ops.mul, ops.neg
    # Fraction == int is Fraction's fast path, so fractions meet 1 and -1 as ints
    plus, minus = (1, -1) if isinstance(one, Fraction) else (one, neg(one))

    def split(c):  # (sign, factor): c = -factor if sign else factor; factor None for 1
        if c == plus:
            return False, None
        if c == minus:
            return True, None
        return False, c

    row_map = {k: (i, *split(c)) for (i, k), c in L.entries.items()}
    if d_cols is None:
        d_cols = _columns(D)
    if B is None:
        b_cols = {l: ((l, one),) for l in d_cols}
    else:
        b_cols = _columns(B)
    acc = {}
    for j, b_col in b_cols.items():
        for l, b in b_col:
            b_sign, b_factor = split(b)
            for k, d in d_cols.get(l, ()):
                target = row_map.get(k)
                if target is None:
                    continue
                i, c_sign, c_factor = target
                w = d if b_factor is None else mul(b_factor, d)
                if c_factor is not None:
                    w = mul(c_factor, w)
                if b_sign is not c_sign:
                    w = neg(w)
                key = (i, j)
                s = acc.get(key)
                acc[key] = w if s is None else add(s, w)
    return SparseMatrix._of(D.ring, L.rows, D.cols if B is None else B.cols, acc)


# -- alpha and the symmetric square ---------------------------------------------


def alpha(X: FreeComplex) -> ChainMap:
    """The chain endomorphism x(x)x' -> x(x)x' - (-1)^{|x||x'|} x'(x)x of X(x)X."""
    return sym2(X).alpha


class _TensorSide(NamedTuple):
    """What presents a symmetric square as a quotient of T = X (x) X."""

    tensor_square: FreeComplex
    tensor_bases: dict  # degree -> tensor_basis(X, X, n)
    tensor_index: dict  # degree -> {label: position}
    proj: ChainMap  # rho : T -> S
    section: dict  # degree -> sigma_n, with proj.component(n) @ section[n] = 1
    alpha: ChainMap  # endomorphism of tensor_square
    # degree -> _columns(tensor_square.diff(n)): each differential of T is
    # grouped by column once, for the summands' L . d . B
    tensor_columns: dict


class Sym2Result:
    """The symmetric square S of X, and on first use the data that present
    it as a quotient of T = X (x) X.

    complex and labels come from the walk of X (_square); the tensor side
    (tensor_square, tensor_bases, tensor_index, proj, section, alpha and
    tensor_columns) is built on first access to any of them, from one
    _tensor_with_bases and one _walk, and kept.  section and labels are
    keyed by T.degrees(): a degree where T is zero has no entry, and one
    where only odd diagonal squares live has an empty list of labels.
    tensor_bases and tensor_index are the bases T was built on, which the
    summands of alpha, S2 of maps and the induced homotopy read, so each is
    built once per square.  Two results are equal when their complexes,
    labels, sections, proj, tensor squares and alphas are."""

    _COMPARED = ("complex", "labels", "section", "proj", "tensor_square", "alpha")
    __hash__ = None

    def __init__(self, source: FreeComplex, complex: FreeComplex, labels: dict):
        self.source = source  # X
        self.complex = complex
        self.labels = labels  # degree -> sym_basis(X, n), the generators of S_n

    @cached_property
    def _tensor_side(self) -> _TensorSide:
        X = self.source
        T, bases, index = _tensor_with_bases(X, X)
        rho, section, al = _walk(T, bases, index, self.labels)
        columns = {n: _columns(T.diff(n)) for n in T.degrees() if T.rank(n - 1)}
        proj = ChainMap._of(T, self.complex, rho)
        return _TensorSide(T, bases, index, proj, section, al, columns)

    tensor_square = property(lambda self: self._tensor_side.tensor_square)
    tensor_bases = property(lambda self: self._tensor_side.tensor_bases)
    tensor_index = property(lambda self: self._tensor_side.tensor_index)
    proj = property(lambda self: self._tensor_side.proj)
    section = property(lambda self: self._tensor_side.section)
    alpha = property(lambda self: self._tensor_side.alpha)
    tensor_columns = property(lambda self: self._tensor_side.tensor_columns)

    def __eq__(self, other):
        if not isinstance(other, Sym2Result):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._COMPARED)

    def __repr__(self):
        return f"Sym2Result({self.complex!r})"


def sym2(X: FreeComplex) -> Sym2Result:
    """The symmetric square complex on the canonical generator basis.

    Its differential is d(a.b) = da.b + (-1)^{|a|} a.db on the canonical
    generators, written by one walk of X (_square).  That is rho .
    d^{X(x)X} . sigma for any section sigma, as rho . d kills Im(alpha)
    (rho . alpha = 0 and alpha is a chain map) and the odd diagonal squares
    (d(x (x) x) = alpha(dx (x) x) for x of odd degree).  That holds by
    construction, so it is not checked at run time; the tests check it
    against the product as a property.  The tensor side of the result is
    built only when it is read.
    """
    labels, ranks, diffs, gdegs = _square(X, keep_odd_diagonal=False)
    return Sym2Result(X, FreeComplex._of(X.ring, ranks, diffs, gdegs), labels)


# -- presented complexes (weak square when 2 is not a unit) ----------------------


class PresentedComplex:
    """A complex of cokernels: degree n is R^{g_n} / column span of rel_n.

    Over ZZ and ZLoc(p) the columns of each rel_n must be independent.
    """

    __slots__ = ("ring", "generators", "relations", "diffs")

    def __init__(self, ring: Ring, generators, relations, diffs):
        self.ring = ring
        self.generators = {int(n): list(g) for n, g in generators.items() if g}
        self.relations = {}
        for n, M in relations.items():
            n = int(n)
            if n not in self.generators:
                if M is not None and M.cols:
                    raise ShapeError(f"relations at empty degree {n}")
                continue
            where = f"relation matrix at degree {n}"
            if M is None:
                raise ShapeError(f"{where} is missing")
            if M.ring != ring:
                raise RingMismatchError(f"{where} is over {M.ring}, not {ring}")
            if M.rows != len(self.generators[n]):
                raise ShapeError(f"{where} has wrong height")
            if ring.proper_subring_of_qq and rank(M) < M.cols:
                raise ShapeError(f"relations at degree {n} are not independent")
            self.relations[n] = M
        self.diffs = _checked_family(
            ring,
            diffs,
            lambda n: (len(self.gens(n - 1)), len(self.gens(n))),
            "presented differential",
        )
        failure = self._first_failure()
        if failure is not None:
            raise ShapeError(f"presented complex fails relation compatibility: {failure}")

    @classmethod
    def _of(cls, ring: Ring, generators, relations, diffs) -> "PresentedComplex":
        """The presented complex of a library result, stored as the public
        constructor would store it: generators only where nonempty, a
        relation matrix at each of their degrees, even one with no columns,
        and only the nonzero differentials, each at a degree it spans.
        Nothing is validated again."""
        P = object.__new__(cls)
        P.ring, P.generators, P.relations, P.diffs = ring, generators, relations, diffs
        return P

    def gens(self, n: int):
        return self.generators.get(n, [])

    def rank_free_cover(self, n: int) -> int:
        return len(self.gens(n))

    def relation(self, n: int) -> SparseMatrix:
        M = self.relations.get(n)
        if M is None:
            return SparseMatrix.zero(self.ring, self.rank_free_cover(n), 0)
        return M

    def diff(self, n: int) -> SparseMatrix:
        M = self.diffs.get(n)
        if M is None:
            return SparseMatrix.zero(
                self.ring, self.rank_free_cover(n - 1), self.rank_free_cover(n)
            )
        return M

    def degrees(self):
        return sorted(self.generators)

    @property
    def support(self):
        if not self.generators:
            return None
        return min(self.generators), max(self.generators)

    def validate(self) -> bool:
        """Differentials carry relations into relations; d.d lands in relations."""
        return self._first_failure() is None

    def _first_failure(self):
        """What fails validation at the lowest degree, or None."""
        for n in self.degrees():
            rel = self.relation(n)
            if rel.cols:
                what = f"the differential at degree {n} carries relations into relations"
                if not self._in_span(n - 1, self.diff(n) @ rel, what):
                    return f"the differential at degree {n} does not carry relations into relations"
            dd = self.diff(n - 1) @ self.diff(n)
            if not self._in_span(n - 2, dd, f"d.d at degree {n} lands in the relations"):
                return f"d.d at degree {n} does not land in the relations"
        return None

    def _in_span(self, m: int, B: SparseMatrix, what: str) -> bool:
        """Do the columns of B lie in the span of the relations at degree m?

        Only a system with no solution answers no.  Over a polynomial ring
        solve_exact solves only against constant relations; for others its
        LinearSolveError is caused by a GradingError, the answer is unknown,
        and UnsupportedRingError names what could not be decided."""
        if B.is_zero():
            return True
        try:
            solve_exact(self.relation(m), B)
        except LinearSolveError as exc:
            if not isinstance(exc.__cause__, GradingError):
                return False
            raise UnsupportedRingError(
                f"cannot decide whether {what}: the relations at degree {m} are not "
                "constant, and over a polynomial ring only constant relations are solved"
            ) from None
        return True

    def __repr__(self):
        if not self.generators:
            return f"PresentedComplex({self.ring}, 0)"
        parts = " ".join(
            f"{n}:{len(g)}g/{self.relation(n).cols}r" for n, g in sorted(self.generators.items())
        )
        return f"PresentedComplex({self.ring}, {parts})"


def weak_sym2(X: FreeComplex):
    """Weak symmetric square: coker(alpha).

    When 2 is a unit this is canonically the symmetric square and the free
    complex is returned.  Otherwise the result is a PresentedComplex on the
    canonical generators with odd diagonal squares retained, each carrying
    the relation 2*(generator).
    """
    if X.ring.two_is_unit():
        return sym2(X).complex
    ring = X.ring
    labels, _, diffs, _ = _square(X, keep_odd_diagonal=True)
    two = ring.raw(2)
    generators = {n: labs for n, labs in labels.items() if labs}
    relations = {}
    for n, labs in generators.items():
        rel_cols = [k for k, (a, b) in enumerate(labs) if a == b and a[0] % 2]
        entries = {(k, c): two for c, k in enumerate(rel_cols)}
        relations[n] = SparseMatrix._of(ring, len(labs), len(rel_cols), entries)
    return PresentedComplex._of(ring, generators, relations, diffs)


def sym2_map(f: ChainMap) -> ChainMap:
    """The induced map on symmetric squares: class(x (x) y) -> class(fx (x) fy)."""
    SX = sym2(f.source)
    SY = SX if f.target == f.source else sym2(f.target)
    return _sym2_map(_square_map(f, SX, SY), SX, SY)


def _square_map(f: ChainMap, SX: Sym2Result, SY: Sym2Result) -> ChainMap:
    """f (x) f on the tensor squares of SX and SY, on the bases they keep."""
    maps = _kronecker(f.source.ring, f.maps, f.maps, SX.tensor_bases, SY.tensor_index)
    return ChainMap._of(SX.tensor_square, SY.tensor_square, maps)


def _sym2_map(ff: ChainMap, SX: Sym2Result, SY: Sym2Result) -> ChainMap:
    """sym2_map(f) given ff = f (x) f and the squares of its source and target."""
    maps = {}
    for n in SX.complex.degrees():
        if SY.complex.rank(n) == 0:
            continue
        maps[n] = _pick(SY.proj.component(n), ff.component(n), SX.section[n])
    return ChainMap._of(SX.complex, SY.complex, maps)


# -- image / kernel subcomplexes of a chain endomorphism --------------------------


@dataclass
class SubcomplexData:
    """A free subcomplex with its degreewise basis inside an ambient complex."""

    complex: FreeComplex
    inclusion: ChainMap  # subcomplex -> ambient
    bases: dict  # degree -> SparseMatrix whose columns are the basis


def _pivot_columns(M: SparseMatrix) -> SparseMatrix:
    """The columns of M at its pivot columns over the residue field (M
    constant over a graded ring).  They are a basis of the column space,
    and over ZLoc(p) of a column lattice that is a direct summand, since by
    Nakayama lifts of a basis mod p generate it."""
    if M.ring.residue_field is None:
        raise UnsupportedRingError(f"no residue field for {M.ring}")
    _, pivots = rref(_mapped(M, M.ring.residue_field, M.ring.ops.residue))
    return M.submatrix_columns([c for _, c in pivots])


def _basis_gdegs(T: FreeComplex, n: int, basis: SparseMatrix):
    degs = []
    ambient = T.gdeg(n)
    for k in range(basis.cols):
        ds = {ambient[i] for (i, j) in basis.entries if j == k}
        if len(ds) != 1:
            raise GradingError("subcomplex basis vector is not homogeneous")
        degs.append(ds.pop())
    return tuple(degs)


def _subcomplex_from_bases(T: FreeComplex, bases: dict) -> SubcomplexData:
    ring = T.ring
    ranks = {n: B.cols for n, B in bases.items() if B.cols}
    diffs = {}
    for n in sorted(ranks):
        if ranks.get(n - 1):
            rhs = T.diff(n) @ bases[n]
            diffs[n] = solve_exact(bases[n - 1], rhs)
    gdegs = None
    if T.graded:
        gdegs = {n: _basis_gdegs(T, n, bases[n]) for n in ranks}
    sub = FreeComplex._of(ring, ranks, diffs, gdegs)
    inclusion = ChainMap._of(sub, T, {n: bases[n] for n in ranks})
    return SubcomplexData(sub, inclusion, {n: bases[n] for n in ranks})


def _check_twice_idempotent(T: FreeComplex, f: ChainMap) -> None:
    """Raise unless 2 is a unit and f.f = 2f in every degree of T."""
    if not T.ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {T.ring}")
    for n in T.degrees():
        F = f.component(n)
        if T.graded:
            F = _poly_to_qq(F)  # exact for the constant matrices taken here, and cheaper
        if F @ F != F + F:
            raise SymchainError(f"f.f != 2f in degree {n}")


def endo_image_complex(T: FreeComplex, f: ChainMap) -> SubcomplexData:
    """The image of a chain endomorphism f of T with f.f = 2f, as a subcomplex.

    f/2 is idempotent, so Im f is a direct summand, spanned by the columns
    of f at its residue-field pivots.  Needs 2 a unit and f.f = 2f.
    """
    _check_twice_idempotent(T, f)
    return _subcomplex_from_bases(T, {n: _pivot_columns(f.component(n)) for n in T.degrees()})


def endo_kernel_complex(T: FreeComplex, f: ChainMap) -> SubcomplexData:
    """The kernel of a chain endomorphism f of T with f.f = 2f, as a subcomplex.

    Ker f is the image of 2 - f, a direct summand found as in
    endo_image_complex.  Needs 2 a unit and f.f = 2f.
    """
    _check_twice_idempotent(T, f)
    ops = T.ring.ops
    two = ops.add(ops.one, ops.one)
    bases = {}
    for n in T.degrees():
        r = T.rank(n)
        twice = SparseMatrix._of(T.ring, r, r, {(i, i): two for i in range(r)})
        bases[n] = _pivot_columns(twice - f.component(n))
    return _subcomplex_from_bases(T, bases)


def _alpha_bases(T: FreeComplex, bases: dict, index: dict):
    """Closed-form bases of Im(alpha) and Ker(alpha) for the alpha of a
    square, 2 a unit, and the corestriction q = L alpha, read off the
    square's tensor bases and their indices: (image, kernel, q), where
    image and kernel map each degree to (B, L, generator degrees), with
    L @ B = 1, and q maps each degree to its matrix.

    _walk gives alpha(e_c) = e_c + v e_c' for a tensor generator c = a (x) b
    whose swap c' = b (x) a is another generator, with v = -(-1)^{|a||b|},
    and (1 + v) e_c on the diagonal: 2 on odd diagonals, 0 on even ones.
    So Im(alpha) has the basis e_c + v e_c' at the lower index of each pair
    plus 2 e_c at each odd diagonal, and Ker(alpha) = Im(2 - alpha) has
    e_c - v e_c' per pair plus 2 e_c at each even diagonal, in increasing
    index order: the columns endo_image_complex and endo_kernel_complex
    pick.  L is the rows at those indices, with the diagonal rows halved.
    Row c of alpha is e_c + v e_c' at a pair and 2 e_c at an odd diagonal,
    so row k of q is the transpose of the image's B_k times L's entry at k.
    Each basis vector has the generator degree of the tensor generator at
    its index.
    """
    ring = T.ring
    ops = ring.ops
    one, minus_one = ops.one, ops.neg(ops.one)
    two = ops.add(one, one)
    half = ops.inverse(two)
    image, kernel, q = {}, {}, {}
    for n, basis in bases.items():
        r = len(basis)
        vectors = ([], [])  # image, kernel: (index, {row: entry of B}, entry of L)
        for c, (a, b) in enumerate(basis):
            if a == b:  # alpha is 2 on an odd diagonal and 0 on an even one
                vectors[0 if a[0] % 2 else 1].append((c, {c: two}, half))
            elif c < (c2 := index[n][(b, a)]):
                v, w = (one, minus_one) if (a[0] * b[0]) % 2 else (minus_one, one)
                vectors[0].append((c, {c: one, c2: v}, one))
                vectors[1].append((c, {c: one, c2: w}, one))
        for part, vs in zip((image, kernel), vectors):
            B = {(i, k): w for k, (_, vector, _) in enumerate(vs) for i, w in vector.items()}
            L = {(k, c): w for k, (c, _, w) in enumerate(vs)}
            gd = tuple(T.gdeg(n)[c] for c, _, _ in vs) if T.graded else None
            part[n] = (
                SparseMatrix._of(ring, r, len(vs), B),
                SparseMatrix._of(ring, len(vs), r, L),
                gd,
            )
        q_rows = {
            (k, i): ops.mul(l, w) for k, (_, v, l) in enumerate(vectors[0]) for i, w in v.items()
        }
        q[n] = SparseMatrix._of(ring, len(vectors[0]), r, q_rows)
    return image, kernel, q


def _summand(T: FreeComplex, part: dict, d_cols: dict) -> SubcomplexData:
    """The subcomplex of T on the bases B_n of part[n] = (B_n, L_n, degrees):
    its differential is L_{n-1} d_n B_n, as L_{n-1} is a left inverse of
    B_{n-1}.  d_cols[n] is _columns(T.diff(n))."""
    bases = {n: B for n, (B, _, _) in part.items() if B.cols}
    ranks = {n: B.cols for n, B in bases.items()}
    diffs = {
        n: _pick(part[n - 1][1], T.diff(n), bases[n], d_cols[n]) for n in ranks if ranks.get(n - 1)
    }
    gdegs = {n: part[n][2] for n in ranks} if T.graded else None
    sub = FreeComplex._of(T.ring, ranks, diffs, gdegs)
    return SubcomplexData(sub, ChainMap._of(sub, T, bases), bases)


def _alpha_summands(S: Sym2Result):
    """(image, kernel, q): Im(alpha) and Ker(alpha) of the square S as
    subcomplexes of its tensor square, and alpha corestricted onto its
    image, L alpha, all from _alpha_bases on the pairs of swapped tensor
    generators, with no elimination, solve or product with alpha.  The
    library built alpha, so alpha.alpha = 2 alpha is not re-checked."""
    T = S.tensor_square
    image_part, kernel_part, q = _alpha_bases(T, S.tensor_bases, S.tensor_index)
    image = _summand(T, image_part, S.tensor_columns)
    return image, _summand(T, kernel_part, S.tensor_columns), ChainMap._of(T, image.complex, q)


# -- split decomposition when 2 is a unit ------------------------------------------


@dataclass
class SplitDecomposition:
    """Split exact structure of X(x)X = Im(alpha) (+) S2(X)."""

    idempotent: ChainMap  # e = (1/2) alpha
    im_alpha: FreeComplex
    ker_alpha: FreeComplex
    iota: ChainMap  # Im(alpha) -> X(x)X
    q: ChainMap  # X(x)X -> Im(alpha), alpha corestricted
    j: ChainMap  # ker(alpha) -> X(x)X
    proj: ChainMap  # X(x)X -> S2(X)
    sym2_result: Sym2Result
    iso: ChainMap  # X(x)X -> Im(alpha) (+) S2(X)
    iso_inverse: ChainMap


def split_decomposition(X: FreeComplex) -> SplitDecomposition:
    """X (x) X = Im(alpha) (+) S2(X) when 2 is a unit, with e = alpha/2.

    iso_inverse . iso = iota . q/2 + (1 - e) . sigma . rho = e + (1 - e) = 1
    by construction, as iota . q = alpha and sigma . rho - 1 maps into
    ker rho = Im e, which 1 - e kills; the tests hold it and rank additivity.
    """
    ring = X.ring
    if not ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {ring}")
    S = sym2(X)
    T = S.tensor_square
    al = S.alpha
    half = ring.ops.inverse(ring.raw(2))
    e = ChainMap._of(T, T, {n: M.scale(half) for n, M in al.maps.items()})
    image, kernel, q = _alpha_summands(S)
    target = direct_sum(image.complex, S.complex)
    fwd = {}
    inv = {}
    for n in T.degrees():
        top = q.component(n).scale(half)
        fwd[n] = top.vstack(S.proj.component(n))
        # section of proj with image in ker(e): (id - e) . sigma
        ident = SparseMatrix.identity(ring, T.rank(n))
        sect = (ident - e.component(n)) @ S.section[n]
        inv[n] = image.inclusion.component(n).hstack(sect)
    iso = ChainMap._of(T, target, fwd)
    iso_inverse = ChainMap._of(target, T, inv)
    return SplitDecomposition(
        idempotent=e,
        im_alpha=image.complex,
        ker_alpha=kernel.complex,
        iota=image.inclusion,
        q=q,
        j=kernel.inclusion,
        proj=S.proj,
        sym2_result=S,
        iso=iso,
        iso_inverse=iso_inverse,
    )


# -- natural isomorphisms -----------------------------------------------------------


def sum_decomposition_iso(X: FreeComplex, Y: FreeComplex):
    """Signed-permutation isomorphism S2(X (+) Y) -> S2(X) (+) (X (x) Y) (+) S2(Y).

    A mixed generator maps to the corresponding X (x) Y basis element with
    the swap sign when its canonical form lists the Y factor first; pure
    generators map identically onto S2(X) or S2(Y) generators.
    """
    if X.ring != Y.ring:
        raise RingMismatchError("sum decomposition needs one ring")
    ring = X.ring
    W = direct_sum(X, Y)
    SW = sym2(W)
    SX = sym2(X)
    SY = sym2(Y)
    XY, _, xy_indices = _tensor_with_bases(X, Y)
    target = direct_sum(direct_sum(SX.complex, XY), SY.complex)
    maps = {}
    one = ring.ops.one
    for n in SW.complex.degrees():
        labs = SW.labels[n]
        sx_index = {lab: k for k, lab in enumerate(SX.labels.get(n, ()))}
        sy_index = {lab: k for k, lab in enumerate(SY.labels.get(n, ()))}
        xy_index = xy_indices.get(n, {})
        off_xy = SX.complex.rank(n)
        off_sy = off_xy + XY.rank(n)
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(labs):
            left_is_x = i < X.rank(p)
            right_is_x = j < X.rank(q)
            if left_is_x and right_is_x:
                row = sx_index[((p, i), (q, j))]
                entries[(row, col)] = one
            elif not left_is_x and not right_is_x:
                lab = ((p, i - X.rank(p)), (q, j - X.rank(q)))
                row = off_sy + sy_index[lab]
                entries[(row, col)] = one
            elif left_is_x:
                lab = ((p, i), (q, j - X.rank(q)))
                row = off_xy + xy_index[lab]
                entries[(row, col)] = one
            else:
                # canonical form lists the Y factor first: swap to X (x) Y
                lab = ((q, j), (p, i - X.rank(p)))
                row = off_xy + xy_index[lab]
                entries[(row, col)] = one if (p * q) % 2 == 0 else ring.ops.neg(one)
        maps[n] = SparseMatrix._of(ring, target.rank(n), len(labs), entries)
    return ChainMap._of(SW.complex, target, maps)


def shift_iso(X: FreeComplex, n: int) -> ChainMap:
    """Identity-matrix isomorphism S2(shift(X, 2n)) -> shift(S2(X), 4n).

    The two sides are one complex by construction: an even shift leaves
    every sign (-1)^{pq} and every differential unchanged.
    """
    left = sym2(shift(X, 2 * n)).complex
    right = shift(sym2(X).complex, 4 * n)
    return ChainMap._of(
        left, right, {k: SparseMatrix.identity(X.ring, left.rank(k)) for k in left.degrees()}
    )


def induced_homotopy(f: ChainMap, g: ChainMap, s: Homotopy):
    """Transport a homotopy f ~ g to the tensor square and the symmetric square.

    Returns (sigma, sigma_bar): sigma is a homotopy from f(x)f to g(x)g given
    on a generator x (x) x' by (1/2)[(-1)^{|x|}(f+g)(x) (x) s(x')
    + s(x) (x) (f+g)(x')]; sigma_bar is its image on canonical generators.
    Only the outside input is checked: 2 must be a unit and s a homotopy
    from f to g.  sigma, sigma_bar and sigma . alpha = alpha . sigma hold
    by construction, and the tests hold them.
    """
    ring = f.source.ring
    if not ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {ring}")
    if not is_homotopy(s, f, g):
        raise SymchainError("s is not a homotopy between f and g")
    X, Y = f.source, f.target
    SX = sym2(X)
    SY = SX if Y == X else sym2(Y)
    half = ring.ops.inverse(ring.raw(2))
    fg = {n: f.component(n) + g.component(n) for n in set(f.maps) | set(g.maps)}
    # (1/2)[((-1)^p (f+g)_p) (x) s_q + s_p (x) (f+g)_q]; the two terms land in
    # the blocks p and p + 1 of the target
    signed = {p: -M if p % 2 else M for p, M in fg.items()}
    bases, index = SX.tensor_bases, SY.tensor_index
    left = _kronecker(ring, signed, s.maps, bases, index, (0, 1))
    right = _kronecker(ring, s.maps, fg, bases, index, (1, 0))
    sigma_maps = {n: (M + right[n]).scale(half) for n, M in left.items()}
    ff, gg = _square_map(f, SX, SY), _square_map(g, SX, SY)
    sigma = Homotopy(ff, gg, sigma_maps)
    bar_maps = {}
    for n in SX.complex.degrees():
        if SY.complex.rank(n + 1) == 0:
            continue
        M = sigma.maps.get(n)
        if M is None:
            continue
        bar = _pick(SY.proj.component(n + 1), M, SX.section[n])
        if not bar.is_zero():
            bar_maps[n] = bar
    sigma_bar = Homotopy(_sym2_map(ff, SX, SY), _sym2_map(gg, SX, SY), bar_maps)
    return sigma, sigma_bar


# -- base change --------------------------------------------------------------------


def _mapped(M: SparseMatrix, target: Ring, f) -> SparseMatrix:
    return SparseMatrix._of(target, M.rows, M.cols, {k: f(v) for k, v in M.entries.items()})


def base_change_matrix(M: SparseMatrix, target: Ring) -> SparseMatrix:
    return _mapped(M, target, M.ring.map_to(target))


def base_change(X: FreeComplex, target: Ring) -> FreeComplex:
    """Entrywise image of the complex under a supported coefficient map."""
    f = X.ring.map_to(target)
    if X.ring == target:
        return X
    diffs = {n: _mapped(X.diff(n), target, f) for n in X.degrees()}
    return FreeComplex._of(target, X.ranks, diffs)


def sym2_base_change_iso(X: FreeComplex, target: Ring) -> ChainMap:
    """Identity-permutation isomorphism S2 of the pushed complex vs pushed S2.

    The two sides are one complex by construction: base change applies a
    ring map entrywise, and the walk of X only picks, negates and doubles
    entries.
    """
    left = sym2(base_change(X, target)).complex
    right = base_change(sym2(X).complex, target)
    return ChainMap._of(
        left, right, {n: SparseMatrix.identity(target, left.rank(n)) for n in left.degrees()}
    )
