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

Reduction (rho), section (sigma), and the induced differentials
rho . d . sigma reproduce the classical small matrices for Koszul
complexes on one and two elements exactly.

When 2 is a unit, alpha/2 is idempotent, so Im(alpha) and Ker(alpha) =
Im(2 - alpha) are direct summands of T; their bases are columns at pivots
over the residue field, and no lattice transform is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    ChainMap,
    FreeComplex,
    Homotopy,
    _tensor_map,
    direct_sum,
    shift,
    tensor,
    tensor_basis,
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
from .scalars import GF, Ring

__all__ = [
    "SymBasis",
    "SymReduction",
    "Sym2Result",
    "PresentedComplex",
    "sym_basis",
    "sym_reduction",
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


def sym_basis(X: FreeComplex, n: int, include_odd_diagonal: bool = False):
    """Ordered canonical generator labels of the degree-n symmetric square.

    Labels are pairs ((p,i),(q,j)) with (p,i) <= (q,j), listed in
    lexicographic order.  Diagonal labels with p odd appear only when
    include_odd_diagonal is set (the weak-square presentation basis).
    """
    labels = []
    for p in X.degrees():
        q = n - p
        if p > q or X.rank(q) == 0:
            continue
        rp, rq = X.rank(p), X.rank(q)
        if p < q:
            for i in range(rp):
                for j in range(rq):
                    labels.append(((p, i), (q, j)))
        else:
            for i in range(rp):
                for j in range(i, rq):
                    if i == j and p % 2 == 1 and not include_odd_diagonal:
                        continue
                    labels.append(((p, i), (q, j)))
    return labels


@dataclass
class SymBasis:
    """Canonical generator labels per degree."""

    labels: dict  # degree -> list of ((p,i),(q,j))
    include_odd_diagonal: bool

    def degree(self, n: int):
        return self.labels.get(n, [])


@dataclass
class SymReduction:
    """Reduction rho, section sigma, and the basis they are written in.

    rho[n] maps tensor coordinates onto canonical generators (applying the
    swap sign and killing odd diagonal squares unless they are retained);
    sigma[n] embeds a generator as its canonical tensor representative, so
    rho[n] @ sigma[n] is the identity.
    """

    basis: SymBasis
    rho: dict  # degree -> SparseMatrix (gens x tensor-rank)
    sigma: dict  # degree -> SparseMatrix (tensor-rank x gens)


def sym_reduction(X: FreeComplex, include_odd_diagonal: bool = False) -> SymReduction:
    ring = X.ring
    T_support = []
    if not X.is_zero():
        lo, hi = X.support
        T_support = range(2 * lo, 2 * hi + 1)
    labels = {}
    rho = {}
    sigma = {}
    for n in T_support:
        tbasis = tensor_basis(X, X, n)
        sbasis = sym_basis(X, n, include_odd_diagonal)
        labels[n] = sbasis
        index = {lab: k for k, lab in enumerate(sbasis)}
        rho_entries = {}
        one = ring.ops.one
        for col, ((p, i), (q, j)) in enumerate(tbasis):
            if (p, i) <= (q, j):
                row = index.get(((p, i), (q, j)))
                sign = 1
            else:
                row = index.get(((q, j), (p, i)))
                sign = -1 if (p * q) % 2 else 1
            if row is None:
                continue  # odd diagonal square, killed
            rho_entries[(row, col)] = one if sign == 1 else ring.ops.neg(one)
        tindex = {lab: k for k, lab in enumerate(tbasis)}
        sigma_entries = {}
        for k, lab in enumerate(sbasis):
            sigma_entries[(tindex[lab], k)] = one
        rho[n] = SparseMatrix._of(ring, len(sbasis), len(tbasis), rho_entries)
        sigma[n] = SparseMatrix._of(ring, len(tbasis), len(sbasis), sigma_entries)
    return SymReduction(SymBasis(labels, include_odd_diagonal), rho, sigma)


# -- alpha and the symmetric square ---------------------------------------------


def alpha(X: FreeComplex) -> ChainMap:
    """The chain endomorphism x(x)x' -> x(x)x' - (-1)^{|x||x'|} x'(x)x of X(x)X."""
    return _alpha(X, tensor(X, X))


def _alpha(X: FreeComplex, T: FreeComplex) -> ChainMap:
    """alpha on T, which must be tensor(X, X)."""
    ops = X.ring.ops
    one, minus_one = ops.one, ops.neg(ops.one)
    maps = {}
    for n in T.degrees():
        tbasis = tensor_basis(X, X, n)
        index = {lab: k for k, lab in enumerate(tbasis)}
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(tbasis):
            swapped = index[((q, j), (p, i))]
            v = one if (p * q) % 2 else minus_one
            if swapped == col:  # a diagonal generator is its own swap: 1 + v is 0 or 2
                entries[(col, col)] = ops.add(one, v)
            else:
                entries[(col, col)] = one
                entries[(swapped, col)] = v
        M = SparseMatrix._of(X.ring, len(tbasis), len(tbasis), entries)
        if not M.is_zero():
            maps[n] = M
    return ChainMap(T, T, maps)


@dataclass
class Sym2Result:
    """Symmetric square with its projection and reduction data."""

    complex: FreeComplex
    proj: ChainMap  # X(x)X -> S
    reduction: SymReduction
    tensor_square: FreeComplex
    alpha: ChainMap  # endomorphism of tensor_square


def sym2(X: FreeComplex) -> Sym2Result:
    """The symmetric square complex on the canonical generator basis.

    The differential is rho . d^{X(x)X} . sigma; independence from the
    section is asserted by checking that rho . d kills both the image of
    alpha and the odd diagonal squares.
    """
    ring = X.ring
    T = tensor(X, X)
    red = sym_reduction(X, include_odd_diagonal=False)
    al = _alpha(X, T)
    ranks = {n: len(red.basis.degree(n)) for n in red.basis.labels}
    diffs = {}
    gdegs = None
    if ring.kind == "Poly":
        gdegs = {}
        for n, labs in red.basis.labels.items():
            if labs:
                gdegs[n] = tuple(
                    X.gdeg(p)[i] + X.gdeg(q)[j] for ((p, i), (q, j)) in labs
                )
    for n in sorted(red.basis.labels):
        if ranks.get(n, 0) == 0 or ranks.get(n - 1, 0) == 0:
            continue
        rd = red.rho[n - 1] @ T.diff(n)
        # Independence from the section: rho.d vanishes on Im(alpha) and on
        # the odd diagonal squares, so rd.sigma is the full induced map.
        if not (rd @ al.component(n)).is_zero():
            raise SymchainError("reduction does not annihilate the alternating image")
        odd_diagonal_cols = {
            col
            for col, ((p, i), (q, j)) in enumerate(tensor_basis(X, X, n))
            if (p, i) == (q, j) and p % 2 == 1
        }
        if any(c in odd_diagonal_cols for (_, c) in rd.entries):
            raise SymchainError("reduction does not annihilate odd diagonal squares")
        diffs[n] = rd @ red.sigma[n]
    S = FreeComplex(ring, ranks, diffs, gdegs)
    proj = ChainMap(T, S, {n: red.rho[n] for n in red.rho if red.rho[n].rows})
    return Sym2Result(S, proj, red, T, al)


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
        self.diffs = {}
        for n, M in relations.items():
            n = int(n)
            if n not in self.generators:
                if M is not None and M.cols:
                    raise ShapeError(f"relations at empty degree {n}")
                continue
            if M.rows != len(self.generators[n]):
                raise ShapeError(f"relation matrix at degree {n} has wrong height")
            if ring.kind in ("ZZ", "ZLoc") and rank(M) < M.cols:
                raise ShapeError(f"relations at degree {n} are not independent")
            self.relations[n] = M
        for n, M in diffs.items():
            n = int(n)
            if n not in self.generators or (n - 1) not in self.generators:
                if M is not None and not M.is_zero():
                    raise ShapeError(f"differential at degree {n} to/from empty degree")
                continue
            if (M.rows, M.cols) != (len(self.generators[n - 1]), len(self.generators[n])):
                raise ShapeError(f"presented differential at degree {n} has wrong shape")
            self.diffs[n] = M

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
        for n in self.degrees():
            rel = self.relation(n)
            if rel.cols:
                target = self.diff(n) @ rel
                if not self._in_span(self.relation(n - 1), target):
                    return False
            dd = self.diff(n - 1) @ self.diff(n)
            if not self._in_span(self.relation(n - 2), dd):
                return False
        return True

    def _in_span(self, A: SparseMatrix, B: SparseMatrix) -> bool:
        if B.is_zero():
            return True
        try:
            solve_exact(A, B)
            return True
        except LinearSolveError:
            return False

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
    T = tensor(X, X)
    red = sym_reduction(X, include_odd_diagonal=True)
    two = ring.raw(2)
    generators = {n: labs for n, labs in red.basis.labels.items() if labs}
    relations = {}
    diffs = {}
    for n, labs in generators.items():
        rel_cols = [k for k, ((p, i), (q, j)) in enumerate(labs) if (p, i) == (q, j) and p % 2]
        entries = {(k, c): two for c, k in enumerate(rel_cols)}
        relations[n] = SparseMatrix._of(ring, len(labs), len(rel_cols), entries)
    for n in generators:
        if (n - 1) in generators:
            diffs[n] = red.rho[n - 1] @ T.diff(n) @ red.sigma[n]
    P = PresentedComplex(ring, generators, relations, diffs)
    if not P.validate():
        raise SymchainError("weak square presentation failed validation")
    return P


def sym2_map(f: ChainMap) -> ChainMap:
    """The induced map on symmetric squares: class(x (x) y) -> class(fx (x) fy)."""
    SX = sym2(f.source)
    SY = sym2(f.target)
    return _sym2_map(_tensor_map(f, f, SX.tensor_square, SY.tensor_square), SX, SY)


def _sym2_map(ff: ChainMap, SX: Sym2Result, SY: Sym2Result) -> ChainMap:
    """sym2_map(f) given ff = f (x) f and the squares of its source and target."""
    maps = {}
    for n in SX.complex.degrees():
        if SY.complex.rank(n) == 0:
            continue
        M = SY.reduction.rho[n] @ ff.component(n) @ SX.reduction.sigma[n]
        if not M.is_zero():
            maps[n] = M
    return ChainMap(SX.complex, SY.complex, maps)


# -- image / kernel subcomplexes of a chain endomorphism --------------------------


@dataclass
class SubcomplexData:
    """A free subcomplex with its degreewise basis inside an ambient complex."""

    complex: FreeComplex
    inclusion: ChainMap  # subcomplex -> ambient
    bases: dict  # degree -> SparseMatrix whose columns are the basis


def _pivot_columns(M: SparseMatrix) -> SparseMatrix:
    """The columns of M at its pivot columns over the residue field: QQ for
    QQ and constant Poly matrices, GF(p) for GF(p) and ZLoc(p).  They are a
    basis of the column space, and over ZLoc(p) of a column lattice that is
    a direct summand, since by Nakayama lifts of a basis mod p generate it."""
    ring = M.ring
    if ring.kind == "Poly":
        residue = _poly_to_qq(M)
    elif ring.kind == "ZLoc":
        residue = base_change_matrix(M, GF(ring.p))
    elif ring.is_field:
        residue = M
    else:
        raise UnsupportedRingError(f"no residue field for {ring}")
    _, pivots = rref(residue)
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
    if ring.kind == "Poly":
        gdegs = {n: _basis_gdegs(T, n, bases[n]) for n in ranks}
    sub = FreeComplex(ring, ranks, diffs, gdegs)
    inclusion = ChainMap(sub, T, {n: bases[n] for n in ranks})
    return SubcomplexData(sub, inclusion, {n: bases[n] for n in ranks})


def _check_twice_idempotent(T: FreeComplex, f: ChainMap) -> None:
    """Raise unless 2 is a unit and f.f = 2f in every degree of T."""
    if not T.ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {T.ring}")
    for n in T.degrees():
        F = f.component(n)
        if F.ring.kind == "Poly":
            F = _poly_to_qq(F)  # exact for the constant matrices taken here, and cheaper
        if F @ F != F + F:
            raise SymchainError(f"f.f != 2f in degree {n}")


def _image_complex(T: FreeComplex, f: ChainMap) -> SubcomplexData:
    return _subcomplex_from_bases(T, {n: _pivot_columns(f.component(n)) for n in T.degrees()})


def _kernel_complex(T: FreeComplex, f: ChainMap) -> SubcomplexData:
    ops = T.ring.ops
    two = ops.add(ops.one, ops.one)
    bases = {}
    for n in T.degrees():
        r = T.rank(n)
        twice = SparseMatrix._of(T.ring, r, r, {(i, i): two for i in range(r)})
        bases[n] = _pivot_columns(twice - f.component(n))
    return _subcomplex_from_bases(T, bases)


def endo_image_complex(T: FreeComplex, f: ChainMap) -> SubcomplexData:
    """The image of a chain endomorphism f of T with f.f = 2f, as a subcomplex.

    f/2 is idempotent, so Im f is a direct summand, spanned by the columns
    of f at its residue-field pivots.  Needs 2 a unit and f.f = 2f.
    """
    _check_twice_idempotent(T, f)
    return _image_complex(T, f)


def endo_kernel_complex(T: FreeComplex, f: ChainMap) -> SubcomplexData:
    """The kernel of a chain endomorphism f of T with f.f = 2f, as a subcomplex.

    Ker f is the image of 2 - f, a direct summand found as in
    endo_image_complex.  Needs 2 a unit and f.f = 2f.
    """
    _check_twice_idempotent(T, f)
    return _kernel_complex(T, f)


def _endo_summands(T: FreeComplex, f: ChainMap):
    """(endo_image_complex(T, f), endo_kernel_complex(T, f)) with f.f = 2f
    checked once."""
    _check_twice_idempotent(T, f)
    return _image_complex(T, f), _kernel_complex(T, f)


def _corestriction(T: FreeComplex, f: ChainMap, image: SubcomplexData) -> ChainMap:
    """f : T -> T as a map onto its image subcomplex, in the image's basis."""
    maps = {n: solve_exact(image.bases[n], f.component(n)) for n in image.complex.degrees()}
    return ChainMap(T, image.complex, maps)


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
    ring = X.ring
    if not ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {ring}")
    S = sym2(X)
    T = S.tensor_square
    al = S.alpha
    half = ring.ops.inverse(ring.raw(2))
    e = ChainMap(T, T, {n: M.scale(half) for n, M in al.maps.items()})
    image, kernel = _endo_summands(T, al)
    q = _corestriction(T, al, image)
    target = direct_sum(image.complex, S.complex)
    fwd = {}
    inv = {}
    for n in T.degrees():
        top = q.component(n).scale(half)
        fwd[n] = top.vstack(S.proj.component(n))
        # section of proj with image in ker(e): (id - e) . sigma
        sect = S.reduction.sigma.get(n)
        if sect is None:
            sect = SparseMatrix.zero(ring, T.rank(n), S.complex.rank(n))
        ident = SparseMatrix.identity(ring, T.rank(n))
        sect = (ident - e.component(n)) @ sect
        inv[n] = image.inclusion.component(n).hstack(sect)
        if image.complex.rank(n) + S.complex.rank(n) != T.rank(n):
            raise SymchainError("rank additivity fails in the split decomposition")
        if inv[n] @ fwd[n] != ident:
            raise SymchainError("split decomposition is not an isomorphism")
    iso = ChainMap(T, target, fwd)
    iso_inverse = ChainMap(target, T, inv)
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
    XY = tensor(X, Y)
    target = direct_sum(direct_sum(SX.complex, XY), SY.complex)
    maps = {}
    one = ring.ops.one
    for n in SW.complex.degrees():
        labs = SW.reduction.basis.degree(n)
        sx_index = {lab: k for k, lab in enumerate(SX.reduction.basis.degree(n))}
        sy_index = {lab: k for k, lab in enumerate(SY.reduction.basis.degree(n))}
        xy_index = {lab: k for k, lab in enumerate(tensor_basis(X, Y, n))}
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
        M = SparseMatrix._of(ring, target.rank(n), len(labs), entries)
        if not M.is_zero():
            maps[n] = M
    return ChainMap(SW.complex, target, maps)


def shift_iso(X: FreeComplex, n: int) -> ChainMap:
    """Identity-matrix isomorphism S2(shift(X, 2n)) -> shift(S2(X), 4n)."""
    left = sym2(shift(X, 2 * n)).complex
    right = shift(sym2(X).complex, 4 * n)
    if left.ranks != right.ranks or any(
        left.diff(k) != right.diff(k) for k in left.degrees()
    ):
        raise SymchainError("even-shift compatibility failed")
    return ChainMap(
        left, right, {k: SparseMatrix.identity(X.ring, left.rank(k)) for k in left.degrees()}
    )


def induced_homotopy(f: ChainMap, g: ChainMap, s: Homotopy):
    """Transport a homotopy f ~ g to the tensor square and the symmetric square.

    Returns (sigma, sigma_bar): sigma is a homotopy from f(x)f to g(x)g given
    on a generator x (x) x' by (1/2)[(-1)^{|x|}(f+g)(x) (x) s(x')
    + s(x) (x) (f+g)(x')]; sigma_bar is its image on canonical generators.
    """
    ring = f.source.ring
    if not ring.two_is_unit():
        raise TwoNotUnitError(f"2 is not a unit in {ring}")
    if not Homotopy(f, g, s.maps).check():
        raise SymchainError("s is not a homotopy between f and g")
    X, Y = f.source, f.target
    SX = sym2(X)
    SY = sym2(Y)
    TX = SX.tensor_square
    TY = SY.tensor_square
    ops = ring.ops
    half = ops.inverse(ring.raw(2))
    fg = {n: _columns(f.component(n) + g.component(n)) for n in set(f.maps) | set(g.maps)}
    sc = {n: _columns(M) for n, M in s.maps.items()}

    sigma_maps = {}
    for n in TX.degrees():
        if TY.rank(n + 1) == 0:
            continue
        src = tensor_basis(X, X, n)
        tgt_index = {lab: k for k, lab in enumerate(tensor_basis(Y, Y, n + 1))}
        # each (row, col) is one pair of entries: (f+g)_p (x) s_q lands in
        # block p of the target, s_p (x) (f+g)_q in block p + 1
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(src):
            for ai, av in fg.get(p, {}).get(i, ()):
                for bi, bv in sc.get(q, {}).get(j, ()):
                    row = tgt_index.get(((p, ai), (q + 1, bi)))
                    if row is not None:
                        v = ops.mul(half, ops.mul(av, bv))
                        entries[(row, col)] = ops.neg(v) if p % 2 else v
            for ai, av in sc.get(p, {}).get(i, ()):
                for bi, bv in fg.get(q, {}).get(j, ()):
                    row = tgt_index.get(((p + 1, ai), (q, bi)))
                    if row is not None:
                        entries[(row, col)] = ops.mul(half, ops.mul(av, bv))
        M = SparseMatrix._of(ring, TY.rank(n + 1), TX.rank(n), entries)
        if not M.is_zero():
            sigma_maps[n] = M
    ff = _tensor_map(f, f, TX, TY)
    gg = _tensor_map(g, g, TX, TY)
    sigma = Homotopy(ff, gg, sigma_maps)
    if not sigma.check():
        raise SymchainError("transported homotopy fails its contract")
    alX = SX.alpha
    alY = SY.alpha
    for n in TX.degrees():
        def sig(k):
            M = sigma_maps.get(k)
            if M is None:
                return SparseMatrix.zero(ring, TY.rank(k + 1), TX.rank(k))
            return M

        if sig(n) @ alX.component(n) != alY.component(n + 1) @ sig(n):
            raise SymchainError("transported homotopy does not commute with alpha")
    bar_maps = {}
    for n in SX.complex.degrees():
        if SY.complex.rank(n + 1) == 0:
            continue
        M = sigma_maps.get(n)
        if M is None:
            continue
        bar = SY.reduction.rho[n + 1] @ M @ SX.reduction.sigma[n]
        if not bar.is_zero():
            bar_maps[n] = bar
    sigma_bar = Homotopy(_sym2_map(ff, SX, SY), _sym2_map(gg, SX, SY), bar_maps)
    if not sigma_bar.check():
        raise SymchainError("induced homotopy on symmetric squares fails its contract")
    return sigma, sigma_bar


# -- base change --------------------------------------------------------------------


def _base_change_supported(src: Ring, tgt: Ring) -> bool:
    if src == tgt:
        return True
    pair = (src.kind, tgt.kind)
    if pair in (("ZZ", "QQ"), ("ZZ", "GF"), ("ZZ", "ZLoc"), ("ZLoc", "QQ")):
        return True
    if pair == ("ZLoc", "GF"):
        return src.p == tgt.p
    return False


def _base_change_raw(src: Ring, target: Ring):
    """The coefficient map src -> target on raw values, for a supported pair."""
    if not _base_change_supported(src, target):
        raise UnsupportedRingError(f"no supported map {src} -> {target}")
    if src == target:
        return lambda v: v
    if target.kind == "GF":
        p = target.p
        if src.kind == "ZZ":
            return lambda v: v % p
        # ZLoc(p): the denominator of a canonical fraction is prime to p
        return lambda v: v.numerator * pow(v.denominator, -1, p) % p
    return Fraction  # into QQ or ZLoc(p): ints become fractions, fractions stay


def base_change_matrix(M: SparseMatrix, target: Ring) -> SparseMatrix:
    f = _base_change_raw(M.ring, target)
    return SparseMatrix._of(
        target, M.rows, M.cols, {k: f(v) for k, v in M.entries.items()}
    )


def base_change(X: FreeComplex, target: Ring) -> FreeComplex:
    """Entrywise image of the complex under a supported coefficient map."""
    if not _base_change_supported(X.ring, target):
        raise UnsupportedRingError(f"no supported map {X.ring} -> {target}")
    if X.ring == target:
        return X
    diffs = {n: base_change_matrix(X.diff(n), target) for n in X.degrees()}
    return FreeComplex(target, X.ranks, diffs, None)


def sym2_base_change_iso(X: FreeComplex, target: Ring) -> ChainMap:
    """Identity-permutation isomorphism S2 of the pushed complex vs pushed S2."""
    left = sym2(base_change(X, target)).complex
    right_src = sym2(X).complex
    right = FreeComplex(
        target,
        right_src.ranks,
        {n: base_change_matrix(right_src.diff(n), target) for n in right_src.degrees()},
        None,
    )
    if left != right:
        raise SymchainError("symmetric square does not commute with base change")
    return ChainMap(
        left, right, {n: SparseMatrix.identity(target, left.rank(n)) for n in left.degrees()}
    )
