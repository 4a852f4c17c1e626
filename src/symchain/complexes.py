"""Bounded complexes of finite-rank free modules, chain maps, homotopies.

A complex stores positive ranks per homological degree, one differential
matrix per adjacent pair of nonzero degrees, and (over graded polynomial
rings only) a tuple of generator internal degrees per homological degree.
Absent differentials and chain-map components mean zero maps; reading one
builds a new zero matrix, which SparseMatrix.zero does not validate.

Tensor products follow one global basis convention: in (X (x) Y)_n the
blocks X_p (x) Y_{n-p} are listed by *decreasing* p, row-major (left factor
index is the slower one) inside each block, and the differential carries
the sign (-1)^p on the right factor.  Every map between tensor products
is one Kronecker loop (_kronecker) over the source's tensor bases, with a
degree shift on either factor: f (x) g for chain maps, and the two terms
of a homotopy transported to a tensor square.  The differential keeps its
own loop, as a Kronecker product with an identity factor would pay one
multiplication per entry.  Koszul complexes on one or two elements use
their classical small presentations; three or more elements build the
left-associated iterated tensor of the one-element complexes.

Each structural property is checked once, where outside values enter.  The
public constructors FreeComplex(...), ChainMap(...), Homotopy(...) and
sym2.PresentedComplex(...) check each family of matrices indexed by degree
through one validator (_checked_family): a missing matrix, the ring, the
shape, a nonzero matrix at a zero module and, over graded rings, the
homogeneity of each entry, each raised naming the family and the degree;
zero matrices are dropped.  FreeComplex and ChainMap then check d.d = 0 and
f.d = d.f, naming the degree and the lowest bad entry.  Library results are
built with FreeComplex._of and ChainMap._of, which drop zero ranks and zero
matrices and check nothing, like SparseMatrix._of.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GradingError, RingMismatchError, ShapeError, SymchainError
from .linalg import SparseMatrix, _columns
from .scalars import Ring, Scalar

__all__ = [
    "FreeComplex",
    "ChainMap",
    "Homotopy",
    "ValidationReport",
    "validate",
    "shift",
    "direct_sum",
    "tensor",
    "tensor_basis",
    "tensor_map",
    "koszul",
    "identity_map",
    "zero_map",
    "compose",
    "is_chain_map",
    "mapping_cone",
    "is_homotopy",
    "unit_complex",
    "zero_complex",
]


class FreeComplex:
    """A finitely supported complex of finite-rank free modules."""

    __slots__ = ("ring", "_ranks", "_diffs", "_gdegs")

    def __init__(self, ring: Ring, ranks, diffs=None, gdegs=None):
        self.ring = ring
        ranks = {int(n): int(r) for n, r in dict(ranks).items()}
        for n, r in ranks.items():
            if r < 0:
                raise ShapeError(f"negative rank at degree {n}")
        self._ranks = {n: r for n, r in ranks.items() if r > 0}
        if ring.graded:
            if gdegs is None:
                raise GradingError(f"complexes over {ring} need generator degrees")
            self._gdegs = {}
            for n in self._ranks:
                if n not in gdegs or len(gdegs[n]) != self._ranks[n]:
                    raise GradingError(f"generator degrees missing at degree {n}")
                self._gdegs[n] = tuple(int(d) for d in gdegs[n])
        else:
            if gdegs:
                raise GradingError(f"generator degrees are only for graded rings, not {ring}")
            self._gdegs = None
        self._diffs = _checked_family(
            ring,
            diffs or {},
            lambda n: (self.rank(n - 1), self.rank(n)),
            "differential",
            (lambda n: (self.gdeg(n), self.gdeg(n - 1))) if self.graded else None,
        )
        report = validate(self)
        if not report:
            raise ShapeError(
                f"complex fails validation at degree {report.first_failure[0]}: "
                f"{report.failures[0]}"
            )

    @classmethod
    def _of(cls, ring: Ring, ranks, diffs, gdegs=None) -> "FreeComplex":
        """The complex of a library result; zero ranks and zero matrices are
        dropped and nothing is validated again."""
        X = object.__new__(cls)
        X.ring = ring
        X._ranks = {n: r for n, r in ranks.items() if r > 0}
        X._diffs = {n: M for n, M in diffs.items() if not M.is_zero()}
        X._gdegs = {n: tuple(gdegs[n]) for n in X._ranks} if ring.graded else None
        return X

    # -- shape ---------------------------------------------------------------

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    @property
    def ranks(self) -> dict:
        return dict(self._ranks)

    def degrees(self):
        """Degrees with nonzero rank, ascending."""
        return sorted(self._ranks)

    @property
    def support(self):
        """(lo, hi) over nonzero ranks, or None for the zero complex."""
        if not self._ranks:
            return None
        return min(self._ranks), max(self._ranks)

    def is_zero(self) -> bool:
        return not self._ranks

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def length(self):
        """hi - lo over nonzero degrees; None for the zero complex."""
        if not self._ranks:
            return None
        return max(self._ranks) - min(self._ranks)

    def diff(self, n: int) -> SparseMatrix:
        M = self._diffs.get(n)
        if M is None:
            return SparseMatrix.zero(self.ring, self.rank(n - 1), self.rank(n))
        return M

    def gdeg(self, n: int):
        """Internal degrees of the degree-n generators (graded rings only)."""
        if self._gdegs is None:
            raise GradingError(f"{self.ring} complexes carry no internal grading")
        return self._gdegs.get(n, ())

    @property
    def graded(self) -> bool:
        return self._gdegs is not None

    def max_gdeg(self):
        if not self.graded or not self._ranks:
            return 0
        return max((d for n in self._ranks for d in self.gdeg(n)), default=0)

    def min_gdeg(self):
        if not self.graded or not self._ranks:
            return 0
        return min((d for n in self._ranks for d in self.gdeg(n)), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, FreeComplex)
            and self.ring == other.ring
            and self._ranks == other._ranks
            and self._gdegs == other._gdegs
            and all(self.diff(n) == other.diff(n) for n in self._ranks)
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._ranks.items()))))

    def __repr__(self):
        if self.is_zero():
            return f"FreeComplex({self.ring}, 0)"
        lo, hi = self.support
        ranks = " ".join(f"{n}:{self.rank(n)}" for n in range(lo, hi + 1))
        return f"FreeComplex({self.ring}, ranks {ranks})"


@dataclass
class ValidationReport:
    ok: bool
    failures: list = field(default_factory=list)
    first_failure: tuple | None = None  # (degree, (row, col)) of the first bad entry

    def __bool__(self):
        return self.ok


def _check_homogeneous(M: SparseMatrix, src, tgt, where: str) -> None:
    """Raise GradingError unless each entry (i, j) of M is homogeneous of
    degree src[j] - tgt[i]; the lowest bad entry is named."""
    bad = []
    for (i, j), v in M.entries.items():  # plain loops: this runs on every graded input
        w = src[j] - tgt[i]
        for e in v:
            if sum(e) != w:
                bad.append((i, j))
                break
    if bad:
        i, j = min(bad)
        raise GradingError(
            f"{where}: entry ({i},{j}) is not homogeneous of degree {src[j] - tgt[i]}"
        )


def _checked_family(ring: Ring, maps, shape, what: str, gdeg=None) -> dict:
    """{n: M} of the nonzero matrices of a degree-indexed family of outside
    matrices, checked degree by degree from the lowest.

    shape(n) is the (rows, cols) the matrix at degree n must have; where
    either is 0 the matrix must be zero or None.  Raises ShapeError for a
    missing or misshapen matrix and RingMismatchError for one over another
    ring, and, when gdeg(n) gives the (source, target) generator degrees,
    GradingError for an entry that is not homogeneous.  Each message names
    what and the degree.
    """
    out = {}
    for n, M in sorted(dict(maps).items(), key=lambda item: int(item[0])):
        n = int(n)
        where = f"{what} at degree {n}"
        rows, cols = shape(n)
        if rows == 0 or cols == 0:
            if M is not None and not M.is_zero():
                raise ShapeError(f"{where} maps to/from a zero module")
            continue
        if M is None:
            raise ShapeError(f"{where} is missing")
        if M.ring != ring:
            raise RingMismatchError(f"{where} is over {M.ring}, not {ring}")
        if (M.rows, M.cols) != (rows, cols):
            raise ShapeError(f"{where} is {M.rows}x{M.cols}, expected {rows}x{cols}")
        if not M.is_zero():
            if gdeg is not None:
                _check_homogeneous(M, *gdeg(n), where)
            out[n] = M
    return out


def validate(X: FreeComplex) -> ValidationReport:
    """Check d(d(x)) = 0; the FreeComplex constructor runs this on its input."""
    failures = []
    first = None
    if X.is_zero():
        return ValidationReport(True)
    lo, hi = X.support
    for n in range(lo + 2, hi + 1):
        P = X.diff(n - 1) @ X.diff(n)
        if not P.is_zero():
            (i, j) = sorted(P.entries)[0]
            failures.append(f"composite at degree {n} is nonzero at entry ({i},{j})")
            if first is None:
                first = (n, (i, j))
    return ValidationReport(not failures, failures, first)


def zero_complex(ring: Ring) -> FreeComplex:
    return FreeComplex._of(ring, {}, {})


def unit_complex(ring: Ring) -> FreeComplex:
    """The ring itself, concentrated in degree 0."""
    gdegs = {0: (0,)} if ring.graded else None
    return FreeComplex._of(ring, {0: 1}, {}, gdegs)


def shift(X: FreeComplex, i: int) -> FreeComplex:
    """Suspension: degree n of the result is degree n-i of X; odd i negates d."""
    ranks = {n + i: r for n, r in X.ranks.items()}
    diffs = {n + i: M if i % 2 == 0 else -M for n, M in X._diffs.items()}
    gdegs = {n + i: X.gdeg(n) for n in X.degrees()} if X.graded else None
    return FreeComplex._of(X.ring, ranks, diffs, gdegs)


def direct_sum(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """Block-diagonal sum; X-generators precede Y-generators in each degree."""
    if X.ring != Y.ring:
        raise RingMismatchError(f"cannot sum complexes over {X.ring} and {Y.ring}")
    degrees = sorted(set(X.degrees()) | set(Y.degrees()))
    ranks = {n: X.rank(n) + Y.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        rows = X.rank(n - 1) + Y.rank(n - 1)
        if rows == 0:
            continue
        entries = {}
        for (i, j), v in X.diff(n).entries.items():
            entries[(i, j)] = v
        for (i, j), v in Y.diff(n).entries.items():
            entries[(i + X.rank(n - 1), j + X.rank(n))] = v
        diffs[n] = SparseMatrix._of(X.ring, rows, ranks[n], entries)
    gdegs = None
    if X.graded:
        gdegs = {n: tuple(X.gdeg(n)) + tuple(Y.gdeg(n)) for n in degrees}
    return FreeComplex._of(X.ring, ranks, diffs, gdegs)


def tensor_basis(X: FreeComplex, Y: FreeComplex, n: int):
    """Ordered labels ((p, i), (q, j)) of the degree-n tensor generators.

    Blocks X_p (x) Y_{n-p} by decreasing p; row-major inside a block.
    """
    labels = []
    for p in sorted(X.degrees(), reverse=True):
        q = n - p
        if Y.rank(q) == 0:
            continue
        for i in range(X.rank(p)):
            for j in range(Y.rank(q)):
                labels.append(((p, i), (q, j)))
    return labels


def tensor(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """Tensor product complex under the global basis convention."""
    return _tensor_with_bases(X, Y)[0]


def _tensor_with_bases(X: FreeComplex, Y: FreeComplex):
    """(T, bases, index): T = X (x) Y, and per degree of T its tensor_basis
    and {label: position}.  Bases are built only where T is nonzero."""
    if X.ring != Y.ring:
        raise RingMismatchError(f"cannot tensor complexes over {X.ring} and {Y.ring}")
    ring = X.ring
    degrees = sorted({p + q for p in X.degrees() for q in Y.degrees()})
    bases = {n: tensor_basis(X, Y, n) for n in degrees}
    index = {n: {lab: k for k, lab in enumerate(b)} for n, b in bases.items()}
    dX = {p: _columns(X.diff(p)) for p in X.degrees()}
    dY = {q: _columns(Y.diff(q)) for q in Y.degrees()}
    # the Koszul sign (-1)^p on d^Y: each column negated once, read for odd p
    neg = ring.ops.neg
    negY = {q: {j: [(ii, neg(v)) for ii, v in c] for j, c in cs.items()} for q, cs in dY.items()}
    diffs = {}
    for n in degrees:
        tgt = index.get(n - 1)
        if tgt is None:
            continue
        # each target row is hit at most once per column: the X part lands in
        # block p - 1, the Y part in block p
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(bases[n]):
            for ii, v in dX[p].get(i, ()):
                row = tgt.get(((p - 1, ii), (q, j)))
                if row is not None:
                    entries[(row, col)] = v
            for ii, v in (negY if p % 2 else dY)[q].get(j, ()):
                row = tgt.get(((p, i), (q - 1, ii)))
                if row is not None:
                    entries[(row, col)] = v
        diffs[n] = SparseMatrix._of(ring, len(tgt), len(bases[n]), entries)
    gdegs = None
    if X.graded:
        gdegs = {
            n: tuple(X.gdeg(p)[i] + Y.gdeg(q)[j] for ((p, i), (q, j)) in bases[n])
            for n in bases
        }
    T = FreeComplex._of(ring, {n: len(b) for n, b in bases.items()}, diffs, gdegs)
    return T, bases, index


class ChainMap:
    """A degreewise map of complexes; absent degrees are zero maps."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: FreeComplex, target: FreeComplex, maps):
        if source.ring != target.ring:
            raise RingMismatchError("chain map between complexes over different rings")
        self.source = source
        self.target = target
        self.maps = _checked_family(
            source.ring,
            maps,
            lambda n: (target.rank(n), source.rank(n)),
            "map",
            (lambda n: (source.gdeg(n), target.gdeg(n))) if source.graded else None,
        )
        bad = self._first_noncommuting()
        if bad is not None:
            n, (i, j) = bad
            raise ShapeError(
                f"map at degree {n} does not commute with the differentials at entry ({i},{j})"
            )

    @classmethod
    def _of(cls, source: FreeComplex, target: FreeComplex, maps) -> "ChainMap":
        """The chain map of a library result; zero matrices are dropped and
        nothing is validated again."""
        f = object.__new__(cls)
        f.source = source
        f.target = target
        f.maps = {n: M for n, M in maps.items() if not M.is_zero()}
        return f

    def component(self, n: int) -> SparseMatrix:
        M = self.maps.get(n)
        if M is None:
            return SparseMatrix.zero(self.source.ring, self.target.rank(n), self.source.rank(n))
        return M

    def is_chain_map(self) -> bool:
        return self._first_noncommuting() is None

    def _first_noncommuting(self):
        """(n, (i, j)): the lowest degree n where f d_n != d_n f, with the
        lowest entry where they differ; None for a chain map."""
        degrees = set(self.source.degrees()) | set(self.target.degrees())
        for n in sorted(degrees):
            lhs = self.component(n - 1) @ self.source.diff(n)
            rhs = self.target.diff(n) @ self.component(n)
            if lhs != rhs:
                return n, min((lhs - rhs).entries)
        return None

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.source != other.source or self.target != other.target:
            raise ShapeError("cannot add maps with different endpoints")
        degrees = set(self.maps) | set(other.maps)
        return ChainMap._of(
            self.source,
            self.target,
            {n: self.component(n) + other.component(n) for n in degrees},
        )

    def __neg__(self) -> "ChainMap":
        return ChainMap._of(self.source, self.target, {n: -M for n, M in self.maps.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and all(
                self.component(n) == other.component(n)
                for n in set(self.maps) | set(other.maps)
            )
        )

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_map(X: FreeComplex) -> ChainMap:
    return ChainMap._of(
        X, X, {n: SparseMatrix.identity(X.ring, X.rank(n)) for n in X.degrees()}
    )


def zero_map(X: FreeComplex, Y: FreeComplex) -> ChainMap:
    return ChainMap._of(X, Y, {})


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.target != g.source:
        raise ShapeError("composition endpoints do not match")
    return ChainMap._of(
        f.source,
        g.target,
        {n: g.component(n) @ f.component(n) for n in set(f.maps) & set(g.maps)},
    )


def is_chain_map(f: ChainMap) -> bool:
    return f.is_chain_map()


def _cone_entries(f: ChainMap, neg=None):
    """(ranks, {n: {(i, j): raw value}}) of cone(f) as mapping_cone lays it
    out, the block -d^X written through neg, or as d^X when neg is None."""
    X, Y = f.source, f.target
    ranks = {n: X.rank(n - 1) + Y.rank(n) for n in sorted({n + 1 for n in X.degrees()} | set(Y.degrees()))}
    entries = {n: {} for n in ranks}
    for n, E in entries.items():
        for M, dr, dc, g in ((X._diffs.get(n - 1), 0, 0, neg), (f.maps.get(n - 1), X.rank(n - 2), 0, None),
                             (Y._diffs.get(n), X.rank(n - 2), X.rank(n - 1), None)):
            for (i, j), v in M.entries.items() if M is not None else ():
                E[(i + dr, j + dc)] = g(v) if g else v
    return ranks, entries


def mapping_cone(f: ChainMap) -> FreeComplex:
    """cone(f)_n = X_{n-1} (+) Y_n with d(x, y) = (-dX(x), f(x) + dY(y)).

    X-generators precede Y-generators in each degree; over graded rings the
    generator degrees are those of X_{n-1} followed by those of Y_n.  The
    cone is exact exactly when f is a quasi-isomorphism (Weibel, An
    Introduction to Homological Algebra, Cor. 1.5.4).
    """
    X, Y, ring = f.source, f.target, f.source.ring
    ranks, entries = _cone_entries(f, ring.ops.neg)
    diffs = {n: SparseMatrix._of(ring, ranks.get(n - 1, 0), ranks[n], E) for n, E in entries.items()}
    gdegs = {n: X.gdeg(n - 1) + Y.gdeg(n) for n in ranks} if X.graded else None
    return FreeComplex._of(ring, ranks, diffs, gdegs)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g on tensor complexes: blockwise Kronecker products, no signs."""
    src, bases, _ = _tensor_with_bases(f.source, g.source)
    tgt, _, index = _tensor_with_bases(f.target, g.target)
    return ChainMap._of(src, tgt, _kronecker(src.ring, f.maps, g.maps, bases, index))


def _kronecker(ring: Ring, left: dict, right: dict, bases: dict, index: dict, shift=(0, 0)):
    """{n: left (x) right from degree n}: blockwise Kronecker products, no signs.

    left[p] maps degree p to p + dp and right[q] degree q to q + dq, for
    (dp, dq) = shift: (0, 0) for chain maps, 1 on a homotopy's side.  bases
    are the source's tensor bases and index the target's {label: position},
    per degree, as _tensor_with_bases returns them.  The generator
    (p, i) (x) (q, j) goes to u w (p + dp, k) (x) (q + dq, l) summed over
    the entries u at (k, i) of left[p] and w at (l, j) of right[q]; each
    target is hit once per column.
    """
    dp, dq = shift
    mul = ring.ops.mul
    lc = {p: _columns(M) for p, M in left.items()}
    rc = {q: _columns(M) for q, M in right.items()}
    out = {}
    for n, basis in bases.items():
        tgt_index = index.get(n + dp + dq)
        if tgt_index is None:
            continue
        entries = {}
        for col, ((p, i), (q, j)) in enumerate(basis):
            rcol = rc.get(q, {}).get(j, ())
            for li, lv in lc.get(p, {}).get(i, ()):
                for ri, rv in rcol:
                    entries[(tgt_index[((p + dp, li), (q + dq, ri))], col)] = mul(lv, rv)
        out[n] = SparseMatrix._of(ring, len(tgt_index), len(basis), entries)
    return out


class Homotopy:
    """Maps s_n : X_n -> Y_{n+1} witnessing f - g = ds + sd."""

    __slots__ = ("f", "g", "maps")

    def __init__(self, f: ChainMap, g: ChainMap, maps):
        if f.source != g.source or f.target != g.target:
            raise ShapeError("homotopy endpoints do not match")
        self.f = f
        self.g = g
        X, Y = f.source, f.target
        self.maps = _checked_family(
            X.ring,
            maps,
            lambda n: (Y.rank(n + 1), X.rank(n)),
            "homotopy component",
            (lambda n: (X.gdeg(n), Y.gdeg(n + 1))) if X.graded else None,
        )

    def component(self, n: int) -> SparseMatrix:
        M = self.maps.get(n)
        if M is None:
            return SparseMatrix.zero(
                self.f.source.ring, self.f.target.rank(n + 1), self.f.source.rank(n)
            )
        return M

    def check(self) -> bool:
        X, Y = self.f.source, self.f.target
        degrees = set(X.degrees()) | set(Y.degrees())
        for n in sorted(degrees):
            lhs = self.f.component(n) - self.g.component(n)
            rhs = Y.diff(n + 1) @ self.component(n) + self.component(n - 1) @ X.diff(n)
            if lhs != rhs:
                return False
        return True


def is_homotopy(s: Homotopy, f: ChainMap, g: ChainMap) -> bool:
    if s.f != f or s.g != g:
        s = Homotopy(f, g, s.maps)
    return s.check()


def koszul(elements) -> FreeComplex:
    """Koszul complex on a nonempty list of scalars of one ring.

    One element x: 0 -> R -(x)-> R -> 0.  Two elements x, y: ranks (1, 2, 1)
    with d2 = (y, -x)^T and d1 = (x, y).  More elements: iterated tensor of
    the one-element complexes, left-associated.  Over graded rings each
    element must be homogeneous and the generator degrees accumulate.
    """
    elements = list(elements)
    if not elements:
        raise SymchainError("koszul needs at least one element")
    ring = elements[0].ring if isinstance(elements[0], Scalar) else None
    if ring is None:
        raise SymchainError("koszul elements must be Scalars")
    elements = [ring.scalar(e) for e in elements]
    if ring.graded:
        for e in elements:
            if e.homogeneous_degree() is None:
                raise GradingError(f"koszul element {e} is not homogeneous")

    def one_element(x: Scalar) -> FreeComplex:
        gdegs = None
        if ring.graded:
            gdegs = {0: (0,), 1: (x.homogeneous_degree(),)}
        return FreeComplex._of(
            ring,
            {0: 1, 1: 1},
            {1: SparseMatrix.from_rows(ring, [[x]])},
            gdegs,
        )

    if len(elements) == 1:
        return one_element(elements[0])
    if len(elements) == 2:
        x, y = elements
        gdegs = None
        if ring.graded:
            dx = x.homogeneous_degree()
            dy = y.homogeneous_degree()
            gdegs = {0: (0,), 1: (dx, dy), 2: (dx + dy,)}
        return FreeComplex._of(
            ring,
            {0: 1, 1: 2, 2: 1},
            {
                2: SparseMatrix.from_rows(ring, [[y], [-x]]),
                1: SparseMatrix.from_rows(ring, [[x, y]]),
            },
            gdegs,
        )
    out = one_element(elements[0])
    for x in elements[1:]:
        out = tensor(out, one_element(x))
    return out
