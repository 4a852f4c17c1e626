"""Exact sparse matrices: products, field elimination, Smith normal form.

Matrices are immutable-by-convention sparse maps (row, col) -> nonzero
raw value over a single ring, in the canonical forms the scalars module
names: int for ZZ and GF(p), Fraction for QQ and ZLoc(p), and a monomial
dict for polynomials.  Products, sums and stacking run on those values
through the ring's ops table.  Outside values are coerced and validated by
the public constructor, from_rows and column; results of ring operations
go through SparseMatrix._of, which only drops zeros.  Values become
Scalars only at the API edge: entry(), to_rows() and column_vector().

Elimination runs on rows of raw Python ints: residues mod p for GF(p),
fraction-free integers for QQ (and for ZZ and ZLoc(p) matrices over their
fraction field), and constant polynomial matrices through their QQ lift.
_int_rows makes them from a SparseMatrix; a rational row whose entries
are all integral takes its numerators without an lcm.  Graded slices
never become a SparseMatrix: SliceTable lists the monomials of each
complementary degree once per Hilbert table, packed into integers, and
prepares each differential once (grading checked, each row scaled to
integers by the lcm of its denominators, terms packed); slice_matrix
then writes a slice straight into integer rows, skipping the rows it is
told to drop, and returns it with where each generator's block of rows
and columns starts (slice_basis lists a basis).  Graded slices reach
about 1000x800 at under 1% density, which is why rows stay sparse.  Two
kernels eliminate the rows, and the Smith pivot loop below is a third:

- rank, qq_rank, field homology and the independence test of presented
  relations run _markowitz_rank: right-looking elimination that pivots
  on the sparsest live row and, within it, the sparsest column, which
  keeps fill-in low.  Mod a composite D it pivots only on units and
  returns the rows it could not pivot; invariant_factors splits off its
  unit pivots that way.  It can also report the column of each pivot:
  qq_rank ranks the rows of a slice and returns the pivot columns,
  which graded homology drops from the rows of the next slice.
- rref, kernel and solve need canonical pivots, so they run _echelon,
  which pivots on the leading column of each row in row order.
  Fraction-free, it also reads off the pass the determinant of the
  nonsingular maximal minor its pivots pick; invariant_factors runs it
  once on the rows in order and once on the rows in reverse order.

Over ZZ and ZLoc(p) no library path builds a lattice transform:

- solve_exact needs A to have independent columns, solves once over the
  fraction field on _echelon, and accepts the solution only when
  every entry lies in the ring.
- invariant_factors returns only the nonzero Smith diagonal.  It works on
  residues modulo D, the gcd of the determinants of its two minors, so
  entries never outgrow D.  Sparse elimination splits off every entry
  that is a unit mod D, and the dense Smith pivot loop, _snf_loop, runs
  only on the rows left.  homology() over ZZ/ZLoc takes this path.

smith_normal_form carries U and V, with the convention D = U*A*V and a
diagonal that is nonnegative (ZZ) or powers of p (ZLoc) in a divisibility
chain.  It and the lattice utilities built on it, kernel_pid,
image_basis_pid and solve_pid, are reference implementations: tests
compare the library against them, and no library function calls them.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import mul

from .errors import (
    GradingError,
    LinearSolveError,
    RingMismatchError,
    ShapeError,
    SymchainError,
    UnsupportedRingError,
)
from .scalars import QQ, Ring, Scalar

__all__ = [
    "SparseMatrix",
    "SNFResult",
    "smith_normal_form",
    "invariant_factors",
    "kernel_basis",
    "rref",
    "rank",
    "solve_field",
    "kernel_pid",
    "image_basis_pid",
    "solve_pid",
    "solve_exact",
    "monomials_of_degree",
    "SliceTable",
    "slice_matrix",
]


class SparseMatrix:
    """Sparse exact matrix over one ring; no explicit zeros are stored.

    entries maps (row, col) to a nonzero canonical raw value of the ring
    (see scalars); entry(), to_rows() and column_vector() return Scalars.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = ring.raw(value)
            if v:
                clean[(i, j)] = v
        self.entries = clean

    @classmethod
    def _of(cls, ring: Ring, rows: int, cols: int, entries) -> "SparseMatrix":
        """The matrix of raw results of ring operations, at positions inside
        rows x cols; zeros are dropped and nothing is validated again."""
        M = object.__new__(cls)
        M.ring = ring
        M.rows = rows
        M.cols = cols
        M.entries = {k: v for k, v in entries.items() if v}
        return M

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, rows: int, cols: int) -> "SparseMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        return cls._of(ring, rows, cols, {})

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "SparseMatrix":
        if n < 0:
            raise ShapeError("negative dimensions")
        one = ring.ops.one
        return cls._of(ring, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, ring: Ring, rows_data) -> "SparseMatrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = ring.raw(v)
        return cls._of(ring, nrows, ncols, entries)

    @classmethod
    def column(cls, ring: Ring, values) -> "SparseMatrix":
        values = list(values)
        return cls(ring, len(values), 1, {(i, 0): v for i, v in enumerate(values)})

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar._wrap(self.ring, self.entries.get((i, j), self.ring.ops.zero))

    def to_rows(self):
        zero = self.ring.zero()
        out = [[zero] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = Scalar._wrap(self.ring, v)
        return out

    def column_vector(self, j: int):
        zero = self.ring.zero()
        col = [zero] * self.rows
        for (i, jj), v in self.entries.items():
            if jj == j:
                col[i] = Scalar._wrap(self.ring, v)
        return col

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic on raw values ----------------------------------------------

    def _check_ring(self, other: "SparseMatrix"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"cannot mix {self.ring} and {other.ring}")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        add = self.ring.ops.add
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key)
            entries[key] = v if s is None else add(s, v)
        return SparseMatrix._of(self.ring, self.rows, self.cols, entries)

    def __neg__(self) -> "SparseMatrix":
        neg = self.ring.ops.neg
        return SparseMatrix._of(
            self.ring, self.rows, self.cols, {k: neg(v) for k, v in self.entries.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        add, mul = self.ring.ops.add, self.ring.ops.mul
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(k, []).append((i, v))
        acc = {}
        for (k, j), w in other.entries.items():
            for i, v in by_row.get(k, ()):
                key = (i, j)
                p = mul(v, w)
                s = acc.get(key)
                acc[key] = p if s is None else add(s, p)
        return SparseMatrix._of(self.ring, self.rows, other.cols, acc)

    def scale(self, c) -> "SparseMatrix":
        c = self.ring.raw(c)
        mul = self.ring.ops.mul
        return SparseMatrix._of(
            self.ring, self.rows, self.cols, {k: mul(c, v) for k, v in self.entries.items()}
        )

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._of(
            self.ring, self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if self.rows != other.rows:
            raise ShapeError("hstack: row counts differ")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return SparseMatrix._of(self.ring, self.rows, self.cols + other.cols, entries)

    def vstack(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_ring(other)
        if self.cols != other.cols:
            raise ShapeError("vstack: column counts differ")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + self.rows, j)] = v
        return SparseMatrix._of(self.ring, self.rows + other.rows, self.cols, entries)

    def submatrix_columns(self, js) -> "SparseMatrix":
        js = list(js)
        by_col = _columns(self)
        entries = {(i, k): v for k, j in enumerate(js) for i, v in by_col.get(j, ())}
        return SparseMatrix._of(self.ring, self.rows, len(js), entries)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.ring == other.ring
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        items = self.entries.items()
        if self.ring.kind == "Poly":  # dict values are unhashable
            items = ((k, frozenset(v.items())) for k, v in items)
        return hash((self.ring, self.rows, self.cols, frozenset(items)))

    def __repr__(self):
        rows = [
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.to_rows()
        ]
        return f"SparseMatrix({self.ring}, {self.rows}x{self.cols}, [" + "; ".join(rows) + "])"


def _columns(M: SparseMatrix) -> dict:
    """{col: [(row, raw value)]} over the nonzero entries of M."""
    cols = {}
    for (i, j), v in M.entries.items():
        cols.setdefault(j, []).append((i, v))
    return cols


# -- field elimination: one sparse core on raw integers ------------------------


def _echelon(rows, p=None, reduced=False):
    """Row echelon form of integer rows given as {col: int} dicts.

    With p=None the rows are eliminated fraction-free (cross-multiplied, then
    divided by their content), which is exact over QQ and, once rows are
    scaled to integers, over ZZ and ZLoc; with p prime they are residues mod
    p and each pivot row is scaled to a leading 1.  The pivot is the leading
    column of each incoming row, taken in row order, which makes the pivots
    canonical (rref) but can fill rows in; rank uses _markowitz_rank
    instead.  Rows are consumed.
    Returns ({pivot col: row}, |det A[I, J]|), where I are the input rows
    that became pivot rows and J their pivot columns, a nonsingular maximal
    minor; the determinant is None for p prime.  With reduced=True every
    pivot column is zero outside its own pivot row.

    The determinant is read off the pass.  Clearing the k-th row of I
    multiplies it by factors a' = a / gcd(a, b) > 0, of product s, and adds
    multiples of the pivot rows so far.  Those rows and this one, restricted
    to J_k (the first k pivot columns), are then triangular with their
    leading entries on the diagonal, so
    |det A[I_k, J_k]| = |det A[I_(k-1), J_(k-1)]| * |leading entry| / s.
    Each division is exact and each value is the determinant of a minor.
    """

    def clear(row, prow, c):  # make row[c] zero using the pivot row prow; returns a'
        if p is None:
            a, b = prow[c], row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for k in row:
                    row[k] *= a
        else:
            a, b = 1, row[c]
        for k, v in prow.items():
            w = row.get(k, 0) - b * v
            if p is not None:
                w %= p
            if w:
                row[k] = w
            else:
                del row[k]
        return a

    def normalize(row, c):
        if p is None:
            g = gcd(*row.values())
            if row[c] < 0:
                g = -g
        else:
            g = pow(row[c], -1, p)
        if g != 1:
            for k, v in row.items():
                row[k] = v // g if p is None else v * g % p

    pivots, det = {}, 1
    for row in rows:
        s = 1
        while row:
            c = min(row)
            if c not in pivots:
                break
            s *= clear(row, pivots[c], c)
        if not row:
            continue
        det = det * abs(row[c]) // s
        if reduced:
            for k in [k for k in row if k in pivots]:
                clear(row, pivots[k], k)
        normalize(row, c)
        if reduced:
            for pc, prow in pivots.items():
                if c in prow:
                    clear(prow, row, c)
                    normalize(prow, pc)
        pivots[c] = row
    return pivots, det if p is None else None


def _int_rows(A: SparseMatrix):
    """Nonzero rows of A as {col: int} dicts, and the prime to work mod.

    Rational rows (QQ, ZLoc) are scaled by the lcm of their denominators,
    which leaves row spaces unchanged; a row whose entries are all integral
    just takes their numerators.  The prime is None outside GF(p).
    """
    by_row = {}
    for (i, j), v in A.entries.items():
        row = by_row.get(i)
        if row is None:
            by_row[i] = {j: v}
        else:
            row[j] = v
    rows = [by_row[i] for i in sorted(by_row)]
    if A.ring.kind in ("QQ", "ZLoc"):
        for row in rows:
            for f in row.values():
                if f.denominator != 1:
                    m = lcm(*(f.denominator for f in row.values()))
                    for j, f in row.items():
                        row[j] = f.numerator * (m // f.denominator)
                    break
            else:
                for j, f in row.items():
                    row[j] = f.numerator
    elif A.ring.kind not in ("ZZ", "GF"):
        raise UnsupportedRingError(f"no elimination over {A.ring}")
    return rows, A.ring.p if A.ring.kind == "GF" else None


def rref(A: SparseMatrix):
    """Reduced row echelon form over a field; returns (R, pivots).

    pivots is a list of (row, col) pairs in ascending column order.
    """
    if not A.ring.is_field:
        raise UnsupportedRingError(f"rref needs a field, got {A.ring}")
    rows, p = _int_rows(A)
    echelon, _ = _echelon(rows, p, reduced=True)
    entries = {}
    pivots = []
    for r, c in enumerate(sorted(echelon)):
        row = echelon[c]
        for j, v in row.items():
            entries[(r, j)] = v if p else Fraction(v, row[c])
        pivots.append((r, c))
    return SparseMatrix._of(A.ring, A.rows, A.cols, entries), pivots


def _markowitz_rank(rows, p=None, pivots=None):
    """Rank of integer rows given as {col: int} dicts, by right-looking sparse
    elimination with Markowitz-style pivots, and the rows left unpivoted.
    Rows are consumed; a set passed as pivots receives the column of each
    pivot.

    The next pivot row is the live row with the fewest entries (ties to the
    least index), and its pivot column the one of its columns with the fewest
    other live rows (ties to the least column), found in the same pass that
    takes the pivot row out of the column index; choosing sparse rows and
    columns keeps fill-in low (Markowitz, Management Science 3, 1957; Duff,
    Erisman and Reid, Direct Methods for Sparse Matrices, ch. 7).  That
    column is cleared from every other live row: fraction-free and then
    divided by the row's content with p=None, mod p otherwise.  A negative
    fraction-free pivot row is negated first, so a row b is cleared with
    a/gcd(a, b) > 0 and, when a | b, not scaled at all.  A min-heap of row
    lengths, whose stale entries are skipped when popped, and a column ->
    live rows index keep each step local to the rows it touches.

    p may be composite: then only a unit mod p (gcd(v, p) = 1) is a pivot.
    A row without one stays live, and an update from a later pivot queues it
    again, as it may then hold a unit; mod a composite p an update can also
    vanish in a column the row does not have (b*v = 0 with b, v nonzero).
    Returns (number of pivots, the live rows left, in input order).  With
    p=None or p prime every nonzero entry is a pivot, so the number is the
    rank and no row is left.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    col_rows = {}
    for i, row in live.items():
        for c in row:
            others = col_rows.get(c)
            if others is None:
                col_rows[c] = {i}
            else:
                others.add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    r = 0
    while heap:
        n, i = heappop(heap)
        prow = live.get(i)
        if prow is None or len(prow) != n:
            continue
        c, least = None, None
        for k in prow:
            others = col_rows[k]
            others.discard(i)
            m = len(others)
            if (least is None or m < least or (m == least and k < c)) and (
                p is None or gcd(prow[k], p) == 1
            ):
                c, least = k, m
        if c is None:  # no unit mod p: the row waits for an update
            for k in prow:
                col_rows[k].add(i)
            continue
        del live[i]
        r += 1
        if pivots is not None:
            pivots.add(c)
        a = prow.pop(c)
        if p is not None:
            a = pow(a, -1, p)
        elif a < 0:
            a = -a
            for k in prow:
                prow[k] = -prow[k]
        for t in col_rows.pop(c):
            row = live[t]
            b = row.pop(c)
            if p is None:  # row = (a*row - b*prow) / g, then by its content
                g = gcd(a, b)
                s, b = a // g, b // g
                if s != 1:
                    for k in row:
                        row[k] *= s
            else:  # row -= (b / a) * prow mod p
                b = b * a % p
            for k, v in prow.items():
                w = row.get(k)
                if w is None:  # fill-in, which only a composite p can cancel
                    w = -b * v
                    if p is not None:
                        w %= p
                    if w:
                        row[k] = w
                        col_rows[k].add(t)
                    continue
                w -= b * v
                if p is not None:
                    w %= p
                if w:
                    row[k] = w
                else:
                    del row[k]
                    col_rows[k].discard(t)
            if not row:
                del live[t]
                continue
            if p is None:
                g = gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
            heappush(heap, (len(row), t))
    return r, list(live.values())


def rank(A: SparseMatrix) -> int:
    """Rank over the fraction field (exact for ZZ/ZLoc/QQ; GF(p) as itself)."""
    return _markowitz_rank(*_int_rows(A))[0]


def qq_rank(S: "IntSlice"):
    """(rank, pivot columns) of the integer rows of a graded slice.

    Graded homology ranks the slice of d_{n+1} with its rows at the pivot
    columns of d_n's slice dropped (slice_matrix's drop).  Those columns
    carry a nonsingular minor, so ker d_n maps injectively onto the
    coordinates off them, and im d_{n+1}, which lies in ker d_n, keeps its
    rank on the rows off them (Kaczynski, Mrozek and Slusarek, Comput.
    Math. Appl. 35, 1998).  The pivot columns returned carry a nonsingular
    minor of the whole slice, as the rows kept are its rows up to positive
    factors, so they can be dropped from the next slice in turn.  The rows
    of S are consumed.
    """
    pivots = set()
    kept = S.kept
    return _markowitz_rank([kept[i] for i in sorted(kept)], None, pivots)[0], pivots


def kernel_basis(A: SparseMatrix) -> SparseMatrix:
    """Columns spanning ker(A) over a field; count = cols - rank."""
    R, pivots = rref(A)
    pivot_of_row = dict(pivots)
    pivot_cols = set(pivot_of_row.values())
    free = [c for c in range(A.cols) if c not in pivot_cols]
    ops = A.ring.ops
    entries = {(fc, k): ops.one for k, fc in enumerate(free)}
    free_index = {fc: k for k, fc in enumerate(free)}
    for (r, j), v in R.entries.items():
        k = free_index.get(j)
        if k is not None:
            entries[(pivot_of_row[r], k)] = ops.neg(v)
    return SparseMatrix._of(A.ring, A.cols, len(free), entries)


def solve_field(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """One exact solution X of A @ X = B over a field; raises if none.

    The result is verified exactly before returning.
    """
    if not A.ring.is_field:
        raise UnsupportedRingError(f"solve_field needs a field, got {A.ring}")
    entries, _ = _solve_echelon(A, B)
    return _verified(A, SparseMatrix._of(A.ring, A.cols, B.cols, entries), B)


def _solve_echelon(A: SparseMatrix, B: SparseMatrix):
    """Entries of one solution of A @ X = B over the fraction field (GF(p) as
    itself), from one elimination of [A | B], and the rank of A."""
    rows, p = _int_rows(A.hstack(B))
    echelon, _ = _echelon(rows, p, reduced=True)
    entries = {}
    for c, row in echelon.items():
        if c >= A.cols:
            raise LinearSolveError("inconsistent system")
        for j, v in row.items():
            if j >= A.cols:
                entries[(c, j - A.cols)] = v if p else Fraction(v, row[c])
    return entries, len(echelon)


def _verified(A: SparseMatrix, X: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    if A @ X != B:
        raise LinearSolveError("solution verification failed")
    return X


# -- Smith normal form ---------------------------------------------------------


@dataclass
class SNFResult:
    """D = U @ A @ V with U, V invertible and diag(D) a divisibility chain."""

    U: SparseMatrix
    D: SparseMatrix
    V: SparseMatrix

    @property
    def diagonal(self):
        k = min(self.D.rows, self.D.cols)
        return [self.D.entry(i, i) for i in range(k)]

    def nonzero_diagonal(self):
        return [d for d in self.diagonal if not d.is_zero()]


def _valuation(f: Fraction, p: int) -> int:
    n = f.numerator
    if n == 0:
        raise SymchainError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def smith_normal_form(A: SparseMatrix) -> SNFResult:
    """Smith normal form over ZZ or ZLoc(p), convention D = U*A*V."""
    ring = A.ring
    if ring.kind == "ZZ":
        return _snf(A, _zz_ops())
    if ring.kind == "ZLoc":
        return _snf(A, _zloc_ops(ring.p))
    raise UnsupportedRingError(f"Smith normal form needs ZZ or ZLoc, got {ring}")


def invariant_factors(A: SparseMatrix) -> list:
    """The nonzero Smith diagonal of A over ZZ or ZLoc(p), as ints; no U or V.

    With r = rank A, the input rows I that the echelon core turns into
    pivots and their pivot columns J give a nonsingular r x r minor, and
    the core returns |det A[I, J]| from the same pass, with no second
    elimination.  d_1...d_r divides every nonzero r x r minor, so it
    divides the gcd D of that determinant and of the one the core returns
    on the rows in reverse order (over ZLoc(p), the power of p in that
    gcd).  The two minors share far fewer factors than either has: on the
    32 x 38 differential of the weak square of koszul([2, 9, 25, 49]) they
    have 71 and 23 bits, their gcd 13.  Each d_i divides D, so A is
    equivalent over Z/D to diag(d_i), and d_i = gcd(entry, D) on the
    diagonal of any Smith form mod D (Hafner-McCurley, SIAM J. Comput. 20,
    1991; Cohen, GTM 138, 2.4).
    The rows are reduced mod D, and _markowitz_rank splits off every entry
    that is a unit mod D by sparse elimination, each one an invariant
    factor 1 (Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).
    Only the rows it leaves, which hold no unit, go to the dense Smith
    loop; a diagonal position the loop does not reach, like an entry that
    vanishes mod D, reads as D.
    """
    ring = A.ring
    if ring.kind not in ("ZZ", "ZLoc"):
        raise UnsupportedRingError(f"invariant factors need ZZ or ZLoc, got {ring}")
    rows, _ = _int_rows(A)
    echelon, D = _echelon([dict(row) for row in rows])
    r = len(echelon)
    if ring.kind == "ZLoc":
        D = ring.p ** _valuation(D, ring.p)
    if D > 1:
        D = gcd(D, _echelon([dict(row) for row in reversed(rows)])[1])
    if D == 1:
        return [1] * r
    residues = [{j: w for j, v in row.items() if (w := v % D)} for row in rows]
    units, rest = _markowitz_rank(residues, D)
    cols = sorted({j for row in rest for j in row})
    M = [[row.get(j, 0) for j in cols] for row in rest]
    _snf_loop(M, _mod_ops(D))
    diagonal = [gcd(M[i][i], D) for i in range(min(len(M), len(cols), r - units))]
    return [1] * units + diagonal + [D] * (r - units - len(diagonal))


def _zz_ops():
    return {
        "key": lambda v: abs(v),
        "least": 1,
        "divides": lambda d, v: v % d == 0,
        "quot": lambda v, d: v // d,
        "normalizer": lambda v: -1 if v < 0 else 1,  # unit u with u*v canonical
        "mod": None,
    }


def _zloc_ops(p: int):
    def normalizer(v):
        # unit u with u*v = p^val(v)
        e = _valuation(v, p)
        return Fraction(p) ** e / v

    return {
        "key": lambda v: _valuation(v, p),
        "least": 0,
        "divides": lambda d, v: _valuation(v, p) >= _valuation(d, p),
        "quot": lambda v, d: v / d,
        "normalizer": normalizer,
        "mod": None,
    }


def _mod_ops(D: int):
    """Residues mod D, where a residue a stands for the ideal gcd(a, D).

    The normalizer is 1: invariant_factors reads only gcd(M[t][t], D) of a
    pivot, which a unit leaves as it is, and pivot row t, zero off the
    pivot once the loop scales it, is read by no later step."""

    def quot(v, d):  # x with x*d = v mod D, given gcd(d, D) | v
        g = gcd(d, D)
        return v // g * pow(d // g, -1, D // g)

    return {
        "key": lambda v: gcd(v, D),
        "least": 1,
        "divides": lambda d, v: v % gcd(d, D) == 0,
        "quot": quot,
        "normalizer": lambda v: 1,
        "mod": D,
    }


def _snf(A: SparseMatrix, ops) -> SNFResult:
    ring = A.ring
    m, n = A.rows, A.cols
    zero, one = ring.ops.zero, ring.ops.one
    M = [[zero] * n for _ in range(m)]
    for (i, j), v in A.entries.items():
        M[i][j] = v
    U = [[one if i == j else zero for j in range(m)] for i in range(m)]
    V = [[one if i == j else zero for j in range(n)] for i in range(n)]
    _snf_loop(M, ops, U, V)

    def pack(data, rows, cols):
        entries = {(i, j): data[i][j] for i in range(rows) for j in range(cols)}
        return SparseMatrix(ring, rows, cols, entries)

    return SNFResult(U=pack(U, m, m), D=pack(M, m, n), V=pack(V, n, n))


def _snf_loop(M, ops, U=None, V=None):
    """The Smith pivot loop, in place on the dense rows M.

    ops describes the ring: key orders pivot candidates (least is the key of
    a unit), divides, quot and normalizer act on values, and mod, when not
    None, is the modulus every entry is reduced by.  U and V, when given,
    receive the same row and column operations, so U*A*V is the final M.
    """
    m, n = len(M), len(M[0]) if M else 0
    key, least, divides, quot = ops["key"], ops["least"], ops["divides"], ops["quot"]
    mod = ops["mod"]

    def combine(x, y, q):  # x - q*y, entrywise
        if mod is None:
            return [a - q * b for a, b in zip(x, y)]
        return [(a - q * b) % mod for a, b in zip(x, y)]

    def row_op(i, k, q):  # row_i -= q * row_k, on M and U
        M[i] = combine(M[i], M[k], q)
        if U is not None:
            U[i] = combine(U[i], U[k], q)

    def col_op(j, k, q):  # col_j -= q * col_k, on M and V
        for row in M:
            row[j] -= q * row[k]
            if mod is not None:
                row[j] %= mod
        for row in V or ():
            row[j] -= q * row[k]

    def swap_rows(i, k):
        M[i], M[k] = M[k], M[i]
        if U is not None:
            U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in M:
            row[j], row[k] = row[k], row[j]
        for row in V or ():
            row[j], row[k] = row[k], row[j]

    def scale_row(i, u):  # only the normalizers of ZZ and ZLoc(p) scale
        M[i] = [u * a for a in M[i]]
        if U is not None:
            U[i] = [u * a for a in U[i]]

    t = 0
    while t < min(m, n):
        # the first entry of least key in row-major order; a unit is least
        best = None
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                if row[j]:
                    k = key(row[j])
                    if best is None or k < best[0]:
                        best = (k, i, j)
                        if k == least:
                            break
            if best is not None and best[0] == least:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(bi, t)
        if bj != t:
            swap_cols(bj, t)

        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, m):
                if not M[i][t]:
                    continue
                if divides(M[t][t], M[i][t]):
                    row_op(i, t, quot(M[i][t], M[t][t]))
                else:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, q)
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if not M[t][j]:
                    continue
                if divides(M[t][t], M[t][j]):
                    col_op(j, t, quot(M[t][j], M[t][t]))
                else:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, q)
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            if any(M[i][t] for i in range(t + 1, m)):
                continue
            # enforce that the pivot divides the remaining block (a unit does)
            offender = None
            if key(M[t][t]) != least:
                for i in range(t + 1, m):
                    if any(M[i][j] and not divides(M[t][t], M[i][j]) for j in range(t + 1, n)):
                        offender = i
                        break
            if offender is None:
                break
            row_op(t, offender, -1)  # row_t += row_offender
        u = ops["normalizer"](M[t][t])
        if u != 1:
            scale_row(t, u)
        t += 1


# -- reference lattice utilities over ZZ / ZLoc, for tests only -------------------


def kernel_pid(A: SparseMatrix) -> SparseMatrix:
    """Basis of ker(A) over ZZ or ZLoc, as columns (a free, saturated lattice)."""
    snf = smith_normal_form(A)
    k = min(A.rows, A.cols)
    keep = [j for j in range(A.cols) if j >= k or snf.D.entry(j, j).is_zero()]
    return snf.V.submatrix_columns(keep)


def image_basis_pid(A: SparseMatrix) -> SparseMatrix:
    """Basis of the column lattice of A over ZZ or ZLoc."""
    snf = smith_normal_form(A)
    av = A @ snf.V
    keep = [j for j in range(min(A.rows, A.cols)) if not snf.D.entry(j, j).is_zero()]
    return av.submatrix_columns(keep)


def solve_pid(A: SparseMatrix, B: SparseMatrix):
    """Solve A @ X = B over ZZ/ZLoc; returns X or None if no integral solution."""
    A._check_ring(B)
    if A.rows != B.rows:
        raise ShapeError("solve: row counts differ")
    snf = smith_normal_form(A)
    C = snf.U @ B
    k = min(A.rows, A.cols)
    entries = {}
    for j in range(B.cols):
        for i in range(A.rows):
            c = C.entry(i, j)
            if i >= k or snf.D.entry(i, i).is_zero():
                if not c.is_zero():
                    return None
            elif not c.is_zero():
                d = snf.D.entry(i, i)
                try:
                    q = c.divide_exact(d)
                except SymchainError:
                    return None
                entries[(i, j)] = q
    Y = SparseMatrix(A.ring, A.cols, B.cols, entries)
    return snf.V @ Y


def solve_exact(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """Solve A @ X = B exactly over the matrix ring; raises LinearSolveError.

    Over ZZ and ZLoc(p) A must have independent columns; the unique solution
    over the fraction field must then lie in the ring (denominators 1, or
    prime to p).  Over a polynomial ring A must be constant: it is lifted to
    QQ and solved against one column per (column of B, monomial) of B.  For
    A not constant the LinearSolveError is caused by a GradingError, which
    tells "cannot solve" apart from "no solution".
    """
    if A.ring.is_field:
        return solve_field(A, B)
    A._check_ring(B)
    if A.ring.kind in ("ZZ", "ZLoc"):
        entries, r = _solve_echelon(A, B)
        if r < A.cols:
            raise LinearSolveError("the columns of A are not independent")
        p = A.ring.p if A.ring.kind == "ZLoc" else None
        if any(f.denominator % p == 0 if p else f.denominator != 1 for f in entries.values()):
            raise LinearSolveError("no solution over the ring")
        if not p:
            entries = {k: f.numerator for k, f in entries.items()}
        return _verified(A, SparseMatrix._of(A.ring, A.cols, B.cols, entries), B)
    try:
        A_qq = _poly_to_qq(A)
    except GradingError as exc:
        raise LinearSolveError(f"cannot solve: {exc}") from exc
    columns = {}  # (column of B, monomial) -> column of the lifted right side
    entries = {}
    for (i, j), v in B.entries.items():
        for exp, coeff in v.items():
            entries[(i, columns.setdefault((j, exp), len(columns)))] = coeff
    X_qq = solve_field(A_qq, SparseMatrix._of(QQ, B.rows, len(columns), entries))
    keys = list(columns)
    terms = {}
    for (i, k), v in X_qq.entries.items():
        j, exp = keys[k]
        terms.setdefault((i, j), {})[exp] = v
    return _verified(A, SparseMatrix._of(A.ring, A.cols, B.cols, terms), B)


def _poly_to_qq(M: SparseMatrix) -> SparseMatrix:
    """The QQ matrix of a constant matrix over a polynomial ring."""
    const = (0,) * len(M.ring.variables)
    entries = {}
    for key, v in M.entries.items():
        if len(v) != 1 or const not in v:
            raise GradingError("expected a constant matrix over the polynomial ring")
        entries[key] = v[const]
    return SparseMatrix._of(QQ, M.rows, M.cols, entries)


# -- graded degree slices ---------------------------------------------------------


def monomials_of_degree(nvars: int, d: int):
    """All exponent vectors of total degree d, in descending lex order.

    A sorted d-tuple of variable indices is a monomial, and lex order on
    the tuples that combinations_with_replacement yields is descending lex
    order on the exponent vectors.
    """
    if d < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for k in combo:
            exp[k] += 1
        out.append(tuple(exp))
    return out


def slice_basis(nvars: int, gen_degrees, d: int):
    """Ordered QQ-basis of the degree-d slice of a graded free module.

    Generators are listed in order; within a generator, monomials of the
    complementary degree in descending lex order.  Returns a list of
    (generator_index, exponent_vector) pairs.
    """
    basis = []
    for j, a in enumerate(gen_degrees):
        for mono in monomials_of_degree(nvars, d - a):
            basis.append((j, mono))
    return basis


class SliceTable:
    """Monomial tables shared by every slice of one Hilbert table.

    The monomials of each degree 0..top in nvars variables are listed once,
    in descending lex order (the order of slice_basis), and packed into
    integers in base top + 1 (Kronecker substitution): the product of two
    monomials is the sum of their codes, whose digits never carry while its
    degree is at most top.  Nothing outlives the table.
    """

    __slots__ = ("nvars", "top", "weights", "_codes", "_index")

    def __init__(self, nvars: int, top: int):
        self.nvars = nvars
        self.top = top
        self.weights = [(top + 1) ** k for k in range(nvars)]
        self._codes = {}
        self._index = {}

    def codes(self, k: int) -> list:
        """Codes of the degree-k monomials, in descending lex order."""
        block = self._codes.get(k)
        if block is None:
            if k > self.top:
                raise GradingError(f"monomials of degree {k} lie above the table's top degree {self.top}")
            w = self.weights.__getitem__
            combos = combinations_with_replacement(range(self.nvars), k) if k >= 0 else ()
            block = self._codes[k] = [sum(map(w, combo)) for combo in combos]
        return block

    def index(self, k: int) -> dict:
        """{code: position} over the degree-k monomials."""
        index = self._index.get(k)
        if index is None:
            index = self._index[k] = {c: r for r, c in enumerate(self.codes(k))}
        return index

    def offsets(self, degrees, d: int):
        """(start of each generator's block in the degree-d slice, its size)."""
        starts, size = [], 0
        for a in degrees:
            starts.append(size)
            size += len(self.codes(d - a))
        return starts, size

    def prepare(self, M: SparseMatrix, src_degrees, tgt_degrees) -> "GradedMap":
        """M, a map from generators of degrees src_degrees to generators of
        degrees tgt_degrees, ready to be sliced in any degree of the table.

        A term of entry (i, j) whose degree is not src_degrees[j] -
        tgt_degrees[i] would leave every slice; it raises GradingError naming
        (i, j).  Row i of M is scaled by factors[i], the lcm of the
        denominators of its coefficients, which keeps the rank of every set
        of rows and of columns; each term is kept as (code, integer).
        """
        if M.ring.kind != "Poly":
            raise UnsupportedRingError("slice_matrix needs a graded polynomial ring")
        factors = [1] * len(tgt_degrees)
        for (i, j), value in M.entries.items():
            need = src_degrees[j] - tgt_degrees[i]
            for exp, coeff in value.items():
                if sum(exp) != need:
                    raise GradingError(
                        f"entry ({i},{j}) has a term of degree {sum(exp)}, which leaves "
                        f"every slice: it needs degree {src_degrees[j]} - {tgt_degrees[i]} = {need}"
                    )
                if coeff.denominator != 1:
                    factors[i] = lcm(factors[i], coeff.denominator)
        weights = self.weights
        columns = {}
        for (i, j), value in M.entries.items():
            f = factors[i]
            terms = [
                (sum(map(mul, exp, weights)), coeff.numerator * (f // coeff.denominator))
                for exp, coeff in value.items()
            ]
            columns.setdefault(j, []).append((i, terms))
        return GradedMap(self, tuple(src_degrees), tuple(tgt_degrees), list(columns.items()), tuple(factors))


@dataclass(frozen=True)
class GradedMap:
    """A map of graded free modules prepared by SliceTable.prepare: its
    entries grouped by column j as (j, [(i, [(code, int)])]), with row i
    scaled by the positive integer factors[i]."""

    table: SliceTable
    src_degrees: tuple
    tgt_degrees: tuple
    columns: list
    factors: tuple


class _Cells(Mapping):
    """(row, col) -> int over the rows of a slice, without copying them."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def __iter__(self):
        return ((i, j) for i, row in self._rows.items() for j in row)

    def __len__(self):
        return sum(map(len, self._rows.values()))


class IntSlice:
    """A degree slice written as integer rows.

    rows x cols is the shape of the whole slice; kept maps each nonzero row
    outside the slice's drop set to {col: int}, the row of the QQ slice
    times the factor of its target generator.  entries views the same
    cells by (row, col).
    """

    __slots__ = ("rows", "cols", "kept")

    def __init__(self, rows: int, cols: int, kept: dict):
        self.rows = rows
        self.cols = cols
        self.kept = kept

    @property
    def entries(self):
        return _Cells(self.kept)


def slice_matrix(G: GradedMap, d: int, drop=()):
    """The degree-d slice of a prepared map, as integer rows outside drop.

    Returns (IntSlice, target_offsets, source_offsets): rows and columns are
    ordered as slice_basis orders the bases, and the offsets are where each
    generator's block of monomials starts.  The row of the term x^e of
    entry (i, j) on the source monomial m is
    target_offsets[i] + index[d - tgt_degrees[i]][e + m], one integer
    addition of codes (see SliceTable).  Distinct terms of a column land in
    distinct rows, so each cell is written once; a row in drop is never
    written.
    """
    table = G.table
    src_offsets, cols = table.offsets(G.src_degrees, d)
    tgt_offsets, rows = table.offsets(G.tgt_degrees, d)
    kept = defaultdict(dict)
    for j, column in G.columns:
        sources = table.codes(d - G.src_degrees[j])
        if not sources:
            continue
        c0 = src_offsets[j]
        for i, terms in column:
            index = table.index(d - G.tgt_degrees[i])
            r0 = tgt_offsets[i]
            for e, v in terms:
                for c, s in enumerate(sources, c0):
                    r = r0 + index[e + s]
                    if r not in drop:
                        kept[r][c] = v
    return IntSlice(rows, cols, dict(kept)), tgt_offsets, src_offsets
