"""Exact sparse matrices: products, field elimination, Smith normal form.

Matrices are immutable-by-convention sparse maps (row, col) -> nonzero
raw value over a single ring, in the canonical forms the scalars module
names: a Fraction where ring.fraction_values (QQ, ZLoc(p)), a monomial
dict where ring.graded, else an int (ZZ, GF(p)).  Branches ask the ring
for these properties, and for is_field and proper_subring_of_qq, never
for its kind.  Products, sums and stacking run on those values
through the ring's ops table.  Outside values are coerced and validated by
the public constructor, from_rows and column; results of ring operations
go through SparseMatrix._of, which only drops zeros.  Values become
Scalars only at the API edge: entry(), to_rows() and column_vector().

Elimination runs on rows of raw Python ints: residues mod p over a
finite field, fraction-free integers over QQ (and over its proper
subrings ZZ and ZLoc(p), working in QQ), and constant polynomial matrices
through their QQ lift.  _int_rows makes them from a SparseMatrix, and
_integer_row, which also scales the rows of series._split_units, turns
a Fraction row into ints: times the lcm of its denominators, or, when
that is 1, by taking the numerators.  Two kernels eliminate the rows,
and the Smith pivot loop below is a third:

- rank, the independence test of presented relations and the ZLoc(p)
  witness rule of homology._failures run _markowitz_rank: right-looking
  elimination that pivots on the sparsest live row and, within it, the
  sparsest column, which keeps fill-in low (field homology reads
  series._minimal_ranks instead).  Mod a composite D it pivots only on
  units and returns the rows it could not pivot; invariant_factors splits
  off its unit pivots that way.
- rref, kernel and solve need canonical pivots, so they run _echelon,
  which pivots on the leading column of each row in row order.
  Fraction-free, it also reads off the pass the determinant of the
  nonsingular maximal minor its pivots pick; invariant_factors runs it
  once on the rows in order and once on the rows in reverse order.

Over the proper subrings of QQ, ZZ and ZLoc(p), no library path builds
a lattice transform:

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

Over a graded polynomial ring, _initial_module runs Buchberger's
algorithm over QQ on the columns of a map, on fraction-free integer
polynomials, and returns the minimal generators of their initial
module: the graded Hilbert tables of homology() read the Hilbert series
of each differential's cokernel off it.  The degree slices below are on
no library path; they are the slices the tests' graded oracles rank.
slice_matrix is the one slice writer: it writes the degree-d slice of a
map as a QQ matrix on the bases slice_basis lists, each term's row found
by its (generator, monomial) pair.  qq_rank is rank under the name the
benchmark's trace records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, ge, sub

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
        if self.ring.graded:  # dict values are unhashable
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

    Over fraction-valued rings (QQ, ZLoc) each row is scaled by
    _integer_row, which leaves row spaces unchanged.  The prime is the
    characteristic of a finite field, else None.
    """
    if A.ring.graded:
        raise UnsupportedRingError(f"no elimination over {A.ring}")
    by_row = {}
    for (i, j), v in A.entries.items():
        row = by_row.get(i)
        if row is None:
            by_row[i] = {j: v}
        else:
            row[j] = v
    rows = [by_row[i] for i in sorted(by_row)]
    if A.ring.fraction_values:
        rows = [_integer_row(row)[1] for row in rows]
    return rows, A.ring.p if A.ring.is_field else None


def _integer_row(row: dict):
    """(m, m * row) for a row {col: Fraction}: m is the lcm of its
    denominators, and an integral row just takes its numerators."""
    m = lcm(*[f.denominator for f in row.values()])
    if m == 1:
        return 1, {j: f.numerator for j, f in row.items()}
    return m, {j: f.numerator * (m // f.denominator) for j, f in row.items()}


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


def _markowitz_rank(rows, p=None):
    """Rank of integer rows given as {col: int} dicts, by right-looking sparse
    elimination with Markowitz-style pivots, and the rows left unpivoted.
    Rows are consumed.

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

    The free unknowns are 0 and each pivot unknown is read off the reduced
    echelon form of [A | B], so A @ X = B holds by construction.
    """
    if not A.ring.is_field:
        raise UnsupportedRingError(f"solve_field needs a field, got {A.ring}")
    entries, _ = _solve_echelon(A, B)
    return SparseMatrix._of(A.ring, A.cols, B.cols, entries)


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
    if not ring.proper_subring_of_qq:
        raise UnsupportedRingError(f"Smith normal form needs ZZ or ZLoc, got {ring}")
    return _snf(A, _zloc_ops(ring.p) if ring.p else _zz_ops())


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
    if not ring.proper_subring_of_qq:
        raise UnsupportedRingError(f"invariant factors need ZZ or ZLoc, got {ring}")
    rows, _ = _int_rows(A)
    echelon, D = _echelon([dict(row) for row in rows])
    r = len(echelon)
    if ring.p:
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
    tells "cannot solve" apart from "no solution".  Each answer comes from
    an exact elimination, so A @ X = B holds by construction.
    """
    if A.ring.is_field:
        return solve_field(A, B)
    A._check_ring(B)
    if A.ring.proper_subring_of_qq:
        entries, r = _solve_echelon(A, B)
        if r < A.cols:
            raise LinearSolveError("the columns of A are not independent")
        p = A.ring.p
        if any(f.denominator % p == 0 if p else f.denominator != 1 for f in entries.values()):
            raise LinearSolveError("no solution over the ring")
        if not p:
            entries = {k: f.numerator for k, f in entries.items()}
        return SparseMatrix._of(A.ring, A.cols, B.cols, entries)
    if not A.ring.graded:
        raise UnsupportedRingError(f"no exact solve over {A.ring}")
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
    return SparseMatrix._of(A.ring, A.cols, B.cols, terms)


def _poly_to_qq(M: SparseMatrix) -> SparseMatrix:
    """The QQ matrix of a constant matrix over a polynomial ring."""
    const = (0,) * len(M.ring.variables)
    entries = {}
    for key, v in M.entries.items():
        if len(v) != 1 or const not in v:
            raise GradingError("expected a constant matrix over the polynomial ring")
        entries[key] = v[const]
    return SparseMatrix._of(QQ, M.rows, M.cols, entries)


# -- initial modules: Buchberger over QQ on the columns of a graded map ------------


def _initial_module(M: SparseMatrix, tgt_degrees) -> list:
    """Minimal generators of the initial module of the columns of M.

    M is a homogeneous map of free modules over R = QQ[x_1..x_v]; its
    columns span a submodule N of F = (+)_i R(-tgt_degrees[i]).  Returns,
    for each target generator i, the sorted exponent vectors of the minimal
    generators of the monomial ideal I_i with in(N) = (+)_i I_i e_i, so
    that F / N and F / in(N) have one Hilbert function (Macaulay; Eisenbud,
    GTM 150, Thm. 15.3).

    The order compares the terms x^a e_i of one homogeneous element (all of
    degree |a| + tgt_degrees[i]) by degrevlex on a, then by position, the
    lower i greater.  Each term is held as the key (|a|, -a_v, .., -a_1,
    -i), so the order is the order of the keys, multiplying by a monomial
    adds a fixed vector to each key, and x^a e_i divides x^b e_i exactly
    when the middle entries of a's key are at least those of b's.  Elements
    are {key: int}, each column scaled to integers and every element
    divided by its content, with a positive leading coefficient; reduction
    is fraction-free.

    Buchberger's algorithm with the normal strategy: the columns and the
    S-pairs wait in one queue by degree, lowest first, so each element
    added is top-reduced against every element of its degree or below and
    no lead term ever divides another.  S-pairs are formed only between
    elements whose leads share a component.  Pairs are dropped by
    Gebauer and Moeller's chain criteria (J. Symbolic Comput. 6, 1988) and
    never by the product criterion, which holds for ideals only: the
    columns x e_1 and y e_1 + z e_2 of [[x, y], [0, z]] have the coprime
    leads x e_1 and y e_1, but their S-pair y (x e_1) - x (y e_1 + z e_2)
    = -xz e_2 is a new lead.
    """
    if not M.ring.graded:
        raise UnsupportedRingError(f"initial modules need a graded polynomial ring, not {M.ring}")
    polys, leads = [], []      # the basis so far, and the key of each lead
    basis = defaultdict(list)  # -i -> the elements whose lead lies on e_i
    pairs = defaultdict(dict)  # -i -> {(g, h): key of lcm}, pairs not yet reduced
    queue, order = [], 0       # (degree, order, element or None, pair or None)

    def middle(K):  # the -exponents of a key
        return K[1:-1]

    def lcm_key(K, L):
        m = tuple(map(min, middle(K), middle(L)))
        return (-sum(m), *m, K[-1])

    def divides(K, L):  # x^a e_i | x^b e_i for keys K, L on one e_i
        return all(map(ge, middle(K), middle(L)))

    def weight(K):
        return tgt_degrees[-K[-1]] + K[0]

    def add_multiple(f, b, shift, g):  # f -= b * x^shift * g
        for k, v in g.items():
            k = tuple(map(add, k, shift))
            w = f.get(k, 0) - b * v
            if w:
                f[k] = w
            else:
                del f[k]

    def reduce(f):  # top-reduce f by the basis, then divide by the content
        while f:
            K = max(f)
            g = next((g for g in basis[K[-1]] if divides(leads[g], K)), None)
            if g is None:
                c = gcd(*f.values())
                c = -c if f[K] < 0 else c
                return {k: v // c for k, v in f.items()} if c != 1 else f
            a, b = polys[g][leads[g]], f[K]
            c = gcd(a, b)
            if a != c:
                a //= c
                for k in f:
                    f[k] *= a
            add_multiple(f, b // c, tuple(map(sub, K, leads[g])), polys[g])
        return f

    def insert(f):  # add f to the basis and queue its S-pairs
        nonlocal order
        h, K = len(polys), max(f)
        polys.append(f)
        leads.append(K)
        on = basis[K[-1]]
        lcms = {g: lcm_key(leads[g], K) for g in on}
        waiting = pairs[K[-1]]
        for (g1, g2), L in list(waiting.items()):
            if divides(K, L) and lcms[g1] != L and lcms[g2] != L:
                del waiting[(g1, g2)]
        for g, L in lcms.items():
            if any(divides(L2, L) and (L2 != L or g2 < g) for g2, L2 in lcms.items() if g2 != g):
                continue
            waiting[(g, h)] = L
            heappush(queue, (weight(L), order, None, (g, h)))
            order += 1
        on.append(h)

    for col in _columns(M).values():
        f = {}
        for i, value in col:
            for exp, coeff in value.items():
                f[(sum(exp), *(-e for e in reversed(exp)), -i)] = coeff
        queue.append((weight(max(f)), order, _integer_row(f)[1], None))
        order += 1
    heapify(queue)
    while queue:
        _, _, f, pair = heappop(queue)
        if pair is not None:
            g, h = pair
            L = pairs[leads[g][-1]].pop(pair, None)
            if L is None:
                continue  # dropped by the chain criterion after it was queued
            a, b = polys[g][leads[g]], polys[h][leads[h]]
            c = gcd(a, b)
            shift = tuple(map(sub, L, leads[g]))
            f = {tuple(map(add, k, shift)): v * (b // c) for k, v in polys[g].items()}
            add_multiple(f, a // c, tuple(map(sub, L, leads[h])), polys[h])
        f = reduce(f)
        if f:
            insert(f)
    gens = [[] for _ in range(M.rows)]
    for K in leads:
        gens[-K[-1]].append(tuple(-e for e in reversed(middle(K))))
    return [tuple(sorted(g)) for g in gens]


# -- graded degree slices ---------------------------------------------------------


def monomials_of_degree(nvars: int, d: int):
    """All exponent vectors of total degree d in nvars >= 1 variables, in
    descending lex order: the first exponent e from d down to 0, each
    followed by the vectors of degree d - e in the other variables."""
    if d < 0:
        return []
    if nvars == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in monomials_of_degree(nvars - 1, d - e)]


def slice_basis(nvars: int, gen_degrees, d: int):
    """Ordered QQ-basis of the degree-d slice of a graded free module.

    Generators are listed in order; within a generator, monomials of the
    complementary degree in descending lex order, each degree's monomials
    listed once per call.  Returns a list of (generator_index,
    exponent_vector) pairs.
    """
    monos = {}
    basis = []
    for j, a in enumerate(gen_degrees):
        if a not in monos:
            monos[a] = monomials_of_degree(nvars, d - a)
        basis += [(j, mono) for mono in monos[a]]
    return basis


def slice_matrix(M: SparseMatrix, src_degrees, tgt_degrees, d: int):
    """(QQ matrix, target_basis, source_basis) of the degree-d slice of M, a
    map from generators of degrees src_degrees to generators of degrees
    tgt_degrees over a graded ring.

    Both bases come from slice_basis.  Each term x^e of entry (i, j) takes
    the source basis element (j, m) to the target row (i, e + m), found in
    a {(generator, monomial): row} dictionary.  A term whose degree is not
    src_degrees[j] - tgt_degrees[i] would leave every slice; it raises
    GradingError naming (i, j), whatever d.  Distinct terms of a column
    land in distinct rows, so each cell is written once.
    """
    if not M.ring.graded:
        raise UnsupportedRingError("slice_matrix needs a graded polynomial ring")
    by_col = {}
    for (i, j), v in M.entries.items():
        need = src_degrees[j] - tgt_degrees[i]
        if any(sum(exp) != need for exp in v):
            raise GradingError(f"entry ({i},{j}) has a term that leaves every slice: "
                               f"it needs degree {src_degrees[j]} - {tgt_degrees[i]} = {need}")
        by_col.setdefault(j, []).append((i, v))
    nvars = len(M.ring.variables)
    src_basis = slice_basis(nvars, src_degrees, d)
    tgt_basis = slice_basis(nvars, tgt_degrees, d)
    tgt_index = {key: r for r, key in enumerate(tgt_basis)}
    entries = {}
    for c, (j, mono) in enumerate(src_basis):
        for i, value in by_col.get(j, ()):
            for exp, coeff in value.items():
                entries[(tgt_index[(i, tuple(map(add, exp, mono)))], c)] = coeff
    return SparseMatrix._of(QQ, len(tgt_basis), len(src_basis), entries), tgt_basis, src_basis


def qq_rank(S: SparseMatrix) -> int:
    """rank(S) of a degree slice written by slice_matrix.

    No library path calls it.  It stays as a name: the benchmark's trace
    (perfbench/spans.py) wraps it as a boundary, and the benchmark's test of
    a traced run asserts that no boundary is absent.
    """
    return rank(S)
