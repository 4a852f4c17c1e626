"""Canonical JSON documents for complexes, chain maps, and presentations.

The format is a JSON text profile: fixed key order, matrices as dense
row-major lists of scalar strings in the textual grammar, two-space
indentation.  Serialization of equal objects is byte-identical, and
serialize(parse(serialize(x))) == serialize(x).  Parsed complexes, chain
maps and presentations are checked once, by the FreeComplex, ChainMap and
PresentedComplex constructors; their failures carry the offending degree,
and for complexes and maps the entry.  Integers must be JSON integers and
matrix rows JSON lists; every malformed field raises DocumentError naming
it.

What a cell costs: the reader passes a "0" cell after one comparison and
reads each distinct other string once per matrix (Ring.raw), so a document
parses in time proportional to its cells plus its distinct values, not to
its cells times the grammar.  The writer writes "0" into every cell and
formats only the stored entries.
"""

from __future__ import annotations

import json

from .complexes import ChainMap, FreeComplex
from .errors import DocumentError, ShapeError, SymchainError
from .linalg import SparseMatrix
from .scalars import GF, QQ, Ring, ZLoc, ZZ, format_raw, graded_poly, parse_ring_string
from .sym2 import PresentedComplex

__all__ = [
    "serialize",
    "parse",
    "ring_to_obj",
    "ring_from_obj",
    "parse_ring_string",
    "COMPLEX_FORMAT",
    "MAP_FORMAT",
    "PRESENTED_FORMAT",
]

COMPLEX_FORMAT = "symchain-complex-v1"
MAP_FORMAT = "symchain-map-v1"
PRESENTED_FORMAT = "symchain-presented-v1"


def ring_to_obj(ring: Ring) -> dict:
    if ring.kind == "Poly":
        return {"kind": "GradedPoly", "variables": list(ring.variables)}
    if ring.kind in ("GF", "ZLoc"):
        return {"kind": ring.kind, "p": ring.p}
    return {"kind": ring.kind}


def ring_from_obj(obj) -> Ring:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DocumentError(f"bad ring descriptor {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "ZZ":
            return ZZ
        if kind == "QQ":
            return QQ
        if kind == "GF":
            return GF(_int(obj["p"], "ring p"))
        if kind == "ZLoc":
            return ZLoc(_int(obj["p"], "ring p"))
        if kind == "GradedPoly":
            return graded_poly(*obj["variables"])
    except (KeyError, TypeError, SymchainError) as exc:
        raise DocumentError(f"bad ring descriptor {obj!r}: {exc}") from exc
    raise DocumentError(f"unknown ring kind {kind!r}")


def _int(value, where: str) -> int:
    """A JSON integer; booleans, floats and strings are not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer, got {json.dumps(value)}")
    return value


def _count(value, where: str) -> int:
    n = _int(value, where)
    if n < 0:
        raise DocumentError(f"{where}: expected a nonnegative integer, got {n}")
    return n


def _list(value, where: str, length=None) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected a list, got {json.dumps(value)}")
    if length is not None and len(value) != length:
        raise DocumentError(f"{where}: expected {length} items, got {len(value)}")
    return value


def _support(obj):
    """(lo, hi) from the document's support, or None for the zero object."""
    support = obj.get("support")
    if support is None:
        return None
    lo, hi = (_int(v, "support") for v in _list(support, "support", 2))
    return lo, hi


def _matrix_to_rows(M: SparseMatrix):
    rows = [["0"] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = format_raw(M.ring, v)
    return rows


def _cell(ring: Ring, text, where: str, i: int, j: int):
    try:
        return ring.raw(text)
    except SymchainError as exc:
        raise DocumentError(f"{where}: entry ({i},{j}): {exc}") from exc


def _matrix_from_rows(ring: Ring, rows, nrows: int, ncols: int, where: str) -> SparseMatrix:
    if len(_list(rows, where)) != nrows:
        raise DocumentError(f"{where}: expected a {nrows}x{ncols} matrix, got {len(rows)} rows")
    for i, row in enumerate(rows):
        if len(_list(row, f"{where}: row {i}")) != ncols:
            raise DocumentError(f"{where}: row {i} has {len(row)} entries, expected {ncols}")
    entries = {}
    read = {}  # each distinct string's raw value; keyed by str only, as True == 1
    for i, row in enumerate(rows):
        for j, text in enumerate(row):
            if text == "0":
                continue
            if isinstance(text, str):
                value = read.get(text)
                if value is None:
                    value = read[text] = _cell(ring, text, where, i, j)
            elif isinstance(text, int) and not isinstance(text, bool):
                value = _cell(ring, text, where, i, j)
            else:
                raise DocumentError(
                    f"{where}: entry ({i},{j}): expected a scalar string, got {json.dumps(text)}"
                )
            entries[(i, j)] = value
    return SparseMatrix._of(ring, nrows, ncols, entries)


def _complex_to_obj(X: FreeComplex) -> dict:
    obj = {"format": COMPLEX_FORMAT, "ring": ring_to_obj(X.ring)}
    if X.is_zero():
        obj["support"] = None
        obj["ranks"] = []
    else:
        lo, hi = X.support
        obj["support"] = [lo, hi]
        obj["ranks"] = [X.rank(n) for n in range(lo, hi + 1)]
        if X.graded:
            obj["degrees"] = [list(X.gdeg(n)) for n in range(lo, hi + 1)]
        obj["differentials"] = [_matrix_to_rows(X.diff(n)) for n in range(lo + 1, hi + 1)]
    return obj


def _complex_from_obj(obj) -> FreeComplex:
    if not isinstance(obj, dict):
        raise DocumentError(f"expected a complex object, got {json.dumps(obj)}")
    ring = ring_from_obj(obj.get("ring"))
    support = _support(obj)
    if support is None:
        return FreeComplex(ring, {}, {}, {} if ring.graded else None)
    lo, hi = support
    ranks_list = obj.get("ranks")
    if not isinstance(ranks_list, list) or len(ranks_list) != hi - lo + 1:
        raise DocumentError("ranks do not match the support interval")
    ranks = {lo + k: _count(r, f"ranks[{k}]") for k, r in enumerate(ranks_list)}
    gdegs = None
    if ring.graded:
        degrees = obj.get("degrees")
        if not isinstance(degrees, list) or len(degrees) != hi - lo + 1:
            raise DocumentError("graded documents need a degrees list matching the support")
        gdegs = {
            lo + k: tuple(_int(d, f"degrees[{k}]") for d in _list(ds, f"degrees[{k}]"))
            for k, ds in enumerate(degrees)
        }
        gdegs = {n: ds for n, ds in gdegs.items() if ranks.get(n, 0) > 0}
    diff_rows = _list(obj.get("differentials", []), "differentials")
    if len(diff_rows) != max(hi - lo, 0):
        raise DocumentError("differentials do not match the support interval")
    diffs = {}
    for k, rows in enumerate(diff_rows):
        n = lo + 1 + k
        diffs[n] = _matrix_from_rows(
            ring, rows, ranks.get(n - 1, 0), ranks.get(n, 0), f"differential at degree {n}"
        )
    try:
        return FreeComplex(ring, ranks, diffs, gdegs)
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def _map_to_obj(f: ChainMap) -> dict:
    return {
        "format": MAP_FORMAT,
        "ring": ring_to_obj(f.source.ring),
        "source": _complex_to_obj(f.source),
        "target": _complex_to_obj(f.target),
        "maps": {
            str(n): _matrix_to_rows(f.component(n)) for n in sorted(f.maps)
        },
    }


def _map_from_obj(obj) -> ChainMap:
    ring = ring_from_obj(obj.get("ring"))
    source = _complex_from_obj(obj.get("source"))
    target = _complex_from_obj(obj.get("target"))
    if source.ring != ring or target.ring != ring:
        raise DocumentError("map ring differs from the endpoint rings")
    components = obj.get("maps") or {}
    if not isinstance(components, dict):
        raise DocumentError(f"maps: expected an object keyed by degree, got {components!r}")
    maps = {}
    for key, rows in components.items():
        try:
            n = int(key)
        except ValueError as exc:
            raise DocumentError(f"maps: degree {key!r} is not an integer") from exc
        maps[n] = _matrix_from_rows(
            ring, rows, target.rank(n), source.rank(n), f"map at degree {n}"
        )
    try:
        return ChainMap(source, target, maps)
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def _presented_to_obj(P: PresentedComplex) -> dict:
    obj = {"format": PRESENTED_FORMAT, "ring": ring_to_obj(P.ring)}
    if not P.generators:
        obj["support"] = None
        obj["generators"] = []
        return obj
    lo, hi = P.support
    obj["support"] = [lo, hi]
    obj["generators"] = [P.rank_free_cover(n) for n in range(lo, hi + 1)]
    obj["relations"] = [_matrix_to_rows(P.relation(n)) for n in range(lo, hi + 1)]
    obj["differentials"] = [_matrix_to_rows(P.diff(n)) for n in range(lo + 1, hi + 1)]
    return obj


def _presented_from_obj(obj) -> PresentedComplex:
    ring = ring_from_obj(obj.get("ring"))
    support = _support(obj)
    if support is None:
        return PresentedComplex(ring, {}, {}, {})
    lo, hi = support
    counts = obj.get("generators")
    if not isinstance(counts, list) or len(counts) != hi - lo + 1:
        raise DocumentError("generator counts do not match the support interval")
    counts = {lo + k: _count(c, f"generators[{k}]") for k, c in enumerate(counts)}
    generators = {n: list(range(c)) for n, c in counts.items() if c > 0}
    relations = {}
    relation_rows = _list(obj.get("relations", []), "relations", hi - lo + 1)
    for k, rows in enumerate(relation_rows):
        n = lo + k
        where = f"relations at degree {n}"
        if not _list(rows, where):  # no relations
            relations[n] = SparseMatrix.zero(ring, counts[n], 0)
            continue
        ncols = len(_list(rows[0], f"{where}: row 0"))
        relations[n] = _matrix_from_rows(ring, rows, counts[n], ncols, where)
    diffs = {}
    diff_rows = _list(obj.get("differentials", []), "differentials", max(hi - lo, 0))
    for k, rows in enumerate(diff_rows):
        n = lo + 1 + k
        diffs[n] = _matrix_from_rows(
            ring, rows, counts[n - 1], counts[n], f"presented differential at degree {n}"
        )
    try:
        return PresentedComplex(ring, generators, relations, diffs)
    except ShapeError as exc:
        raise DocumentError(str(exc)) from None


def serialize(value) -> str:
    """Canonical document text for a complex, chain map, or presentation."""
    if isinstance(value, FreeComplex):
        obj = _complex_to_obj(value)
    elif isinstance(value, ChainMap):
        obj = _map_to_obj(value)
    elif isinstance(value, PresentedComplex):
        obj = _presented_to_obj(value)
    else:
        raise SymchainError(f"cannot serialize {type(value).__name__}")
    return json.dumps(obj, indent=2) + "\n"


def parse(text: str):
    """Parse a document; returns a FreeComplex, ChainMap, or PresentedComplex."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    fmt = obj.get("format")
    if fmt == COMPLEX_FORMAT:
        return _complex_from_obj(obj)
    if fmt == MAP_FORMAT:
        return _map_from_obj(obj)
    if fmt == PRESENTED_FORMAT:
        return _presented_from_obj(obj)
    raise DocumentError(f"unknown document format {fmt!r}")
