"""Library results are built with FreeComplex._of, ChainMap._of and
PresentedComplex._of, which check nothing; outside values go through the
public constructors, which check shapes, rings, homogeneity, d.d = 0,
f.d = d.f and, for presentations, that d carries relations into relations.  What the trusted
builders make must pass those checks, and each check runs where outside
values enter, not again on the library's own results.  The homotopies the
library builds go through the public Homotopy constructor, and must pass
its checks too."""

import random

import pytest

from symchain import (
    GF,
    QQ,
    ZZ,
    ChainMap,
    FreeComplex,
    PresentedComplex,
    SparseMatrix,
    ZLoc,
    alpha,
    base_change,
    direct_sum,
    graded_poly,
    identity_map,
    induced_homotopy,
    koszul,
    mapping_cone,
    minimal_model,
    minimize,
    parse,
    serialize,
    shift,
    split_decomposition,
    sum_decomposition_iso,
    sym2,
    sym2_base_change_iso,
    sym2_map,
    tensor,
    tensor_map,
    unit_complex,
    weak_sym2,
    zero_complex,
    zero_map,
)
from symchain import complexes
from symchain.complexes import Homotopy, compose, tensor_basis
from symchain.errors import ShapeError
from symchain.homology import _presented_cone
from symchain.sym2 import endo_image_complex, endo_kernel_complex, shift_iso
from symchain.theorems import _square_presentation, check_symm07pp

from randgen import random_chain_map, random_complex, random_graded_minimal, random_homotopic_pair

POLY = graded_poly("x", "y")
RINGS = [ZZ, QQ, GF(2), GF(5), ZLoc(3), POLY]
BASE_CHANGES = {ZZ: [QQ, GF(5), ZLoc(3)], ZLoc(3): [QQ, GF(3)]}


def _random(ring, rng):
    if ring.kind == "Poly":
        return random_graded_minimal(ring, rng)
    return random_complex(ring, rng, max_rank=3, max_len=3)


def _koszul_elements(ring):
    if ring.kind == "Poly":
        return list(ring.generators())
    return [ring.scalar(v) for v in (2, 3, 1)]


def _with_contractible_summand(X):
    """X (+) (R -1-> R), both generators in internal degree 1 over a graded
    ring: a nonzero homotopy exists on it whatever X is."""
    ring = X.ring
    gdegs = {0: (1,), 1: (1,)} if ring.graded else None
    pad = FreeComplex(ring, {0: 1, 1: 1}, {1: SparseMatrix.identity(ring, 1)}, gdegs)
    return direct_sum(X, pad)


def _library_results(ring, rng):
    """Outputs of every builder that uses the trusted constructors."""
    X, Y = _random(ring, rng), _random(ring, rng)
    f, g = random_chain_map(X, X, rng), random_chain_map(X, X, rng)
    out = [
        zero_complex(ring),
        unit_complex(ring),
        shift(X, 1),
        shift(X, 2),
        direct_sum(X, Y),
        tensor(X, Y),
        koszul(_koszul_elements(ring)[:1]),
        koszul(_koszul_elements(ring)[:2]),
        koszul(_koszul_elements(ring)),
        mapping_cone(f),
        f + g,
        -f,
        identity_map(X),
        zero_map(X, Y),
        compose(g, f),
        tensor_map(f, g),
        alpha(X),
        sym2_map(f),
        sum_decomposition_iso(X, Y),
        shift_iso(X, 1),
    ]
    S = sym2(X)
    out += [S.complex, S.proj]
    if ring.is_local:
        M, q = minimize(X)
        out += [M, q, minimal_model(mapping_cone(f))]
        for n in M.degrees():
            out += [_square_presentation(M, n, True), _square_presentation(M, n, False)]
    if ring.two_is_unit():
        T, al = S.tensor_square, S.alpha
        for sub in (endo_image_complex(T, al), endo_kernel_complex(T, al)):
            out += [sub.complex, sub.inclusion]
        sd = split_decomposition(X)
        out += [sd.idempotent, sd.im_alpha, sd.ker_alpha, sd.iota, sd.q, sd.j]
        out += [sd.iso, sd.iso_inverse]
        P = _with_contractible_summand(X)
        out += list(induced_homotopy(*random_homotopic_pair(P, P, rng)))
    else:
        W = weak_sym2(X)
        out += [W, weak_sym2(koszul(_koszul_elements(ring)))]
        if ring.kind == "ZZ":
            out.append(_presented_cone(W))
    for target in BASE_CHANGES.get(ring, []):
        out += [base_change(X, target), sym2_base_change_iso(X, target)]
    return out


def _rebuilt(value):
    """value rebuilt from its parts by the public, checking constructor."""
    if isinstance(value, ChainMap):
        return ChainMap(_rebuilt(value.source), _rebuilt(value.target), value.maps)
    if isinstance(value, Homotopy):
        return Homotopy(_rebuilt(value.f), _rebuilt(value.g), value.maps)
    if isinstance(value, PresentedComplex):
        return PresentedComplex(value.ring, value.generators, value.relations, value.diffs)
    X = value
    gdegs = {n: X.gdeg(n) for n in X.degrees()} if X.graded else None
    return FreeComplex(X.ring, X.ranks, {n: X.diff(n) for n in X.degrees()}, gdegs)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_public_constructors_accept_what_the_trusted_builders_make(ring, seed):
    rng = random.Random(1000 * seed + RINGS.index(ring))
    results = _library_results(ring, rng)
    assert len(results) >= 20
    for value in results:
        assert _parts(_rebuilt(value)) == _parts(value), value


def _parts(value):
    """value itself; a presented complex or a homotopy, which define no ==,
    as its parts."""
    if isinstance(value, PresentedComplex):
        return value.ring, value.generators, value.relations, value.diffs
    if isinstance(value, Homotopy):
        return value.f, value.g, value.maps
    return value


@pytest.mark.parametrize("ring", [r for r in RINGS if r.two_is_unit()], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_folklore_builders_keep_their_contracts(ring, seed):
    """What induced_homotopy and split_decomposition no longer check at run
    time, as properties of what they build: sigma and sigma_bar are
    homotopies from f(x)f to g(x)g and from S2 f to S2 g, sigma commutes
    with alpha, the ranks of Im(alpha) and S2(X) add up to those of
    X (x) X, and iso_inverse and iso are inverse in every degree."""
    rng = random.Random(3000 * seed + RINGS.index(ring))
    P = _with_contractible_summand(_random(ring, rng))
    Q = _with_contractible_summand(_random(ring, rng))
    nonzero = 0
    # random_chain_map often draws 0, and then sigma is 0 too; f = 1 is not
    for Y, f in ((P, identity_map(P)), (Q, None)):
        f, g, s = random_homotopic_pair(P, Y, rng, f)
        sigma, sigma_bar = induced_homotopy(f, g, s)
        assert sigma.check() and sigma_bar.check()
        al_x, al_y = alpha(P), alpha(Y)
        for n in sigma.f.source.degrees():
            M = sigma.component(n)
            assert M @ al_x.component(n) == al_y.component(n + 1) @ M
        nonzero += bool(sigma.maps)
    assert nonzero
    for X in (P, Q, koszul(_koszul_elements(ring))):
        d = split_decomposition(X)
        T = d.iota.target
        for n in T.degrees():
            assert d.im_alpha.rank(n) + d.sym2_result.complex.rank(n) == T.rank(n)
            ident = SparseMatrix.identity(ring, T.rank(n))
            assert d.iso_inverse.component(n) @ d.iso.component(n) == ident
            assert d.iso.component(n) @ d.iso_inverse.component(n) == ident


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_natural_isos_map_a_complex_to_itself(ring, seed):
    """What shift_iso and sym2_base_change_iso no longer compare at run
    time, with both sides built here: S2 of an even shift is the shifted
    S2, and S2 of a base change is the base change of S2, as complexes, so
    each identity map is a chain isomorphism from the one to the other."""
    rng = random.Random(4000 * seed + RINGS.index(ring))
    X = _random(ring, rng)
    for n in (-1, 0, 1, 2):
        F = shift_iso(X, n)
        assert F == identity_map(sym2(shift(X, 2 * n)).complex)
        assert F.target == shift(sym2(X).complex, 4 * n)
    for target in BASE_CHANGES.get(ring, []):
        F = sym2_base_change_iso(X, target)
        assert F == identity_map(sym2(base_change(X, target)).complex)
        assert F.target == base_change(sym2(X).complex, target)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_sym2_reduction_kills_alpha_and_odd_squares(ring, seed):
    """What sym2 no longer checks at run time, as properties of what it
    builds: proj . d kills Im(alpha) and the odd diagonal squares, and
    alpha.alpha = 2 alpha where 2 is a unit.  The values checked are
    independent of the section, which enters none of proj, d and alpha;
    the first two make the induced differential proj . d . section the
    same for every section."""
    rng = random.Random(2000 * seed + RINGS.index(ring))
    odd_squares_hit = 0  # odd diagonal squares with a nonzero d
    for X in (_random(ring, rng), _random(ring, rng), koszul(_koszul_elements(ring))):
        S = sym2(X)
        T, al = S.tensor_square, S.alpha
        for n in T.degrees():
            d = T.diff(n)
            rd = S.proj.component(n - 1) @ d
            assert (rd @ al.component(n)).is_zero()
            odd = {c for c, (a, b) in enumerate(tensor_basis(X, X, n)) if a == b and a[0] % 2}
            assert not any(c in odd for (_, c) in rd.entries)
            odd_squares_hit += len(odd & {c for (_, c) in d.entries})
            if ring.two_is_unit():
                A = al.component(n)
                assert A @ A == A + A
    assert odd_squares_hit


class _Counter:
    """Counts calls of validate, of ChainMap.is_chain_map and of the
    f.d = d.f loop that is_chain_map and the ChainMap constructor share."""

    def __init__(self, monkeypatch):
        self.calls = {"validate": 0, "is_chain_map": 0, "_first_noncommuting": 0}
        for owner, name in (
            (complexes, "validate"),
            (ChainMap, "is_chain_map"),
            (ChainMap, "_first_noncommuting"),
        ):
            monkeypatch.setattr(owner, name, self._wrap(name, getattr(owner, name)))

    def _wrap(self, name, function):
        def counted(*args):
            self.calls[name] += 1
            return function(*args)

        return counted


@pytest.mark.parametrize("which", ["zloc3", "koszul_xy"])
def test_checkers_run_no_complex_or_chain_map_check(which, monkeypatch):
    if which == "zloc3":
        X = random_complex(ZLoc(3), random.Random(7), max_rank=3, max_len=3)
    else:
        X = koszul(list(POLY.generators()))
    counter = _Counter(monkeypatch)
    report = check_symm07pp(X)
    assert report.equivalent
    assert counter.calls == {"validate": 0, "is_chain_map": 0, "_first_noncommuting": 0}


def test_parse_checks_each_complex_and_the_map_once(monkeypatch):
    X = koszul(list(POLY.generators()))
    text = serialize(sym2_map(identity_map(X)))
    counter = _Counter(monkeypatch)
    f = parse(text)
    assert isinstance(f, ChainMap)
    # source and target once each; the map once, in its constructor
    assert counter.calls == {"validate": 2, "is_chain_map": 0, "_first_noncommuting": 1}


def test_absent_degrees_read_as_zero_without_validation(monkeypatch):
    """A degree with no stored matrix reads as a zero built by the trusted
    builder: FreeComplex.diff, ChainMap.component, Homotopy.component and
    PresentedComplex.diff and .relation run no SparseMatrix constructor.
    The public zero still refuses negative dimensions."""
    X = koszul([QQ.scalar(2)])
    f = zero_map(X, X)
    s = Homotopy(f, f, {})
    P = weak_sym2(koszul([ZZ.scalar(3)]))
    checked = []
    real = SparseMatrix.__init__

    def counted(self, *args, **kwargs):
        checked.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__init__", counted)
    zeros = [X.diff(5), f.component(0), s.component(0), P.diff(9), P.relation(9)]
    assert checked == []
    assert [(Z.rows, Z.cols, Z.entries) for Z in zeros] == [
        (0, 0, {}), (1, 1, {}), (1, 1, {}), (0, 0, {}), (0, 0, {}),
    ]
    for rows, cols in ((-1, 0), (0, -1)):
        with pytest.raises(ShapeError, match="negative dimensions"):
            SparseMatrix.zero(QQ, rows, cols)
