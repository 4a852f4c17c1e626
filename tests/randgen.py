"""Seeded random generators shared by the test suite.

Complexes with d.d = 0 are built as direct sums of elementary pieces
(shifted copies of R and two-term complexes) conjugated by random
invertible basis changes; chain maps as structural maps plus
null-homotopic perturbations d.t + t.d, which are chain maps for any
degreewise t, or over a field as maps through the cycles of the target
in one degree (cycle_map).
"""

from fractions import Fraction

from symchain import (
    ChainMap,
    FreeComplex,
    Homotopy,
    SparseMatrix,
    direct_sum,
    shift,
    unit_complex,
    zero_complex,
)
from symchain.linalg import kernel_basis, solve_exact
from symchain.scalars import Ring


def unit_scalar(ring: Ring, rng):
    if ring.kind == "ZZ":
        return ring.scalar(rng.choice([1, -1]))
    if ring.kind == "QQ":
        return ring.scalar(Fraction(rng.choice([1, -1]) * rng.randint(1, 3), rng.randint(1, 3)))
    if ring.kind == "GF":
        return ring.scalar(rng.randint(1, ring.p - 1))
    if ring.kind == "ZLoc":
        p = ring.p
        num = rng.choice([k for k in range(-3 * p, 3 * p + 1) if k % p != 0])
        den = rng.choice([k for k in range(1, 2 * p + 1) if k % p != 0])
        return ring.scalar(Fraction(num, den))
    return ring.scalar(Fraction(rng.choice([1, -1, 2])))


def small_scalar(ring: Ring, rng):
    if ring.kind == "GF":
        return ring.scalar(rng.randint(0, ring.p - 1))
    return ring.scalar(rng.randint(-2, 2))


def random_scalar(ring: Ring, rng):
    """A random element; over a graded ring, a sum of up to 3 random terms
    with exponents up to 2, so mostly inhomogeneous."""
    if ring.kind == "ZZ":
        return ring.scalar(rng.randint(-9, 9))
    if ring.kind == "QQ":
        return ring.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if ring.kind == "GF":
        return ring.scalar(rng.randint(0, ring.p - 1))
    if ring.kind == "ZLoc":
        den = rng.choice([d for d in range(1, 10) if d % ring.p])
        return ring.scalar(Fraction(rng.randint(-9, 9), den))
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exp = tuple(rng.randint(0, 2) for _ in ring.variables)
        terms[exp] = Fraction(rng.randint(-3, 3))
    return ring.scalar(terms)


def random_homogeneous(ring: Ring, degree: int, rng):
    """A nonzero homogeneous element of the given degree over a graded ring
    in two variables."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = rng.randint(0, degree)
        terms[(e, degree - e)] = terms.get((e, degree - e), Fraction(0)) + rng.randint(1, 3)
    return ring.scalar(terms)


def random_invertible(ring: Ring, n: int, rng) -> SparseMatrix:
    """Product of elementary row operations; determinant is a unit."""
    M = SparseMatrix.identity(ring, n)
    for _ in range(2 * n):
        kind = rng.randrange(3)
        if n < 2 and kind == 0:
            kind = 2
        if kind == 0:  # add a multiple of one row to another
            i, j = rng.sample(range(n), 2)
            c = small_scalar(ring, rng)
            E = SparseMatrix(ring, n, n, {(k, k): ring.one() for k in range(n)} | {(i, j): c})
            M = E @ M
        elif kind == 1 and n >= 2:  # swap
            i, j = rng.sample(range(n), 2)
            entries = {(k, k): ring.one() for k in range(n) if k not in (i, j)}
            entries[(i, j)] = ring.one()
            entries[(j, i)] = ring.one()
            M = SparseMatrix(ring, n, n, entries) @ M
        else:  # scale one row by a unit
            i = rng.randrange(n)
            entries = {(k, k): ring.one() for k in range(n) if k != i}
            entries[(i, i)] = unit_scalar(ring, rng)
            M = SparseMatrix(ring, n, n, entries) @ M
    return M


def random_monomial_term(ring: Ring, degree: int, rng):
    """A nonzero constant times a random monomial of the given degree in
    all the variables of a graded ring."""
    exp = [0] * len(ring.variables)
    for _ in range(degree):
        exp[rng.randrange(len(exp))] += 1
    return ring.scalar({tuple(exp): Fraction(rng.choice([1, -1, 2]))})


def random_graded_automorphism(ring: Ring, gdegs, rng):
    """(P, P^-1) for a random automorphism of degree 0 of the graded free
    module on generators of internal degrees gdegs: a product of unit
    scalings and of elementary matrices 1 + c E_ij, c homogeneous of degree
    gdegs[j] - gdegs[i] >= 0, so each entry P[i, j] has that degree."""
    n = len(gdegs)
    P = P_inv = SparseMatrix.identity(ring, n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 and rng.random() < 0.75 else (rng.randrange(n),) * 2
        if gdegs[j] < gdegs[i]:
            i, j = j, i
        if i == j:
            u = unit_scalar(ring, rng)
            E = SparseMatrix(ring, n, n, {(k, k): u if k == i else ring.one() for k in range(n)})
            E_inv = SparseMatrix(ring, n, n, {(k, k): u.inverse() if k == i else ring.one() for k in range(n)})
        else:
            c = random_monomial_term(ring, gdegs[j] - gdegs[i], rng)
            ident = {(k, k): ring.one() for k in range(n)}
            E = SparseMatrix(ring, n, n, ident | {(i, j): c})
            E_inv = SparseMatrix(ring, n, n, ident | {(i, j): -c})
        P, P_inv = E @ P, P_inv @ E_inv
    return P, P_inv


def conjugate(X: FreeComplex, rng) -> FreeComplex:
    """Apply a random basis change in each degree; over a graded ring one
    of degree 0 (random_graded_automorphism), so entries stay homogeneous."""
    if X.graded:
        P, P_inv = {}, {}
        for n in X.degrees():
            P[n], P_inv[n] = random_graded_automorphism(X.ring, X.gdeg(n), rng)
    else:
        P = {n: random_invertible(X.ring, X.rank(n), rng) for n in X.degrees()}
        P_inv = {n: solve_exact(P[n], SparseMatrix.identity(X.ring, X.rank(n))) for n in P}
    diffs = {n: P[n - 1] @ X.diff(n) @ P_inv[n] for n in X.degrees() if X.rank(n - 1)}
    return FreeComplex(X.ring, X.ranks, diffs, {n: X.gdeg(n) for n in X.degrees()} if X.graded else None)


def two_term(ring: Ring, degree: int, entry) -> FreeComplex:
    return shift(
        FreeComplex(ring, {0: 1, 1: 1}, {1: SparseMatrix.from_rows(ring, [[entry]])}),
        degree - 1,
    )


def contractible_piece(ring: Ring, degree: int) -> FreeComplex:
    return two_term(ring, degree, ring.one())


def random_complex(ring: Ring, rng, max_rank=4, max_len=4, pieces=None) -> FreeComplex:
    """Random complex with d.d = 0: sum of elementary pieces, conjugated."""
    out = zero_complex(ring)
    n_pieces = pieces if pieces is not None else rng.randint(1, 3)
    for _ in range(n_pieces):
        d = rng.randint(0, max_len)
        if rng.random() < 0.5 and d >= 1:
            piece = two_term(ring, d, small_scalar(ring, rng))
        else:
            piece = shift(unit_complex(ring), d)
        candidate = direct_sum(out, piece)
        if all(candidate.rank(n) <= max_rank for n in candidate.degrees()):
            out = candidate
    if out.is_zero():
        out = unit_complex(ring)
    return conjugate(out, rng)


def random_minimal_complex(ring: Ring, rng, max_rank=3, max_len=4) -> FreeComplex:
    """Random minimal complex over a local backend (entries stay non-units)."""
    out = zero_complex(ring)
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(0, max_len)
        if ring.kind == "ZLoc" and rng.random() < 0.6 and d >= 1:
            e = rng.randint(1, 2)
            entry = unit_scalar(ring, rng) * ring.scalar(ring.p**e)
            piece = two_term(ring, d, entry)
        else:
            piece = shift(unit_complex(ring), d)
        candidate = direct_sum(out, piece)
        if all(candidate.rank(n) <= max_rank for n in candidate.degrees()):
            out = candidate
    if out.is_zero():
        out = shift(unit_complex(ring), rng.randint(0, max_len))
    return conjugate(out, rng) if ring.kind != "Poly" else out


def random_graded_minimal(ring: Ring, rng, max_pieces=2) -> FreeComplex:
    """Random minimal graded complex: sums of shifted Koszul pieces.

    Differential entries are homogeneous of positive degree, so the result
    is minimal at the irrelevant ideal.
    """
    from symchain import koszul

    gens = ring.generators()
    choices = [
        lambda: koszul([rng.choice(gens)]),
        lambda: koszul(list(gens)[:2]) if len(gens) >= 2 else koszul([gens[0]]),
        lambda: unit_complex(ring),
    ]
    out = zero_complex(ring)
    for _ in range(rng.randint(1, max_pieces)):
        piece = shift(rng.choice(choices)(), rng.randint(0, 2))
        out = direct_sum(out, piece)
    return out


def graded_contractible_piece(ring: Ring, degree: int, gdeg: int) -> FreeComplex:
    """R(-gdeg) -> R(-gdeg) by the identity, in homological degrees degree
    and degree - 1."""
    piece = FreeComplex(ring, {0: 1, 1: 1}, {1: SparseMatrix.identity(ring, 1)}, {0: (gdeg,), 1: (gdeg,)})
    return shift(piece, degree - 1)


def random_padded_graded(ring: Ring, rng) -> FreeComplex:
    """A graded complex with constant entries: random_graded_minimal plus
    one or two contractible pieces, conjugated by automorphisms of degree
    0, which mix the constants into the entries of positive degree."""
    X = random_graded_minimal(ring, rng)
    for _ in range(rng.randint(1, 2)):
        X = direct_sum(X, graded_contractible_piece(ring, rng.randint(0, 3), rng.randint(0, 2)))
    return conjugate(X, rng)


def random_split_pair(ring: Ring, rng):
    """(X, Y) over a local backend, with unit entries to split off: random
    complexes, which over QQ and ZLoc(p) carry denominators from the basis
    change, or minimal complexes padded by a contractible piece and
    conjugated, so that rows divisible by p meet unit pivots over ZLoc(p);
    over a graded ring, graded minimal complexes padded by R(-1) -> R(-1)."""
    if ring.kind != "Poly":
        def one(max_rank):
            if rng.random() < 0.5:
                return random_complex(ring, rng, max_rank=max_rank, max_len=3)
            X = random_minimal_complex(ring, rng, max_rank=max_rank - 1, max_len=3)
            return conjugate(direct_sum(X, contractible_piece(ring, rng.randint(1, 3))), rng)

        return one(4), one(3)
    return (
        direct_sum(random_graded_minimal(ring, rng), graded_contractible_piece(ring, rng.randint(1, 3), 1)),
        direct_sum(graded_contractible_piece(ring, rng.randint(1, 3), 1), random_graded_minimal(ring, rng)),
    )


def random_degreewise_map(X: FreeComplex, Y: FreeComplex, rng, degree_shift=0, density=0.5):
    """Arbitrary degreewise maps X_n -> Y_{n+degree_shift} (no chain condition).

    Over a graded ring each entry is a constant times a monomial of the
    degree that makes it homogeneous, and zero where no such monomial exists.
    """
    maps = {}
    for n in X.degrees():
        m = n + degree_shift
        if Y.rank(m) == 0:
            continue
        entries = {}
        for i in range(Y.rank(m)):
            for j in range(X.rank(n)):
                if rng.random() < density:
                    v = small_scalar(X.ring, rng)
                    if X.graded:
                        e = X.gdeg(n)[j] - Y.gdeg(m)[i]
                        if e < 0:
                            continue
                        for _ in range(e):
                            v = v * rng.choice(X.ring.generators())
                    if not v.is_zero():
                        entries[(i, j)] = v
        if entries:
            maps[n] = SparseMatrix(X.ring, Y.rank(m), X.rank(n), entries)
    return maps


def null_homotopic_map(X: FreeComplex, Y: FreeComplex, rng) -> ChainMap:
    """d.t + t.d for random degreewise t; always a chain map."""
    t = random_degreewise_map(X, Y, rng, degree_shift=1)

    def t_at(n):
        M = t.get(n)
        if M is None:
            return SparseMatrix.zero(X.ring, Y.rank(n + 1), X.rank(n))
        return M

    maps = {}
    for n in set(X.degrees()) | set(Y.degrees()):
        if X.rank(n) == 0 or Y.rank(n) == 0:
            continue
        M = Y.diff(n + 1) @ t_at(n) + t_at(n - 1) @ X.diff(n)
        if not M.is_zero():
            maps[n] = M
    return ChainMap(X, Y, maps)


def random_chain_map(X: FreeComplex, Y: FreeComplex, rng) -> ChainMap:
    f = null_homotopic_map(X, Y, rng)
    if X == Y and rng.random() < 0.5:
        from symchain import identity_map

        f = f + identity_map(X)
    return f


def cycle_map(X: FreeComplex, Y: FreeComplex, rng):
    """A nonzero chain map X -> Y over a field, nonzero in one degree n, or
    None when no degree allows one.  f_n = K.Phi.L, where the columns of K
    span ker d^Y_n and the rows of L span the row vectors that vanish on
    im d^X_{n+1}; K has independent columns and L independent rows, so f_n
    is nonzero for any nonzero Phi.  Such maps need not be null-homotopic,
    as every map random_chain_map draws between two different complexes is.
    """
    shared = [n for n in X.degrees() if Y.rank(n)]
    for n in rng.sample(shared, len(shared)):
        K = kernel_basis(Y.diff(n))
        L = kernel_basis(X.diff(n + 1).transpose()).transpose()
        if K.cols and L.rows:
            i, j = rng.randrange(K.cols), rng.randrange(L.rows)
            Phi = SparseMatrix(X.ring, K.cols, L.rows, {(i, j): unit_scalar(X.ring, rng)})
            return ChainMap(X, Y, {n: K @ Phi @ L})
    return None


def random_homotopic_pair(X: FreeComplex, Y: FreeComplex, rng, f=None):
    """(f, g, s) with s a verified homotopy from f to g; f is drawn by
    random_chain_map unless it is given.

    s is nonzero in some degree whenever X and Y allow it, that is when
    some X_n and Y_{n+1} are both nonzero (over a graded ring, with a
    generator of Y_{n+1} of degree at most that of one of X_n): when the
    random degreewise draw comes out zero, one entry is set to a unit
    times a monomial of the right degree.
    """
    if f is None:
        f = random_chain_map(X, Y, rng)
    s_maps = random_degreewise_map(X, Y, rng, degree_shift=1)
    slots = [
        (n, i, j) for n in X.degrees() for i in range(Y.rank(n + 1)) for j in range(X.rank(n))
        if not X.graded or X.gdeg(n)[j] >= Y.gdeg(n + 1)[i]
    ]
    if not s_maps and slots:
        n, i, j = rng.choice(slots)
        v = unit_scalar(X.ring, rng)
        for _ in range(X.gdeg(n)[j] - Y.gdeg(n + 1)[i] if X.graded else 0):
            v = v * rng.choice(X.ring.generators())
        s_maps = {n: SparseMatrix(X.ring, Y.rank(n + 1), X.rank(n), {(i, j): v})}

    def s_at(n):
        M = s_maps.get(n)
        if M is None:
            return SparseMatrix.zero(X.ring, Y.rank(n + 1), X.rank(n))
        return M

    g_maps = {}
    for n in set(X.degrees()) | set(Y.degrees()):
        if X.rank(n) == 0 or Y.rank(n) == 0:
            continue
        M = f.component(n) - (Y.diff(n + 1) @ s_at(n) + s_at(n - 1) @ X.diff(n))
        if not M.is_zero():
            g_maps[n] = M
    g = ChainMap(X, Y, g_maps)
    s = Homotopy(f, g, s_maps)
    assert s.check()
    return f, g, s


def summand_inclusion(X: FreeComplex, Y: FreeComplex, which: int) -> ChainMap:
    """Inclusion of X (which=0) or Y (which=1) into direct_sum(X, Y)."""
    W = direct_sum(X, Y)
    block = X if which == 0 else Y
    maps = {}
    for n in block.degrees():
        off = 0 if which == 0 else X.rank(n)
        entries = {(off + k, k): block.ring.one() for k in range(block.rank(n))}
        maps[n] = SparseMatrix(block.ring, W.rank(n), block.rank(n), entries)
    return ChainMap(block, W, maps)


def summand_projection(X: FreeComplex, Y: FreeComplex, which: int) -> ChainMap:
    W = direct_sum(X, Y)
    block = X if which == 0 else Y
    maps = {}
    for n in block.degrees():
        off = 0 if which == 0 else X.rank(n)
        entries = {(k, off + k): block.ring.one() for k in range(block.rank(n))}
        maps[n] = SparseMatrix(block.ring, block.rank(n), W.rank(n), entries)
    return ChainMap(W, block, maps)
