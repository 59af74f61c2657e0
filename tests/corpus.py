"""Deterministic random corpora shared across the property tests."""

import itertools
import math
import random
from fractions import Fraction

from weaklg import linalg
from weaklg.laurent import (
    DimensionMismatch, LaurentPoly, normalize_rational, substitute_monomial,
)
from weaklg.polytope import NotFullDimensional, RationalPolytope


def random_laurent(rng, n=3, max_terms=8, box=2, coeff_bound=5):
    """Random nonzero polynomial: small support, small integer coefficients.

    At most (2 box + 1)^n terms, the size of the box, however large max_terms.
    """
    count = min(rng.randint(1, max_terms), (2 * box + 1) ** n)
    terms = {}
    while len(terms) < count:
        e = tuple(rng.randint(-box, box) for _ in range(n))
        c = rng.randint(-coeff_bound, coeff_bound)
        if c != 0:
            terms[e] = c
    return LaurentPoly(n, terms)


def random_unimodular(rng, n=3, steps=6):
    """Random product of shears, row swaps, and sign flips; det stays +-1."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                U[i][col] += k * U[j][col]
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-x for x in U[i]]
    return [tuple(row) for row in U]


def random_scales(rng, n=3):
    out = []
    for _ in range(n):
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        den = rng.choice((1, 2, 3))
        out.append(Fraction(num, den))
    return out


def resize(f, scales):
    """Scale each variable, x_i -> alpha_i x_i, multiplying a_m by alpha^m.

    Monomial products that contribute to a constant term have exponent sum
    zero, so the scale factors cancel and Phi_f is unchanged.
    """
    n = f.dimension
    alphas = []
    for a in scales:
        a = normalize_rational(a)
        if a == 0:
            raise ValueError("scale factors must be nonzero")
        alphas.append(Fraction(a))
    if len(alphas) != n:
        raise DimensionMismatch(f"expected {n} scale factors, got {len(alphas)}")
    terms = {}
    for exps, c in f.terms():
        factor = Fraction(1)
        for a, e in zip(alphas, exps):
            factor *= a**e
        terms[exps] = c * factor
    return LaurentPoly(n, terms)


def phi_bruteforce(f, N):
    """Constant terms of f^0..f^N by plain nested-loop dict convolution.

    Written without any laurent-module helpers so the two implementations
    cross-check each other on random inputs.
    """
    base = dict(f.terms())
    origin = (0,) * f.dimension
    power = {origin: 1}
    out = [1]
    for _ in range(N):
        acc = {}
        for e1, c1 in power.items():
            for e2, c2 in base.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        power = {e: c for e, c in acc.items() if c != 0}
        out.append(power.get(origin, 0))
    return out


def multiply_bruteforce(f, g):
    """f * g by nested-loop convolution on exponent tuples, as an oracle."""
    acc = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return LaurentPoly(f.dimension, acc)


def random_mutation_pair(rng, n=3):
    """Two polynomials related by a mutation, so with equal constant-term series.

    With the grading w = e_n, a factor F whose exponents lie in w-perp and
    slices g_h whose exponents have last coordinate h, the pair is
    f = sum_{h<0} g_h F^(-h) + sum_{h>=0} g_h and
    f' = sum_{h<0} g_h + sum_{h>=0} g_h F^h; the map x^m -> x^m F^(w.m) takes
    f to f' and keeps the torus volume form.  Both then go through one random
    unimodular substitution, so the grading is no longer a coordinate.
    See Akhtar, Coates, Galkin and Kasprzyk, "Minkowski polynomials and
    mutations" (SIGMA 8, 2012).
    """
    flat = [tuple(rng.randint(-1, 1) for _ in range(n - 1)) for _ in range(rng.randint(2, 3))]
    factor = LaurentPoly(n, {e + (0,): rng.choice((1, 1, 2, -1)) for e in flat})
    f = f_prime = LaurentPoly(n)
    for h in range(-2, 3):
        count = rng.randint(1, 3) if h else rng.randint(0, 2)
        terms = {
            tuple(rng.randint(-1, 1) for _ in range(n - 1)) + (h,): rng.choice((1, 1, 2, -1, 3))
            for _ in range(count)
        }
        g = shifted = LaurentPoly(n, terms)
        for _ in range(abs(h)):
            shifted = multiply_bruteforce(shifted, factor)
        f += shifted if h < 0 else g
        f_prime += g if h < 0 else shifted
    matrix = random_unimodular(rng, n)
    return substitute_monomial(f, matrix), substitute_monomial(f_prime, matrix)


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _integer_rows(rows):
    """Nonzero rows, each scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        if any(row):
            out.append([int(x * den) for x in row])
    return out


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form: (matrix, pivot column list)."""
    a = [row[:] for row in rows]
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        pivots.append(c)
        r += 1
    return a, pivots


def det_leibniz(m):
    """Sum over permutations of sign times product: the oracle for `linalg.det`."""
    k = len(m)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = -1 if inversions % 2 else 1
        for row, col in zip(m, perm):
            term *= row[col]
        total += term
    return total


def rank_bareiss(rows):
    """Rank by Bareiss elimination: the oracle for `linalg.rank`."""
    return len(_echelon(_integer_rows(rows))[1])


def is_prime_trial(n):
    """Primality by trial division: the oracle for `linalg.is_prime`."""
    if not isinstance(n, int) or n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def nullspace_bareiss(rows, ncols=None):
    """Nullspace by Bareiss elimination and Fraction back-substitution.

    The oracle for the multi-modular `linalg.nullspace`: the same basis, the
    same scaling and the same errors, reached without any modular arithmetic.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required when no rows are given")
        ncols = len(rows[0])
    ech, pivots = _echelon(_integer_rows(rows))
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i in reversed(range(len(pivots))):
            pc = pivots[i]
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if ech[i][j] and vec[j]:
                    s += ech[i][j] * vec[j]
            vec[pc] = -s / ech[i][pc]
        first = next(x for x in vec if x)
        if first != 1:
            vec = [x / first for x in vec]
        basis.append(tuple(vec))
    return basis


def rref_mod_gauss_jordan(rows, ncols, p):
    """Plain Gauss-Jordan mod p, every entry reduced at once: the oracle for
    the packed `linalg._rref_mod`.  (pivot rows, pivot columns, source rows);
    the pivot of a column is the first row left that is nonzero there, and it
    swaps places with the first row left."""
    a = [[x % p for x in row] for row in rows]
    order, pivots = list(range(len(a))), []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k], order[r], order[k] = a[k], a[r], order[k], order[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[c]:
                a[i] = [(x - row[c] * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots, order[: len(pivots)]


def _hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through n points, or None."""
    base = points[0]
    n = len(base)
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    kernel = nullspace_bareiss(rows, ncols=n)
    if len(kernel) != 1:
        return None
    vec = kernel[0]
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    return linalg.primitive([int(x * den) for x in vec])


def hull_bruteforce(points):
    """Exact hull by exhaustive supporting-hyperplane enumeration.

    Every n-subset of the points is tried as a facet hyperplane, with its
    normal taken from a Fraction nullspace, and kept when all points lie on
    one side; O(P^(n+1)), so it is meant for small inputs only.  The library's
    incremental hull is checked against it on random corpora.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimensions")
    base = pts[0]
    directions = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    spanned = rank_bareiss(directions)
    if spanned < n:
        raise NotFullDimensional(
            f"points span a {spanned}-dimensional affine subspace of R^{n}"
        )
    facets = {}
    for combo in itertools.combinations(pts, n):
        normal = _hyperplane_normal(combo)
        if normal is None:
            continue
        c = _dot(normal, combo[0])
        below = above = False
        for p in pts:
            s = _dot(normal, p)
            if s > c:
                above = True
            elif s < c:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            normal, c = tuple(-x for x in normal), -c
        facets[(normal, c)] = None
    facet_list = sorted(facets)
    vertices = []
    for p in pts:
        incident = [a for a, c in facet_list if _dot(a, p) == c]
        if len(incident) >= n and rank_bareiss(incident) == n:
            vertices.append(p)
    return RationalPolytope(n, vertices, facet_list)


def _facet_edges(P, facet, table):
    """Vertex pairs of `facet` shared with another facet: the polygon edges."""
    mine = set(table[facet])
    edges = set()
    for other in P.facets:
        if other == facet:
            continue
        shared = mine.intersection(table[other])
        if len(shared) == 2:
            edges.add(tuple(sorted(shared)))
    return sorted(edges)


def volume_by_facet_cones(P):
    """Volume by coning each facet's triangulation over the vertex z, n <= 3.

    A facet of a 3-polytope is fanned from its first vertex over its polygon
    edges, the vertex pairs it shares with another facet; in lower dimension
    a facet is already a simplex.  The oracle for `polytope.volume`, which
    reads the triangulation off the beneath-beyond boundary instead.
    """
    n = P.dimension
    if n > 3:
        raise ValueError("volume_by_facet_cones is implemented for dimension <= 3")
    table = {facet: P.facet_vertices(facet) for facet in P.facets}
    z = P.vertices[0]
    total = Fraction(0)
    for facet in P.facets:
        verts = table[facet]
        if n < 3:
            simplices = [verts]
        else:
            apex = verts[0]
            simplices = [
                (apex, u, v)
                for u, v in _facet_edges(P, facet, table)
                if apex != u and apex != v
            ]
        for simplex in simplices:
            rows = [[x - y for x, y in zip(w, z)] for w in simplex]
            total += abs(Fraction(linalg.det(rows)))
    return total / math.factorial(n)


def picard_rank_all_pairs(P):
    """Picard rank of the face fan with every pair of cones made to agree.

    One unknown linear functional per facet cone (n columns each) and one
    row per (facet pair, shared vertex) forcing two cones to agree there:
    the piecewise-linear functions themselves, where the library solves for
    their values on the vertices.  Lattice polytopes with the origin in the
    interior only, in any dimension.
    """
    n = P.dimension
    facets = P.facets
    table = [P.facet_vertices(facet) for facet in facets]
    cols = n * len(facets)
    rows = []
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            for w in set(table[i]).intersection(table[j]):
                row = [0] * cols
                for k in range(n):
                    row[n * i + k] = w[k]
                    row[n * j + k] = -w[k]
                rows.append(row)
    return cols - rank_bareiss(rows) - n


def corpus(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_laurent(rng, **kwargs) for _ in range(count)]
