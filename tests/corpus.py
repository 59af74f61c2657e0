"""Deterministic random corpora shared across the property tests."""

import itertools
import math
import random

from weaklg import linalg
from weaklg.laurent import LaurentPoly
from weaklg.polytope import LatticePolytope, NotFullDimensional


def random_laurent(rng, n=3, max_terms=8, box=2, coeff_bound=5):
    """Random nonzero polynomial: small support, small integer coefficients."""
    count = rng.randint(1, max_terms)
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
    from fractions import Fraction

    out = []
    for _ in range(n):
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        den = rng.choice((1, 2, 3))
        out.append(Fraction(num, den))
    return out


def phi_bruteforce(f, N):
    """Constant terms of f^0..f^N by plain nested-loop dict convolution.

    Written without any laurent-module helpers so the two implementations
    cross-check each other on random inputs.
    """
    base = f.term_map()
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


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through n points, or None."""
    base = points[0]
    n = len(base)
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    kernel = linalg.nullspace(rows, ncols=n)
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
    spanned = linalg.rank(directions) if directions else 0
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
        if len(incident) >= n and linalg.rank(incident) == n:
            vertices.append(p)
    return LatticePolytope(n, vertices, facet_list)


def corpus(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_laurent(rng, **kwargs) for _ in range(count)]
