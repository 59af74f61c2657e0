"""Independent answers for the benchmark: series, operator solutions, hulls, fits.

Nothing here imports weaklg.  The catalog models and operators are transcribed
below as plain data, and every answer is computed by code written for this
directory: dict-convolution constant terms, the operator recurrence, an exact
3-D hull checked by Euler's formula, polytope invariants from the hull's
face lattice, and ranks over Z/p.

Regenerate the committed known answers with

    python3 perfbench/oracle.py

which rewrites perfbench/expected.json (about ten seconds).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Catalog models in their recorded coordinates: {exponent vector: coefficient}.
MODELS = {
    "V16": {
        (-1, -1, -1): 1, (-1, -1, 0): 2, (-1, -1, 1): 1, (-1, 0, -1): 2,
        (-1, 0, 0): 3, (-1, 0, 1): 1, (-1, 1, -1): 1, (-1, 1, 0): 1,
        (0, -1, -1): 2, (0, -1, 0): 3, (0, -1, 1): 1, (0, 0, -1): 3,
        (0, 0, 0): 4, (0, 0, 1): 1, (0, 1, -1): 1, (0, 1, 0): 1,
        (1, -1, -1): 1, (1, -1, 0): 1, (1, 0, -1): 1, (1, 0, 0): 1,
    },
    "V18": {
        (-1, -1, 1): 1, (-1, 0, 0): 2, (-1, 0, 1): 1, (-1, 1, -1): 1,
        (-1, 1, 0): 1, (0, -1, 0): 2, (0, -1, 1): 1, (0, 0, -1): 2,
        (0, 0, 0): 3, (0, 0, 1): 1, (0, 1, -1): 1, (0, 1, 0): 1,
        (1, -1, -1): 1, (1, -1, 0): 1, (1, 0, -1): 1, (1, 0, 0): 1,
    },
    "V22": {
        (-1, -1, 0): 1, (-1, -1, 1): 1, (-1, 0, 0): 1, (-1, 0, 1): 1,
        (0, -1, 0): 1, (0, -1, 1): 1, (0, 0, -1): 1, (0, 0, 0): 4,
        (0, 0, 1): 1, (0, 1, -1): 1, (0, 1, 0): 1, (1, 0, -1): 1,
        (1, 0, 0): 1, (1, 1, -1): 1,
    },
}

# Operator tables c[j][l]: L = sum_j t^j sum_l c[j][l] D^l.
OPERATORS = {
    "V16": [["0", "0", "0", "1"], ["-4", "-20", "-36", "-24"], ["16", "48", "48", "16"]],
    "V18": [["0", "0", "0", "1"], ["-3", "-15", "-27", "-18"], ["-27", "-81", "-81", "-27"]],
    "V22": [
        ["0", "0", "0", "1"],
        ["-32/5", "-98/5", "-102/5", "-68/5"],
        ["-672/25", "-1904/25", "-1848/25", "-616/25"],
        ["-756/125", "-1638/125", "-1134/125", "-252/125"],
        ["-9024/625", "-16544/625", "-9024/625", "-1504/625"],
    ],
    "V22-derived": [
        ["0", "0", "0", "1"],
        ["-4", "-18", "-30", "-20"],
        ["64", "176", "168", "56"],
        ["-132", "-286", "-198", "-44"],
    ],
}

# Recorded (degree, h0, picard rank) that `polytope --catalog` compares against.
RECORD_INVARIANTS = {"V16": (16, 11, 1), "V18": (18, 12, 1), "V22": (22, 14, 1)}

SERIES_ORDER = {"V16": 30, "V18": 30, "V22": 35}
DERIVED_SOLUTION_ORDER = 90
# (series name, m, r, N) of the fit jobs; "V22" is the model series and
# "V22-derived" the derived operator's solution.
FITS = (("V22", 3, 4, 35), ("V22-derived", 6, 8, 72), ("V22-derived", 7, 9, 89))

_PRIMES = (2305843009213693951, 4611686018427387847)


def fmt(value):
    """`p` or `p/q` in lowest terms, the notation of every weaklg document."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# --- series -----------------------------------------------------------------

def _convolve(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def constant_terms(terms, N):
    """[x^0] f^i for i = 0..N by dict convolution.

    Powers are expanded only to ceil(N/2); phi(a+b) is the sum over m of
    [f^a]_m [f^b]_{-m}.
    """
    origin = (0,) * len(next(iter(terms)))
    powers = [{origin: 1}]
    for _ in range((N + 1) // 2):
        powers.append(_convolve(powers[-1], terms))
    out = []
    for i in range(N + 1):
        small, big = powers[i // 2], powers[i - i // 2]
        out.append(sum(c * big.get(tuple(-x for x in e), 0) for e, c in small.items()))
    return out


def solve(table, N):
    """a_0 = 1 solution of the operator through order N, by its recurrence."""
    rows = [[Fraction(x) for x in row] for row in table]

    def p(j, k):
        return sum(c * k**l for l, c in enumerate(rows[j]))

    a = [Fraction(1)]
    for k in range(1, N + 1):
        s = sum(p(j, k - j) * a[k - j] for j in range(1, min(k, len(rows) - 1) + 1))
        a.append(-s / p(0, k))
    return a


def apply_unimodular(U, terms):
    return {tuple(sum(U[i][j] * e[j] for j in range(3)) for i in range(3)): c
            for e, c in terms.items()}


# --- exact linear algebra ---------------------------------------------------

def rank_mod(rows, ncols):
    """Rank over Q of an integer or rational matrix, read off modulo two
    61-bit primes (the larger of the two ranks; a prime can only lower it)."""
    best = 0
    for p in _PRIMES:
        mat = []
        for row in rows:
            r = []
            for x in row:
                x = Fraction(x)
                r.append(x.numerator % p * pow(x.denominator, -1, p) % p)
            mat.append(r)
        rank = 0
        for col in range(ncols):
            pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            inv = pow(mat[rank][col], -1, p)
            prow = [x * inv % p for x in mat[rank]]
            mat[rank] = prow
            for i in range(rank + 1, len(mat)):
                f = mat[i][col]
                if f:
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
            rank += 1
        best = max(best, rank)
    return best


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# --- hull ---------------------------------------------------------------------

class HullError(AssertionError):
    """The oracle's own hull failed one of its consistency checks."""


def hull(points):
    """Facets {(primitive normal a, c): vertex tuple} with a.x <= c on all points.

    Every triple of points spans a candidate plane; it is a facet plane when
    no point lies strictly beyond it.  The result is checked before it is
    returned: every point satisfies every facet inequality, every vertex is
    an input point, and V - E + F = 2.
    """
    pts = sorted(set(tuple(p) for p in points))
    facets = {}
    for p, q, r in itertools.combinations(pts, 3):
        u = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
        v = (r[0] - p[0], r[1] - p[1], r[2] - p[2])
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        g = math.gcd(*n)
        if not g:
            continue
        n = (n[0] // g, n[1] // g, n[2] // g)
        c = _dot(n, p)
        if (n, c) in facets or ((-n[0], -n[1], -n[2]), -c) in facets:
            continue
        above = below = False
        for x in pts:
            s = _dot(n, x)
            if s > c:
                above = True
            elif s < c:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            n, c = (-n[0], -n[1], -n[2]), -c
        facets[(n, c)] = None
    for key in facets:
        a, c = key
        facets[key] = tuple(x for x in pts if _dot(a, x) == c)
    vertices = sorted(
        x for x in pts
        if _spans([a for (a, c), on in facets.items() if x in on])
    )
    vset = set(vertices)
    facets = {key: tuple(x for x in on if x in vset) for key, on in facets.items()}
    _check_hull(pts, vertices, facets)
    return vertices, facets


def _spans(normals):
    return any(_det3(a, b, c) for a, b, c in itertools.combinations(normals, 3))


def _edges(facets):
    """Vertex pairs shared by two facets."""
    out = set()
    for f, g in itertools.combinations(facets.values(), 2):
        shared = set(f).intersection(g)
        if len(shared) > 2:
            raise HullError("two facets share more than an edge")
        if len(shared) == 2:
            out.add(tuple(sorted(shared)))
    return out


def _check_hull(points, vertices, facets):
    for (a, c) in facets:
        if any(_dot(a, x) > c for x in points):
            raise HullError(f"point outside facet {a} <= {c}")
    if not set(vertices) <= set(points):
        raise HullError("hull vertex is not an input point")
    if len(vertices) - len(_edges(facets)) + len(facets) != 2:
        raise HullError("hull violates V - E + F = 2")


# --- invariants ---------------------------------------------------------------

def _box(coords):
    lo = [math.floor(min(x[i] for x in coords)) for i in range(3)]
    hi = [math.ceil(max(x[i] for x in coords)) for i in range(3)]
    return itertools.product(*(range(lo[i], hi[i] + 1) for i in range(3)))


def _cycle_around(v, facets):
    """Facets through vertex v, in cyclic order around v."""
    around = [key for key, on in facets.items() if v in on]
    nbrs = {key: [other for other in around if other != key
                  and len(set(facets[key]).intersection(facets[other])) == 2]
            for key in around}
    order = [around[0]]
    prev = None
    while len(order) < len(around):
        nxt = next(k for k in nbrs[order[-1]] if k != prev and k not in order)
        prev = order[-1]
        order.append(nxt)
    return order


def _picard(vertices, facet_vertex_sets):
    """Rank of piecewise-linear functions on the face fan, minus 3.

    A PL function is its values at the rays (vertices); on each facet cone
    they must come from one linear function, which gives (k - 3) conditions
    on a facet with k vertices.
    """
    index = {v: i for i, v in enumerate(vertices)}
    rows = []
    for on in facet_vertex_sets:
        on = list(on)
        basis = next(b for b in itertools.combinations(on, 3) if _det3(*b))
        d = _det3(*basis)
        for w in on:
            if w in basis:
                continue
            # w = sum mu_i basis_i by Cramer's rule
            mu = [Fraction(_det3(*(w if j == i else basis[j] for j in range(3))), d)
                  for i in range(3)]
            row = [Fraction(0)] * len(vertices)
            row[index[w]] = Fraction(1)
            for b, m in zip(basis, mu):
                row[index[b]] -= m
            rows.append(row)
    return len(vertices) - rank_mod(rows, len(vertices)) - 3


def invariant_lines(points, record=None):
    """The `polytope` document the CLI should print for this point set.

    `record` is (degree, h0, picard rank) for `--catalog` runs.  Requires the
    origin strictly inside the hull.
    """
    vertices, facets = hull(points)
    if not all(c > 0 for (_, c) in facets):
        raise ValueError("origin is not interior")
    interior = [x for x in _box(vertices) if all(_dot(a, x) < c for (a, c) in facets)]
    canonical = interior == [(0, 0, 0)]
    reflexive = all(c == 1 for (_, c) in facets)
    degree = Fraction(0)
    for v in vertices:
        ring = _cycle_around(v, facets)
        a0, c0 = ring[0]
        for (a1, c1), (a2, c2) in zip(ring[1:], ring[2:]):
            degree += Fraction(abs(_det3(a0, a1, a2)), c0 * c1 * c2)
    dual_vertices = [tuple(Fraction(-x, c) for x in a) for (a, c) in facets]
    sections = sum(1 for m in _box(dual_vertices) if all(_dot(m, v) >= -1 for v in vertices))
    rank = _picard(vertices, facets.values())
    lines = [
        f"canonical: {'true' if canonical else 'false'}",
        f"reflexive: {'true' if reflexive else 'false'}",
        f"degree: {fmt(degree)}",
        f"sections: {sections}",
        f"picard-rank: {rank}",
    ]
    notes = []
    if reflexive:
        dual_rays = {key: tuple(-x for x in key[0]) for key in facets}
        dual_facets = [[dual_rays[key] for key, on in facets.items() if v in on] for v in vertices]
        dual_rank = _picard(sorted(dual_rays.values()), dual_facets)
        lines.append(f"picard-rank-dual-fan: {dual_rank}")
        if dual_rank != rank:
            notes.append(
                "face fans over the polytope and over its dual give different"
                f" picard ranks ({rank} vs {dual_rank}); both are reported"
            )
    if record is not None:
        got = {"degree": degree, "sections": sections, "picard-rank": rank}
        want = dict(zip(("degree", "sections", "picard-rank"), record))
        bad = [f for f in ("degree", "sections", "picard-rank") if want[f] != got[f]]
        for f in bad:
            lines.append(f"mismatch.{f}: expected {fmt(want[f])}, computed {fmt(got[f])}")
        lines.append(f"matches-expected: {'false' if bad else 'true'}")
    lines.extend(f"note: {n}" for n in notes)
    return lines


# --- fits -------------------------------------------------------------------

def fit_rows(series, m, r, N):
    """Equations sum_{j,l} c[j][l] (k-j)^l s_{k-j} = 0 for k = 0..N."""
    rows = []
    for k in range(N + 1):
        row = []
        for j in range(r + 1):
            i = k - j
            row.extend(0 if i < 0 else series[i] * i**l for l in range(m + 1))
        rows.append(row)
    return rows


def annihilates(rows, coeffs):
    """True when the flattened operator c[j][l] satisfies every fit equation."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    scaled = [int(Fraction(c) * den) for c in coeffs]
    return all(sum(a * b for a, b in zip(row, scaled)) == 0 for row in rows)


# --- expected.json ------------------------------------------------------------

def build_expected():
    series = {name: constant_terms(MODELS[name], n) for name, n in SERIES_ORDER.items()}
    derived = solve(OPERATORS["V22-derived"], DERIVED_SOLUTION_ORDER)
    sources = {"V22": series["V22"], "V22-derived": derived}
    fits = []
    for name, m, r, N in FITS:
        unknowns = (m + 1) * (r + 1)
        nullity = unknowns - rank_mod(fit_rows(sources[name], m, r, N), unknowns)
        fits.append({"series": name, "m": m, "r": r, "N": N, "basis_size": nullity})
    return {
        "about": "known answers computed by perfbench/oracle.py; regenerate with"
                 " `python3 perfbench/oracle.py`",
        "series": {name: [fmt(c) for c in s] for name, s in series.items()},
        "derived_solution": [fmt(c) for c in derived],
        "catalog_polytope": {
            name: invariant_lines(list(MODELS[name]), RECORD_INVARIANTS[name])
            for name in RECORD_INVARIANTS
        },
        "fits": fits,
    }


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(build_expected(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
