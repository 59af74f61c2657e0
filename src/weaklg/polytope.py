"""Exact lattice and rational polytopes with the toric invariants used here.

Hulls of integer points come from an incremental beneath-beyond
construction in integer arithmetic that inserts the points farthest from
their centroid first: facet normals are signed minors of difference vectors,
so no rational arithmetic enters.  Facets are stored as (primitive integer
normal a, offset c) with the polytope on the side <a, x> <= c; when the
origin is strictly interior every offset is positive and the polar dual has
vertices -a/c.  The hull's boundary triangulation also gives the volume, so
every invariant works in any dimension.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from fractions import Fraction

from . import linalg
from .laurent import (
    ParseError, PointDims, data_lines, format_rational, integer_point, normalize_rational,
)


class NotFullDimensional(ValueError):
    """The given points span a proper affine subspace."""


def _dot(a, x):
    return sum(map(operator.mul, a, x))


class RationalPolytope(collections.namedtuple("RationalPolytope", "dimension vertices facets")):
    """Full-dimensional polytope with rational vertices, as a named tuple.

    Instances are produced by convex_hull (integer vertices) and dual rather
    than built by hand; construction sorts and normalises the vertices and
    facets and otherwise checks only their shape.
    """

    __slots__ = ()

    def __new__(cls, dimension, vertices, facets):
        vertices = tuple(
            sorted(tuple(normalize_rational(x) for x in v) for v in vertices)
        )
        facets = tuple(
            sorted((tuple(a), normalize_rational(c)) for a, c in facets)
        )
        if not vertices or not facets:
            raise ValueError("a polytope needs vertices and facets")
        for v in vertices:
            if len(v) != dimension:
                raise ValueError(f"vertex {v} does not have dimension {dimension}")
        for a, _ in facets:
            if len(a) != dimension:
                raise ValueError(f"facet normal {a} does not have dimension {dimension}")
        return super().__new__(cls, dimension, vertices, facets)

    def is_integral(self):
        return all(isinstance(x, int) for v in self.vertices for x in v)

    def contains(self, point, strict=False):
        p = tuple(point)
        for a, c in self.facets:
            s = _dot(a, p)
            if s > c or (strict and s == c):
                return False
        return True

    def facet_vertices(self, facet):
        a, c = facet
        return tuple(v for v in self.vertices if _dot(a, v) == c)

    def to_text(self):
        return "\n".join(" ".join(str(x) for x in v) for v in self.vertices) + "\n"


def _hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through n affinely
    independent points.  One `linalg.echelon` of their difference vectors
    leaves one free coordinate.  Set to the last pivot, it makes the exact
    back-substitution give the signed (n-1)-minors up to sign, so every
    division is exact; the caller orients the result.
    """
    base = points[0]
    rows, pivots, _ = linalg.echelon([[x - b for x, b in zip(p, base)] for p in points[1:]])
    x = [0] * len(base)
    free = next(c for c in range(len(base)) if c not in pivots)
    x[free] = rows[-1][pivots[-1]] if pivots else 1
    # Each echelon row is zero left of its pivot, where x is still zero.
    for row, c in zip(reversed(rows), reversed(pivots)):
        x[c] = -_dot(row, x) // row[c]
    return linalg.primitive(x)


def _boundary(pts):
    """Beneath-beyond over distinct integer points: (boundary, inside).

    The boundary is a list of (normal, offset, simplex) triples, the simplices
    triangulating the hull's boundary, each with its supporting hyperplane
    oriented away from `inside`, n + 1 times the centroid of the starting
    full-dimensional simplex.  A point strictly beyond some of them replaces
    those by the cones from the point over their horizon ridges, the ridges
    that only one of the replaced simplices has.  The points go in farthest
    first, by decreasing L1 distance from their centroid with ties in sorted
    order, so that fewer cones are built only to be replaced.  The starting
    simplex's edges are tested for independence by the pivot count of
    `linalg.echelon`.
    """
    n, m = len(pts[0]), len(pts)
    centre = [sum(col) for col in zip(*pts)]
    pts = sorted(pts, key=lambda p: (-sum(abs(m * x - c) for x, c in zip(p, centre)), p))
    base = pts[0]
    simplex, directions = [base], []
    for p in pts[1:]:
        if len(directions) == n:
            break
        d = [x - b for x, b in zip(p, base)]
        if len(linalg.echelon(directions + [d])[1]) > len(directions):
            simplex.append(p)
            directions.append(d)
    if len(directions) < n:
        raise NotFullDimensional(
            f"points span a {len(directions)}-dimensional affine subspace of R^{n}"
        )
    # n + 1 times the simplex's centroid, which stays strictly inside the hull.
    inside = [sum(col) for col in zip(*simplex)]

    def cone(verts):
        a = _hyperplane_normal(verts)
        c = _dot(a, verts[0])
        if _dot(a, inside) > (n + 1) * c:
            a, c = tuple(-x for x in a), -c
        return a, c, verts

    boundary = [cone(simplex[:i] + simplex[i + 1 :]) for i in range(n + 1)]
    for p in pts:
        seen, kept = [], []
        for face in boundary:
            (seen if _dot(face[0], p) > face[1] else kept).append(face)
        if not seen:
            continue
        # Every simplex lists its points in insertion order, so a ridge that
        # two simplices share is the same tuple in both.
        ridges = collections.Counter(
            r for _, _, verts in seen for r in itertools.combinations(verts, n - 1)
        )
        kept.extend(cone(r + (p,)) for r, k in ridges.items() if k == 1)
        boundary = kept
    return boundary, inside


def convex_hull(points):
    """Exact hull of integer points: vertices plus primitive facet data.

    The boundary simplices of `_boundary` that are coplanar share one
    (primitive normal, offset) key, which is the facet.  A point is a vertex
    when the normals of the facets through it have rank n.
    """
    pts = sorted(set(map(integer_point, points)))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimensions")
    facet_list = sorted({(a, c) for a, c, _ in _boundary(pts)[0]})
    vertices = []
    for p in pts:
        incident = [a for a, c in facet_list if _dot(a, p) == c]
        if len(linalg.echelon(incident)[1]) == n:
            vertices.append(p)
    return RationalPolytope(n, vertices, facet_list)


def polytope_from_text(text):
    """Vertex-per-line format: whitespace-separated integers, '#' comments, optional '# dim n'."""
    dims = PointDims()
    pts = [dims.point(line, lineno, "vertex") for lineno, line in data_lines(text, dims)]
    if not pts:
        raise ParseError("no vertices in polytope input")
    return convex_hull(pts)


def newton_polytope(f):
    """Hull of the support of f; the support must span all of R^n."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    return convex_hull(f.support())


# The most points of a bounding box that lattice_points walks: a huge
# coordinate in an input file would otherwise run without end, or overflow
# itertools.product.  The polytopes of the catalog and the tests need at most
# a few thousand; a 100 x 100 x 100 box takes about 10 s (Python 3.11).
_BOX_POINTS = 10**6


def lattice_points(P, strict=False):
    """All lattice points of P (strictly interior ones when strict is set)."""
    ranges = []
    for i in range(P.dimension):
        coords = [v[i] for v in P.vertices]
        ranges.append(range(math.floor(min(coords)), math.ceil(max(coords)) + 1))
    box = math.prod(r.stop - r.start for r in ranges)
    if box > _BOX_POINTS:
        raise ValueError(f"the bounding box holds {box} lattice points, over {_BOX_POINTS}")
    return tuple(p for p in itertools.product(*ranges) if P.contains(p, strict=strict))


def is_canonical(P):
    """True when the origin is the only interior lattice point."""
    return lattice_points(P, strict=True) == ((0,) * P.dimension,)


def _require_origin_interior(P):
    if not all(c > 0 for _, c in P.facets):
        raise ValueError("the origin is not strictly interior to the polytope")


def dual(P):
    """Polar polytope {m : <m, v> >= -1 for all v in P}.

    Its vertices are -a/c over the facets (a, c) of P and its facets come
    from the vertices of P, so no hull computation is needed and biduality
    returns the original vertex set exactly.
    """
    _require_origin_interior(P)
    n = P.dimension
    verts = []
    for a, c in P.facets:
        verts.append(tuple(normalize_rational(Fraction(-ai) / c) for ai in a))
    facets = []
    for v in P.vertices:
        den = math.lcm(*(Fraction(x).denominator for x in v))
        scaled = [int(-x * den) for x in v]
        g = math.gcd(*(abs(x) for x in scaled))
        facets.append(
            (tuple(x // g for x in scaled), normalize_rational(Fraction(den, g)))
        )
    return RationalPolytope(n, verts, facets)


def is_reflexive(P):
    """True when every vertex of the polar dual is a lattice point."""
    return dual(P).is_integral()


def volume(P):
    """Exact Euclidean volume in any dimension, from `_boundary`'s triangulation.

    The vertices are scaled by the lcm L of their denominators.  Each boundary
    simplex of the scaled hull, coned over the centroid inside / (n + 1), is a
    simplex of volume |det((n + 1) v - inside)| / ((n + 1)^n n!) over its
    vertices v, and the scaling multiplies the volume by L^n.
    """
    n = P.dimension
    L = math.lcm(*(x.denominator for v in P.vertices for x in v))
    boundary, inside = _boundary([tuple(int(x * L) for x in v) for v in P.vertices])
    total = sum(
        abs(linalg.det([[(n + 1) * x - y for x, y in zip(v, inside)] for v in verts]))
        for _, _, verts in boundary
    )
    return normalize_rational(Fraction(total, (n + 1) ** n * math.factorial(n) * L**n))


def anticanonical_degree(P):
    """n! times the Euclidean volume of the polar dual.

    Normalized so the simplex conv{e1, e2, e3, -(1,1,1)} gets 64, matching
    the cube (-K)^3 of projective 3-space.
    """
    return normalize_rational(math.factorial(P.dimension) * volume(dual(P)))


def anticanonical_sections(P):
    """Number of lattice points of the polar dual (boundary included)."""
    _require_origin_interior(P)
    return len(lattice_points(dual(P)))


def picard_rank(P):
    """Picard rank of the toric variety of the face fan of P.

    A T-Cartier divisor is a function that is linear on each facet cone, so
    it is fixed by its values on the vertices, the rays of the fan.  Values
    extend linearly over a facet exactly when they satisfy every linear
    dependency among that facet's vertices, which span R^n: one row per
    dependency, one column per vertex.  Modulo the n global linear functions
    they give the Picard group, so for V vertices the rank is V - n - rank(rows).
    This is the rank of the divisor class group only when the fan is
    simplicial: the face fan of [-1,1]^3 gives 1, while its class group has
    rank 5.
    """
    n = P.dimension
    _require_origin_interior(P)
    if not P.is_integral():
        raise ValueError("picard_rank expects a lattice polytope")
    column = {v: i for i, v in enumerate(P.vertices)}
    rows = []
    for facet in P.facets:
        verts = P.facet_vertices(facet)
        # n vertices on a hyperplane that misses the origin are independent.
        if len(verts) == n:
            continue
        for dependency in linalg.nullspace(list(zip(*verts))):
            row = [0] * len(column)
            for v, x in zip(verts, dependency):
                row[column[v]] = x
            rows.append(row)
    return len(column) - n - linalg.rank(rows)


class InvariantReport(collections.namedtuple(
    "InvariantReport",
    "canonical reflexive degree sections picard_rank dual_fan_picard_rank"
    " mismatches notes",
)):
    """Bundle of the screening invariants for one polytope.

    `degree` is an int or Fraction and `notes` a tuple of strings.
    `mismatches` is None when no expected record was supplied, otherwise a
    tuple of (field, expected, actual) triples, empty on full agreement.
    `dual_fan_picard_rank` is filled for reflexive input because the fan
    could equally be built over the dual polytope, and the two readings can
    differ; it is None otherwise.
    """

    __slots__ = ()

    def to_document(self):
        lines = [
            f"canonical: {'true' if self.canonical else 'false'}",
            f"reflexive: {'true' if self.reflexive else 'false'}",
            f"degree: {format_rational(self.degree)}",
            f"sections: {self.sections}",
            f"picard-rank: {self.picard_rank}",
        ]
        if self.dual_fan_picard_rank is not None:
            lines.append(f"picard-rank-dual-fan: {self.dual_fan_picard_rank}")
        if self.mismatches is not None:
            for field, want, have in self.mismatches:
                lines.append(
                    f"mismatch.{field}: expected {format_rational(want)},"
                    f" computed {format_rational(have)}"
                )
            lines.append(f"matches-expected: {'true' if not self.mismatches else 'false'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_table(self):
        rows = [
            ("canonical", "yes" if self.canonical else "no"),
            ("reflexive", "yes" if self.reflexive else "no"),
            ("degree", format_rational(self.degree)),
            ("sections", str(self.sections)),
            ("picard rank", str(self.picard_rank)),
        ]
        if self.dual_fan_picard_rank is not None:
            rows.append(("picard rank (dual fan)", str(self.dual_fan_picard_rank)))
        width = max(len(name) for name, _ in rows)
        out = [f"{name:<{width}}  {value}" for name, value in rows]
        for field, want, have in self.mismatches or ():
            out.append(f"!! {field}: expected {format_rational(want)}, computed {format_rational(have)}")
        return "\n".join(out) + "\n"


def invariant_report(P, expected=None):
    """Screening report: canonicity, reflexivity, degree, sections, rank.

    `expected` may be any object with degree / h0 / picard_rank attributes
    (a catalog record works); matching is exact and every disagreement is
    listed rather than raised.
    """
    _require_origin_interior(P)
    canonical = is_canonical(P)
    reflexive = is_reflexive(P)
    degree = anticanonical_degree(P)
    sections = anticanonical_sections(P)
    rank_value = picard_rank(P)
    dual_rank = None
    notes = []
    if reflexive:
        # A reflexive P has primitive vertices, so its dual already carries
        # the integral vertices and primitive, offset-1 facets of a lattice hull.
        dual_rank = picard_rank(dual(P))
        if dual_rank != rank_value:
            notes.append(
                "face fans over the polytope and over its dual give different"
                f" picard ranks ({rank_value} vs {dual_rank}); both are reported"
            )
    mismatches = None
    if expected is not None:
        comparisons = (
            ("degree", getattr(expected, "degree", None), degree),
            ("sections", getattr(expected, "h0", None), sections),
            ("picard-rank", getattr(expected, "picard_rank", None), rank_value),
        )
        mismatches = tuple(
            (field, want, have)
            for field, want, have in comparisons
            if want is not None and want != have
        )
    return InvariantReport(
        canonical=canonical,
        reflexive=reflexive,
        degree=degree,
        sections=sections,
        picard_rank=rank_value,
        dual_fan_picard_rank=dual_rank,
        mismatches=mismatches,
        notes=tuple(notes),
    )
