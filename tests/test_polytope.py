import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from corpus import (
    det_leibniz,
    hull_bruteforce,
    picard_rank_all_pairs,
    random_unimodular,
    rank_bareiss,
    volume_by_facet_cones,
)
from weaklg.laurent import LaurentPoly, ParseError, substitute_monomial
from weaklg.polytope import (
    NotFullDimensional,
    _hyperplane_normal,
    anticanonical_degree,
    anticanonical_sections,
    convex_hull,
    dual,
    invariant_report,
    is_canonical,
    is_reflexive,
    lattice_points,
    newton_polytope,
    picard_rank,
    polytope_from_text,
    volume,
)
from weaklg import catalog, linalg


def p3_simplex():
    return convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


def octahedron():
    return convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def cube():
    return convex_hull([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


def _cross_polytope(n):
    return convex_hull([tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)])


def test_hull_discards_interior_and_duplicate_points():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (2, 2)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert len(P.facets) == 4


def test_hull_keeps_only_true_vertices_of_the_simplex():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, 0)]
    P = convex_hull(pts)
    assert len(P.vertices) == 4
    assert (0, 0, 0) not in P.vertices


def test_hull_rejects_degenerate_input():
    with pytest.raises(NotFullDimensional):
        convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(1, 0), (0, 1, 0)])


def _hull_outcome(hull, points):
    try:
        P = hull(points)
    except ValueError as exc:
        return type(exc), str(exc)
    return P.vertices, P.facets


def test_hull_matches_exhaustive_oracle_on_random_sets():
    """Small boxes with repeats make coplanar and collinear points common,
    and short lists are often degenerate; both hulls must agree on all."""
    rng = random.Random(20261018)
    full = degenerate = 0
    for trial in range(360):
        n = trial % 3 + 1
        r = rng.randint(1, 3)
        pts = [
            tuple(rng.randint(-r, r) for _ in range(n))
            for _ in range(rng.randint(1, (5, 12, 16)[n - 1]))
        ]
        pts += rng.choices(pts, k=rng.randint(0, 3))
        got = _hull_outcome(convex_hull, pts)
        assert got == _hull_outcome(hull_bruteforce, pts), pts
        if got[0] is NotFullDimensional:
            degenerate += 1
        else:
            full += 1
    assert full > 250 and degenerate > 20


def test_hyperplane_normal_is_the_primitive_minor_vector():
    """Nonzero, primitive, orthogonal to every edge, and up to sign the signed
    (n-1)-minors of the difference vectors, in n = 2..6."""
    rng = random.Random(19)
    checked = 0
    for n in range(2, 7):
        for _ in range(12):
            points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
            rows = [[x - b for x, b in zip(p, points[0])] for p in points[1:]]
            minors = [(-1) ** i * det_leibniz([r[:i] + r[i + 1 :] for r in rows]) for i in range(n)]
            if not any(minors):
                continue
            a = _hyperplane_normal(points)
            assert any(a) and math.gcd(*a) == 1
            assert all(sum(x * y for x, y in zip(a, r)) == 0 for r in rows)
            g = math.gcd(*minors)
            assert a in (tuple(m // g for m in minors), tuple(-m // g for m in minors))
            checked += 1
    assert checked > 50


def test_hull_inserts_far_points_first(monkeypatch):
    """The cones `_boundary` builds, counted at `_hyperplane_normal`: a change
    of insertion order shows here as a count, not as a timing."""
    cones = []
    monkeypatch.setattr("weaklg.polytope._hyperplane_normal",
                        lambda points: cones.append(points) or _hyperplane_normal(points))
    rng = random.Random(200)
    box = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(200)]
    counts = []
    for points in [box] + [catalog.builtin(name).model.support() for name in ("V16", "V18", "V22")]:
        cones.clear()
        convex_hull(points)
        counts.append(len(cones))
    assert len(set(box)) == 177
    assert counts == [108, 38, 35, 36]


def test_hull_skips_a_point_on_n_facets_with_dependent_normals():
    """In dimension 4, (1, 1, 0, 0) on the boundary of |x|_1 <= 2 lies on four
    facets whose normals have rank 3, so it is on n facets but no vertex."""
    points = [p for p in itertools.product(range(-2, 3), repeat=4) if sum(map(abs, p)) <= 2]
    assert len(points) == 41
    P = convex_hull(points)
    axes = {tuple(s * 2 * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)}
    assert set(P.vertices) == axes
    assert len(P.facets) == 16
    incident = [a for a, c in P.facets if sum(x * y for x, y in zip(a, (1, 1, 0, 0))) == c]
    assert len(incident) == 4 and rank_bareiss(incident) == 3


def test_hull_of_the_six_dimensional_cross_polytope_with_edge_midpoints():
    """Each of the 60 edge midpoints of 2 * (6-D cross-polytope) lies on 16
    facets whose normals have rank 5: no vertex, however many facets."""
    axes = [tuple(s * 2 * int(i == j) for j in range(6)) for i in range(6) for s in (1, -1)]
    mids = {tuple((x + y) // 2 for x, y in zip(u, v))
            for u, v in itertools.combinations(axes, 2) if any(x + y for x, y in zip(u, v))}
    assert len(mids) == 60
    points = axes + sorted(mids)
    rng = random.Random(6)
    identity = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    for U in [identity] + [random_unimodular(rng, n=6) for _ in range(2)]:
        image = [tuple(sum(u * x for u, x in zip(row, p)) for row in U) for p in points]
        P = convex_hull(image)
        assert set(P.vertices) == set(image[:12])
        assert len(P.facets) == 64


def _gl3z_invariants(P):
    return (
        is_canonical(P),
        is_reflexive(P),
        anticanonical_degree(P),
        anticanonical_sections(P),
        picard_rank(P),
        volume(P),
        len(P.vertices),
        len(P.facets),
    )


@functools.lru_cache(maxsize=1)
def _gl3z_corpus():
    """100 Newton polytopes around the unit octahedron, each with a GL(3,Z) image."""
    rng = random.Random(4)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    pairs = []
    for _ in range(100):
        support = units + [
            tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(1, 6))
        ]
        f = LaurentPoly(3, {e: 1 for e in support})
        g = substitute_monomial(f, random_unimodular(rng))
        pairs.append((newton_polytope(f), newton_polytope(g)))
    return tuple(pairs)


def test_polytope_invariants_are_gl3z_invariant():
    canonical = reflexive = 0
    for P, Q in _gl3z_corpus():
        before = _gl3z_invariants(P)
        assert _gl3z_invariants(Q) == before
        canonical += before[0]
        reflexive += before[1]
    assert 0 < reflexive < canonical < 100


def test_contains_and_strict_containment():
    P = p3_simplex()
    assert P.contains((0, 0, 0))
    assert P.contains((0, 0, 0), strict=True)
    assert P.contains((1, 0, 0))
    assert not P.contains((1, 0, 0), strict=True)
    assert not P.contains((1, 1, 1))
    assert P.contains((Fraction(1, 2), 0, 0))


def test_polytope_text_round_trip():
    P = octahedron()
    Q = polytope_from_text(P.to_text())
    assert Q == P
    with pytest.raises(ParseError):
        polytope_from_text("1 0 0\nbad line\n")
    with pytest.raises(ParseError):
        polytope_from_text("")


def test_polytope_text_rejects_ragged_rows_with_line_number():
    with pytest.raises(ParseError, match="line 2: vertex has 2 coordinates, expected 3") as info:
        polytope_from_text("1 0 0\n0 1\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        polytope_from_text("# square\n1 0\n\n0 1\n-1 0\n0 -1 0\n")
    assert info.value.line == 6


def test_newton_polytope_of_quartic_model():
    f = catalog.builtin("V16").model
    P = newton_polytope(f)
    assert len(P.vertices) == 13
    assert len(P.facets) == 10
    with pytest.raises(ValueError):
        newton_polytope(LaurentPoly(3))


def test_lattice_point_counts():
    assert len(lattice_points(cube())) == 27
    assert len(lattice_points(octahedron())) == 7
    assert len(lattice_points(p3_simplex())) == 5
    assert lattice_points(cube(), strict=True) == ((0, 0, 0),)


def test_canonicity_anchors():
    assert is_canonical(p3_simplex())
    assert is_canonical(octahedron())
    assert is_canonical(cube())
    bad = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -2, -2)])
    assert not is_canonical(bad)
    assert (-1, -1, -1) in lattice_points(bad, strict=True)


def test_dual_of_projective_space_simplex():
    D = dual(p3_simplex())
    assert D.vertices == ((-1, -1, -1), (-1, -1, 3), (-1, 3, -1), (3, -1, -1))
    assert volume(D) == Fraction(32, 3)


def test_dual_pairs_cube_and_octahedron():
    assert dual(octahedron()) == cube()
    assert set(dual(cube()).vertices) == set(octahedron().vertices)


def test_dual_of_dual_returns_the_original():
    for P in (p3_simplex(), octahedron(), cube()):
        assert dual(dual(P)) == P


def test_dual_requires_interior_origin():
    shifted = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        dual(shifted)


def test_reflexivity_anchors():
    assert is_reflexive(p3_simplex())
    assert is_reflexive(octahedron())
    assert is_reflexive(cube())
    bad = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -2, -2)])
    assert not is_reflexive(bad)
    assert dual(octahedron()).is_integral()
    assert convex_hull(dual(octahedron()).vertices) == cube()
    assert not dual(bad).is_integral()


def test_volumes():
    assert volume(cube()) == 8
    assert volume(octahedron()) == Fraction(4, 3)
    assert volume(p3_simplex()) == Fraction(2, 3)
    unit = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert volume(unit) == Fraction(1, 6)
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert volume(square) == 1
    hypercube = convex_hull(list(itertools.product((-1, 1), repeat=4)))
    assert volume(hypercube) == 16
    assert volume(_cross_polytope(4)) == volume(dual(hypercube)) == Fraction(2, 3)


def _seeded_point_sets(seed, n, count, size):
    """Hulls of `count` seeded full-dimensional sets of up to `size` points of [-2,2]^n."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, size))]
        try:
            out.append(convex_hull(pts))
        except NotFullDimensional:
            pass
    return out


def test_volume_and_degree_equal_the_facet_cone_oracle():
    corpus = [P for pair in _gl3z_corpus() for P in pair]
    duals = [dual(P) for P in corpus]
    assert sum(not D.is_integral() for D in duals) > 50
    seeded = [P for n in (1, 2, 3) for P in _seeded_point_sets(n, n, 40, 4 * n + 2)]
    for P in corpus + duals + seeded:
        assert volume(P) == volume_by_facet_cones(P), P.vertices
    for P in corpus:
        want = math.factorial(3) * volume_by_facet_cones(dual(P))
        assert anticanonical_degree(P) == want, P.vertices


def _image(U, P):
    return convex_hull([tuple(sum(u * x for u, x in zip(row, v)) for row in U) for v in P.vertices])


def test_volume_in_dimension_four_is_unimodular_invariant_and_scales_by_k4():
    rng = random.Random(44)
    for P in _seeded_point_sets(404, 4, 20, 10):
        v = volume(P)
        assert v > 0
        assert volume(_image(random_unimodular(rng, n=4), P)) == v
        k = rng.randint(2, 3)
        assert volume(convex_hull([tuple(k * x for x in p) for p in P.vertices])) == k**4 * v


def test_projective_four_space_simplex():
    P = convex_hull([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)])
    report = invariant_report(P)
    assert report.reflexive and report.canonical
    assert (report.degree, report.sections, report.picard_rank) == (625, 126, 1)
    assert report.dual_fan_picard_rank == 1


def test_dual_fan_rank_needs_no_second_hull_of_a_reflexive_dual():
    reflexive = [P for pair in _gl3z_corpus() for P in pair if is_reflexive(P)]
    assert len(reflexive) > 10
    for P in reflexive:
        assert dual(P).is_integral()
        assert dual(P) == convex_hull(dual(P).vertices)
        want = picard_rank(convex_hull(dual(P).vertices))
        assert invariant_report(P).dual_fan_picard_rank == want


def test_degree_and_sections_anchors():
    assert anticanonical_degree(p3_simplex()) == 64
    assert anticanonical_sections(p3_simplex()) == 35
    assert anticanonical_degree(octahedron()) == 48
    assert anticanonical_sections(octahedron()) == 27
    assert anticanonical_degree(cube()) == 8
    assert anticanonical_sections(cube()) == 7


def test_picard_rank_anchors():
    assert picard_rank(p3_simplex()) == 1
    assert picard_rank(octahedron()) == 3


def test_picard_rank_of_newton_polytopes():
    for name in ("V16", "V18", "V22"):
        P = newton_polytope(catalog.builtin(name).model)
        assert picard_rank(P) == 1


def test_picard_rank_skips_the_nullspace_of_simplicial_facets(monkeypatch):
    """n vertices of a facet, on a hyperplane that misses the origin, have no
    dependency: the octahedron's 8 triangles need no nullspace, while each of
    the cube's 6 squares needs one, and the rank one more over their rows."""
    shapes = []
    real = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, ncols=None: shapes.append((len(rows), len(rows[0])))
                        or real(rows, ncols))
    assert picard_rank(octahedron()) == 3 and shapes == []
    assert picard_rank(cube()) == 1 and shapes == [(3, 4)] * 6 + [(6, 8)]


def test_picard_rank_vertex_dependencies_match_all_pairs_oracle():
    polytopes = [p3_simplex(), octahedron(), cube()]
    polytopes += [newton_polytope(catalog.builtin(name).model) for name in ("V16", "V18", "V22")]
    # the images under GL(3,Z) have the same rank, checked above
    polytopes += [P for P, _ in _gl3z_corpus()]
    polytopes += [convex_hull(dual(P).vertices) for P in polytopes if is_reflexive(P)]
    assert len(polytopes) > 106
    cross = _cross_polytope(4)
    polytopes.append(cross)
    rng = random.Random(4004)
    for _ in range(6):
        extra = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(rng.randint(1, 4))]
        polytopes.append(convex_hull(list(cross.vertices) + extra))
    # 8 facets of 8 vertices each: dependency rows in dimension 4
    polytopes.append(convex_hull(list(itertools.product((-1, 1), repeat=4))))
    for P in polytopes:
        assert picard_rank(P) == picard_rank_all_pairs(P)


def test_invariant_report_matches_record():
    report = invariant_report(p3_simplex(), catalog.builtin("P3-sample"))
    assert report.canonical and report.reflexive
    assert report.degree == 64 and report.sections == 35
    assert report.picard_rank == 1
    assert report.mismatches == ()
    doc = report.to_document()
    assert "matches-expected: true" in doc


def test_invariant_report_lists_every_disagreement():
    fake = SimpleNamespace(degree=60, h0=35, picard_rank=2)
    report = invariant_report(p3_simplex(), fake)
    fields = [field for field, _, _ in report.mismatches]
    assert fields == ["degree", "picard-rank"]
    doc = report.to_document()
    assert "mismatch.degree: expected 60" in doc
    assert "matches-expected: false" in doc


def test_invariant_report_notes_dual_fan_rank_difference():
    report = invariant_report(octahedron(), catalog.builtin("product-of-lines-sample"))
    assert report.picard_rank == 3
    assert report.dual_fan_picard_rank == 1
    assert report.mismatches == ()
    assert any("dual" in note for note in report.notes)


def test_invariant_report_requires_interior_origin():
    shifted = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        invariant_report(shifted)


def test_invariant_report_without_expectation_stays_silent_about_matching():
    report = invariant_report(p3_simplex())
    assert report.mismatches is None
    assert "matches-expected" not in report.to_document()


def test_newton_f18_non_vertex_support():
    """Three support points of the genus-10 model sit inside its Newton
    polytope (the origin strictly, -e_i on facets), leaving 12 vertices."""
    f = catalog.builtin("V18").model
    P = newton_polytope(f)
    assert len(P.vertices) == 12
    assert len(P.facets) == 11
    inside = set(f.support()) - set(P.vertices)
    assert inside == {(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)}


def test_newton_f22_both_degree_readings():
    P = newton_polytope(catalog.builtin("V22").model)
    assert volume(P) == Fraction(11, 3)
    assert is_reflexive(P)
    assert anticanonical_degree(P) == 22
    assert 6 * volume(P) == 22
    assert anticanonical_sections(P) == 14
