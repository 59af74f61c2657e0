"""End-to-end guarantees, one numbered check per test.

Each test prints a single PASS or FAIL line (visible even under capture) so
a full run reads as a checklist.  Numbers only order the checks; the label
says what is being guaranteed.
"""

import contextlib
import io
import random
import time
from fractions import Fraction

from corpus import phi_bruteforce, random_laurent, random_scales, random_unimodular, resize

from weaklg import catalog, linalg
from weaklg.cli import main as cli_main
from weaklg.dseries import DOperator, apply_operator, fit_operator, solve_series
from weaklg.laurent import (
    constant_term_series,
    constant_term_series_mitm,
    quartic_compactification_check,
    substitute_monomial,
)
from weaklg.polytope import (
    anticanonical_degree,
    anticanonical_sections,
    convex_hull,
    dual,
    is_canonical,
    is_reflexive,
    newton_polytope,
    picard_rank,
)
from weaklg.search import (
    CoefficientDomain,
    OrbitSpec,
    SearchConfig,
    SupportAnsatz,
    orbits,
    search,
)


@contextlib.contextmanager
def _criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {number:02d} FAIL: {label}")
        raise
    with capsys.disabled():
        print(f"\nacceptance {number:02d} PASS: {label}")


def test_01_v16_series_equals_operator_solution(capsys):
    with _criterion(capsys, 1, "V16 model series matches its operator to order 20"):
        rec = catalog.builtin("V16")
        start = time.monotonic()
        phi = constant_term_series(rec.model, 20)
        sol = solve_series(rec.operator, 20)
        elapsed = time.monotonic() - start
        assert phi == sol
        assert (phi[1], phi[2]) == (4, 40)
        assert 8 * sol[2] == 84 * 4 - 16
        assert elapsed < 60.0


def test_02_v18_series_equals_operator_solution(capsys):
    with _criterion(capsys, 2, "V18 model series matches its operator to order 20"):
        rec = catalog.builtin("V18")
        phi = constant_term_series(rec.model, 20)
        assert phi == solve_series(rec.operator, 20)
        assert (phi[1], phi[2]) == (3, 27)
        assert 8 * phi[2] == 63 * 3 + 27


def test_03_v22_mismatch_is_reported_and_an_operator_refits(capsys):
    with _criterion(
        capsys, 3, "V22 stored operator disagrees at order 1; a refit annihilates"
    ):
        rec = catalog.builtin("V22")
        assert list(constant_term_series(rec.model, 2)) == [1, 4, 28]
        assert solve_series(rec.operator, 1)[1] == Fraction(32, 5)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(["verify", "--catalog", "V22"])
        assert code == 3
        assert "first-mismatch: 1" in buffer.getvalue()
        phi35 = constant_term_series_mitm(rec.model, 35)
        basis = fit_operator(phi35.truncate(25), 3, 4)
        assert basis
        assert not any(apply_operator(basis[0], phi35))


def _invariance_corpus():
    rng = random.Random(20260814)
    polys = [random_laurent(rng) for _ in range(100)]
    return rng, polys


def test_04_series_invariance_under_rescaling_and_unimodular_maps(capsys):
    with _criterion(
        capsys, 4, "100 random polynomials keep their series under both maps"
    ):
        rng, polys = _invariance_corpus()
        for f in polys:
            phi = constant_term_series(f, 5)
            matrix = random_unimodular(rng)
            assert constant_term_series(substitute_monomial(f, matrix), 5) == phi
            scales = random_scales(rng)
            assert constant_term_series(resize(f, scales), 5) == phi


def test_05_mitm_evaluator_agrees_with_plain_expansion(capsys):
    with _criterion(
        capsys, 5, "both series entry points equal the brute-force expansion on the corpus"
    ):
        _, polys = _invariance_corpus()
        for f in polys:
            want = phi_bruteforce(f, 8)
            assert list(constant_term_series(f, 8)) == want
            assert list(constant_term_series_mitm(f, 8)) == want


def test_06_toric_anchor_invariants(capsys):
    with _criterion(capsys, 6, "simplex, octahedron, stretched simplex anchors"):
        simplex = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        assert is_canonical(simplex)
        assert is_reflexive(simplex)
        assert anticanonical_degree(simplex) == 64
        assert anticanonical_sections(simplex) == 35
        assert picard_rank(simplex) == 1
        octa = convex_hull(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        assert anticanonical_degree(octa) == 48
        assert anticanonical_sections(octa) == 27
        assert picard_rank(octa) == 3
        stretched = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -2, -2)])
        assert not is_canonical(stretched)
        assert not is_reflexive(stretched)


def test_07_models_clear_to_quartics(capsys):
    with _criterion(capsys, 7, "V16, V18, V22 models clear denominators in degree 4"):
        for name in ("V16", "V18", "V22"):
            report = quartic_compactification_check(catalog.builtin(name).model)
            assert report.passes
            assert report.cleared_degree == 4


def test_08_search_recovers_v18_from_its_support(capsys):
    with _criterion(
        capsys, 8, "mod-7 search on the V18 support finds the model again"
    ):
        rec = catalog.builtin("V18")
        f18 = rec.model
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        orbit_sets = orbits(f18.support(), (swap, cycle))
        vertices = set(newton_polytope(f18).vertices)
        specs = []
        for index, orbit in enumerate(orbit_sets):
            if all(point in vertices for point in orbit):
                domain = CoefficientDomain.fixed(1)
            else:
                domain = CoefficientDomain.free()
            specs.append(OrbitSpec(f"orbit{index}", orbit, domain))
        ansatz = SupportAnsatz(3, specs)
        target = solve_series(rec.operator, 8)
        config = SearchConfig(
            target=target, primes=(7,), height=5, depth=4, verify_depth=8
        )
        start = time.monotonic()
        result = search(ansatz, config)
        elapsed = time.monotonic() - start
        assert f18 in result.matches
        assert 1 <= len(result.matches) <= 5
        for match in result.matches:
            assert constant_term_series(match, 8) == target
        assert elapsed < 600.0


def _flat(op, r):
    rows = list(op.table) + [(0,) * (op.order + 1)] * (r - op.t_degree)
    return [x for row in rows for x in row]


def _in_span(op, basis, r):
    rows = [_flat(b, r) for b in basis]
    return linalg.rank(rows + [_flat(op, r)]) == linalg.rank(rows)


def test_09_fit_round_trips_random_operators(capsys):
    with _criterion(
        capsys, 9, "25 random operators are recovered from their solutions"
    ):
        rng = random.Random(1722)
        for _ in range(25):
            m = rng.randint(1, 3)
            r = rng.randint(1, 4)
            table = [[0] * m + [1]]
            for _ in range(r):
                table.append([rng.randint(-6, 6) for _ in range(m + 1)])
            if all(c == 0 for c in table[r]):
                table[r][0] = 1
            op = DOperator(table)
            window = (m + 1) * (r + 1) + r + 5
            basis = fit_operator(solve_series(op, window), m, r)
            assert basis
            assert _in_span(op, basis, r)
            if len(basis) == 1:
                assert basis[0].is_scalar_multiple(op)


def test_10_v22_newton_degree_report(capsys):
    P = newton_polytope(catalog.builtin("V22").model)
    face_fan = anticanonical_degree(P)
    dual_fan = anticanonical_degree(convex_hull(dual(P).vertices)) if is_reflexive(P) else None
    readings = {face_fan, dual_fan} - {None}
    flag = "" if readings == {22} else " [flagged: expected 22]"
    label = (
        f"V22 Newton degree readings {face_fan} (face fan)"
        f" and {dual_fan} (dual fan){flag}"
    )
    with _criterion(capsys, 10, label):
        assert face_fan > 0
