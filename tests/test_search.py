import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from corpus import phi_bruteforce
from weaklg.laurent import (
    LaurentPoly, ParseError, PowerSeries, constant_term_series, substitute_monomial,
)
from weaklg.polytope import convex_hull
from weaklg.search import (
    CoefficientDomain,
    HeightBoundExceeded,
    OrbitSpec,
    SearchConfig,
    SupportAnsatz,
    _level_polynomials,
    lift_and_verify,
    orbits,
    search,
    search_mod_p,
)


def planted_1d(c):
    return LaurentPoly(1, {(1,): 1, (-1,): c})


def ansatz_1d(domain):
    return SupportAnsatz(
        1,
        [
            OrbitSpec("a", ((1,),), CoefficientDomain.fixed(1)),
            OrbitSpec("b", ((-1,),), domain),
        ],
    )


def target_for(f, order=8):
    return constant_term_series(f, order)


def test_domain_kinds_and_normalization():
    assert CoefficientDomain.fixed(Fraction(4, 2)).values == (2,)
    assert CoefficientDomain.fixed(Fraction(1, 2)).describe() == "fixed 1/2"
    assert CoefficientDomain.choice(3, 1, 3).values == (1, 3)
    assert CoefficientDomain.free().describe() == "free"
    assert CoefficientDomain.free().is_integral()
    assert CoefficientDomain.choice(-2, 5).is_integral()
    assert not CoefficientDomain.fixed(Fraction(1, 2)).is_integral()


def test_domain_validation():
    with pytest.raises(ValueError):
        CoefficientDomain("bogus")
    with pytest.raises(ValueError):
        CoefficientDomain("free", (1,))
    with pytest.raises(ValueError):
        CoefficientDomain.choice()
    with pytest.raises(ValueError):
        CoefficientDomain.choice(Fraction(1, 2))
    with pytest.raises(ValueError):
        CoefficientDomain.choice(True)


def test_orbit_spec_sorts_and_dedupes_points():
    spec = OrbitSpec("s", ((1, 0), (0, 1), (1, 0)), CoefficientDomain.free())
    assert spec.points == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        OrbitSpec("s", (), CoefficientDomain.free())


@pytest.mark.parametrize("build, bad", [
    pytest.param(lambda x: convex_hull([(x, 0), (0, 1), (-1, 0), (0, -1)]), 1.7, id="hull-float"),
    pytest.param(lambda x: convex_hull([(x, 0), (-x, 0), (0, x), (0, -x)]), Fraction(1, 2),
                 id="hull-fraction"),
    pytest.param(lambda x: OrbitSpec("s", ((x, 0), (0, 1)), CoefficientDomain.free()), 1.0,
                 id="orbit-spec-float"),
    pytest.param(lambda x: OrbitSpec("s", ((x, 0), (0, 1)), CoefficientDomain.free()), True,
                 id="orbit-spec-bool"),
    pytest.param(lambda x: orbits([(x,), (-1,)], [((-1,),)]), 1.9, id="orbits-point-float"),
    pytest.param(lambda x: orbits([(1,), (-1,)], [((x,),)]), Fraction(-3, 2),
                 id="orbits-generator-fraction"),
    pytest.param(lambda x: substitute_monomial(planted_1d(1), [(x,)]), Fraction(-3, 2),
                 id="monomial-substitution-fraction"),
])
def test_points_and_generators_must_be_integers(build, bad):
    with pytest.raises(ValueError, match=re.escape(f"non-integer entry {bad!r}")):
        build(bad)


def test_ansatz_validation():
    free = CoefficientDomain.free()
    with pytest.raises(ValueError):
        SupportAnsatz(2, [])
    with pytest.raises(ValueError):
        SupportAnsatz(
            2,
            [
                OrbitSpec("a", ((1, 0),), free),
                OrbitSpec("b", ((1, 0), (0, 1)), free),
            ],
        )
    with pytest.raises(ValueError):
        SupportAnsatz(
            2,
            [
                OrbitSpec("a", ((1, 0),), free),
                OrbitSpec("a", ((0, 1),), free),
            ],
        )
    with pytest.raises(ValueError):
        SupportAnsatz(3, [OrbitSpec("a", ((1, 0),), free)])


def test_ansatz_text_round_trip():
    ansatz = SupportAnsatz(
        2,
        [
            OrbitSpec("edge", ((1, 0), (0, 1)), CoefficientDomain.fixed(1)),
            OrbitSpec("deep", ((-1, -1),), CoefficientDomain.free()),
            OrbitSpec("pick", ((1, 1),), CoefficientDomain.choice(2, 5)),
        ],
    )
    again = SupportAnsatz.from_text(ansatz.to_text())
    assert again == ansatz
    assert again.support() == ((-1, -1), (0, 1), (1, 0), (1, 1))


def test_ansatz_from_text_rejects_conflicting_domains():
    text = "# dim 2\n1 0 : a : free\n0 1 : a : fixed 1\n"
    with pytest.raises(ParseError):
        SupportAnsatz.from_text(text)
    with pytest.raises(ParseError):
        SupportAnsatz.from_text("# dim 2\n")
    with pytest.raises(ParseError):
        SupportAnsatz.from_text("1 0 : a : maybe 3\n")


def test_ansatz_dim_header_is_a_comment_starting_with_the_word_dim():
    body = "1 0 : a : free\n"
    assert SupportAnsatz.from_text("# dimension note\n" + body).dimension == 2
    assert SupportAnsatz.from_text("# dim 2\n" + body).dimension == 2
    for text, line in (
        ("# dim x\n" + body, 1),
        (body + "# dim 0\n", 2),
        ("# dim 3\n1 0 0 : a : free\n# dim 2\n", 3),
    ):
        with pytest.raises(ParseError) as info:
            SupportAnsatz.from_text(text)
        assert info.value.line == line


def test_ansatz_rows_of_the_wrong_length_fail_with_their_line_number():
    for text, line, message in (
        ("1 0 0 : a : free\n0 1 : b : free\n", 2, "point has 2 coordinates, expected 3"),
        ("# dim 3\n\n0 1 : b : free\n", 3, "point has 2 coordinates, expected 3"),
        ("1 0 : a : free\n0 1 1 : a : free\n", 2, "point has 3 coordinates, expected 2"),
    ):
        with pytest.raises(ParseError) as info:
            SupportAnsatz.from_text(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"


def test_ansatz_row_with_an_empty_point_fails_on_its_own_line():
    for text, line in (
        (" : a : free\n", 1),
        (" : a : free\n1 0 0 : b : free\n", 1),
        ("1 0 0 : a : free\n\n : b : free\n", 3),
        ("# dim 3\n : a : free\n", 2),
    ):
        with pytest.raises(ParseError) as info:
            SupportAnsatz.from_text(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: empty point"


def test_ansatz_point_in_two_orbits_fails_at_its_second_occurrence():
    for text, line in (
        ("1 0 0 : a : free\n0 1 0 : b : free\n1 0 0 : b : free\n", 3),
        ("1 0 0 : a : free\n\n# note\n1 0 0 : b : fixed 2\n", 4),
    ):
        with pytest.raises(ParseError) as info:
            SupportAnsatz.from_text(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: point (1, 0, 0) appears in two orbits"
    # the same point twice under one label is one point of that orbit
    again = SupportAnsatz.from_text("1 0 0 : a : free\n1 0 0 : a : free\n")
    assert again.support() == ((1, 0, 0),)


def s3_generators():
    swap01 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    return [swap01, cycle]


def f18_support():
    pts = [(0, 0, 0), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-x for x in e))
    for a in range(3):
        for b in range(3):
            if a != b:
                e = [0, 0, 0]
                e[a], e[b] = 1, -1
                pts.append(tuple(e))
    return pts


def test_orbit_partition_under_coordinate_permutations():
    parts = orbits(f18_support(), s3_generators())
    sizes = sorted(len(part) for part in parts)
    assert sizes == [1, 3, 3, 3, 6]
    assert ((0, 0, 0),) in parts


def test_orbits_close_without_explicit_inverses():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    parts = orbits(pts, [((0, 1, 0), (0, 0, 1), (1, 0, 0))])
    assert parts == (((0, 0, 1), (0, 1, 0), (1, 0, 0)),)


def test_orbits_reject_non_preserving_generator():
    with pytest.raises(ValueError):
        orbits([(1, 0), (0, 1)], [((1, 1), (0, 1))])


def test_search_config_accepts_a_61_bit_prime_at_once():
    t = target_for(planted_1d(3))
    start = time.perf_counter()
    assert SearchConfig(target=t, primes=(2**61 - 1,)).primes == (2**61 - 1,)
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="is not prime"):
        SearchConfig(target=t, primes=(2**61 + 1,))


def test_search_config_validation():
    t = target_for(planted_1d(3))
    with pytest.raises(ValueError):
        SearchConfig(target=t, primes=())
    with pytest.raises(ValueError):
        SearchConfig(target=t, primes=(6,))
    with pytest.raises(ValueError):
        SearchConfig(target=t, primes=(5, 5))
    with pytest.raises(ValueError):
        SearchConfig(target=t, height=0)
    with pytest.raises(ValueError):
        SearchConfig(target=t, depth=1)
    with pytest.raises(ValueError):
        SearchConfig(target=t, depth=5, verify_depth=4)
    with pytest.raises(ValueError):
        SearchConfig(target=t, verify_depth=9)
    with pytest.raises(ValueError):
        SearchConfig(target=PowerSeries([2] + [0] * 8))


def test_search_mod_p_recovers_planted_residue():
    config = SearchConfig(target=target_for(planted_1d(3)), primes=(5,))
    stage = search_mod_p(ansatz_1d(CoefficientDomain.free()), config)
    assert stage.survivors == {5: ((3,),)}
    (stats,) = stage.prime_stats
    assert stats.prime == 5
    assert stats.enumerated == 5
    assert stats.survivors_per_level[-1] == (4, 1)


def test_search_mod_p_prunes_non_integral_target_with_integral_domains():
    """phi of an integer polynomial is an integer, so a fractional target
    coefficient empties an all-integral search at that level."""
    target = PowerSeries([1, 0, Fraction(1, 2), 0, 6, 0, 90, 0, 1860])
    config = SearchConfig(target=target, primes=(5,))
    stage = search_mod_p(ansatz_1d(CoefficientDomain.free()), config)
    assert stage.survivors == {5: ()}
    assert (2, 0) in stage.prime_stats[0].survivors_per_level


def test_search_mod_p_keeps_rational_target_when_domain_is_rational():
    f = LaurentPoly(1, {(1,): 1, (-1,): Fraction(1, 2)})
    target = target_for(f)
    ansatz = ansatz_1d(CoefficientDomain.fixed(Fraction(1, 2)))
    assert search_mod_p(ansatz, SearchConfig(target=target, primes=(5,))).survivors == {5: ((),)}


def test_search_mod_p_rejects_bad_inputs():
    """A composite prime, a depth past the target and a wrong constant term
    are refused by the SearchConfig that search_mod_p takes; a fixed value
    with no residue modulo a configured prime is refused by search_mod_p."""
    target = target_for(planted_1d(3))
    with pytest.raises(ValueError, match="^6 is not prime$"):
        SearchConfig(target=target, primes=(6,))
    with pytest.raises(ValueError, match="^target series order 8 is below the verification"):
        SearchConfig(target=target, primes=(5,), depth=9, verify_depth=9)
    with pytest.raises(ValueError, match="^target series must have constant coefficient 1$"):
        SearchConfig(target=PowerSeries([2, 0, 1, 0, 1]), depth=2, verify_depth=4)
    config = SearchConfig(target=target, primes=(7, 5))
    with pytest.raises(ValueError, match="^fixed coefficient 1/5 is not defined modulo 5$"):
        search_mod_p(ansatz_1d(CoefficientDomain.fixed(Fraction(1, 5))), config)


def test_search_mod_p_holds_partial_assignments_up_to_the_bound(monkeypatch):
    """A level may hold exactly MAX_PARTIAL_ASSIGNMENTS partial assignments,
    not one more; orbit b enters at level 2 with p residues."""
    target = target_for(planted_1d(3))
    ansatz = ansatz_1d(CoefficientDomain.free())
    with pytest.raises(ValueError, match=r"^level 2 would hold 1000003 partial assignments"
                                         r" modulo 1000003, more than the 1000000 "):
        search_mod_p(ansatz, SearchConfig(target=target, primes=(1000003,)))
    config = SearchConfig(target=target, primes=(5,))
    monkeypatch.setattr("weaklg.search.MAX_PARTIAL_ASSIGNMENTS", 5)
    assert search_mod_p(ansatz, config).survivors == {5: ((3,),)}
    monkeypatch.setattr("weaklg.search.MAX_PARTIAL_ASSIGNMENTS", 4)
    with pytest.raises(ValueError, match=r"^level 2 would hold 5 partial assignments modulo 5,"
                                         r" more than the 4 "):
        search_mod_p(ansatz, config)


def test_search_mod_p_refuses_a_depth_whose_multisets_pass_the_series_bound(monkeypatch):
    """f^K has at most C(T + K - 1, K) terms for T support points: K + 1 here."""
    target = target_for(planted_1d(3))
    ansatz = ansatz_1d(CoefficientDomain.free())
    monkeypatch.setattr("weaklg.search.MAX_SERIES_TERMS", 4)
    config = SearchConfig(target=target, primes=(5,), depth=6, verify_depth=8)
    assert search_mod_p(ansatz, config).survivors == {5: ((3,),)}
    with pytest.raises(ValueError, match=r"^search depth 7: f\^4 may have up to 5 terms, over 4$"):
        search_mod_p(ansatz, config._replace(depth=7))


def test_search_mod_p_expands_the_level_polynomials_once(monkeypatch):
    """One expansion serves every prime, and search() expands once for both stages."""
    depths = []

    def counted(ansatz, depth):
        depths.append(depth)
        return _level_polynomials(ansatz, depth)

    monkeypatch.setattr("weaklg.search._level_polynomials", counted)
    ansatz = ansatz_1d(CoefficientDomain.free())
    config = SearchConfig(target=target_for(planted_1d(3)), primes=(3, 5, 7, 11), height=5)
    stage = search_mod_p(ansatz, config)
    assert depths == [4]
    assert [st.prime for st in stage.prime_stats] == list(stage.survivors) == [3, 5, 7, 11]
    assert search(ansatz, config).matches == (planted_1d(3),)
    assert depths == [4, 4]


def test_search_recovers_planted_coefficient():
    target = target_for(planted_1d(3))
    config = SearchConfig(target=target, primes=(7,), height=5)
    result = search(ansatz_1d(CoefficientDomain.free()), config)
    assert result.matches == (planted_1d(3),)
    assert result.stats.exact_matches == 1
    assert result.stats.prime_stats[0].survivor_count == 1


def test_search_crt_across_two_primes():
    target = target_for(planted_1d(7))
    config = SearchConfig(target=target, primes=(3, 5), height=8)
    result = search(ansatz_1d(CoefficientDomain.free()), config)
    assert result.matches == (planted_1d(7),)
    assert result.stats.residue_combinations == 1
    assert result.stats.lifts_tried == 2


def test_search_choice_domain_filters_by_congruence():
    target = target_for(planted_1d(3))
    config = SearchConfig(target=target, primes=(5, 7), height=5)
    result = search(ansatz_1d(CoefficientDomain.choice(3, 73)), config)
    assert result.matches == (planted_1d(3),)
    assert result.stats.lifts_tried == 2


def test_search_empty_when_residues_die_modulo_p():
    target = target_for(planted_1d(3))
    config = SearchConfig(target=target, primes=(5, 7), height=9)
    result = search(ansatz_1d(CoefficientDomain.choice(8,)), config)
    assert result.matches == ()
    assert result.stats.residue_combinations == 0


def test_search_height_bound_exceeded():
    target = target_for(planted_1d(6))
    config = SearchConfig(target=target, primes=(13,), height=5)
    with pytest.raises(HeightBoundExceeded) as info:
        search(ansatz_1d(CoefficientDomain.free()), config)
    stats = info.value.stats
    assert stats.residue_combinations == 1
    assert stats.prime_stats[0].survivor_count == 1
    assert (stats.lifts_tried, stats.exact_matches) == (0, 0)
    assert "[-5, 5]" in str(info.value)


def test_exact_verification_rejects_modular_coincidences():
    """c = 10 agrees with c = 3 modulo 7 at every level, so it survives the
    modular stage and must be killed by the exact check."""
    target = target_for(planted_1d(3))
    config = SearchConfig(target=target, primes=(7,), height=12)
    result = search(ansatz_1d(CoefficientDomain.free()), config)
    assert result.matches == (planted_1d(3),)
    assert result.stats.lifts_tried >= 2
    assert result.stats.exact_matches == 1


def test_search_result_is_deterministic():
    target = target_for(planted_1d(2))
    config = SearchConfig(target=target, primes=(5, 11), height=7)
    first = search(ansatz_1d(CoefficientDomain.free()), config)
    second = search(ansatz_1d(CoefficientDomain.free()), config)
    assert first == second
    assert first.stats.to_document() == second.stats.to_document()


def test_search_is_the_two_stages_composed():
    """search() hands search_mod_p's stage to lift_and_verify and nothing else."""
    target = target_for(planted_1d(7))
    config = SearchConfig(target=target, primes=(3, 5), height=8)
    ansatz = ansatz_1d(CoefficientDomain.free())
    stage = search_mod_p(ansatz, config)
    assert (stage.ansatz, stage.config) == (ansatz, config)
    result = lift_and_verify(stage)
    assert result == search(ansatz, config)
    assert result.matches == (planted_1d(7),)
    assert result.stats.prime_stats == stage.prime_stats


def test_lift_and_verify_tries_lifts_up_to_the_bound(monkeypatch):
    """A lift stage is refused once the surviving combinations times the
    most lifts of one combination pass MAX_LIFTS: ceil(11/7) = 2
    per free orbit at height 5 modulo 7, and one per choice value, even a
    value such as 10 that no residue combination lifts to."""
    two_free = SupportAnsatz(1, [
        OrbitSpec("a", ((1,),), CoefficientDomain.free()),
        OrbitSpec("b", ((-1,),), CoefficientDomain.free()),
    ])
    f = LaurentPoly(1, {(1,): 2, (-1,): 3})
    config = SearchConfig(target=target_for(f), primes=(7,), height=5)
    stage = search_mod_p(two_free, config)
    assert len(stage.survivors[7]) == 6
    monkeypatch.setattr("weaklg.search.MAX_LIFTS", 24)
    matches, stats = lift_and_verify(stage)
    assert f in matches and (stats.residue_combinations, stats.lifts_tried) == (6, 18)
    monkeypatch.setattr("weaklg.search.MAX_LIFTS", 23)
    with pytest.raises(ValueError, match=r"^6 residue combinations modulo 7 could need 24 lifts"
                                         r" into \[-5, 5\], more than the 23 a search may try$"):
        lift_and_verify(stage)
    choice = ansatz_1d(CoefficientDomain.choice(3, 10, 73))
    config = SearchConfig(target=target_for(planted_1d(3)), primes=(5, 7), height=5)
    monkeypatch.setattr("weaklg.search.MAX_LIFTS", 3)
    assert search(choice, config).stats.lifts_tried == 2
    monkeypatch.setattr("weaklg.search.MAX_LIFTS", 2)
    with pytest.raises(ValueError, match=r"^1 residue combinations modulo 5x7 could need 3 "):
        search(choice, config)


# --- level polynomials against the brute-force series -------------------------


def random_ansatz(rng, n, max_points=5, kinds=("free", "choice", "int", "frac")):
    """Random support in a small box, split into orbits with random domains."""
    box = 2 if n == 1 else 1
    pool = list(itertools.product(range(-box, box + 1), repeat=n))
    points = rng.sample(pool, rng.randint(2, min(max_points, len(pool))))
    cuts = sorted(rng.sample(range(1, len(points)), rng.randint(0, min(3, len(points) - 1))))
    specs = []
    for k, (lo, hi) in enumerate(zip([0] + cuts, cuts + [len(points)])):
        kind = rng.choice(kinds)
        if kind == "free":
            domain = CoefficientDomain.free()
        elif kind == "choice":
            domain = CoefficientDomain.choice(*rng.sample(range(-3, 4), rng.randint(1, 3)))
        elif kind == "int":
            domain = CoefficientDomain.fixed(rng.randint(-2, 2))
        else:
            domain = CoefficientDomain.fixed(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3))))
        specs.append(OrbitSpec(f"o{k}", tuple(points[lo:hi]), domain))
    return SupportAnsatz(n, specs)


def unknowns(ansatz):
    return [spec for spec in ansatz.orbits if spec.domain.kind != "fixed"]


def assembled(ansatz, values):
    """The polynomial with the given values on the non-fixed orbits, in ansatz order."""
    it = iter(values)
    terms = {}
    for spec in ansatz.orbits:
        value = spec.domain.values[0] if spec.domain.kind == "fixed" else next(it)
        for point in spec.points:
            terms[point] = value
    return LaurentPoly(ansatz.dimension, terms)


def zero_sum_levels(specs, support, depth):
    """{index in specs: least r <= depth with a point of that spec in a zero-sum r-fold product}."""
    levels = {}
    for r in range(depth, 0, -1):
        for combo in itertools.combinations_with_replacement(support, r):
            if not any(map(sum, zip(*combo))):
                for k, spec in enumerate(specs):
                    if set(combo) & set(spec.points):
                        levels[k] = r
    return levels


def evaluate_polynomial(poly, values):
    total = 0
    for exps, coeff in poly.items():
        for v, e in zip(values, exps, strict=True):
            coeff *= v**e
        total += coeff
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_polynomials_match_bruteforce_series(n):
    rng = random.Random(700 + n)
    kinds_seen = set()
    for _ in range(25):
        ansatz = random_ansatz(rng, n)
        kinds_seen.update(
            spec.domain.kind if spec.domain.kind != "fixed" else type(spec.domain.values[0])
            for spec in ansatz.orbits
        )
        depth = rng.randint(1, 5)
        levels, first = _level_polynomials(ansatz, depth)
        assert len(levels) == depth
        # fixed orbits too, even when their value is 0 or their terms cancel
        assert first == zero_sum_levels(ansatz.orbits, ansatz.support(), depth)
        for _ in range(4):
            values = [rng.randint(-3, 3) for _ in unknowns(ansatz)]
            phi = phi_bruteforce(assembled(ansatz, values), depth)
            assert [evaluate_polynomial(levels[r - 1], values) for r in range(1, depth + 1)] == phi[1:]
        for poly in levels:
            for exps, coeff in poly.items():
                assert len(exps) == len(unknowns(ansatz)) and coeff != 0
                assert isinstance(coeff, (int, Fraction)) and not isinstance(coeff, bool)
    assert kinds_seen == {"free", "choice", int, Fraction}


def residue_domain(spec, p):
    if spec.domain.kind == "free":
        return range(p)
    return sorted({v % p for v in spec.domain.values})


def matches_mod_p(phi, target, p, r):
    return Fraction(phi[r] - target[r]).numerator % p == 0


@pytest.mark.parametrize("seed", range(6))
def test_search_mod_p_matches_bruteforce_filter(seed):
    """Survivors and per-level counts equal an exhaustive residue filter.

    A partial assignment at level r fixes exactly the orbits with a point in
    some zero-sum r-fold product of support points, and the others never
    change phi(1..r), so the level-r survivor
    count is the number of full assignments passing levels 1..r divided by
    the domain sizes of the orbits not yet involved.
    """
    rng = random.Random(seed)
    # a meets only the fixed-0 point -1 in a zero-sum pair, so it is involved
    # from r = 2, although with 0 put in phi(2) = 2b and phi(3) = 3a^2
    zero_partner = SupportAnsatz(1, [
        OrbitSpec("a", ((1,),), CoefficientDomain.free()),
        OrbitSpec("z", ((-1,),), CoefficientDomain.fixed(0)),
        OrbitSpec("b", ((2,),), CoefficientDomain.free()),
        OrbitSpec("c", ((-2,),), CoefficientDomain.fixed(1)),
    ])
    p, depth = (2, 3, 5)[seed % 3], 2 + seed % 3
    target = PowerSeries(phi_bruteforce(assembled(zero_partner, (1, 2)), depth))
    assert_survivors_match_bruteforce(zero_partner, target, p, depth)
    checked = 0
    while checked < 12:
        ansatz = random_ansatz(rng, rng.choice((1, 2)), max_points=4)
        rational = not all(spec.domain.is_integral() for spec in ansatz.orbits)
        p = rng.choice((5, 7) if rational else (2, 3, 5))
        depth = rng.randint(2, 4)
        domains = [residue_domain(spec, p) for spec in unknowns(ansatz)]
        if len(list(itertools.product(*domains))) > 200:
            continue
        if rng.random() < 0.7:
            planted = [rng.randint(-3, 3) for _ in domains]
            target = PowerSeries(phi_bruteforce(assembled(ansatz, planted), depth))
        else:
            target = PowerSeries([1] + [rng.randint(-4, 4) for _ in range(depth)])
        assert_survivors_match_bruteforce(ansatz, target, p, depth)
        checked += 1


def assert_survivors_match_bruteforce(ansatz, target, p, depth):
    domains = [residue_domain(spec, p) for spec in unknowns(ansatz)]
    phis = {a: phi_bruteforce(assembled(ansatz, a), depth) for a in itertools.product(*domains)}
    config = SearchConfig(target=target, primes=(p,), depth=depth, verify_depth=depth)
    stage = search_mod_p(ansatz, config)
    survivors = stage.survivors[p]
    (stats,) = stage.prime_stats

    involved = zero_sum_levels(unknowns(ansatz), ansatz.support(), depth)
    expected_levels = []
    for r in range(1, depth + 1):
        passing = sum(
            all(matches_mod_p(phi, target, p, s) for s in range(1, r + 1))
            for phi in phis.values()
        )
        free_later = 1
        for k, dom in enumerate(domains):
            if involved.get(k, depth + 1) > r:
                free_later *= len(dom)
        assert passing % free_later == 0
        expected_levels.append((r, passing // free_later))
        if not passing:
            break
    expected = tuple(
        sorted(
            a for a, phi in phis.items()
            if all(matches_mod_p(phi, target, p, r) for r in range(1, depth + 1))
        )
    )
    assert survivors == expected
    assert stats.survivors_per_level == tuple(expected_levels)
    assert stats.survivor_count == len(expected)


@pytest.mark.parametrize("seed", range(4))
def test_search_mod_p_over_three_primes_equals_each_prime_alone(seed):
    """Survivors and PrimeStats of each prime do not depend on the others."""
    rng = random.Random(900 + seed)
    for _ in range(8):
        ansatz = random_ansatz(rng, rng.choice((1, 2, 3)), max_points=4)
        rational = not all(spec.domain.is_integral() for spec in ansatz.orbits)
        primes = tuple(rng.sample((5, 7, 11, 13) if rational else (2, 3, 5, 7, 11), 3))
        depth = rng.randint(2, 4)
        if rng.random() < 0.7:
            planted = [rng.randint(-3, 3) for _ in unknowns(ansatz)]
            target = PowerSeries(phi_bruteforce(assembled(ansatz, planted), depth))
        else:
            target = PowerSeries([1] + [rng.randint(-4, 4) for _ in range(depth)])
        config = SearchConfig(target=target, primes=primes, depth=depth, verify_depth=depth)
        stage = search_mod_p(ansatz, config)
        assert list(stage.survivors) == [st.prime for st in stage.prime_stats] == list(primes)
        for p, stats in zip(primes, stage.prime_stats):
            alone = search_mod_p(ansatz, config._replace(primes=(p,)))
            assert alone.survivors == {p: stage.survivors[p]}
            assert alone.prime_stats == (stats,)


def test_lift_pre_check_only_drops_non_matches():
    """lift_and_verify over every residue tuple equals checking every lift exactly.

    The corpus must hold lifts that the phi(1..depth) pre-check rejects and
    lifts that pass it but fail deeper, so both exits are exercised.
    """
    rng = random.Random(40)
    rejected_early = rejected_late = 0
    checked = 0
    while checked < 40:
        ansatz = random_ansatz(rng, rng.choice((1, 2)), max_points=4, kinds=("free", "choice", "int"))
        p, height, depth = rng.choice((3, 5)), rng.randint(1, 3), rng.randint(2, 3)
        lifts = [
            range(-height, height + 1) if spec.domain.kind == "free" else spec.domain.values
            for spec in unknowns(ansatz)
        ]
        all_lifts = list(itertools.product(*lifts))
        if not 1 <= len(all_lifts) <= 150:
            continue
        verify_depth = depth + 3
        planted = rng.choice(all_lifts)
        target = phi_bruteforce(assembled(ansatz, planted), verify_depth)
        config = SearchConfig(
            target=PowerSeries(target), primes=(p,), height=height, depth=depth,
            verify_depth=verify_depth,
        )
        residues = tuple(
            itertools.product(*(residue_domain(spec, p) for spec in unknowns(ansatz)))
        )
        stage = search_mod_p(ansatz, config)._replace(survivors={p: residues})
        matches, stats = lift_and_verify(stage)

        expected = set()
        for values in all_lifts:
            phi = phi_bruteforce(assembled(ansatz, values), verify_depth)
            if phi == target:
                expected.add(assembled(ansatz, values).to_text())
            elif phi[: depth + 1] == target[: depth + 1]:
                rejected_late += 1
            else:
                rejected_early += 1
        assert [m.to_text() for m in matches] == sorted(expected)
        assert assembled(ansatz, planted) in matches
        assert stats.residue_combinations == len(residues)
        assert stats.lifts_tried == len(all_lifts)
        checked += 1
    assert rejected_early > 0 and rejected_late > 0
