from fractions import Fraction

import pytest

from weaklg.laurent import LaurentPoly, ParseError, PowerSeries, constant_term_series
from weaklg.search import (
    CoefficientDomain,
    HeightBoundExceeded,
    OrbitSpec,
    SearchConfig,
    SupportAnsatz,
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
    assert spec.representative == (0, 1)
    with pytest.raises(ValueError):
        OrbitSpec("s", (), CoefficientDomain.free())


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
    for text, line in (("# dim x\n" + body, 1), (body + "# dim 0\n", 2)):
        with pytest.raises(ParseError) as info:
            SupportAnsatz.from_text(text)
        assert info.value.line == line


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
    with pytest.raises(ValueError):
        SearchConfig(target=t, threads=0)


def test_search_mod_p_recovers_planted_residue():
    target = target_for(planted_1d(3))
    survivors, stats = search_mod_p(ansatz_1d(CoefficientDomain.free()), target, 5)
    assert survivors == ((3,),)
    assert stats.prime == 5
    assert stats.enumerated == 5
    assert stats.survivors_per_level[-1] == (4, 1)


def test_search_mod_p_prunes_non_integral_target_with_integral_domains():
    """phi of an integer polynomial is an integer, so a fractional target
    coefficient empties an all-integral search at that level."""
    target = PowerSeries([1, 0, Fraction(1, 2), 0, 6, 0, 90, 0, 1860])
    survivors, stats = search_mod_p(ansatz_1d(CoefficientDomain.free()), target, 5)
    assert survivors == ()
    assert (2, 0) in stats.survivors_per_level


def test_search_mod_p_keeps_rational_target_when_domain_is_rational():
    f = LaurentPoly(1, {(1,): 1, (-1,): Fraction(1, 2)})
    target = target_for(f)
    ansatz = ansatz_1d(CoefficientDomain.fixed(Fraction(1, 2)))
    survivors, _ = search_mod_p(ansatz, target, 5)
    assert survivors == ((),)


def test_search_mod_p_rejects_bad_inputs():
    target = target_for(planted_1d(3))
    ansatz = ansatz_1d(CoefficientDomain.free())
    with pytest.raises(ValueError):
        search_mod_p(ansatz, target, 6)
    with pytest.raises(ValueError):
        search_mod_p(ansatz, target, 5, depth=9)
    with pytest.raises(ValueError):
        search_mod_p(ansatz, PowerSeries([2, 0, 1, 0, 1]), 5)
    with pytest.raises(ValueError):
        search_mod_p(ansatz_1d(CoefficientDomain.fixed(Fraction(1, 5))), target, 5)


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
    assert stats is not None
    assert stats.residue_combinations == 1
    assert stats.prime_stats[0].survivor_count == 1
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


def test_threads_do_not_change_the_result():
    f = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 2})
    target = constant_term_series(f, 8)
    vertex = OrbitSpec(
        "vertex", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), CoefficientDomain.fixed(1)
    )
    apex = OrbitSpec("apex", ((-1, -1, -1),), CoefficientDomain.free())
    ansatz = SupportAnsatz(3, [vertex, apex])
    serial = search(ansatz, SearchConfig(target=target, primes=(7,), height=4))
    parallel = search(
        ansatz, SearchConfig(target=target, primes=(7,), height=4, threads=2)
    )
    assert serial == parallel
    assert serial.matches == (f,)


def test_lift_and_verify_requires_all_primes():
    target = target_for(planted_1d(3))
    config = SearchConfig(target=target, primes=(5, 7), height=5)
    with pytest.raises(ValueError):
        lift_and_verify({5: ((3,),)}, ansatz_1d(CoefficientDomain.free()), config)
