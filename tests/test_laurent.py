import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from weaklg.laurent import (
    DimensionMismatch,
    LaurentPoly,
    ParseError,
    PowerSeries,
    constant_term_series,
    constant_term_series_mitm,
    format_rational,
    multiply_term_maps,
    normalize_rational,
    pack_exponents,
    parse_rational,
    quartic_compactification_check,
    substitute_monomial,
)

from weaklg import catalog, laurent

from corpus import (
    multiply_bruteforce,
    phi_bruteforce,
    random_laurent,
    random_mutation_pair,
    random_scales,
    random_unimodular,
    resize,
)


def test_normalize_rational_collapses_integral_fractions():
    assert normalize_rational(Fraction(6, 3)) == 2
    assert isinstance(normalize_rational(Fraction(6, 3)), int)
    assert normalize_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert normalize_rational(-7) == -7


def test_normalize_rational_rejects_bools_and_floats():
    with pytest.raises(TypeError):
        normalize_rational(True)
    with pytest.raises(TypeError):
        normalize_rational(0.5)


def test_format_and_parse_rational_round_trip():
    for value in (0, 5, -12, Fraction(3, 7), Fraction(-22, 5)):
        assert parse_rational(format_rational(value)) == value


def test_format_rational_renders_ints_past_the_int_to_str_limit():
    big = 10**5000 + 7
    assert format_rational(-big) == "-1" + "0" * 4999 + "7"
    assert format_rational(Fraction(big, 3)) == "1" + "0" * 4999 + "7/3"
    assert format_rational(Fraction(1, big)) == "1/1" + "0" * 4999 + "7"


def test_parse_rational_rejects_decimals():
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("x")


@pytest.mark.parametrize("text, value", [
    ("+3", 3), (" -4/6 ", Fraction(-2, 3)), ("007", 7), ("10/5", 2), ("-0", 0),
])
def test_parse_rational_accepts_signed_ascii_p_and_p_over_q(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("token", [
    "1e-2", "1e3", "2E1", "1/1e2", "1_0", "1/1_0", "\u0663", "1/\u0663", "\uff11",
    "0x10", "1/0", "1/", "/2", "1/-2", "--1", "+", "1 2", "1 / 2", "inf", "nan", "",
])
def test_parse_rational_rejects_everything_but_ascii_p_and_p_over_q(token):
    with pytest.raises(ParseError) as info:
        parse_rational(token, 7)
    assert info.value.line == 7
    assert str(info.value) == f"line 7: bad rational {token!r}"


def test_constructor_drops_zero_terms():
    f = LaurentPoly(2, {(1, 0): 0, (0, 1): 3})
    assert len(f) == 1
    assert f.coefficient((1, 0)) == 0
    assert f.coefficient((0, 1)) == 3


def test_constructor_checks_exponent_length():
    with pytest.raises(DimensionMismatch):
        LaurentPoly(3, {(1, 0): 1})


def test_coefficient_checks_exponent_length():
    f = LaurentPoly(2, {(0, 0): 5})
    assert f.coefficient((0, 0)) == 5
    with pytest.raises(DimensionMismatch, match=r"^exponent vector \(0, 0, 0\) has length 3, expected 2$"):
        f.coefficient((0, 0, 0))


def test_series_order_bound_holds_where_f_to_the_k_stays_small():
    """A constant, whose f^K has one term, runs at the bound and is refused one step past it."""
    two = LaurentPoly(3, {(0, 0, 0): 2})
    assert list(constant_term_series(two, laurent.MAX_SERIES_ORDER)) == [
        2**i for i in range(laurent.MAX_SERIES_ORDER + 1)]
    for f in (two, LaurentPoly(1, {(1,): 1, (-1,): 1})):
        with pytest.raises(ValueError, match=f"^series order {laurent.MAX_SERIES_ORDER + 1} is over"
                                             f" {laurent.MAX_SERIES_ORDER}, the most a series takes$"):
            constant_term_series(f, laurent.MAX_SERIES_ORDER + 1)


def test_constructor_checks_dimension_and_exponent_types():
    with pytest.raises(ValueError, match="^dimension must be a positive integer$"):
        LaurentPoly(0, {})
    with pytest.raises(TypeError, match=r"^exponents must be integers: \(1, 0\.5\)$"):
        LaurentPoly(2, {(1, 0.5): 1})


def test_zero_and_constant_polynomials():
    z = LaurentPoly(3)
    assert not z and z.dimension == 3
    c = LaurentPoly(2, {(0, 0): Fraction(5, 3)})
    assert c.coefficient((0, 0)) == Fraction(5, 3)
    assert not LaurentPoly(2, {(0, 0): 0})


def test_arithmetic_basics():
    x = LaurentPoly(1, {(1,): 1})
    xinv = LaurentPoly(1, {(-1,): 1})
    f = x + xinv
    assert (f * f).coefficient((0,)) == 2
    assert not f - f
    assert (-f) + f == LaurentPoly(1)
    assert 3 * f == f * 3
    assert not f * 0


def test_mixed_dimension_arithmetic_raises():
    with pytest.raises(DimensionMismatch):
        LaurentPoly(1, {(1,): 1}) + LaurentPoly(2, {(1, 0): 1})


def test_pow_matches_repeated_multiplication():
    rng = random.Random(101)
    for _ in range(10):
        f = random_laurent(rng, n=2, max_terms=4)
        g = LaurentPoly(2, {(0, 0): 1})
        for k in range(4):
            assert f**k == g
            g = g * f


def test_pow_rejects_negative_and_bool():
    f = LaurentPoly(1, {(1,): 1})
    with pytest.raises(ValueError):
        f ** (-1)
    with pytest.raises(ValueError):
        f**True


def test_distributivity_on_random_corpus():
    """(f + g) * h == f*h + g*h, exercising the dict accumulation path."""
    rng = random.Random(77)
    for _ in range(20):
        f = random_laurent(rng, n=3, max_terms=5)
        g = random_laurent(rng, n=3, max_terms=5)
        h = random_laurent(rng, n=3, max_terms=5)
        assert (f + g) * h == f * h + g * h


def test_random_laurent_caps_its_terms_at_the_box_size():
    rng = random.Random(5)
    sizes = {len(random_laurent(rng, n=1, max_terms=5, box=1)) for _ in range(30)}
    assert sizes == {1, 2, 3}
    assert len(random_laurent(rng, n=2, max_terms=100, box=0)) == 1


def test_poly_text_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        f = random_laurent(rng, n=3)
        assert LaurentPoly.from_text(f.to_text()) == f


def test_zero_poly_round_trip_needs_dim_header():
    z = LaurentPoly(4)
    assert LaurentPoly.from_text(z.to_text()) == z
    with pytest.raises(ParseError):
        LaurentPoly.from_text("")


def test_from_text_rejects_duplicate_exponents():
    with pytest.raises(ParseError) as info:
        LaurentPoly.from_text("1 : 1 0\n2 : 1 0\n")
    assert info.value.line == 2


def test_from_text_dim_header_is_a_comment_starting_with_the_word_dim():
    assert LaurentPoly.from_text("# dimension note\n2 : 1 -1\n").dimension == 2
    assert LaurentPoly.from_text("# dim 3\n").dimension == 3
    for text, line in (
        ("1 : 1\n# dim x\n", 2),
        ("# dim 0\n", 1),
        ("# dim 3\n1 : 1 0 0\n# dim 2\n", 3),
    ):
        with pytest.raises(ParseError) as info:
            LaurentPoly.from_text(text)
        assert info.value.line == line


def test_from_text_infers_and_enforces_dimension():
    f = LaurentPoly.from_text("2 : 1 -1\n1/2 : 0 3\n")
    assert f.dimension == 2
    assert f.coefficient((0, 3)) == Fraction(1, 2)
    with pytest.raises(ParseError):
        LaurentPoly.from_text("1 : 1 0\n1 : 2\n")


def test_power_series_basics():
    s = PowerSeries([1, 2, Fraction(9, 3)])
    assert s.order == 2
    assert s[2] == 3 and isinstance(s[2], int)
    assert list(s) == [1, 2, 3]
    with pytest.raises(IndexError):
        s[3]
    assert s == (1, 2, 3) and hash(s) == hash((1, 2, 3))
    with pytest.raises(ValueError, match="^a power series needs at least the order-0 coefficient$"):
        PowerSeries([])
    assert s.truncate(1) == PowerSeries([1, 2])
    with pytest.raises(ValueError):
        s.truncate(5)


def test_power_series_text_round_trip():
    s = PowerSeries([1, Fraction(32, 5), 0, -7])
    assert PowerSeries.from_text(s.to_text()) == s


def test_power_series_from_text_requires_contiguous_indices():
    with pytest.raises(ParseError):
        PowerSeries.from_text("0 1\n2 5\n")
    with pytest.raises(ParseError):
        PowerSeries.from_text("0 1\n1 2\n1 3\n")
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^missing coefficient for index 1$"):
        PowerSeries.from_text("0 1\n100000000 1\n")
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ParseError) as info:
        PowerSeries.from_text("-1 5\n0 1\n1 3\n")
    assert str(info.value) == "line 1: bad index '-1'"


def test_constant_term_series_of_single_monomial():
    f = LaurentPoly(1, {(1,): 1})
    assert list(constant_term_series(f, 5)) == [1, 0, 0, 0, 0, 0]


def test_constant_term_series_quartic_simplex():
    """x + y + z + 1/(xyz) has phi(4m) = (4m)!/(m!)^4 and zero elsewhere."""
    f = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    phi = constant_term_series(f, 8)
    assert list(phi) == [1, 0, 0, 0, 24, 0, 0, 0, 2520]


def test_multiply_term_maps_leaves_no_cancelled_term():
    # zeros never change a sum, so only the map itself shows a stray one
    assert multiply_term_maps({1: 1, -1: -1}, {1: 1, -1: 1}) == {2: 1, -2: -1}


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_memory_holds_two_consecutive_powers(monkeypatch):
    """The depth-24 series peaks near f^11 plus f^12, not at every power of f.

    The last product alone allocates f^12; keeping f^0..f^12 alive costs
    about 2.3 times that, two powers about 1.5 times.  The bound is sized
    for one-slot rows, so the series is held to them.
    """
    _one_slot_rows(monkeypatch)
    f = catalog.builtin("V16").model
    base = 2 * max(abs(x) for exps in f.support() for x in exps) * 12 + 1
    packed = {pack_exponents(exps, base): c for exps, c in f.terms()}
    f11 = {0: 1}
    for _ in range(11):
        f11 = multiply_term_maps(f11, packed)
    product_peak = _traced_peak(multiply_term_maps, f11, packed)
    del f11
    series_peak = _traced_peak(constant_term_series, f, 24)
    assert series_peak <= 1.9 * product_peak, (series_peak, product_peak)


def _apery(n):
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))


def test_series_match_closed_forms_at_depths_beyond_bruteforce():
    """Straub's model of the Apery numbers through N=30 and the quartic
    simplex through N=40, also after a random unimodular relabeling."""
    straub = (LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1})
              * LaurentPoly(3, {(0, 0, 1): 1, (0, 0, 0): 1})
              * LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
              * LaurentPoly(3, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
              * LaurentPoly(3, {(-1, -1, -1): 1}))
    simplex = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    cases = [
        (straub, [_apery(n) for n in range(31)]),
        (simplex, [math.factorial(n) // math.factorial(n // 4) ** 4 if n % 4 == 0 else 0
                   for n in range(41)]),
    ]
    rng = random.Random(37)
    for f, want in cases:
        N = len(want) - 1
        assert list(constant_term_series(f, N)) == want
        g = substitute_monomial(f, random_unimodular(rng))
        assert list(constant_term_series(g, N)) == want


def test_series_against_bruteforce_convolution():
    rng = random.Random(13)
    for _ in range(15):
        f = random_laurent(rng, n=2, max_terms=5)
        assert list(constant_term_series(f, 6)) == phi_bruteforce(f, 6)


def _assert_both_entry_points_match_bruteforce(f, N):
    want = phi_bruteforce(f, N)
    assert list(constant_term_series(f, N)) == want
    assert list(constant_term_series_mitm(f, N)) == want


def test_mitm_equals_plain_on_random_corpus():
    rng = random.Random(29)
    for _ in range(15):
        _assert_both_entry_points_match_bruteforce(random_laurent(rng, n=3, max_terms=6), 8)


def test_mitm_handles_odd_even_and_tiny_orders():
    f = LaurentPoly(2, {(1, 0): 2, (-1, 0): 1, (0, 1): 1, (0, -1): Fraction(1, 2)})
    for N in (0, 1, 2, 3, 7):
        _assert_both_entry_points_match_bruteforce(f, N)


def test_series_edge_cases_against_bruteforce():
    rng = random.Random(31)
    cases = [
        # Fraction coefficients
        LaurentPoly(3, {(1, 0, 0): Fraction(2, 3), (0, 1, -1): Fraction(-5, 7),
                        (-1, -1, 1): 3, (0, 0, 0): Fraction(1, 2)}),
        # one variable and five
        LaurentPoly(1, {(1,): 1, (-1,): 1, (2,): -3, (-2,): Fraction(1, 4)}),
        random_laurent(rng, n=1, max_terms=5),
        random_laurent(rng, n=5, max_terms=7),
        LaurentPoly(5, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1,
                        (0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 1): 1, (-1, -1, -1, -1, -1): 1}),
        # exponents of +-1000 need a wide packing base
        LaurentPoly(3, {(1000, 0, -1000): 1, (-1000, 0, 1000): 2, (0, 1000, 0): 1,
                        (0, -1000, 0): 1, (1, -1, 0): -1, (-1, 1, 0): 1}),
        LaurentPoly(2, {(1000, -1): 1, (-999, 1): 1, (-1, 0): 1}),
        # constants: max |e| = 0
        LaurentPoly(3, {(0, 0, 0): 5}),
        LaurentPoly(2, {(0, 0): Fraction(-2, 3)}),
        LaurentPoly(2),
        # terms of the powers cancel
        LaurentPoly(2, {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}),
        LaurentPoly(2, {(1, 0): 1, (0, 1): -1, (-1, 0): 1, (0, -1): -1,
                        (1, -1): 1, (-1, 1): -1}),
    ]
    for f in cases:
        for N in (0, 1, 2, 5, 6):
            _assert_both_entry_points_match_bruteforce(f, N)


def _rows(f, N):
    """laurent._rows on the terms of f, as constant_term_series calls it."""
    return laurent._rows(f._terms, N)


def _one_slot_rows(monkeypatch):
    """Hold _rows to one-slot rows: no Kronecker row fits in 0 bits."""
    monkeypatch.setattr(laurent, "_ROW_BITS", 0)


def test_both_packings_against_bruteforce(monkeypatch):
    rng = random.Random(71)
    cases = [
        catalog.builtin("V22").model,
        # negative and Fraction coefficients on a full support
        LaurentPoly(2, {(1, 0): -3, (0, 1): Fraction(2, 3), (-1, -1): 1, (0, 0): Fraction(-1, 2),
                        (1, 1): 5, (-1, 0): Fraction(7, 4)}),
        LaurentPoly(3, {e: rng.choice((-2, -1, 1, Fraction(1, 3), Fraction(-5, 2)))
                        for e in itertools.product((-1, 0, 1), repeat=3) if rng.random() < 0.6}),
        LaurentPoly(3),
        LaurentPoly(1, {(1,): 1, (-1,): Fraction(-2, 3), (0,): 4}),
        LaurentPoly(1, {(2,): 1}),
        # every exponent positive, so phi(i) = 0 for i > 0 on every axis
        LaurentPoly(2, {(1, 1): 1, (2, 1): -1, (1, 2): 2, (2, 2): Fraction(1, 2)}),
        LaurentPoly(2, {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}),
    ]
    kronecker = set()
    for k, f in enumerate(cases):
        for N in (0, 1, 2, 5, 6):
            want = phi_bruteforce(f, N)
            for one_slot in (False, True):
                with monkeypatch.context() as m:
                    if one_slot:
                        _one_slot_rows(m)
                    assert list(constant_term_series(f, N)) == want, (f.terms(), N, one_slot)
                    width = _rows(f, N)[1]
                    assert not (one_slot and width)
                    if width:
                        kronecker.add(k)
    # one row, one term, the zero polynomial and a sparse square (supp(f f)
    # fills 9 of 25 cells) stay on one-slot rows
    assert kronecker == {0, 1, 2, 6}
    assert _rows(cases[6], 6)[2] < 0
    assert _rows(LaurentPoly(2), 4) == ({}, 0, 0, 1)


def test_kronecker_rows_pack_full_supports_only():
    for name in ("V16", "V18", "V22"):
        f = catalog.builtin(name).model
        for N in (8, 13, 24):
            assert _rows(f, N)[1], (name, N)
    sparse = [
        (LaurentPoly(2, {(200, 0): 1, (-200, 0): 1, (0, 1): 1, (0, -1): 1}), 20),
        (LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}), 40),
        (LaurentPoly(1, {(1,): 1, (-1,): 1}), 200),
        (catalog.builtin("V16").model, 80),
    ]
    for f, N in sparse:
        assert _rows(f, N)[1] == 0, (f.terms(), N)


def test_huge_depths_take_one_slot_rows_without_building_s_to_the_n():
    """At N = 10^12, S^N would have terabits; the layout is decided at once."""
    sparse = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    for f in (sparse, catalog.builtin("V16").model):
        start = time.perf_counter()
        rows, width, h, scale = _rows(f, 10**12)
        assert time.perf_counter() - start < 1.0
        assert (len(rows), width, h, scale) == (len(f), 0, 0, 1)


def _refusals(fs, N):
    """The messages with which constant_term_series refuses each f at order N."""
    messages = set()
    for f in fs:
        with pytest.raises(ValueError) as info:
            constant_term_series(f, N)
        messages.add(str(info.value))
    return messages


def test_deep_series_are_refused_alike_for_f_and_its_images(monkeypatch):
    """On one-slot rows f^k has as many terms for f as for any image, so the work is the same.

    The work bound is lowered so that the refusal comes at once.
    """
    monkeypatch.setattr(laurent, "MAX_WORK", 10**5)
    rng = random.Random(1000)
    for f, N, k in ((LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1}), 2824, 48),
                    (LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                                     (-1, -1, -1): 1}), 1000, 24)):
        images = [substitute_monomial(f, random_unimodular(rng, f.dimension)) for _ in range(5)]
        assert all(_rows(g, N)[1] == 0 for g in images)
        assert _refusals([f, f] + images, N) == {
            f"series order {N}: f^{k}: the expansion would pass 100000 units of work"}
    assert _refusals([f], 100000) == {"series order 100000 is over 4000, the most a series takes"}


def test_catalog_models_at_depth_80_are_refused_alike_for_f_and_its_images(monkeypatch):
    """V16 at N=80 would run past MAX_WORK (17-20 s unbounded); with the bound
    lowered to 10^6 each model and its image stop at the same power."""
    monkeypatch.setattr(laurent, "MAX_WORK", 10**6)
    rng = random.Random(80)
    for name, k in (("V16", 14), ("V18", 15), ("V22", 16)):
        f = catalog.builtin(name).model
        assert _refusals([f, substitute_monomial(f, random_unimodular(rng))], 80) == {
            f"series order 80: f^{k}: the expansion would pass 1000000 units of work"}


def test_a_product_past_the_term_bound_is_refused_within_it(monkeypatch):
    """f^2 of 2999 terms in [-3, 3]^8 could hold 4.5 million; counted as it is
    built, it is refused near MAX_SERIES_TERMS plus the larger operand."""
    monkeypatch.setattr(laurent, "MAX_SERIES_TERMS", 20_000)
    rng = random.Random(8)
    terms = {}
    while len(terms) < 2999:
        terms[tuple(rng.randint(-3, 3) for _ in range(8))] = rng.choice((-3, -2, -1, 1, 2, 3))
    f = LaurentPoly(8, terms)
    for run, prefix in ((lambda: constant_term_series(f, 3), "series order 3: f^2: "),
                        (lambda: f * f, "")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == prefix + "a product would hold more than 20000 terms"
        # 23,000 entries take a few MiB; f^2 would need at least 4.5 million entries of 56 bytes
        assert peak < 500 * laurent.MAX_SERIES_TERMS, peak


def test_products_and_powers_are_refused_past_the_work_bound(monkeypatch):
    """x + y + 1/(xy) to the 200th is admitted at MAX_WORK and takes under a
    second; with the bound lowered, ** and * stop at it, Fractions alike."""
    f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
    g = f**60
    monkeypatch.setattr(laurent, "MAX_WORK", 10**5)
    for run in (lambda: f**200, lambda: g * g, lambda: g * Fraction(1, 3) * g):
        with pytest.raises(ValueError, match=r"^a product would pass 100000 units of work$"):
            run()
    assert f**20 == multiply_bruteforce(f**10, f**10)


def test_series_is_unchanged_by_a_unimodular_map_at_depth_24():
    f = catalog.builtin("V16").model
    want = constant_term_series(f, 24)
    rng = random.Random(24)
    for _ in range(3):
        g = substitute_monomial(f, random_unimodular(rng))
        assert _rows(g, 24)[1]
        assert constant_term_series(g, 24) == want


def test_narrowing_recovers_the_catalog_boxes_under_unimodular_maps():
    models = [catalog.builtin(name).model for name in ("V16", "V18", "V22")]
    for seed in range(1, 201):
        rng = random.Random(seed)
        for f in models:
            g = substitute_monomial(f, random_unimodular(rng))
            assert [laurent._width(row) for row in laurent._narrowed(g._terms)] == [2, 2, 2], seed


def test_mutation_pairs_have_equal_series():
    rng = random.Random(2012)
    distinct = 0
    for _ in range(30):
        f, g = random_mutation_pair(rng)
        distinct += f != g
        assert constant_term_series(f, 12) == constant_term_series(g, 12)
        assert list(constant_term_series(f, 3)) == phi_bruteforce(f, 3)
        assert list(constant_term_series_mitm(g, 3)) == phi_bruteforce(g, 3)
    assert distinct >= 25


def test_products_and_powers_against_tuple_keyed_products():
    rng = random.Random(67)
    for n in (1, 2, 3, 5):
        for _ in range(12):
            f = random_laurent(rng, n=n, max_terms=5, box=rng.choice((2, 3, 1000)))
            g = random_laurent(rng, n=n, max_terms=5, box=rng.choice((2, 3, 1000)))
            g = g * Fraction(1, 3) + f
            assert f * g == multiply_bruteforce(f, g)
            assert g * f == f * g
            power = LaurentPoly(n, {(0,) * n: 1})
            for k in range(5):
                assert f**k == power
                power = multiply_bruteforce(power, f)


def test_series_rejects_negative_order_and_wrong_type():
    f = LaurentPoly(1, {(1,): 1})
    with pytest.raises(ValueError):
        constant_term_series(f, -1)
    with pytest.raises(TypeError):
        constant_term_series("nope", 3)


def test_substitute_monomial_preserves_series():
    rng = random.Random(41)
    for _ in range(10):
        f = random_laurent(rng, n=3, max_terms=6)
        U = random_unimodular(rng, n=3)
        g = substitute_monomial(f, U)
        assert constant_term_series(g, 5) == constant_term_series(f, 5)


def test_substitute_monomial_rejects_singular_matrix():
    f = LaurentPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        substitute_monomial(f, [(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        substitute_monomial(f, [(2, 0), (0, 1)])
    with pytest.raises(DimensionMismatch):
        substitute_monomial(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_resize_preserves_series():
    rng = random.Random(59)
    for _ in range(10):
        f = random_laurent(rng, n=3, max_terms=6)
        g = resize(f, random_scales(rng, 3))
        assert constant_term_series(g, 5) == constant_term_series(f, 5)


def test_resize_scales_coefficients_exactly():
    f = LaurentPoly(2, {(1, 0): 1, (-1, 1): 6})
    g = resize(f, (2, Fraction(1, 3)))
    assert g.coefficient((1, 0)) == 2
    assert g.coefficient((-1, 1)) == 1
    with pytest.raises(ValueError):
        resize(f, (0, 1))
    with pytest.raises(DimensionMismatch):
        resize(f, (1,))


def test_quartic_check_on_anticanonical_simplex():
    f = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    report = quartic_compactification_check(f)
    assert report.passes
    assert report.cleared_degree == 4
    assert report.shift == (1, 1, 1)


def test_quartic_check_failure_and_zero_poly():
    g = LaurentPoly(3, {(2, 0, 0): 1, (-1, -1, -1): 1})
    assert not quartic_compactification_check(g).passes
    with pytest.raises(ValueError):
        quartic_compactification_check(LaurentPoly(3))
