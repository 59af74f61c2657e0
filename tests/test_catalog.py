import math
import warnings
from fractions import Fraction

import pytest

from weaklg import catalog
from weaklg.dseries import apply_operator, rescale_t, shift_constant, solve_series
from weaklg.laurent import ParseError, constant_term_series
from weaklg.polytope import invariant_report, newton_polytope


def test_builtin_names_and_lookup():
    assert catalog.names() == (
        "V16",
        "V18",
        "V22",
        "P3-sample",
        "product-of-lines-sample",
    )
    assert catalog.builtin("V16").name == "V16"
    with pytest.raises(ValueError):
        catalog.builtin("V99")


def test_rank_one_operator_tables_are_pinned():
    """Transcribed coefficient tables, kept as data so edits stand out."""
    assert catalog.builtin("V16").operator.table == (
        (0, 0, 0, 1),
        (-4, -20, -36, -24),
        (16, 48, 48, 16),
    )
    assert catalog.builtin("V18").operator.table == (
        (0, 0, 0, 1),
        (-3, -15, -27, -18),
        (-27, -81, -81, -27),
    )
    fifth = Fraction(1, 5)
    assert catalog.builtin("V22").operator.table == (
        (0, 0, 0, 1),
        (-32 * fifth, -98 * fifth, -102 * fifth, -68 * fifth),
        (
            Fraction(-672, 25),
            Fraction(-1904, 25),
            Fraction(-1848, 25),
            Fraction(-616, 25),
        ),
        (
            Fraction(-756, 125),
            Fraction(-1638, 125),
            Fraction(-1134, 125),
            Fraction(-252, 125),
        ),
        (
            Fraction(-9024, 625),
            Fraction(-16544, 625),
            Fraction(-9024, 625),
            Fraction(-1504, 625),
        ),
    )


def test_model_term_counts_and_spot_coefficients():
    f16 = catalog.builtin("V16").model
    assert len(f16) == 20
    assert f16.coefficient((0, 0, 0)) == 4
    assert f16.coefficient((-1, -1, 0)) == 2
    assert f16.coefficient((-1, 0, 0)) == 3
    assert f16.coefficient((1, -1, 0)) == 1
    assert f16.coefficient((-1, -1, -1)) == 1
    f18 = catalog.builtin("V18").model
    assert len(f18) == 16
    assert f18.coefficient((0, 0, 0)) == 3
    assert f18.coefficient((-1, 0, 0)) == 2
    assert f18.coefficient((1, -1, -1)) == 1
    f22 = catalog.builtin("V22").model
    assert len(f22) == 14
    assert f22.coefficient((0, 0, 0)) == 4
    assert all(f22.coefficient(p) == 1 for p in f22.support() if any(p))


def test_models_solve_their_operators():
    for name in ("V16", "V18", "P3-sample", "product-of-lines-sample"):
        rec = catalog.builtin(name)
        assert constant_term_series(rec.model, 8) == solve_series(rec.operator, 8)


def test_v22_record_documents_its_mismatch():
    rec = catalog.builtin("V22")
    assert rec.known_discrepancy is not None
    assert solve_series(rec.operator, 1)[1] == Fraction(32, 5)
    phi = constant_term_series(rec.model, 8)
    assert list(phi)[:3] == [1, 4, 28]
    assert solve_series(rec.derived_operator, 8) == phi
    assert not any(apply_operator(rec.derived_operator, phi))


def test_no_rescaling_reconciles_the_v22_operator():
    """a_1 = 32/5 forces lambda = 5/8, but then a_2 lands off target, which
    is why the record keeps the discrepancy note instead of a fix."""
    from weaklg.dseries import rescale_t

    rec = catalog.builtin("V22")
    lam = Fraction(4) / Fraction(32, 5)
    rescaled = rescale_t(rec.operator, lam)
    sol = solve_series(rescaled, 2)
    assert sol[1] == 4
    assert sol[2] != 28


def test_v22_stored_solution_is_recorded_data():
    """The stored operator's a_0 = 1 solution is not integral, so it is the
    series of no integral Laurent polynomial; the record keeps it as given."""
    sol = list(solve_series(catalog.builtin("V22").operator, 3))
    assert sol == [1, Fraction(32, 5), Fraction(1284, 25), Fraction(559052, 1125)]
    assert any(Fraction(a).denominator != 1 for a in sol)


def test_no_constant_shift_and_rescaling_reconciles_the_v22_operator():
    """lambda^k phi_{f+c}(k) = a_k needs phi_{f+c}(2) / phi_{f+c}(1)^2 =
    a_2 / a_1^2 = 321/256, a ratio that rescaling t leaves fixed.  A shift
    keeps d = phi_2 - phi_1^2, so u = phi_1 + c must satisfy
    256 (u^2 + d) = 321 u^2, i.e. u^2 = 256 d / 65, which is no rational
    square (and u = 0 would give a_1 = 0)."""
    rec = catalog.builtin("V22")
    a = solve_series(rec.operator, 2)
    ratio = Fraction(a[2]) / Fraction(a[1]) ** 2
    assert ratio == Fraction(321, 256)
    for lam in (Fraction(5, 8), -3, Fraction(7, 2)):
        b = solve_series(rescale_t(rec.operator, lam), 2)
        assert Fraction(b[2]) / Fraction(b[1]) ** 2 == ratio
    phi = constant_term_series(rec.model, 2)
    d = phi[2] - phi[1] ** 2
    for c in (-4, Fraction(-7, 3), 0, Fraction(1, 2), 5):
        shifted = shift_constant(phi, c)
        assert shifted[1] == phi[1] + c
        assert shifted[2] - shifted[1] ** 2 == d
    u2 = 256 * Fraction(d) / 65
    assert u2 == Fraction(3072, 65)
    assert math.isqrt(u2.numerator) ** 2 != u2.numerator or (
        math.isqrt(u2.denominator) ** 2 != u2.denominator
    )


def test_self_check_requires_a_model_in_every_builtin(monkeypatch):
    bare = catalog.builtin("P3-sample")._replace(model=None)
    monkeypatch.setitem(catalog._BUILTINS, "P3-sample", bare)
    with pytest.raises(RuntimeError, match="builtin record 'P3-sample' has no model"):
        catalog._self_check()


def test_degree_genus_h0_relations():
    for name in catalog.names():
        rec = catalog.builtin(name)
        assert rec.degree == 2 * rec.genus - 2
        assert rec.h0 == rec.degree // 2 + 3


def test_newton_polytopes_match_recorded_invariants():
    for name in catalog.names():
        rec = catalog.builtin(name)
        report = invariant_report(newton_polytope(rec.model), rec)
        assert report.mismatches == (), name


def test_dumps_loads_round_trip():
    for name in catalog.names():
        rec = catalog.builtin(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = catalog.loads(catalog.dumps(rec))
        assert again == rec


@pytest.mark.parametrize("parts", range(16))
def test_every_combination_of_optional_parts_round_trips(parts):
    """V22 has all four optional parts; each bit of `parts` drops one."""
    drops = {"known_discrepancy": None, "derived_operator": None, "model": None, "notes": ""}
    rec = catalog.builtin("V22")._replace(
        **{field: empty for bit, (field, empty) in enumerate(drops.items()) if parts >> bit & 1})
    text = catalog.dumps(rec)
    again = catalog.loads(text)
    assert again == rec and catalog.dumps(again) == text


def test_record_checks_run_in_format_order():
    """Every meta key is looked for before any is read as an integer, and
    the meta keys are checked before the sections."""
    good = catalog.dumps(catalog.builtin("V16"))
    for text, message in (
        (good.replace("genus: 9", "genus: nine").replace("h0: 11\n", ""),
         "line 1: missing meta key 'h0'"),
        (good.replace("genus: 9", "genus: nine").split("[operator]")[0],
         "line 3: meta key 'genus' must be an integer"),
        (good.split("[operator]")[0] + "[model]\nbad\n", "missing [operator] section"),
    ):
        with pytest.raises(ParseError) as info:
            catalog.loads(text)
        assert str(info.value) == message


def test_save_load_files(tmp_path):
    path = tmp_path / "v18.rec"
    path.write_text(catalog.dumps(catalog.builtin("V18")), encoding="utf-8")
    assert catalog.load(path) == catalog.builtin("V18")


def test_load_warns_on_degree_genus_disagreement():
    rec = catalog.builtin("V16")._replace(genus=5)
    with pytest.warns(UserWarning, match="not 2\\*genus-2"):
        catalog.loads(catalog.dumps(rec))


def test_degree_warning_points_at_the_callers_line(tmp_path):
    """Both `loads` and `load` attribute the warning to their caller."""
    path = tmp_path / "bad-degree.rec"
    path.write_text(catalog.dumps(catalog.builtin("V16")._replace(degree=17)), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        catalog.loads(path.read_text(encoding="utf-8"))
        catalog.load(path)
    assert [str(w.message) for w in caught] == ["record 'V16': degree 17 is not 2*genus-2 = 16"] * 2
    assert [w.filename for w in caught] == [__file__] * 2


def test_loads_requires_meta_and_operator():
    with pytest.raises(ParseError):
        catalog.loads("")
    with pytest.raises(ParseError):
        catalog.loads("[meta]\nname: x\ngenus: 3\ndegree: 4\nh0: 5\npicard-rank: 1\n")
    with pytest.raises(ParseError):
        catalog.loads("[operator]\norder 1, tdeg 1\n0 1\n1 1\n")


def test_loads_rejects_malformed_sections():
    good = catalog.dumps(catalog.builtin("V16"))
    with pytest.raises(ParseError):
        catalog.loads("[bogus]\n" + good)
    with pytest.raises(ParseError):
        catalog.loads(good + "[meta]\n")
    with pytest.raises(ParseError):
        catalog.loads(good.replace("genus: 9", "genus: nine"))
    for bad in ("1_0", "\u0663", "9 9", ""):
        with pytest.raises(ParseError) as info:
            catalog.loads(good.replace("genus: 9", f"genus: {bad}"))
        assert str(info.value) == "line 3: meta key 'genus' must be an integer"
    with pytest.raises(ParseError):
        catalog.loads(good.replace("genus: 9", "genus: 9\ngenus: 9"))
    with pytest.raises(ParseError):
        catalog.loads("stray text\n" + good)
    assert catalog.loads("# leading comment\n" + good) == catalog.builtin("V16")
    with pytest.raises(ParseError):
        catalog.loads(good.replace("genus: 9\n", ""))


def test_loads_reports_file_level_line_numbers():
    text = "[meta]\nname: x\ngenus: 3\ndegree: 4\nh0: 5\npicard-rank: 1\n[operator]\norder 1, tdeg 0\nbad row\n"
    with pytest.raises(ParseError) as info:
        catalog.loads(text)
    assert info.value.line == 9
    assert str(info.value) == "line 9: in [operator]: bad rational 'bad'"


def test_notes_and_model_are_optional():
    rec = catalog.builtin("V16")
    bare = catalog.FanoRecord(
        name="bare",
        genus=rec.genus,
        degree=rec.degree,
        h0=rec.h0,
        picard_rank=rec.picard_rank,
        operator=rec.operator,
    )
    again = catalog.loads(catalog.dumps(bare))
    assert again.model is None
    assert again.derived_operator is None
    assert again.notes == ""
    assert again == bare
