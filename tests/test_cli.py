import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from weaklg import catalog, laurent
from weaklg.cli import main
from weaklg.dseries import DOperator, solve_series
from weaklg.laurent import LaurentPoly, ParseError, PowerSeries, constant_term_series
from weaklg.polytope import newton_polytope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def v16_files(tmp_path):
    rec = catalog.builtin("V16")
    poly = tmp_path / "v16.poly"
    op = tmp_path / "v16.op"
    poly.write_text(rec.model.to_text())
    op.write_text(rec.operator.to_text())
    return poly, op


def test_series_output_matches_library(v16_files, capsys):
    poly, _ = v16_files
    assert main(["series", "-f", str(poly), "-N", "8"]) == 0
    out = capsys.readouterr().out
    assert out == constant_term_series(catalog.builtin("V16").model, 8).to_text()


def test_series_mitm_flag_changes_nothing(v16_files, capsys):
    poly, _ = v16_files
    main(["series", "-f", str(poly), "-N", "8"])
    plain = capsys.readouterr().out
    main(["series", "-f", str(poly), "-N", "8", "--mitm"])
    assert capsys.readouterr().out == plain


def test_solve_output_matches_library(v16_files, capsys):
    _, op = v16_files
    assert main(["solve", "-L", str(op), "-N", "8"]) == 0
    out = capsys.readouterr().out
    assert out == solve_series(catalog.builtin("V16").operator, 8).to_text()


def test_manual_composition_agrees_with_verify(v16_files, capsys):
    """series and solve outputs compared by hand give the verify verdict."""
    poly, op = v16_files
    main(["series", "-f", str(poly), "-N", "12"])
    from_poly = capsys.readouterr().out
    main(["solve", "-L", str(op), "-N", "12"])
    from_op = capsys.readouterr().out
    assert from_poly == from_op
    code = main(["verify", "-f", str(poly), "-L", str(op), "-N", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: very-weak-confirmed-to-12" in out


def test_manual_composition_detects_the_v22_mismatch(tmp_path, capsys):
    rec = catalog.builtin("V22")
    poly = tmp_path / "v22.poly"
    op = tmp_path / "v22.op"
    poly.write_text(rec.model.to_text())
    op.write_text(rec.operator.to_text())
    main(["series", "-f", str(poly), "-N", "2"])
    from_poly = capsys.readouterr().out
    main(["solve", "-L", str(op), "-N", "2"])
    from_op = capsys.readouterr().out
    assert from_poly != from_op
    assert main(["verify", "-f", str(poly), "-L", str(op)]) == 3
    assert "first-mismatch: 1" in capsys.readouterr().out


def test_verify_catalog_records(capsys):
    assert main(["verify", "--catalog", "V16", "-N", "6"]) == 0
    capsys.readouterr()
    assert main(["verify", "--catalog", "V22", "-N", "6"]) == 3
    out = capsys.readouterr().out
    assert "verdict: mismatch" in out
    assert "first-mismatch: 1" in out


def test_verify_derived_operator_closes_the_gap(capsys):
    assert main(["verify", "--catalog", "V22", "--derived", "-N", "6"]) == 0
    assert "very-weak-confirmed-to-6" in capsys.readouterr().out


def test_verify_derived_without_catalog_is_usage_error(v16_files, capsys):
    poly, op = v16_files
    code = main(["verify", "-f", str(poly), "-L", str(op), "--derived"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_verify_derived_with_an_operator_file_is_usage_error(v16_files, capsys):
    _, op = v16_files
    assert main(["verify", "--catalog", "V22", "--derived", "-L", str(op), "-N", "5"]) == 1
    assert capsys.readouterr() == ("", "usage error: pass only one of -L and --derived\n")


def test_verify_derived_needs_a_derived_operator(capsys):
    assert main(["verify", "--catalog", "V16", "--derived"]) == 2
    assert capsys.readouterr().err == "error: record 'V16' has no derived operator\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "-L", "v16.op", "-N", "-1"], "series order must be nonnegative"),
    (["fit", "-s", "v16.series", "-m", "-1", "-r", "2"],
     "order and t-degree bounds must be nonnegative"),
    (["verify", "--catalog", "V16", "-N", "0"], "verification order must be at least 1"),
    (["solve", "-L", "v16.op", "-N", "100000000"],
     "series order 100000000 is over 4000, the most a solve takes"),
])
def test_out_of_range_depths_and_bounds_exit_2(v16_files, monkeypatch, capsys, argv, message):
    directory = v16_files[1].parent
    series = solve_series(catalog.builtin("V16").operator, 8)
    (directory / "v16.series").write_text(series.to_text())
    monkeypatch.chdir(directory)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_unknown_catalog_name(capsys):
    assert main(["verify", "--catalog", "V99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_pretty_appends_a_table(capsys):
    main(["verify", "--catalog", "V16", "-N", "4", "--pretty"])
    out = capsys.readouterr().out
    assert out.count("verdict:") == 2


def test_fit_recovers_the_generating_operator(tmp_path, capsys):
    op = catalog.builtin("V16").operator
    series = tmp_path / "v16.series"
    series.write_text(solve_series(op, 25).to_text())
    code = main(["fit", "-s", str(series), "-m", "3", "-r", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("basis-size: 1\nelement: 0\n")
    fitted = DOperator.from_text(out.split("element: 0\n", 1)[1])
    assert fitted.table == op.table


def _write_search_inputs(tmp_path, constant, *, domain="free"):
    planted = LaurentPoly(1, {(1,): 1, (-1,): constant})
    series = tmp_path / "target.series"
    series.write_text(constant_term_series(planted, 8).to_text())
    ansatz = tmp_path / "toy.ansatz"
    ansatz.write_text(f"# dim 1\n1 : apex : fixed 1\n-1 : tail : {domain}\n")
    return planted, series, ansatz


def test_search_finds_a_planted_coefficient(tmp_path, capsys):
    planted, series, ansatz = _write_search_inputs(tmp_path, 3)
    argv = [
        "search", "-a", str(ansatz), "-s", str(series),
        "--prime", "7", "--height", "5",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "matches: 1" in first
    body = first.split("\n\n", 1)[1]
    match_text = body[: body.index("prime.")]
    assert LaurentPoly.from_text(match_text) == planted
    assert "lifts-tried:" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_search_with_no_survivors_exits_empty(tmp_path, capsys):
    _, series, ansatz = _write_search_inputs(tmp_path, 3, domain="choice 8")
    code = main(["search", "-a", str(ansatz), "-s", str(series), "--prime", "7"])
    captured = capsys.readouterr()
    assert code == 4
    assert "matches: 0" in captured.out
    assert "no candidates found" in captured.err


def test_search_height_bound_exits_empty_with_stats(tmp_path, capsys):
    _, series, ansatz = _write_search_inputs(tmp_path, 6)
    code = main([
        "search", "-a", str(ansatz), "-s", str(series),
        "--prime", "13", "--height", "5",
    ])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("search stopped:")
    assert "matches: 0" in captured.out
    assert "lifts-tried: 0" in captured.out


def test_dim_headers_in_input_files(tmp_path, capsys):
    plain = tmp_path / "plain.poly"
    plain.write_text("1 : 1\n1 : -1\n")
    noted = tmp_path / "noted.poly"
    noted.write_text("# dimension note\n" + plain.read_text())
    assert main(["series", "-f", str(plain), "-N", "4"]) == 0
    expected = capsys.readouterr().out
    assert main(["series", "-f", str(noted), "-N", "4"]) == 0
    assert capsys.readouterr().out == expected

    noted.write_text("# dim x\n" + plain.read_text())
    assert main(["series", "-f", str(noted), "-N", "4"]) == 2
    assert "line 1: bad dimension declaration" in capsys.readouterr().err

    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    ansatz.write_text(ansatz.read_text().replace("# dim 1", "# dim 0"))
    assert main(["search", "-a", str(ansatz), "-s", str(series), "--prime", "7"]) == 2
    assert "line 1: dimension must be positive" in capsys.readouterr().err


def test_polytope_vertex_file_with_ragged_rows(tmp_path, capsys):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0 0\n0 1\n")
    assert main(["polytope", "-p", str(ragged)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: vertex has 2 coordinates, expected 3\n"


def test_polytope_with_a_huge_coordinate_exits_2(tmp_path, capsys):
    segment = tmp_path / "segment.txt"
    segment.write_text("-1\n99999999999999999999\n")
    assert main(["polytope", "-p", str(segment)]) == 2
    err = capsys.readouterr().err
    assert err == "error: the bounding box holds 100000000000000000001 lattice points, over 1000000\n"


def test_search_ansatz_with_ragged_rows(tmp_path, capsys):
    ragged = tmp_path / "ragged.ansatz"
    ragged.write_text("1 0 0 : a : free\n0 1 : b : free\n")
    assert main(["search", "-a", str(ragged), "--catalog", "V18", "--prime", "7"]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: point has 2 coordinates, expected 3\n"


def test_search_ansatz_with_an_empty_point(tmp_path, capsys):
    empty = tmp_path / "empty.ansatz"
    for text in (" : a : free\n", " : a : free\n1 0 0 : b : free\n"):
        empty.write_text(text)
        assert main(["search", "-a", str(empty), "--catalog", "V18", "--prime", "7"]) == 2
        assert capsys.readouterr().err == "error: line 1: empty point\n"


def test_search_ansatz_with_a_point_in_two_orbits(tmp_path, capsys):
    twice = tmp_path / "twice.ansatz"
    twice.write_text("1 0 0 : a : free\n0 1 0 : b : free\n1 0 0 : b : free\n")
    assert main(["search", "-a", str(twice), "--catalog", "V18", "--prime", "7"]) == 2
    assert capsys.readouterr().err == "error: line 3: point (1, 0, 0) appears in two orbits\n"


def test_operator_with_an_extra_row(tmp_path, capsys):
    extra = tmp_path / "extra.op"
    extra.write_text("order 1, tdeg 1\n1 1\n1 0\n0 1\n")
    assert main(["solve", "-L", str(extra)]) == 2
    assert capsys.readouterr().err == "error: line 4: expected 2 coefficient rows, got 3\n"


def test_operator_with_a_negative_header_number(tmp_path, capsys):
    negative = tmp_path / "negative.op"
    negative.write_text("order -1, tdeg 2\n1\n1\n1\n")
    assert main(["solve", "-L", str(negative)]) == 2
    assert capsys.readouterr().err == "error: line 1: order and tdeg must be nonnegative\n"


@pytest.mark.parametrize("line, message", [
    ("1 : : free", "empty orbit label"),
    ("1 : a :", "missing domain annotation"),
    ("1 : a : free 3", "'free' takes no arguments"),
    ("1 : a : fixed 1 2", "'fixed' takes exactly one value"),
])
def test_search_ansatz_with_a_bad_label_or_domain(tmp_path, capsys, line, message):
    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    ansatz.write_text(f"{line}\n")
    assert main(["search", "-a", str(ansatz), "-s", str(series), "--prime", "7"]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


@pytest.mark.parametrize("token", ["1e-2", "2E1", "1_0", "\u0663", "1/1e1"])
def test_rationals_outside_ascii_p_over_q_exit_2_with_a_line(tmp_path, capsys, token):
    poly = tmp_path / "bad.poly"
    poly.write_text(f"1 : -1 0 0\n{token} : 1 0 0\n")
    assert main(["series", "-f", str(poly), "-N", "2"]) == 2
    assert capsys.readouterr().err == f"error: line 2: bad rational {token!r}\n"
    series = tmp_path / "bad.series"
    series.write_text(f"0 1\n1 {token}\n")
    assert main(["fit", "-s", str(series), "-m", "1", "-r", "0"]) == 2
    assert capsys.readouterr().err == f"error: line 2: bad rational {token!r}\n"
    ansatz = tmp_path / "bad.ansatz"
    ansatz.write_text(f"# dim 3\n1 0 0 : a : fixed {token}\n")
    assert main(["search", "-a", str(ansatz), "--catalog", "V18", "--prime", "7"]) == 2
    assert capsys.readouterr().err == f"error: line 2: bad rational {token!r}\n"


def test_a_huge_field_gives_a_bounded_error_line(tmp_path, capsys):
    """The message keeps the line number and quotes 40 characters of the field."""
    poly = tmp_path / "huge.poly"
    poly.write_text("1 : -1 0 0\n1 : " + "9" * 5000 + " 0 0\n")
    assert main(["series", "-f", str(poly)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: bad exponent vector '" + "9" * 40 + "... (5004 characters)'\n"
    assert len(err) == 99
    series = tmp_path / "huge.series"
    series.write_text("0 1\n1 1e" + "9" * 2998 + "\n")
    assert main(["fit", "-s", str(series), "-m", "1", "-r", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: bad rational '1e" + "9" * 38 + "... (3000 characters)'\n"
    assert len(err) == 92


def test_deep_series_exit_2_at_the_work_or_the_order_bound(tmp_path, capsys, monkeypatch):
    """N=1000 runs until the work bound, lowered here so that it ends at once."""
    monkeypatch.setattr(laurent, "MAX_WORK", 10**5)
    poly = tmp_path / "sparse.poly"
    poly.write_text("1 : 1 0 0\n1 : 0 1 0\n1 : 0 0 1\n1 : -1 -1 -1\n")
    for N, message in (
        ("1000", "series order 1000: f^24: the expansion would pass 100000 units of work"),
        ("100000", "series order 100000 is over 4000, the most a series takes"),
    ):
        start = time.perf_counter()
        assert main(["series", "-f", str(poly), "-N", N]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_series_past_the_order_bound_exit_2_at_once(tmp_path, capsys):
    """These do little or no work at any depth; the order bound stops them before any."""
    for name, text, N in (
        ("zero", "# dim 3\n", "1000000000000"),
        ("constant", "2 : 0 0 0\n", "1000000000000"),
        ("monomial", "1 : 1 0 0\n", "1000000000000"),
        ("line", "1 : 1\n1 : -1\n", "200000"),
    ):
        poly = tmp_path / f"{name}.poly"
        poly.write_text(text)
        start = time.perf_counter()
        assert main(["series", "-f", str(poly), "-N", N]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: series order {N} is over 4000, the most a series takes\n")


def _v18_free_ansatz(tmp_path):
    """The all-free S3-orbit V18 ansatz: 16 points in 5 orbits."""
    support = catalog.builtin("V18").model.support()
    labels = {orbit: k for k, orbit in enumerate(sorted({tuple(sorted(p)) for p in support}))}
    ansatz = tmp_path / "v18-free.ansatz"
    ansatz.write_text("".join(f"{' '.join(map(str, p))} : o{labels[tuple(sorted(p))]} : free\n"
                              for p in support))
    return str(ansatz)


def test_deep_search_exits_2_at_the_work_bound(tmp_path, capsys, monkeypatch):
    """Depth 30 runs until the work bound, lowered here so that it ends at once."""
    monkeypatch.setattr(laurent, "MAX_WORK", 10**6)
    start = time.perf_counter()
    assert main(["search", "-a", _v18_free_ansatz(tmp_path), "--catalog", "V18", "--prime", "7",
                 "--depth", "30", "--verify-depth", "30"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: search depth 30: f^7: the expansion would pass 1000000 units of work\n"
    )


def test_all_free_v18_search_at_depth_17_finds_its_two_matches(tmp_path, capsys):
    """f^9 has 73708 terms, far fewer than its 1307504 multisets of points, C(24, 9)."""
    assert main(["search", "-a", _v18_free_ansatz(tmp_path), "--catalog", "V18", "--prime", "7",
                 "--depth", "17", "--verify-depth", "17"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("matches: 2\n") and out.endswith("exact-matches: 2\n")
    assert out.count("# dim 3\n") == 2


def test_operator_header_counts_past_the_int_to_str_limit(tmp_path, capsys):
    """4300 nines parse, and one more row or coefficient has 4301 digits, which str() refuses."""
    count = "1" + "0" * 39 + "... (4301 characters)"
    for header, message in (
        ("order 0, tdeg " + "9" * 4300, f"error: expected {count} coefficient rows, got 1\n"),
        ("order " + "9" * 4300 + ", tdeg 0", f"error: line 2: expected {count} coefficients, got 1\n"),
    ):
        op = tmp_path / "nines.op"
        op.write_text(header + "\n0\n")
        assert main(["solve", "-L", str(op)]) == 2
        err = capsys.readouterr().err
        assert err == message
        assert len(err) <= 120


def test_deep_solve_prints_coefficients_past_the_int_to_str_limit(v16_files, capsys):
    """V16's a_4000 has over 4300 digits: it prints in full, and the printed
    file is refused with a line when read back."""
    assert main(["solve", "-L", str(v16_files[1]), "-N", "4000"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and len(lines) == 4001
    assert lines[-1].startswith("4000 ") and len(lines[-1]) > 4305
    quoted = r"'\d{40}\.\.\. \(\d+ characters\)'"
    with pytest.raises(ParseError, match=rf"^line \d+: bad rational {quoted}$"):
        PowerSeries.from_text(captured.out)


NINES = "9" * 3000


@pytest.mark.parametrize("name, text, args, message", [
    ("huge.vertices", "".join(f"{s}1{'0' * 1600}\n" for s in "+-"), ["polytope", "-p"],
     "error: the bounding box holds 2000000000000000000000000000000000000000... (1601 characters)"
     " lattice points, over 1000000\n"),
    ("two-free.ansatz", "# dim 1\n1 : a : free\n-1 : b : free\n",
     ["search", "--prime", "7", "--height", NINES, "-s", "SERIES", "-a"],
     "error: 6 residue combinations modulo 7 could need 4897959183673469387755102040816326530612..."
     " (6000 characters) lifts into [-9999999999999999999999999999999999999999... (3000 characters),"
     " 9999999999999999999999999999999999999999... (3000 characters)], more than the 10000000 a"
     " search may try\n"),
    ("short.series", "0 1\n1 0\n2 12\n", ["fit", "-m", NINES, "-r", NINES, "-s"],
     "error: prefix too short: need N >= 1000000000000000000000000000000000000000... (6001"
     " characters) for order 9999999999999999999999999999999999999999... (3000 characters),"
     " t-degree 9999999999999999999999999999999999999999... (3000 characters), got 2\n"),
])
def test_refusals_quote_numbers_past_the_int_to_str_limit(tmp_path, capsys, name, text, args,
                                                            message):
    path = tmp_path / name
    path.write_text(text)
    series = tmp_path / "two-free.series"
    series.write_text("0 1\n1 0\n2 12\n3 0\n4 216\n5 0\n6 4320\n7 0\n8 90720\n")
    argv = [str(series) if arg == "SERIES" else arg for arg in args]
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr() == ("", message)


def test_verify_prints_a_cleared_degree_past_the_int_to_str_limit(tmp_path, v16_files, capsys):
    """x^e + x^-e + y + 1/y + z + 1/z with e = 10^4300 - 1: the exponents
    parse, and the cleared degree 2 * 10^4300 has 4301 digits, which str()
    refuses."""
    nines = "9" * 4300
    poly = tmp_path / "huge.poly"
    poly.write_text(f"# dim 3\n1 : {nines} 0 0\n1 : -{nines} 0 0\n"
                    "1 : 0 1 0\n1 : 0 -1 0\n1 : 0 0 1\n1 : 0 0 -1\n")
    assert main(["verify", "-f", str(poly), "-L", str(v16_files[1]), "-N", "2"]) == 3
    out, err = capsys.readouterr()
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert err == "" and fields["verdict"] == "mismatch"
    assert fields["quartic-cleared-degree"] == "2" + "0" * 4300
    assert fields["quartic-shift"] == nines + " 1 1"


BIG = "1" + "0" * 3000


@pytest.mark.parametrize("argv", [
    # 10^3000 + 1 has the factor 17; 10^2999 + 7 has no factor among the
    # Miller-Rabin bases, so only the primality bound refuses it.
    ["search", "-a", "toy.ansatz", "-s", "v16.series", "--prime", BIG[:-1] + "1"],
    ["search", "-a", "toy.ansatz", "-s", "v16.series", "--prime", BIG[:-2] + "7"],
    ["search", "-a", "toy.ansatz", "-s", "v16.series", "--verify-depth", BIG],
    ["fit", "-s", "v16.series", "-m", "1", "-r", "1", "-N", BIG],
    ["series", "-f", "dim.poly"],
    ["polytope", "-p", "dim.vertices"],
    ["polytope", "-p", "dims.vertices"],
], ids=["composite-prime", "untestable-prime", "verify-depth", "fit-order", "series-dim",
        "polytope-dim", "polytope-dim-header"])
def test_refusals_clip_the_numbers_they_quote(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "toy.ansatz").write_text("# dim 1\n1 : apex : fixed 1\n-1 : tail : free\n")
    (tmp_path / "v16.series").write_text(solve_series(catalog.builtin("V16").operator, 8).to_text())
    (tmp_path / "dim.poly").write_text(f"# dim {BIG}\n1 : 1 2 3\n")
    (tmp_path / "dim.vertices").write_text(f"# dim {BIG}\n1 2 3\n")
    (tmp_path / "dims.vertices").write_text(f"# dim {BIG}\n# dim 3\n1 2 3\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200 and " characters)" in err and "Exceeds the limit" not in err


INT_OPTIONS = {
    "-N": ["series", "-f", "x.poly"],
    "-m": ["fit", "-s", "x.series", "-r", "1"],
    "-r": ["fit", "-s", "x.series", "-m", "1"],
    "--prime": ["search", "-a", "x.ansatz", "-s", "x.series"],
    "--height": ["search", "-a", "x.ansatz", "-s", "x.series"],
    "--depth": ["search", "-a", "x.ansatz", "-s", "x.series"],
    "--verify-depth": ["search", "-a", "x.ansatz", "-s", "x.series"],
    "--threads": ["search", "-a", "x.ansatz", "-s", "x.series"],
}


@pytest.mark.parametrize("option", INT_OPTIONS)
def test_a_refused_integer_option_is_quoted_on_one_short_line(capsys, option):
    argv = INT_OPTIONS[option]
    for token in ("abc", "1e3"):
        assert main([*argv, option, token]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: argument {option}: invalid int value: '{token}'\n")
    assert main([*argv, option, "1" + "0" * 5000]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert err == (f"usage error: argument {option}: invalid int value:"
                   f" '1{'0' * 39}... (5001 characters)'\n")


def test_an_oversized_fit_exits_2_at_once(tmp_path, capsys):
    """m = r = 60 through order 3781 would be 14072822 cells."""
    series = tmp_path / "long.series"
    series.write_text("".join(f"{i} 1\n" for i in range(3782)))
    start = time.perf_counter()
    assert main(["fit", "-s", str(series), "-m", "60", "-r", "60", "-N", "3781"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "error: the fit's system has 14072822 cells,"
                                   " (N + 1)(m + 1)(r + 1), over 200000, the most a fit takes\n")


INTEGER_FIELD_CASES = [
    ("arabic.poly", "1 : \u0661 0 0\n1 : -1 0 0\n", ["series", "-f"], 1),
    ("underscore.poly", "1 : 1 0 0\n1 : -1_0 0 0\n", ["series", "-f"], 2),
    ("choice.ansatz", "1 0 0 : a : choice 1_0 \u0663\n", ["search", "--catalog", "V18", "-a"], 1),
    ("vertices.txt", "1_0 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n", ["polytope", "-p"], 1),
    ("header.op", "order \u0663, tdeg 0\n1 2 3 4\n", ["solve", "-L"], 1),
    ("index.series", "0 1\n\u0661 5\n", ["fit", "-m", "1", "-r", "0", "-s"], 2),
    # Past sys.get_int_max_str_digits() int() refuses the token; without the limit it reads it.
    pytest.param("digits.poly", "1 : 1 0 0\n1 : " + "1" * 5000 + " 0 0\n", ["series", "-f"], 2,
                 id="digits.poly", marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")),
]


@pytest.mark.parametrize("name, text, args, line", INTEGER_FIELD_CASES,
                         ids=[case[0] for case in INTEGER_FIELD_CASES])
def test_integers_outside_ascii_digits_exit_2_with_a_line(tmp_path, capsys, name, text, args,
                                                          line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(args + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_threads_do_not_change_the_result(tmp_path, capsys):
    """`--threads` is accepted and checked, but the search runs in one process."""
    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    argv = ["search", "-a", str(ansatz), "-s", str(series), "--prime", "7", "--height", "5"]
    assert main(argv + ["--threads", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--threads", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert main(argv + ["--threads", "0"]) == 2
    assert capsys.readouterr().err == "error: threads must be at least 1\n"
    assert main(argv + ["--threads", "0", "--height", "0"]) == 2
    assert capsys.readouterr().err == "error: height bound must be at least 1\n"


def test_search_rejects_a_composite_modulus(tmp_path, capsys):
    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    code = main(["search", "-a", str(ansatz), "-s", str(series), "--prime", "6"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_search_refuses_a_modulus_beyond_the_primality_bound(tmp_path, capsys):
    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    bound = "318665857834031151167461"
    code = main(["search", "-a", str(ansatz), "-s", str(series), "--prime", bound])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bound} is too large to test")


@pytest.mark.parametrize("prime", [2**61 - 1, 2**64 - 59])
def test_search_refuses_more_partial_assignments_than_it_may_hold(tmp_path, capsys, prime):
    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    code = main(["search", "-a", str(ansatz), "-s", str(series), "--prime", str(prime)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: level 2 would hold {prime} partial assignments")
    assert "more than the 1000000 a search may hold" in err


def test_search_refuses_more_lifts_than_it_may_try(tmp_path, capsys):
    """Two free orbits at height 10^6 modulo 7 would need about 4.9 * 10^11
    lifts; the search stops with exit 2 before the first one."""
    ansatz = tmp_path / "two-free.ansatz"
    ansatz.write_text("# dim 1\n1 : a : free\n-1 : b : free\n")
    series = tmp_path / "two-free.series"
    series.write_text(constant_term_series(LaurentPoly(1, {(1,): 2, (-1,): 3}), 8).to_text())
    argv = ["search", "-a", str(ansatz), "-s", str(series), "--prime", "7"]
    assert main(argv + ["--height", "5"]) == 0
    assert "lifts-tried: 18\n" in capsys.readouterr().out
    assert main(argv + ["--height", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 6 residue combinations modulo 7 could need 489798367350 lifts into"
        " [-1000000, 1000000], more than the 10000000 a search may try\n"
    )


def test_search_requires_exactly_one_target_source(tmp_path, capsys):
    _, series, ansatz = _write_search_inputs(tmp_path, 3)
    both = main([
        "search", "-a", str(ansatz), "-s", str(series), "--catalog", "V16",
    ])
    assert both == 1
    capsys.readouterr()
    assert main(["search", "-a", str(ansatz)]) == 1


def test_polytope_from_vertex_file(tmp_path, capsys):
    verts = tmp_path / "octa.verts"
    verts.write_text("1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n")
    assert main(["polytope", "-p", str(verts)]) == 0
    out = capsys.readouterr().out
    assert "degree: 48" in out
    assert "sections: 27" in out
    assert "picard-rank: 3" in out
    assert "picard-rank-dual-fan: 1" in out


def test_polytope_from_a_four_dimensional_vertex_file(tmp_path, capsys):
    """The 4-D cross-polytope: its face fan is that of (P^1)^4."""
    axes = [[s * int(i == j) for j in range(4)] for i in range(4) for s in (1, -1)]
    verts = tmp_path / "cross4.verts"
    verts.write_text("".join(" ".join(map(str, v)) + "\n" for v in axes))
    assert main(["polytope", "-p", str(verts)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        "canonical: true\n"
        "reflexive: true\n"
        "degree: 384\n"
        "sections: 81\n"
        "picard-rank: 4\n"
        "picard-rank-dual-fan: 1\n"
        "note: face fans over the polytope and over its dual give different"
        " picard ranks (4 vs 1); both are reported\n"
    )


def test_polytope_from_a_six_dimensional_vertex_file(tmp_path, capsys):
    """The 6-D cross-polytope, whose hull needs 5x5 and 6x6 determinants."""
    axes = [[s * int(i == j) for j in range(6)] for i in range(6) for s in (1, -1)]
    verts = tmp_path / "cross6.verts"
    verts.write_text("".join(" ".join(map(str, v)) + "\n" for v in axes))
    assert main(["polytope", "-p", str(verts)]) == 0
    out = capsys.readouterr().out
    assert "degree: 46080\n" in out
    assert "sections: 729\n" in out
    assert "picard-rank: 6\n" in out


def test_polytope_catalog_expectations_can_mismatch(tmp_path, capsys):
    poly = tmp_path / "p3.poly"
    poly.write_text(catalog.builtin("P3-sample").model.to_text())
    code = main(["polytope", "-f", str(poly), "--catalog", "V16"])
    out = capsys.readouterr().out
    assert code == 3
    assert "matches-expected: false" in out
    assert "mismatch.degree: expected 16, computed 64" in out


def test_polytope_catalog_self_report_is_clean(capsys):
    assert main(["polytope", "--catalog", "V18"]) == 0
    out = capsys.readouterr().out
    assert "matches-expected: true" in out
    assert "degree: 18" in out


def test_polytope_expect_file_overrides_catalog(tmp_path, capsys):
    rec = catalog.builtin("V16")._replace(name="wrong", degree=60, h0=33, genus=31)
    expect = tmp_path / "wrong.rec"
    expect.write_text(catalog.dumps(rec))
    code = main(["polytope", "--catalog", "V16", "--expect", str(expect)])
    out = capsys.readouterr().out
    assert code == 3
    assert "mismatch.degree: expected 60, computed 16" in out


@pytest.mark.parametrize("filters", [None, "error"])
def test_record_warning_is_one_plain_stderr_line(tmp_path, filters):
    """Also under PYTHONWARNINGS=error: the warning is reported, not raised."""
    bad = tmp_path / "bad.rec"
    bad.write_text(catalog.dumps(catalog.builtin("V16")._replace(degree=17)))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONWARNINGS", None)
    if filters:
        env["PYTHONWARNINGS"] = filters
    run = subprocess.run(
        [sys.executable, "-m", "weaklg.cli", "polytope", "--catalog", "V16", "--expect", "bad.rec"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 3
    assert "mismatch.degree: expected 17, computed 16\n" in run.stdout
    assert run.stderr == "warning: record 'V16': degree 17 is not 2*genus-2 = 16\n"


def test_expect_record_with_a_bad_meta_line(tmp_path, capsys):
    bad = tmp_path / "bad-meta.rec"
    bad.write_text(catalog.dumps(catalog.builtin("V16")).replace("genus: 9", "genus 9"))
    assert main(["polytope", "--catalog", "V16", "--expect", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: bad meta line 'genus 9'\n")


def test_polytope_source_usage_errors(tmp_path, v16_files, capsys):
    poly, _ = v16_files
    verts = tmp_path / "v.verts"
    verts.write_text("1 0 0\n")
    assert main(["polytope", "-p", str(verts), "-f", str(poly)]) == 1
    capsys.readouterr()
    assert main(["polytope"]) == 1


def test_catalog_list_and_show(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == list(catalog.names())
    assert main(["catalog", "show", "V16"]) == 0
    assert capsys.readouterr().out == catalog.dumps(catalog.builtin("V16"))


def test_catalog_usage_and_unknown_name(capsys):
    assert main(["catalog", "show"]) == 1
    capsys.readouterr()
    assert main(["catalog", "list", "V16"]) == 1
    capsys.readouterr()
    assert main(["catalog", "show", "V99"]) == 2


def test_bad_input_files_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.poly"
    empty.write_text("")
    assert main(["series", "-f", str(empty)]) == 2
    capsys.readouterr()
    assert main(["series", "-f", str(tmp_path / "absent.poly")]) == 2
    capsys.readouterr()
    degenerate = tmp_path / "bad.op"
    degenerate.write_text("order 1, tdeg 1\n0 0\n1 1\n")
    assert main(["solve", "-L", str(degenerate)]) == 2
    assert "error:" in capsys.readouterr().err


def test_operators_with_nonzero_p0_at_zero_exit_2(tmp_path, capsys):
    poly, op, ansatz = tmp_path / "x.poly", tmp_path / "c.op", tmp_path / "x.ansatz"
    poly.write_text("# dim 1\n1 : 1\n")
    op.write_text("order 1, tdeg 0\n1 0\n")
    ansatz.write_text("# dim 1\n1 : a : free\n")
    for argv in (["verify", "-f", str(poly), "-L", str(op), "-N", "4"],
                 ["solve", "-L", str(op), "-N", "4"],
                 ["search", "-a", str(ansatz), "-L", str(op)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: P_0(0) = 1, not 0: no series with a_0 = 1 is annihilated\n"


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["series"]) == 1
    capsys.readouterr()
    assert main(["series", "--bogus"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "series" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["catalog", "list"],
    ["catalog", "show", "V22"],
    ["verify", "--catalog", "V16", "-N", "4"],
    ["verify", "--catalog", "V22", "--derived", "-N", "4"],
    ["search", "-a", "{tmp}/v16.ansatz", "--catalog", "V16", "--depth", "2", "--verify-depth", "4"],
    ["polytope", "-p", "{tmp}/v16.vertices", "--expect", "{tmp}/bad.rec"],
], ids=["catalog-list", "catalog-show", "verify", "verify-derived", "search", "polytope-expect"])
def test_a_fresh_process_imports_the_catalog_where_a_record_is_read(tmp_path, capsys, argv):
    """`weaklg.cli` imports the catalog only in the commands that read a record.

    Here the test module has it imported already, so each command runs in a
    fresh interpreter too, under PYTHONWARNINGS=error, and must print and exit
    as `main` does in this process.
    """
    v16 = catalog.builtin("V16")
    terms = [line.split(" : ") for line in v16.model.to_text().splitlines()[1:]]
    (tmp_path / "v16.ansatz").write_text("".join(  # the constant term is searched for
        f"{e} : o{k} : {'free' if e == '0 0 0' else f'fixed {c}'}\n" for k, (c, e) in enumerate(terms)))
    vertices = newton_polytope(v16.model).vertices
    (tmp_path / "v16.vertices").write_text("".join(" ".join(map(str, v)) + "\n" for v in vertices))
    (tmp_path / "bad.rec").write_text(catalog.dumps(v16._replace(degree=17)))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONWARNINGS="error")
    run = subprocess.run([sys.executable, "-m", "weaklg.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert (run.stdout, run.stderr, run.returncode) == (out, err, code)
    assert out
