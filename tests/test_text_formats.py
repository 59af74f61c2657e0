"""Property tests for the shared text layer behind every input format.

Each format round-trips through its writer, arbitrary text fails only with
ValueError (which the CLI turns into exit 2), and every integer field obeys
the ASCII rule [+-]?[0-9]+ with the offending line in the message.
"""

import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weaklg import catalog  # noqa: E402
from weaklg.dseries import DOperator  # noqa: E402
from weaklg.laurent import LaurentPoly, ParseError, PowerSeries, parse_ints  # noqa: E402
from weaklg.polytope import convex_hull, polytope_from_text  # noqa: E402
from weaklg.search import CoefficientDomain, OrbitSpec, SupportAnsatz  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, database=None)

rationals = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(max_denominator=10**6),
)
nonzero = rationals.filter(bool)


def points(n, box=5):
    return st.tuples(*[st.integers(-box, box)] * n)


@st.composite
def laurent_polys(draw):
    n = draw(st.integers(1, 4))
    return LaurentPoly(n, draw(st.dictionaries(points(n), nonzero, max_size=8)))


@st.composite
def operators(draw):
    m, r = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    table = draw(st.lists(st.lists(rationals, min_size=m + 1, max_size=m + 1),
                          min_size=r + 1, max_size=r + 1).filter(lambda t: any(map(any, t))))
    return DOperator(table)


domains = st.one_of(
    st.just(CoefficientDomain.free()),
    rationals.map(CoefficientDomain.fixed),
    st.lists(st.integers(-50, 50), min_size=1, max_size=4).map(
        lambda vs: CoefficientDomain.choice(*vs)),
)


@st.composite
def ansatze(draw):
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(points(n), min_size=1, max_size=8, unique=True))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=len(pts), max_size=len(pts)))
    groups = {}
    for p, label in zip(pts, labels):
        groups.setdefault(label, []).append(p)
    return SupportAnsatz(n, [OrbitSpec(label, group, draw(domains))
                             for label, group in groups.items()])


SIMPLEX = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


@SETTINGS
@given(laurent_polys())
def test_laurent_poly_round_trips(f):
    assert LaurentPoly.from_text(f.to_text()) == f


@SETTINGS
@given(st.lists(rationals, min_size=1, max_size=12))
def test_power_series_round_trips(coeffs):
    s = PowerSeries(coeffs)
    assert PowerSeries.from_text(s.to_text()) == s


@SETTINGS
@given(operators())
def test_operator_round_trips(op):
    assert DOperator.from_text(op.to_text()) == op


@SETTINGS
@given(ansatze())
def test_ansatz_round_trips(ansatz):
    assert SupportAnsatz.from_text(ansatz.to_text()) == ansatz


@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(points(3, box=3), max_size=8))
def test_vertex_file_round_trips(extra):
    P = convex_hull(SIMPLEX + extra)
    Q = polytope_from_text(P.to_text())
    assert Q.vertices == P.vertices and Q == P


@SETTINGS
@given(st.integers(1, 60), st.integers(0, 60), st.text("abcxyz -", min_size=1, max_size=10),
       st.one_of(st.none(), st.text("abc .", min_size=1, max_size=20)), operators())
def test_catalog_record_round_trips(genus, h0, name, discrepancy, op):
    name = name.strip() or "x"
    record = catalog.FanoRecord(
        name=name, genus=genus, degree=2 * genus - 2, h0=h0, picard_rank=1,
        operator=op, known_discrepancy=discrepancy and discrepancy.strip() or None,
    )
    assert catalog.loads(catalog.dumps(record)) == record


PARSERS = [
    LaurentPoly.from_text,
    PowerSeries.from_text,
    DOperator.from_text,
    SupportAnsatz.from_text,
    polytope_from_text,
    catalog.loads,
]

hostile_text = st.text(
    st.one_of(
        st.sampled_from(list("0123456789 -+/:#_\n\t,[]dimordertgfxc") + ["٣", "１"]),
        st.characters(),
    ),
    max_size=80,
)


@pytest.mark.parametrize("parse", PARSERS, ids=lambda p: p.__qualname__)
@SETTINGS
@given(text=hostile_text)
def test_arbitrary_text_raises_only_value_error(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            parse(text)
        except ValueError:
            pass


ascii_digits = st.text("0123456789", max_size=3)
other_digits = st.characters(categories=["Nd"]).filter(lambda c: not "0" <= c <= "9")
not_ascii_integers = st.one_of(
    st.tuples(st.sampled_from(["", "-", "+"]), st.integers(0, 999), st.integers(0, 999)).map(
        lambda t: f"{t[0]}{t[1]}_{t[2]}"),
    st.tuples(ascii_digits, other_digits, ascii_digits).map("".join),
)

V16_RECORD = catalog.dumps(catalog.builtin("V16"))

# (parser, text with one integer field left as {}, the line that holds it)
INTEGER_FIELDS = {
    "poly exponent": (LaurentPoly.from_text, "1 : -1 0 0\n1 : {} 0 0\n", 2),
    "poly dim": (LaurentPoly.from_text, "# dim {}\n1 : 1 0 0\n", 1),
    "series index": (PowerSeries.from_text, "0 1\n{} 5\n", 2),
    "operator order": (DOperator.from_text, "order {}, tdeg 0\n1 2\n", 1),
    "operator tdeg": (DOperator.from_text, "# note\norder 1, tdeg {}\n1 2\n", 2),
    "ansatz point": (SupportAnsatz.from_text, "# dim 3\n1 0 {} : a : free\n", 2),
    "ansatz choice": (SupportAnsatz.from_text, "1 0 0 : a : choice 1 {}\n", 1),
    "ansatz dim": (SupportAnsatz.from_text, "# dim {}\n1 0 0 : a : free\n", 1),
    "vertex row": (polytope_from_text, "1 0 0\n\n{} 1 0\n", 3),
    "vertex dim": (polytope_from_text, "# dim {}\n1 0 0\n", 1),
    "meta genus": (catalog.loads, V16_RECORD.replace("genus: 9", "genus: {}"), 3),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@SETTINGS
@given(token=not_ascii_integers)
def test_integer_fields_reject_everything_but_ascii_digits(field, token):
    parse, template, line = INTEGER_FIELDS[field]
    with pytest.raises(ParseError) as info:
        parse(template.replace("{}", token))
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


def test_parse_ints_reads_signed_ascii_integers_only():
    assert parse_ints(" -3 +4\t0 ") == (-3, 4, 0)
    assert parse_ints("") == ()
    for field in ("1_0", "٣", "1 2.0", "1e3", "0x1", "--1", "1/2"):
        assert parse_ints(field) is None
