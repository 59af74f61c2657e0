"""The records and the method's inputs are named tuples, and importing the CLI stays cheap.

Every record (FanoRecord, VerificationReport, ClearingReport,
InvariantReport and the six search records) and every input type of the
method (SupportAnsatz, DOperator and RationalPolytope) is a
`collections.namedtuple` subclass.  Validation and normalisation run in
`__new__`, so only the types' own `_replace` and `_make` skip them.
"""

import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import weaklg
from weaklg import catalog
from weaklg.dseries import DOperator, VerificationReport, verify_weak_lg
from weaklg.laurent import ClearingReport, PowerSeries
from weaklg.polytope import InvariantReport, RationalPolytope, convex_hull, dual, picard_rank
from weaklg.search import (
    CoefficientDomain,
    OrbitSpec,
    PrimeStats,
    SearchConfig,
    SearchResult,
    SearchStats,
    SupportAnsatz,
    orbits,
)

from test_trace_contract import _spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = PowerSeries([1, 0, 2, 0, 6, 0, 20, 0, 70])
FREE = CoefficientDomain.free()


def test_importing_the_cli_loads_every_module_and_no_dataclasses():
    script = (
        "import sys, weaklg.cli;"
        " print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis',"
        " 'tokenize') if m in sys.modules)));"
        " print(' '.join(sorted(m for m in sys.modules if m.startswith('weaklg.'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    assert out[0] == ""
    # perfbench/spans.py wraps only modules that are already imported
    loaded = set(out[1].split())
    for name in ("laurent", "linalg", "polytope", "dseries", "search", "catalog"):
        assert f"weaklg.{name}" in loaded


def test_records_construct_by_position_and_keyword():
    assert ClearingReport(True, 4, (1, 1, 1)) == ClearingReport(
        shift=(1, 1, 1), passes=True, cleared_degree=4
    )
    stats = SearchStats((PrimeStats(7, 10, ((1, 3),), 3),), 0, 1, 2)
    assert stats.prime_stats[0].survivor_count == 3
    assert SearchResult(matches=(), stats=stats).stats is stats
    assert OrbitSpec("a", ((1, 0),), CoefficientDomain.free()) == OrbitSpec(
        domain=CoefficientDomain("free"), points=[(1, 0)], label="a"
    )
    config = SearchConfig(TARGET, [5, 7], 3, 2, 4)
    assert config == SearchConfig(target=TARGET, primes=(5, 7), height=3, depth=2,
                                  verify_depth=4)
    assert config.primes == (5, 7)
    report = InvariantReport(True, True, 64, 35, 1, None, None, ())
    assert report.mismatches is None and report.picard_rank == 1
    v16 = catalog.builtin("V16")
    assert (v16.derived_operator, v16.known_discrepancy, v16.notes[:6]) == (None, None, "rank-1")
    assert catalog.FanoRecord("X", 2, 2, 4, 1, v16.operator).notes == ""
    verdict = verify_weak_lg(v16.model, v16.operator, N=4)
    assert isinstance(verdict, VerificationReport)
    assert verdict.confirmed and verdict.quartic == ClearingReport(True, 4, (1, 1, 1))
    # named tuples also compare equal to plain tuples of their fields
    assert ClearingReport(True, 4, (1, 1, 1)) == (True, 4, (1, 1, 1))


def test_record_reprs_keep_their_form():
    assert repr(ClearingReport(True, 4, (1, 1, 1))) == (
        "ClearingReport(passes=True, cleared_degree=4, shift=(1, 1, 1))"
    )
    assert repr(OrbitSpec("a", [(1, 0, 0), (0, 1, 0), (1, 0, 0)], CoefficientDomain.free())) == (
        "OrbitSpec(label='a', points=((0, 1, 0), (1, 0, 0)),"
        " domain=CoefficientDomain(kind='free', values=()))"
    )
    stats = SearchStats((), 0, 1, 2)
    assert repr(SearchResult((), stats)) == (
        "SearchResult(matches=(), stats=SearchStats(prime_stats=(),"
        " residue_combinations=0, lifts_tried=1, exact_matches=2))"
    )
    assert repr(PrimeStats(7, 10, ((1, 3),), 3)) == (
        "PrimeStats(prime=7, enumerated=10, survivors_per_level=((1, 3),), survivor_count=3)"
    )
    assert repr(SearchConfig(TARGET)) == (
        "SearchConfig(target=PowerSeries([1, 0, 2, 0, ...], order=8), primes=(7,),"
        " height=6, depth=4, verify_depth=8)"
    )
    assert repr(InvariantReport(True, True, 64, 35, 1, None, None, ())) == (
        "InvariantReport(canonical=True, reflexive=True, degree=64, sections=35,"
        " picard_rank=1, dual_fan_picard_rank=None, mismatches=None, notes=())"
    )
    assert repr(catalog.builtin("V16")).startswith(
        "FanoRecord(name='V16', genus=9, degree=16, h0=11, picard_rank=1,"
        " operator=DOperator(order=3, t_degree=2), model=LaurentPoly(n=3, terms=20),"
        " derived_operator=None, known_discrepancy=None, notes="
    )


@pytest.mark.parametrize("record, field", [
    (ClearingReport(True, 4, (1, 1, 1)), "passes"),
    (CoefficientDomain.fixed(3), "values"),
    (SearchConfig(TARGET), "height"),
    (SearchStats((), 0, 0, 0), "lifts_tried"),
    (catalog.builtin("V18"), "genus"),
    (catalog.builtin("V18"), "not_a_field"),
    (SupportAnsatz(1, [OrbitSpec("a", [(1,)], FREE)]), "dimension"),
    (DOperator([[0, 1]]), "table"),
    (convex_hull([(-1,), (1,)]), "vertices"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 5)


@pytest.mark.parametrize("build, message", [
    (lambda: CoefficientDomain("free", (1,)), "a free domain carries no values"),
    (lambda: CoefficientDomain("fixed", ()), "a fixed domain needs exactly one value"),
    (lambda: CoefficientDomain("choice", ()), "a choice domain needs at least one value"),
    (lambda: CoefficientDomain.choice(1, Fraction(1, 2)), "choice values must be integers"),
    (lambda: CoefficientDomain("maybe"), "unknown domain kind 'maybe'"),
    (lambda: OrbitSpec("a", (), CoefficientDomain.free()), "orbit 'a' has no points"),
    (lambda: SearchConfig(TARGET, primes=()), "at least one prime is required"),
    (lambda: SearchConfig(TARGET, primes=(5, 5)), "primes must be distinct"),
    (lambda: SearchConfig(TARGET, primes=(4,)), "4 is not prime"),
    (lambda: SearchConfig(TARGET, height=0), "height bound must be at least 1"),
    (lambda: SearchConfig(TARGET, depth=1), "modular depth must be at least 2"),
    (lambda: SearchConfig(TARGET, depth=5, verify_depth=4),
     "verification depth must be at least the modular depth"),
    (lambda: SearchConfig(TARGET, verify_depth=9),
     "target series order 8 is below the verification depth 9"),
    (lambda: SearchConfig(PowerSeries([2] + [0] * 8)),
     "target series must have constant coefficient 1"),
    (lambda: SupportAnsatz(0, [OrbitSpec("a", [(1,)], FREE)]),
     "dimension must be a positive integer"),
    (lambda: SupportAnsatz(1, []), "an ansatz needs at least one orbit"),
    (lambda: SupportAnsatz(1, [OrbitSpec("a", [(1,)], FREE), OrbitSpec("a", [(2,)], FREE)]),
     "duplicate orbit label 'a'"),
    (lambda: SupportAnsatz(2, [OrbitSpec("a", [(1,)], FREE)]),
     "point (1,) does not have dimension 2"),
    (lambda: SupportAnsatz(1, [OrbitSpec("a", [(1,)], FREE), OrbitSpec("b", [(1,)], FREE)]),
     "point (1,) appears in two orbits"),
    (lambda: DOperator([]), "operator table must be nonempty"),
    (lambda: DOperator([[1, 2], [3]]), "operator table rows must all have the same width"),
    (lambda: DOperator([[0, 0], [0, 0]]), "operator table must not be identically zero"),
    (lambda: RationalPolytope(1, [(1,)], []), "a polytope needs vertices and facets"),
    (lambda: RationalPolytope(2, [(1,)], [((1, 0), 1)]), "vertex (1,) does not have dimension 2"),
    (lambda: RationalPolytope(2, [(1, 0)], [((1,), 1)]),
     "facet normal (1,) does not have dimension 2"),
    (lambda: picard_rank(dual(convex_hull([(2,), (-1,)]))), "picard_rank expects a lattice polytope"),
    (lambda: orbits([], []), "no points to partition"),
    (lambda: orbits([(1,), (1, 0)], []), "points have inconsistent dimensions"),
    (lambda: orbits([(1, 0), (0, 1)], [((0, 1),)]), "generator must be a 2x2 integer matrix"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_records_normalise_their_fields():
    fixed = CoefficientDomain.fixed(Fraction(4, 2))
    assert fixed.values == (2,) and type(fixed.values[0]) is int
    assert CoefficientDomain.fixed(Fraction(1, 2)).values == (Fraction(1, 2),)
    assert CoefficientDomain.choice(5, -1, 5, 2).values == (-1, 2, 5)
    spec = OrbitSpec("s", [[1, 0], (0, 1), (1, 0)], CoefficientDomain.free())
    assert spec.points == ((0, 1), (1, 0))
    assert spec.representative == (0, 1)
    assert SearchConfig(TARGET, primes=[11, 7]).primes == (11, 7)


@pytest.mark.parametrize("cls, fields", [
    (SupportAnsatz, ("dimension", "orbits")),
    (DOperator, ("table",)),
    (RationalPolytope, ("dimension", "vertices", "facets")),
])
def test_method_inputs_are_named_tuples_with_validation_only(cls, fields):
    assert issubclass(cls, tuple) and cls._fields == fields
    assert vars(cls)["__slots__"] == ()
    assert not {"__init__", "__eq__", "__hash__"} & set(vars(cls))
    assert "__new__" in vars(cls)


def test_method_inputs_unpack_compare_and_construct_by_keyword():
    spec = OrbitSpec("a", [(1,)], FREE)
    ansatz = SupportAnsatz(1, [spec])
    assert ansatz == SupportAnsatz(orbits=(spec,), dimension=1) == (1, (spec,))
    assert hash(ansatz) == hash((1, (spec,)))
    dimension, orbits = ansatz
    assert (dimension, orbits[0]) == (1, spec) and ansatz.support() == ((1,),)
    op = DOperator(table=[[0, 1], [Fraction(2, 1), 1]])
    assert op == (((0, 1), (2, 1)),) and type(op.table[1][0]) is int
    assert op._replace(table=((0, 1),)).order == 1
    segment = convex_hull([(3,), (-1,), (1,)])
    assert type(segment) is RationalPolytope
    assert segment == RationalPolytope(1, [(-1,), (3,)], [((-1,), 1), ((1,), 3)])
    assert segment[1] == segment.vertices == ((-1,), (3,))
    assert segment._replace(dimension=1) == segment


def test_method_input_reprs():
    assert repr(SupportAnsatz(1, [OrbitSpec("a", [(1,)], FREE)])) == (
        "SupportAnsatz(dimension=1, orbits=(OrbitSpec(label='a', points=((1,),),"
        " domain=CoefficientDomain(kind='free', values=())),))"
    )
    assert repr(DOperator([[0, 1]])) == "DOperator(order=1, t_degree=0)"
    assert repr(convex_hull([(3,), (-1,)])) == (
        "RationalPolytope(dimension=1, vertices=((-1,), (3,)), facets=(((-1,), 1), ((1,), 3)))"
    )


def test_package_all_names_every_module():
    assert sorted(weaklg.__all__) == sorted(m.name for m in pkgutil.iter_modules(weaklg.__path__))


def test_span_counters_read_the_search_result():
    stats = SearchStats(
        (PrimeStats(7, 10, ((1, 3),), 3), PrimeStats(11, 20, ((1, 4),), 4)), 12, 5, 2
    )
    counts = {name: 0 for name in (
        "search.enumerated", "search.survivors", "search.lifts_tried", "search.exact_matches"
    )}
    _spans()._count("search.search", (), SearchResult((), stats), counts)
    assert counts == {
        "search.enumerated": 30,
        "search.survivors": 7,
        "search.lifts_tried": 5,
        "search.exact_matches": 2,
    }
