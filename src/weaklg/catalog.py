"""Bundled reference records and a small file format for user records.

Three rank-1 Fano threefold records (V16, V18, V22) carry their operators and
candidate toric models exactly as transcribed; the tables are expanded from
the factored presentations at import time with exact arithmetic, and a
transcription self-check runs on import.  The V22 record is special: its
stored operator is known not to match its model's series (the mismatch is
part of the record, machine readable under `known-discrepancy`), and a
separately labeled derived operator carries the annihilator recovered by
fitting the model's series.

Two toric sample records (P3-sample, product-of-lines-sample) anchor the
polytope invariants; their operators annihilate their models' series and are
derived data, as their notes say.
"""

from __future__ import annotations

import itertools
import warnings
from collections import namedtuple
from fractions import Fraction

from .dseries import DOperator, solve_series
from .laurent import LaurentPoly, ParseError, data_lines, parse_ints


class FanoRecord(namedtuple(
    "FanoRecord",
    "name genus degree h0 picard_rank operator model derived_operator"
    " known_discrepancy notes",
    defaults=(None, None, None, ""),
)):
    """Named Fano data: numerical invariants, operator, optional toric model.

    `operator` and `derived_operator` are DOperators, `model` a LaurentPoly,
    and `known_discrepancy` a string; the last three may be None.
    """

    __slots__ = ()


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _row(scale, factors, width):
    """Expand scale * product(factors) into a width-padded coefficient row.

    Factors are polynomials in D as ascending coefficient lists, so
    (2D+1)(3D^2+3D+1) is _row(1, [[1, 2], [1, 3, 3]], 4).
    """
    poly = [1]
    for f in factors:
        poly = _poly_mul(poly, f)
    poly = [Fraction(scale) * x for x in poly]
    if len(poly) > width:
        raise ValueError("operator row wider than declared order")
    return poly + [0] * (width - len(poly))


def _zero_row(width):
    return [0] * width


def _sym3(*pattern):
    """All distinct permutations of a length-3 exponent pattern."""
    return sorted(set(itertools.permutations(pattern)))


def _build_v16_model():
    terms = {(-1, -1, -1): 1, (0, 0, 0): 4}
    for p in _sym3(-1, -1, 0):
        terms[p] = 2
    for p in _sym3(-1, 0, 0):
        terms[p] = 3
    for p in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        terms[p] = 1
    for p in _sym3(1, -1, 0):
        terms[p] = 1
    for p in _sym3(1, 0, 0):
        terms[p] = 1
    return LaurentPoly(3, terms)


def _build_v18_model():
    terms = {(0, 0, 0): 3}
    for p in _sym3(-1, 0, 0):
        terms[p] = 2
    for p in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        terms[p] = 1
    for p in _sym3(1, -1, 0):
        terms[p] = 1
    for p in _sym3(1, 0, 0):
        terms[p] = 1
    return LaurentPoly(3, terms)


def _build_v22_model():
    points = [
        (1, 1, -1),
        (0, 1, -1),
        (1, 0, -1),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, -1),
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, 1),
        (-1, -1, 0),
        (-1, 0, 1),
        (0, -1, 1),
        (-1, -1, 1),
    ]
    terms = {p: 1 for p in points}
    terms[(0, 0, 0)] = 4
    return LaurentPoly(3, terms)


def _build_builtins():
    w = 4
    op16 = DOperator(
        [
            _row(1, [[0, 0, 0, 1]], w),
            _row(-4, [[1, 2], [1, 3, 3]], w),
            _row(16, [[1, 1], [1, 1], [1, 1]], w),
        ]
    )
    op18 = DOperator(
        [
            _row(1, [[0, 0, 0, 1]], w),
            _row(-3, [[1, 2], [1, 3, 3]], w),
            _row(-27, [[1, 1], [1, 1], [1, 1]], w),
        ]
    )
    op22_printed = DOperator(
        [
            _row(1, [[0, 0, 0, 1]], w),
            _row(Fraction(-2, 5), [[1, 2], [16, 17, 17]], w),
            _row(Fraction(-56, 25), [[1, 1], [12, 22, 11]], w),
            _row(Fraction(-126, 125), [[1, 1], [2, 1], [3, 2]], w),
            _row(Fraction(-1504, 625), [[1, 1], [2, 1], [3, 1]], w),
        ]
    )
    op22_derived = DOperator(
        [
            _row(1, [[0, 0, 0, 1]], w),
            _row(-2, [[1, 2], [2, 5, 5]], w),
            _row(8, [[1, 1], [8, 14, 7]], w),
            _row(-22, [[1, 1], [2, 1], [3, 2]], w),
        ]
    )
    op_p3 = DOperator(
        [
            _row(1, [[0, 0, 0, 1]], w),
            _zero_row(w),
            _zero_row(w),
            _zero_row(w),
            _row(-256, [[1, 1], [2, 1], [3, 1]], w),
        ]
    )
    op_lines = DOperator(
        [
            _row(1, [[0, 0, 0, 1]], w),
            _zero_row(w),
            _row(-8, [[1, 1], [6, 10, 5]], w),
            _zero_row(w),
            _row(144, [[1, 1], [2, 1], [3, 1]], w),
        ]
    )
    p3_model = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    lines_model = LaurentPoly(
        3,
        {
            (1, 0, 0): 1,
            (-1, 0, 0): 1,
            (0, 1, 0): 1,
            (0, -1, 0): 1,
            (0, 0, 1): 1,
            (0, 0, -1): 1,
        },
    )
    records = [
        FanoRecord(
            name="V16",
            genus=9,
            degree=16,
            h0=11,
            picard_rank=1,
            operator=op16,
            model=_build_v16_model(),
            notes="rank-1 threefold of genus 9; the model's constant-term series"
            " solves the stored operator",
        ),
        FanoRecord(
            name="V18",
            genus=10,
            degree=18,
            h0=12,
            picard_rank=1,
            operator=op18,
            model=_build_v18_model(),
            notes="rank-1 threefold of genus 10; the model's constant-term series"
            " solves the stored operator",
        ),
        FanoRecord(
            name="V22",
            genus=12,
            degree=22,
            h0=14,
            picard_rank=1,
            operator=op22_printed,
            model=_build_v22_model(),
            derived_operator=op22_derived,
            known_discrepancy="stored operator has a_1 = 32/5 but the model series"
            " starts 1, 4, 28; no single t-rescaling fixes orders 1 and 2 together;"
            " the derived operator is the fit to the model series",
            notes="rank-1 threefold of genus 12; the stored operator is kept exactly"
            " as transcribed and does not annihilate the model series (see"
            " known-discrepancy); the derived operator does",
        ),
        FanoRecord(
            name="P3-sample",
            genus=33,
            degree=64,
            h0=35,
            picard_rank=1,
            operator=op_p3,
            model=p3_model,
            notes="projective 3-space anchor for the polytope invariants; operator"
            " derived by fitting the model's series, not transcribed data",
        ),
        FanoRecord(
            name="product-of-lines-sample",
            genus=25,
            degree=48,
            h0=27,
            picard_rank=3,
            operator=op_lines,
            model=lines_model,
            notes="triple product of lines, the rank-3 anchor; operator derived by"
            " fitting the model's series, not transcribed data",
        ),
    ]
    return {rec.name: rec for rec in records}


_BUILTINS = _build_builtins()


def names():
    return tuple(_BUILTINS)


def builtin(name):
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin record {name!r}; known: {', '.join(names())}") from None


def _self_check():
    """Guard against table or model transcription rot, run at import."""
    v16, v18, v22 = builtin("V16"), builtin("V18"), builtin("V22")
    if tuple(solve_series(v16.operator, 2)) != (1, 4, 40):
        raise RuntimeError("catalog corrupted: V16 operator solution prefix changed")
    if tuple(solve_series(v18.operator, 2)) != (1, 3, 27):
        raise RuntimeError("catalog corrupted: V18 operator solution prefix changed")
    if v16.model.constant_term() != 4 or len(v16.model) != 20:
        raise RuntimeError("catalog corrupted: V16 model terms changed")
    if v18.model.constant_term() != 3 or len(v18.model) != 16:
        raise RuntimeError("catalog corrupted: V18 model terms changed")
    if v22.model.constant_term() != 4 or len(v22.model) != 14:
        raise RuntimeError("catalog corrupted: V22 model terms changed")
    if solve_series(v22.operator, 1)[1] != Fraction(32, 5):
        raise RuntimeError("catalog corrupted: V22 stored operator no longer shows"
                           " the recorded discrepancy")


_self_check()


_META_KEYS = ("name", "genus", "degree", "h0", "picard-rank", "known-discrepancy")
_SECTIONS = ("meta", "operator", "derived-operator", "model", "notes")


def dumps(record):
    lines = ["[meta]"]
    lines.append(f"name: {record.name}")
    lines.append(f"genus: {record.genus}")
    lines.append(f"degree: {record.degree}")
    lines.append(f"h0: {record.h0}")
    lines.append(f"picard-rank: {record.picard_rank}")
    if record.known_discrepancy is not None:
        lines.append(f"known-discrepancy: {record.known_discrepancy}")
    lines.append("[operator]")
    lines.append(record.operator.to_text().rstrip("\n"))
    if record.derived_operator is not None:
        lines.append("[derived-operator]")
        lines.append(record.derived_operator.to_text().rstrip("\n"))
    if record.model is not None:
        lines.append("[model]")
        lines.append(record.model.to_text().rstrip("\n"))
    if record.notes:
        lines.append("[notes]")
        lines.append(record.notes)
    return "\n".join(lines) + "\n"


def loads(text):
    sections = {}
    current = None
    start_line = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {name!r}", lineno)
            if name in sections:
                raise ParseError(f"duplicate section {name!r}", lineno)
            sections[name] = []
            start_line[name] = lineno
            current = name
            continue
        if current is None:
            if line and not line.startswith("#"):
                raise ParseError("content before the [meta] section", lineno)
            continue
        sections[current].append(raw)
    if "meta" not in sections:
        raise ParseError("missing [meta] section")

    def section_text(name):
        return "\n".join(sections[name])

    meta = {}
    for lineno, line in data_lines(section_text("meta")):
        lineno += start_line["meta"]
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _META_KEYS:
            raise ParseError(f"bad meta line {line!r}", lineno)
        if key in meta:
            raise ParseError(f"duplicate meta key {key!r}", lineno)
        meta[key] = (lineno, value.strip())
    for key in ("name", "genus", "degree", "h0", "picard-rank"):
        if key not in meta:
            raise ParseError(f"missing meta key {key!r}", start_line["meta"])
    numbers = {}
    for key in ("genus", "degree", "h0", "picard-rank"):
        lineno, value = meta[key]
        number = parse_ints(value)
        if number is None or len(number) != 1:
            raise ParseError(f"meta key {key!r} must be an integer", lineno)
        numbers[key] = number[0]
    if "operator" not in sections:
        raise ParseError("missing [operator] section")

    def parse_section(name, parser):
        try:
            return parser(section_text(name))
        except ParseError as exc:
            offset = start_line[name]
            line = offset + exc.line if exc.line is not None else offset
            raise ParseError(f"in [{name}]: {exc.message}", line) from None

    operator = parse_section("operator", DOperator.from_text)
    derived = (
        parse_section("derived-operator", DOperator.from_text)
        if "derived-operator" in sections
        else None
    )
    model = (
        parse_section("model", LaurentPoly.from_text) if "model" in sections else None
    )
    notes = section_text("notes").strip() if "notes" in sections else ""
    record = FanoRecord(
        name=meta["name"][1],
        genus=numbers["genus"],
        degree=numbers["degree"],
        h0=numbers["h0"],
        picard_rank=numbers["picard-rank"],
        operator=operator,
        model=model,
        derived_operator=derived,
        known_discrepancy=meta["known-discrepancy"][1] if "known-discrepancy" in meta else None,
        notes=notes,
    )
    if record.degree != 2 * record.genus - 2:
        warnings.warn(
            f"record {record.name!r}: degree {record.degree} is not 2*genus-2"
            f" = {2 * record.genus - 2}",
            stacklevel=2,
        )
    return record


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def save(record, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(record))
