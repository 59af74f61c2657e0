"""Bundled reference records and a small file format for user records.

Three rank-1 Fano threefold records (V16, V18, V22) carry their operators and
candidate toric models exactly as transcribed.  All five builtin records are
stored at the end of this module as catalog-format text, each operator with
its factored form as a comment; `loads`, the reader of user records, reads
them at import time, and a transcription self-check runs on the result.
The V22 record is special: its stored operator is known not to match its
model's series (the mismatch is part of the record, machine readable under
`known-discrepancy`), and a separately labeled derived operator carries the
annihilator recovered by fitting the model's series.

Two toric sample records (P3-sample, product-of-lines-sample) anchor the
polytope invariants; their operators annihilate their models' series and are
derived data, as their notes say.
"""

import warnings
from collections import namedtuple
from fractions import Fraction

from .dseries import DOperator, solve_series
from .laurent import LaurentPoly, ParseError, clip, data_lines, parse_ints


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


def names():
    return tuple(_BUILTINS)


def builtin(name):
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin record {name!r}; known: {', '.join(names())}") from None


def _self_check():
    """Guard against table or model transcription rot, run at import."""
    for record in _BUILTINS.values():
        if record.model is None:
            raise RuntimeError(f"catalog corrupted: builtin record {record.name!r} has no model")
    v16, v18, v22 = builtin("V16"), builtin("V18"), builtin("V22")
    if tuple(solve_series(v16.operator, 2)) != (1, 4, 40):
        raise RuntimeError("catalog corrupted: V16 operator solution prefix changed")
    if tuple(solve_series(v18.operator, 2)) != (1, 3, 27):
        raise RuntimeError("catalog corrupted: V18 operator solution prefix changed")
    if v16.model.coefficient((0, 0, 0)) != 4 or len(v16.model) != 20:
        raise RuntimeError("catalog corrupted: V16 model terms changed")
    if v18.model.coefficient((0, 0, 0)) != 3 or len(v18.model) != 16:
        raise RuntimeError("catalog corrupted: V18 model terms changed")
    if v22.model.coefficient((0, 0, 0)) != 4 or len(v22.model) != 14:
        raise RuntimeError("catalog corrupted: V22 model terms changed")
    if solve_series(v22.operator, 1)[1] != Fraction(32, 5):
        raise RuntimeError("catalog corrupted: V22 stored operator no longer shows"
                           " the recorded discrepancy")


# The record format, in written order: each meta key with its field, and each
# section between [meta] and [notes], free text, with its field and reader.  A
# field with a default in FanoRecord is optional; every required meta key but
# the name is an integer.
_META = (
    ("name", "name"), ("genus", "genus"), ("degree", "degree"), ("h0", "h0"),
    ("picard-rank", "picard_rank"), ("known-discrepancy", "known_discrepancy"),
)
_SECTIONS = (
    ("operator", "operator", DOperator.from_text),
    ("derived-operator", "derived_operator", DOperator.from_text),
    ("model", "model", LaurentPoly.from_text),
)


def dumps(record):
    lines = ["[meta]"]
    lines += [f"{key}: {getattr(record, field)}" for key, field in _META
              if getattr(record, field) is not None]
    for name, field, _ in _SECTIONS:
        if getattr(record, field) is not None:
            lines += [f"[{name}]", getattr(record, field).to_text().rstrip("\n")]
    if record.notes:
        lines += ["[notes]", record.notes]
    return "\n".join(lines) + "\n"


def _parse(text):
    sections = {}
    current = None
    start_line = {}
    known = {"meta", "notes", *(name for name, _, _ in _SECTIONS)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in known:
                raise ParseError(f"unknown section {clip(name)!r}", lineno)
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
    keys = dict(_META)
    for lineno, line in data_lines(section_text("meta")):
        lineno += start_line["meta"]
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in keys:
            raise ParseError(f"bad meta line {clip(line)!r}", lineno)
        if key in meta:
            raise ParseError(f"duplicate meta key {key!r}", lineno)
        meta[key] = (lineno, value.strip())
    fields = {keys[key]: value for key, (_, value) in meta.items()}
    required = [key for key, field in _META if field not in FanoRecord._field_defaults]
    for key in required:
        if key not in meta:
            raise ParseError(f"missing meta key {key!r}", start_line["meta"])
    for key in required[1:]:
        lineno, value = meta[key]
        number = parse_ints(value)
        if number is None or len(number) != 1:
            raise ParseError(f"meta key {key!r} must be an integer", lineno)
        fields[keys[key]] = number[0]

    for name, field, reader in _SECTIONS:
        if name not in sections:
            if field not in FanoRecord._field_defaults:
                raise ParseError(f"missing [{name}] section")
            continue
        try:
            fields[field] = reader(section_text(name))
        except ParseError as exc:
            offset = start_line[name]
            line = offset + exc.line if exc.line is not None else offset
            raise ParseError(f"in [{name}]: {exc.message}", line) from None
    if "notes" in sections:
        fields["notes"] = section_text("notes").strip()
    return FanoRecord(**fields)


def _warn_on_degree(record):
    if record.degree != 2 * record.genus - 2:
        warnings.warn(
            f"record {record.name!r}: degree {record.degree} is not 2*genus-2"
            f" = {2 * record.genus - 2}",
            stacklevel=3,  # the caller of loads or load
        )
    return record


def loads(text):
    return _warn_on_degree(_parse(text))


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return _warn_on_degree(_parse(handle.read()))


# The builtin records in the catalog format, separated by blank lines.  Each
# operator section keeps the operator's factored form as a comment.
_RECORDS = """\
[meta]
name: V16
genus: 9
degree: 16
h0: 11
picard-rank: 1
[operator]
# D^3 - 4t(2D+1)(3D^2+3D+1) + 16t^2(D+1)^3
order 3, tdeg 2
0 0 0 1
-4 -20 -36 -24
16 48 48 16
[model]
# dim 3
1 : -1 -1 -1
2 : -1 -1 0
1 : -1 -1 1
2 : -1 0 -1
3 : -1 0 0
1 : -1 0 1
1 : -1 1 -1
1 : -1 1 0
2 : 0 -1 -1
3 : 0 -1 0
1 : 0 -1 1
3 : 0 0 -1
4 : 0 0 0
1 : 0 0 1
1 : 0 1 -1
1 : 0 1 0
1 : 1 -1 -1
1 : 1 -1 0
1 : 1 0 -1
1 : 1 0 0
[notes]
rank-1 threefold of genus 9; the model's constant-term series solves the stored operator

[meta]
name: V18
genus: 10
degree: 18
h0: 12
picard-rank: 1
[operator]
# D^3 - 3t(2D+1)(3D^2+3D+1) - 27t^2(D+1)^3
order 3, tdeg 2
0 0 0 1
-3 -15 -27 -18
-27 -81 -81 -27
[model]
# dim 3
1 : -1 -1 1
2 : -1 0 0
1 : -1 0 1
1 : -1 1 -1
1 : -1 1 0
2 : 0 -1 0
1 : 0 -1 1
2 : 0 0 -1
3 : 0 0 0
1 : 0 0 1
1 : 0 1 -1
1 : 0 1 0
1 : 1 -1 -1
1 : 1 -1 0
1 : 1 0 -1
1 : 1 0 0
[notes]
rank-1 threefold of genus 10; the model's constant-term series solves the stored operator

[meta]
name: V22
genus: 12
degree: 22
h0: 14
picard-rank: 1
known-discrepancy: stored operator has a_1 = 32/5 but the model series starts 1, 4, 28; no single t-rescaling fixes orders 1 and 2 together; the derived operator is the fit to the model series
[operator]
# D^3 - (2/5)t(2D+1)(17D^2+17D+16) - (56/25)t^2(D+1)(11D^2+22D+12) - (126/125)t^3(D+1)(D+2)(2D+3) - (1504/625)t^4(D+1)(D+2)(D+3)
order 3, tdeg 4
0 0 0 1
-32/5 -98/5 -102/5 -68/5
-672/25 -1904/25 -1848/25 -616/25
-756/125 -1638/125 -1134/125 -252/125
-9024/625 -16544/625 -9024/625 -1504/625
[derived-operator]
# D^3 - 2t(2D+1)(5D^2+5D+2) + 8t^2(D+1)(7D^2+14D+8) - 22t^3(D+1)(D+2)(2D+3)
order 3, tdeg 3
0 0 0 1
-4 -18 -30 -20
64 176 168 56
-132 -286 -198 -44
[model]
# dim 3
1 : -1 -1 0
1 : -1 -1 1
1 : -1 0 0
1 : -1 0 1
1 : 0 -1 0
1 : 0 -1 1
1 : 0 0 -1
4 : 0 0 0
1 : 0 0 1
1 : 0 1 -1
1 : 0 1 0
1 : 1 0 -1
1 : 1 0 0
1 : 1 1 -1
[notes]
rank-1 threefold of genus 12; the stored operator is kept exactly as transcribed and does not annihilate the model series (see known-discrepancy); the derived operator does

[meta]
name: P3-sample
genus: 33
degree: 64
h0: 35
picard-rank: 1
[operator]
# D^3 - 256t^4(D+1)(D+2)(D+3)
order 3, tdeg 4
0 0 0 1
0 0 0 0
0 0 0 0
0 0 0 0
-1536 -2816 -1536 -256
[model]
# dim 3
1 : -1 -1 -1
1 : 0 0 1
1 : 0 1 0
1 : 1 0 0
[notes]
projective 3-space anchor for the polytope invariants; operator derived by fitting the model's series, not transcribed data

[meta]
name: product-of-lines-sample
genus: 25
degree: 48
h0: 27
picard-rank: 3
[operator]
# D^3 - 8t^2(D+1)(5D^2+10D+6) + 144t^4(D+1)(D+2)(D+3)
order 3, tdeg 4
0 0 0 1
0 0 0 0
-48 -128 -120 -40
0 0 0 0
864 1584 864 144
[model]
# dim 3
1 : -1 0 0
1 : 0 -1 0
1 : 0 0 -1
1 : 0 0 1
1 : 0 1 0
1 : 1 0 0
[notes]
triple product of lines, the rank-3 anchor; operator derived by fitting the model's series, not transcribed data
"""

_BUILTINS = {rec.name: rec for rec in map(loads, _RECORDS.split("\n\n"))}
_self_check()
