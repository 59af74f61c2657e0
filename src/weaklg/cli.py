"""Batch command-line front end.

Subcommands mirror the library: series, solve, verify, fit, search, polytope,
catalog.  Reports print as key-value documents by default; --pretty appends a
human table.  Exit codes: 0 success, 1 usage error, 2 bad input, 3 a
verification or expectation mismatch, 4 an empty search.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import catalog as _catalog
from .dseries import DOperator, fit_operator, solve_series, verify_weak_lg
from .laurent import (
    LaurentPoly,
    PowerSeries,
    constant_term_series,
    constant_term_series_mitm,
)
from .polytope import invariant_report, newton_polytope, polytope_from_text
from .search import HeightBoundExceeded, SearchConfig, SupportAnsatz, search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_EMPTY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit."""

    def error(self, message):
        raise _UsageError(message)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _build_parser():
    parser = _Parser(prog="weaklg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("series", help="constant-term series of a Laurent polynomial")
    p.add_argument("-f", "--poly", required=True, metavar="FILE")
    p.add_argument("-N", type=int, default=10, help="truncation order (default 10)")
    p.add_argument("--mitm", action="store_true",
                   help="accepted for compatibility: the one split-power evaluator"
                        " always runs, and the output is the same")

    p = sub.add_parser("solve", help="fundamental solution of an operator")
    p.add_argument("-L", "--operator", required=True, metavar="FILE")
    p.add_argument("-N", type=int, default=10, help="truncation order (default 10)")

    p = sub.add_parser("verify", help="compare a polynomial's series with an operator's")
    p.add_argument("-f", "--poly", metavar="FILE")
    p.add_argument("-L", "--operator", metavar="FILE")
    p.add_argument("--catalog", metavar="NAME",
                   help="take the model and operator from a builtin record")
    p.add_argument("--derived", action="store_true",
                   help="with --catalog, use the record's derived operator")
    p.add_argument("-N", type=int, default=20, help="comparison order (default 20)")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("fit", help="fit annihilating operators to a series prefix")
    p.add_argument("-s", "--series", required=True, metavar="FILE")
    p.add_argument("-m", type=int, required=True, help="operator order in D")
    p.add_argument("-r", type=int, required=True, help="operator degree in t")
    p.add_argument("-N", type=int, default=None,
                   help="series order to constrain against (default: as deep as available)")

    p = sub.add_parser("search", help="mod-p coefficient search over a support ansatz")
    p.add_argument("-a", "--ansatz", required=True, metavar="FILE")
    p.add_argument("-s", "--series", metavar="FILE", help="target series file")
    p.add_argument("-L", "--operator", metavar="FILE",
                   help="target = this operator's fundamental solution")
    p.add_argument("--catalog", metavar="NAME",
                   help="target = the builtin record's operator solution")
    p.add_argument("--prime", type=int, action="append", metavar="P",
                   help="modulus, repeatable (default 7)")
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--verify-depth", type=int, default=8, dest="verify_depth")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("polytope", help="lattice-polytope screening invariants")
    p.add_argument("-p", "--vertices", metavar="FILE", help="vertex list file")
    p.add_argument("-f", "--poly", metavar="FILE",
                   help="use the Newton polytope of this Laurent polynomial")
    p.add_argument("--catalog", metavar="NAME",
                   help="use a builtin record's model (and its expected values)")
    p.add_argument("--expect", metavar="FILE",
                   help="record file with expected degree / h0 / picard-rank")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("catalog", help="list or show the builtin records")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")

    return parser


def _cmd_series(args):
    f = LaurentPoly.from_text(_read(args.poly))
    fn = constant_term_series_mitm if args.mitm else constant_term_series
    sys.stdout.write(fn(f, args.N).to_text())
    return EXIT_OK


def _cmd_solve(args):
    op = DOperator.from_text(_read(args.operator))
    sys.stdout.write(solve_series(op, args.N).to_text())
    return EXIT_OK


def _require(condition, message):
    if not condition:
        raise _UsageError(message)


def _cmd_verify(args):
    record = _catalog.builtin(args.catalog) if args.catalog else None
    _require(args.poly or record, "verify needs -f or --catalog")
    _require(args.operator or record, "verify needs -L or --catalog")
    _require(not args.derived or record, "--derived only applies with --catalog")
    f = LaurentPoly.from_text(_read(args.poly)) if args.poly else record.model
    if args.operator:
        op = DOperator.from_text(_read(args.operator))
    elif args.derived:
        if record.derived_operator is None:
            raise ValueError(f"record {record.name!r} has no derived operator")
        op = record.derived_operator
    else:
        op = record.operator
    report = verify_weak_lg(f, op, args.N)
    sys.stdout.write(report.to_document())
    if args.pretty:
        sys.stdout.write(report.to_table())
    return EXIT_OK if report.confirmed else EXIT_MISMATCH


def _cmd_fit(args):
    series = PowerSeries.from_text(_read(args.series))
    basis = fit_operator(series, args.m, args.r, args.N)
    sys.stdout.write(f"basis-size: {len(basis)}\n")
    for index, op in enumerate(basis):
        sys.stdout.write(f"element: {index}\n")
        sys.stdout.write(op.to_text())
    return EXIT_OK


def _cmd_search(args):
    sources = [s for s in (args.series, args.operator, args.catalog) if s]
    _require(len(sources) == 1, "search needs exactly one of -s, -L, --catalog")
    ansatz = SupportAnsatz.from_text(_read(args.ansatz))
    if args.series:
        target = PowerSeries.from_text(_read(args.series))
    elif args.operator:
        target = solve_series(DOperator.from_text(_read(args.operator)), args.verify_depth)
    else:
        target = solve_series(_catalog.builtin(args.catalog).operator, args.verify_depth)
    config = SearchConfig(
        target=target,
        primes=tuple(args.prime) if args.prime else (7,),
        height=args.height,
        depth=args.depth,
        verify_depth=args.verify_depth,
    )
    if args.threads < 1:
        raise ValueError("threads must be at least 1")
    try:
        result = search(ansatz, config)
    except HeightBoundExceeded as exc:
        sys.stdout.write("matches: 0\n")
        sys.stdout.write(exc.stats.to_document())
        print(f"search stopped: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    sys.stdout.write(f"matches: {len(result.matches)}\n")
    for match in result.matches:
        sys.stdout.write("\n")
        sys.stdout.write(match.to_text())
    sys.stdout.write(result.stats.to_document())
    if not result.matches:
        print("no candidates found", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def _cmd_polytope(args):
    _require(not (args.vertices and args.poly), "pass only one of -p and -f")
    record = _catalog.builtin(args.catalog) if args.catalog else None
    if args.vertices:
        P = polytope_from_text(_read(args.vertices))
    elif args.poly:
        P = newton_polytope(LaurentPoly.from_text(_read(args.poly)))
    elif record is not None:
        P = newton_polytope(record.model)
    else:
        raise _UsageError("polytope needs one of -p, -f, --catalog")
    expected = record
    if args.expect:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = _catalog.load(args.expect)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    report = invariant_report(P, expected)
    sys.stdout.write(report.to_document())
    if args.pretty:
        sys.stdout.write(report.to_table())
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _cmd_catalog(args):
    if args.action == "list":
        _require(args.name is None, "catalog list takes no name")
        for name in _catalog.names():
            sys.stdout.write(name + "\n")
        return EXIT_OK
    _require(args.name is not None, "catalog show needs a record name")
    sys.stdout.write(_catalog.dumps(_catalog.builtin(args.name)))
    return EXIT_OK


_COMMANDS = {
    "series": _cmd_series,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "fit": _cmd_fit,
    "search": _cmd_search,
    "polytope": _cmd_polytope,
    "catalog": _cmd_catalog,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and leaves through argparse
        return int(exc.code or 0)
    if args.command is None:
        print("usage error: a subcommand is required (try --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
