"""Differential operators L = sum_j t^j P_j(D) with D = t d/dt.

Acting on t^i, the summand t^j P_j(D) produces P_j(i) t^(i+j), so L is a
triangular recurrence on series coefficients: requiring L s = 0 at order k
gives sum_{j=0..min(k,r)} P_j(k-j) s_{k-j} = 0.  The module solves that
recurrence, applies operators to series, fits operators to series prefixes by
exact nullspace computation, and runs the end-to-end comparison between a
Laurent polynomial's constant-term series and an operator's fundamental
solution.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb

from . import linalg, polytope
from .laurent import (
    MAX_SERIES_ORDER,
    ParseError,
    PowerSeries,
    clip,
    constant_term_series,
    data_lines,
    format_rational,
    normalize_rational,
    parse_ints,
    parse_rational,
    quartic_compactification_check,
)


class IndicialObstruction(ValueError):
    """P_0 vanishes at a positive integer k, so a_k is not determined."""

    def __init__(self, k):
        super().__init__(f"P_0({k}) = 0: coefficient a_{k} is not determined by the recurrence")
        self.k = k


class DOperator(namedtuple("DOperator", "table")):
    """Operator table c[j][l]: row j holds the D-coefficients of P_j.

    The table is rectangular with r+1 rows and m+1 columns, where r is the
    t-degree and m the order in D.  P_0 may be identically zero in a fitted
    basis element (such as a t-multiple of a shorter operator); solving
    requires a nonzero P_0 and checks for it then.
    """

    __slots__ = ()

    def __new__(cls, table):
        rows = tuple(tuple(normalize_rational(x) for x in row) for row in table)
        if not rows or not rows[0]:
            raise ValueError("operator table must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("operator table rows must all have the same width")
        if not any(any(row) for row in rows):
            raise ValueError("operator table must not be identically zero")
        return super().__new__(cls, rows)

    @property
    def order(self):
        """Degree in D (table width minus one)."""
        return len(self.table[0]) - 1

    @property
    def t_degree(self):
        """Degree in t (table height minus one)."""
        return len(self.table) - 1

    def p_value(self, j, k):
        """P_j evaluated at the integer k."""
        acc = 0
        for c in reversed(self.table[j]):
            acc = acc * k + c
        return normalize_rational(acc)

    def is_scalar_multiple(self, other):
        """True when the two tables agree up to one nonzero rational factor:
        neither table is zero, so their flattened rows have rank 1."""
        return ((self.order, self.t_degree) == (other.order, other.t_degree)
                and linalg.rank([sum(self.table, ()), sum(other.table, ())]) == 1)

    def __repr__(self):
        return f"DOperator(order={self.order}, t_degree={self.t_degree})"

    def to_text(self):
        lines = [f"order {self.order}, tdeg {self.t_degree}"]
        for row in self.table:
            lines.append(" ".join(format_rational(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        header = None
        rows = []
        for lineno, line in data_lines(text):
            if header is None:
                parts = line.replace(",", " ").split()
                if len(parts) != 4 or parts[0] != "order" or parts[2] != "tdeg":
                    raise ParseError("expected header 'order m, tdeg r'", lineno)
                header = parse_ints(f"{parts[1]} {parts[3]}")
                if header is None:
                    raise ParseError("bad header numbers", lineno)
                if min(header) < 0:
                    raise ParseError("order and tdeg must be nonnegative", lineno)
                continue
            if len(rows) > header[1]:
                raise ParseError(
                    f"expected {clip(header[1] + 1)} coefficient rows, got {len(rows) + 1}",
                    lineno,
                )
            values = [parse_rational(tok, lineno) for tok in line.split()]
            if len(values) != header[0] + 1:
                raise ParseError(
                    f"expected {clip(header[0] + 1)} coefficients, got {len(values)}", lineno
                )
            rows.append(values)
        if header is None:
            raise ParseError("empty operator input")
        if len(rows) < header[1] + 1:
            raise ParseError(f"expected {clip(header[1] + 1)} coefficient rows, got {len(rows)}")
        return cls(rows)


def _recurrence_sum(op, s, k, start):
    """sum P_j(k - j) s_{k-j} over j = start..min(k, r): order k of L s when start is 0."""
    total = 0
    for j in range(start, min(k, op.t_degree) + 1):
        pj = op.p_value(j, k - j)
        if pj:
            total += pj * s[k - j]
    return total


def solve_series(op, N):
    """The unique solution with a_0 = 1, through order N.

    Requires P_0(0) = 0, since order 0 of L s is P_0(0) a_0, and
    P_0(k) != 0 for 1 <= k <= N; the first failing k is reported.  An
    order over MAX_SERIES_ORDER is refused with ValueError.
    """
    if N < 0:
        raise ValueError("series order must be nonnegative")
    if N > MAX_SERIES_ORDER:
        raise ValueError(f"series order {clip(N)} is over {MAX_SERIES_ORDER}, the most a solve takes")
    if op.table[0][0]:
        raise ValueError(f"P_0(0) = {format_rational(op.table[0][0])}, not 0: "
                         "no series with a_0 = 1 is annihilated")
    if not any(op.table[0]):
        raise IndicialObstruction(1)
    for k in range(1, N + 1):
        if op.p_value(0, k) == 0:
            raise IndicialObstruction(k)
    a = [1]
    for k in range(1, N + 1):
        a.append(normalize_rational(-Fraction(_recurrence_sum(op, a, k, 1)) / op.p_value(0, k)))
    return PowerSeries(a)


def apply_operator(op, series):
    """Coefficients of L s through the validity horizon (the order of s).

    The action is triangular, so (L s)_k depends only on s_0..s_k and every
    output coefficient up to the input order is exact.
    """
    if series.order < op.t_degree:
        raise ValueError(
            f"series order {series.order} is below the operator t-degree {op.t_degree}"
        )
    return PowerSeries(_recurrence_sum(op, series, k, 0) for k in range(series.order + 1))


# The most cells, (N + 1) rows times (m + 1)(r + 1) unknowns, of the system
# fit_operator solves: a bound on its time, checked before any row is built.
# On V16's solution, in Python 3.11, two of the largest fits admitted, m = r =
# 10 at N = 1651 and m = r = 19 at N = 499, take 4.1 s and 6.6 s, and the time
# grows faster than the cube of the unknowns.  The benchmark's largest fit
# has 7,200 cells.
MAX_FIT_CELLS = 200_000


def fit_operator(series, m, r, N=None):
    """All operators of order <= m and t-degree <= r annihilating the prefix.

    Sets up the linear system sum_j sum_l c[j][l] (k-j)^l s_{k-j} = 0 for
    k = 0..N in the (m+1)(r+1) unknowns c[j][l] and returns its exact
    nullspace as a list of DOperator values, each scaled so the first nonzero
    entry in (j, l) order is 1, ordered by the position of that entry.  When
    N is not given it defaults to 10 surplus equations beyond the unknown
    count, capped by the series length.  An empty list means only the zero
    operator fits.  A system of more than MAX_FIT_CELLS cells is refused.
    """
    if m < 0 or r < 0:
        raise ValueError("order and t-degree bounds must be nonnegative")
    unknowns = (m + 1) * (r + 1)
    minimum = unknowns + r
    if N is None:
        N = min(series.order, unknowns + 9)
    if N > series.order:
        raise ValueError(f"series has order {series.order}, cannot fit through {clip(N)}")
    if N < minimum:
        raise ValueError(f"prefix too short: need N >= {clip(minimum)} for order {clip(m)},"
                         f" t-degree {clip(r)}, got {clip(N)}")
    cells = (N + 1) * unknowns
    if cells > MAX_FIT_CELLS:
        raise ValueError(f"the fit's system has {clip(cells)} cells, (N + 1)(m + 1)(r + 1),"
                         f" over {MAX_FIT_CELLS}, the most a fit takes")
    rows = [
        [series[k - j] * (k - j) ** l if k >= j else 0
         for j in range(r + 1) for l in range(m + 1)]
        for k in range(N + 1)
    ]
    basis = linalg.nullspace(rows)
    ops = []
    for vec in basis:
        table = [vec[j * (m + 1) : (j + 1) * (m + 1)] for j in range(r + 1)]
        ops.append(DOperator(table))
    return ops


def rescale_t(op, scale):
    """Substitute t -> scale * t, i.e. c'[j][l] = scale^j c[j][l].

    Solutions transform by a_k -> scale^k a_k, which makes this the right
    gauge probe when two sources disagree by a rescaling of t.
    """
    lam = Fraction(normalize_rational(scale))
    if lam == 0:
        raise ValueError("scale must be nonzero")
    table = []
    factor = Fraction(1)
    for row in op.table:
        table.append([factor * x for x in row])
        factor *= lam
    return DOperator(table)


def shift_constant(series, c):
    """Series of f + c from the series of f.

    phi_{f+c}(k) = sum_i C(k, i) c^(k-i) phi_f(i); the inverse shift is by -c.
    """
    cc = Fraction(normalize_rational(c))
    return PowerSeries(
        sum(comb(k, i) * cc ** (k - i) * x for i, x in enumerate(series[: k + 1]) if x)
        for k in range(series.order + 1)
    )


class VerificationReport(namedtuple(
    "VerificationReport",
    "verdict order_checked first_mismatch phi solution quartic newton_interior"
    " determination_order",
)):
    """Outcome of comparing Phi_f with an operator's fundamental solution.

    `phi` and `solution` are the two PowerSeries, `first_mismatch` is an
    index or None, and `quartic` is the ClearingReport of f.
    `determination_order` is (m+1)(r+1) + r for the operator checked: a prefix
    agreement at least that long pins the annihilating operator inside the
    (order, t-degree) window, so `determined_within_bound` says whether the
    check ran deep enough to be conclusive in that sense.
    """

    __slots__ = ()

    @property
    def confirmed(self):
        return self.first_mismatch is None

    @property
    def determined_within_bound(self):
        return self.order_checked >= self.determination_order

    def to_document(self):
        lines = [
            f"verdict: {self.verdict}",
            f"order-checked: {self.order_checked}",
            f"first-mismatch: {'none' if self.first_mismatch is None else self.first_mismatch}",
            f"newton-interior: {'true' if self.newton_interior else 'false'}",
            f"quartic-passes: {'true' if self.quartic.passes else 'false'}",
            f"quartic-cleared-degree: {format_rational(self.quartic.cleared_degree)}",
            f"quartic-shift: {' '.join(map(format_rational, self.quartic.shift))}",
            f"determination-order: {self.determination_order}",
            f"determined-within-bound: {'true' if self.determined_within_bound else 'false'}",
        ]
        for i in range(self.order_checked + 1):
            a, b = self.phi[i], self.solution[i]
            flag = "match" if a == b else "MISMATCH"
            lines.append(f"coeff.{i}: {format_rational(a)} {format_rational(b)} {flag}")
        return "\n".join(lines) + "\n"

    def to_table(self):
        header = f"{'i':>4}  {'phi_f(i)':>24}  {'a_i':>24}  ok"
        rows = [header, "-" * len(header)]
        for i in range(self.order_checked + 1):
            a, b = self.phi[i], self.solution[i]
            mark = "yes" if a == b else "NO"
            rows.append(f"{i:>4}  {format_rational(a):>24}  {format_rational(b):>24}  {mark}")
        rows.append("-" * len(header))
        rows.append(f"verdict: {self.verdict}")
        return "\n".join(rows) + "\n"


def verify_weak_lg(f, op, N=20):
    """Compare constant_term_series(f, N) with solve_series(op, N) exactly.

    Also runs the projective-degree check on f and reports whether the Newton
    polytope of f contains the origin strictly inside (polynomials without
    that property still have a well-defined series, so this is a flag rather
    than an error).  Indicial obstructions in the operator propagate.
    """
    if N < 1:
        raise ValueError("verification order must be at least 1")
    phi = constant_term_series(f, N)
    sol = solve_series(op, N)
    first = next((i for i in range(N + 1) if phi[i] != sol[i]), None)
    quartic = quartic_compactification_check(f)
    try:
        newton = polytope.newton_polytope(f)
        interior = all(c > 0 for _, c in newton.facets)
    except (polytope.NotFullDimensional, ValueError):
        interior = False
    verdict = f"very-weak-confirmed-to-{N}" if first is None else "mismatch"
    determination = (op.order + 1) * (op.t_degree + 1) + op.t_degree
    return VerificationReport(
        verdict=verdict,
        order_checked=N,
        first_mismatch=first,
        phi=phi,
        solution=sol,
        quartic=quartic,
        newton_interior=interior,
        determination_order=determination,
    )
