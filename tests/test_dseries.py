import random
from fractions import Fraction

import pytest

from weaklg.dseries import (
    MAX_SOLVE_ORDER,
    DOperator,
    IndicialObstruction,
    apply_operator,
    fit_operator,
    rescale_t,
    shift_constant,
    solve_series,
    verify_weak_lg,
)
from weaklg.laurent import LaurentPoly, ParseError, PowerSeries, constant_term_series

from corpus import random_laurent

L16 = DOperator(
    [
        [0, 0, 0, 1],
        [-4, -20, -36, -24],
        [16, 48, 48, 16],
    ]
)


def random_operator(rng, m, r):
    """Random operator with P_0 = D^m, so every positive k is regular."""
    table = [[0] * m + [1]]
    for _ in range(r):
        table.append([rng.randint(-6, 6) for _ in range(m + 1)])
    return DOperator(table)


def test_table_validation():
    with pytest.raises(ValueError):
        DOperator([])
    with pytest.raises(ValueError):
        DOperator([[1, 2], [3]])
    with pytest.raises(ValueError):
        DOperator([[0, 0], [0, 0]])
    op = DOperator([[0, 0], [1, 1]])
    assert op.order == 1 and op.t_degree == 1


def test_p_value_evaluates_the_row_polynomial():
    op = DOperator([[1, 2, 3], [0, 0, 0]])
    assert op.p_value(0, 5) == 1 + 2 * 5 + 3 * 25
    assert op.p_value(1, 100) == 0


def test_operator_text_round_trip():
    text = L16.to_text()
    assert text.splitlines()[0] == "order 3, tdeg 2"
    assert DOperator.from_text(text) == L16
    with pytest.raises(ParseError):
        DOperator.from_text("order 3, tdeg 2\n1 2 3\n")
    with pytest.raises(ParseError):
        DOperator.from_text("")


def test_operator_text_with_extra_rows_fails_at_the_first_extra_row():
    for text, line in (
        ("order 1, tdeg 1\n1 1\n1 0\n0 1\n", 4),
        ("# note\norder 1, tdeg 0\n1 1\n\n2 2\n3 3\n", 5),
        ("order 1, tdeg 1\n1 1\n1 0\n0 x\n", 4),
    ):
        with pytest.raises(ParseError) as info:
            DOperator.from_text(text)
        assert info.value.line == line
    assert str(info.value) == "line 4: expected 2 coefficient rows, got 3"
    with pytest.raises(ParseError) as info:
        DOperator.from_text("order 1, tdeg 2\n1 1\n1 0\n")
    assert str(info.value) == "expected 3 coefficient rows, got 2"


def test_scalar_multiple_detection():
    assert L16.is_scalar_multiple(rescale_t(L16, 1))
    tripled = DOperator([[3 * x for x in row] for row in L16.table])
    assert L16.is_scalar_multiple(tripled)
    assert not L16.is_scalar_multiple(DOperator([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]))
    assert not L16.is_scalar_multiple(DOperator([row[:3] for row in L16.table]))
    assert not L16.is_scalar_multiple(DOperator(L16.table[:2]))
    moved_zero = DOperator([[0, 0, 1, 1]] + [list(row) for row in L16.table[1:]])
    assert not L16.is_scalar_multiple(moved_zero)
    assert not moved_zero.is_scalar_multiple(L16)
    doubled_row = DOperator([[2 * x for x in L16.table[0]]] + [list(row) for row in L16.table[1:]])
    assert not L16.is_scalar_multiple(doubled_row)


def test_solve_series_hand_recurrence():
    """a_1 = 4 and 8 a_2 = 84 * 4 - 16 for the genus-9 operator."""
    sol = solve_series(L16, 2)
    assert sol[1] == 4
    assert sol[2] == Fraction(84 * 4 - 16, 8)
    assert sol[2] == 40


def test_solve_series_reports_indicial_obstruction():
    op = DOperator([[0, -2, 1], [1, 0, 0]])
    with pytest.raises(IndicialObstruction) as info:
        solve_series(op, 5)
    assert info.value.k == 2
    assert solve_series(op, 1)[1] == 1


def test_solve_series_takes_orders_up_to_the_bound():
    assert solve_series(L16, MAX_SOLVE_ORDER).order == MAX_SOLVE_ORDER
    with pytest.raises(ValueError, match=f"^series order {MAX_SOLVE_ORDER + 1} is over"
                                         f" {MAX_SOLVE_ORDER}, the most a solve takes$"):
        solve_series(L16, MAX_SOLVE_ORDER + 1)


def test_solve_series_refuses_a_nonzero_p0_at_zero():
    """Order 0 of L s is P_0(0) a_0, so no series with a_0 = 1 solves L = 1 + t."""
    op = DOperator([[1], [0]])
    assert list(apply_operator(op, PowerSeries([1, 0, 0, 0, 0]))) == [1, 0, 0, 0, 0]
    for table in ([[1], [0]], [[-2, 1], [1, 0]], [[Fraction(1, 3), 0, 1]]):
        with pytest.raises(ValueError, match=r"P_0\(0\) = .*, not 0") as info:
            solve_series(DOperator(table), 4)
        assert not isinstance(info.value, IndicialObstruction)


def test_zero_p0_is_constructible_but_not_solvable():
    op = DOperator([[0, 0], [1, 1]])
    with pytest.raises(IndicialObstruction):
        solve_series(op, 3)


def test_apply_operator_annihilates_its_own_solution():
    rng = random.Random(7)
    for _ in range(10):
        op = random_operator(rng, rng.randint(1, 3), rng.randint(1, 3))
        sol = solve_series(op, 10)
        assert not any(apply_operator(op, sol))


def test_apply_operator_sees_a_perturbation():
    sol = solve_series(L16, 8)
    bumped = PowerSeries(list(sol.coefficients()[:-1]) + [sol[8] + 1])
    residual = apply_operator(L16, bumped)
    assert any(residual)
    assert residual[8] == L16.p_value(0, 8)


def test_apply_operator_needs_enough_coefficients():
    with pytest.raises(ValueError):
        apply_operator(L16, PowerSeries([1, 4]))


def test_fit_recovers_operator_in_its_exact_window():
    sol = solve_series(L16, 25)
    basis = fit_operator(sol, 3, 2)
    assert len(basis) == 1
    assert basis[0].is_scalar_multiple(L16)


def test_fit_recovers_aperys_operator_from_straubs_model():
    """D^3 - t(34D^3+51D^2+27D+5) + t^2(D+1)^3 is the only (3, 2) fit."""
    straub = (LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1})
              * LaurentPoly(3, {(0, 0, 1): 1, (0, 0, 0): 1})
              * LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
              * LaurentPoly(3, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
              * LaurentPoly(3, {(-1, -1, -1): 1}))
    basis = fit_operator(constant_term_series(straub, 20), 3, 2)
    assert len(basis) == 1
    assert basis[0].table == ((0, 0, 0, 1), (-5, -27, -51, -34), (1, 3, 3, 1))


def _flat(op, r):
    rows = list(op.table) + [(0,) * (op.order + 1)] * (r - op.t_degree)
    return [x for row in rows for x in row]


def _in_span(op, basis, r):
    from weaklg import linalg

    rows = [_flat(b, r) for b in basis]
    return linalg.rank(rows + [_flat(op, r)]) == linalg.rank(rows)


def test_fit_wider_window_includes_t_multiples():
    """The (3, 3) window around a t-degree-2 operator picks up its t-multiple.

    The echelon basis need not contain the original operator verbatim, only
    span it, and exactly one basis element can have a nonzero P_0.
    """
    sol = solve_series(L16, 30)
    basis = fit_operator(sol, 3, 3)
    assert len(basis) == 2
    assert _in_span(L16, basis, 3)
    t_multiple = DOperator([[0, 0, 0, 0]] + [list(row) for row in L16.table])
    assert _in_span(t_multiple, basis, 3)
    for op in basis:
        if any(op.table[0]):
            assert solve_series(op, 20) == solve_series(L16, 20)


def test_fit_round_trip_random_operators():
    """Degenerate draws (early P_1 root truncating the solution) can enlarge
    the annihilator space; recovery then means span membership."""
    rng = random.Random(97)
    singles = 0
    for _ in range(10):
        m, r = rng.randint(1, 3), rng.randint(1, 4)
        op = random_operator(rng, m, r)
        sol = solve_series(op, (m + 1) * (r + 1) + r + 10)
        basis = fit_operator(sol, m, r)
        assert _in_span(op, basis, r)
        if len(basis) == 1:
            singles += 1
            assert basis[0].is_scalar_multiple(op)
    assert singles >= 5


def test_fit_rejects_short_prefixes():
    sol = solve_series(L16, 10)
    with pytest.raises(ValueError):
        fit_operator(sol, 3, 2, N=12)
    with pytest.raises(ValueError):
        fit_operator(sol, 3, 2, N=11)


def test_fit_returns_empty_when_nothing_annihilates():
    coeffs = [1]
    value = 1
    for k in range(1, 26):
        value = value * k + 1
        coeffs.append(Fraction(value, k + 1))
    wild = PowerSeries(coeffs)
    assert fit_operator(wild, 1, 1, N=25) == []


def test_rescale_t_transforms_solutions_geometrically():
    lam = Fraction(5, 8)
    scaled = rescale_t(L16, lam)
    sol = solve_series(L16, 6)
    sol2 = solve_series(scaled, 6)
    assert all(sol2[k] == lam**k * sol[k] for k in range(7))
    with pytest.raises(ValueError):
        rescale_t(L16, 0)


def test_shift_constant_matches_actual_shift():
    rng = random.Random(3)
    for _ in range(8):
        f = random_laurent(rng, n=2, max_terms=5)
        c = rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
        lhs = shift_constant(constant_term_series(f, 6), c)
        rhs = constant_term_series(f + LaurentPoly(2, {(0, 0): c}), 6)
        assert lhs == rhs


def test_shift_constant_inverts():
    s = solve_series(L16, 8)
    assert shift_constant(shift_constant(s, 3), -3) == s


def quartic_simplex():
    return LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})


def test_verify_confirms_matching_pair():
    op = DOperator(
        [
            [0, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [-1536, -2816, -1536, -256],
        ]
    )
    report = verify_weak_lg(quartic_simplex(), op, N=12)
    assert report.confirmed
    assert report.verdict == "very-weak-confirmed-to-12"
    assert report.first_mismatch is None
    assert report.newton_interior
    assert report.quartic.passes
    assert "coeff.4: 24 24 match" in report.to_document()


def test_verify_reports_first_mismatch():
    wrong = DOperator([[0, 0, 0, 1], [-1, 0, 0, 0], [0, 0, 0, 0]])
    report = verify_weak_lg(quartic_simplex(), wrong, N=6)
    assert not report.confirmed
    assert report.verdict == "mismatch"
    assert report.first_mismatch == 1
    assert "MISMATCH" in report.to_document()


def test_verify_flags_origin_not_interior():
    f = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    op = DOperator([[0, 1], [1, 1]])
    report = verify_weak_lg(f, op, N=4)
    assert not report.newton_interior


def test_verify_determination_bound():
    sol_op = L16
    report = verify_weak_lg(
        LaurentPoly(3, {(1, 0, 0): 1}), sol_op, N=20
    )
    assert report.determination_order == (3 + 1) * (2 + 1) + 2
    assert report.determined_within_bound
    assert not verify_weak_lg(LaurentPoly(3, {(1, 0, 0): 1}), sol_op, N=8).determined_within_bound
