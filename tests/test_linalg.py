"""Cross-checks of the exact linear algebra against sympy and the Bareiss
oracles `corpus.rank_bareiss` and `corpus.nullspace_bareiss`, of the packed
`_rref_mod` against `corpus.rref_mod_gauss_jordan`, of `echelon` and `kernel`
against sympy, of `det` against the Leibniz formula, and of the primality test
against trial division."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from corpus import (
    det_leibniz, is_prime_trial, nullspace_bareiss, rank_bareiss, rref_mod_gauss_jordan,
)
from weaklg import catalog, dseries, linalg
from weaklg.laurent import constant_term_series

sympy = pytest.importorskip("sympy")


def random_matrix(rng, nrows, ncols, rational=False):
    def entry():
        if rational and rng.random() < 0.3:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-5, 5)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def test_rank_agrees_with_sympy():
    rng = random.Random(11)
    for _ in range(25):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), rational=True)
        assert linalg.rank(rows) == sympy.Matrix(rows).rank() == rank_bareiss(rows)


def test_rank_of_rank_deficient_matrices():
    rng = random.Random(17)
    for _ in range(10):
        base = random_matrix(rng, 2, 5)
        rows = [base[0], base[1], [a + b for a, b in zip(*base)], [3 * x for x in base[0]]]
        assert linalg.rank(rows) == sympy.Matrix(rows).rank() == rank_bareiss(rows)
    assert linalg.rank([]) == rank_bareiss([]) == 0
    zeros = [[0, 0, 0], [0, 0, 0]]
    assert linalg.rank(zeros) == rank_bareiss(zeros) == 0


def test_echelon_rank_agrees_with_sympy():
    """Tall matrices with entries in [-50, 50], their rows sums of at most two
    of fewer base rows: the pivot count is the rank, and each row is zero
    left of its pivot, after the last pivot row entirely."""
    rng = random.Random(53)
    deficient = 0
    for _ in range(60):
        ncols = rng.randint(1, 6)
        base = [[rng.randint(-25, 25) for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
        rows = []
        for _ in range(rng.randint(ncols, ncols + 4)):
            a, b = rng.randint(-1, 1), rng.randint(-1, 1)
            rows.append([a * x + b * y for x, y in zip(rng.choice(base), rng.choice(base))])
        ech, pivots, _ = linalg.echelon(rows)
        assert len(pivots) == sympy.Matrix(rows).rank(), rows
        for i, row in enumerate(ech):
            lead = pivots[i] if i < len(pivots) else ncols
            assert not any(row[:lead]) and (lead == ncols or row[lead]), (rows, ech)
        deficient += len(pivots) < ncols
    assert deficient > 30
    assert linalg.echelon([]) == ([], [], 1)


def test_nullspace_vectors_annihilate_and_match_sympy_dimension():
    rng = random.Random(23)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols, rational=True)
        basis = linalg.nullspace(rows)
        assert len(basis) == len(sympy.Matrix(rows).nullspace())
        for vec in basis:
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0
            lead = next(x for x in vec if x)
            assert lead == 1


def test_nullspace_without_rows_raises():
    with pytest.raises(ValueError, match="^nullspace needs at least one row$"):
        linalg.nullspace([])
    with pytest.raises(ValueError, match="^nullspace needs at least one row$"):
        nullspace_bareiss([])


def test_kernel_is_an_integer_basis_matching_sympy():
    """Integral, annihilating every row, and of sympy's dimension, on matrices
    up to 6 x 8 with zero rows, rank deficiency, and no rows at all."""
    rng = random.Random(31)
    deficient = zero_rows = 0
    for _ in range(300):
        nrows, width = rng.randint(0, 6), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        if nrows and rng.random() < 0.2:
            rows[rng.randrange(nrows)] = [0] * width
        basis = linalg.kernel(rows, width)
        expected = len(sympy.Matrix(rows).nullspace()) if rows else width
        assert len(basis) == expected
        assert not basis or linalg.rank(basis) == len(basis)
        for w in basis:
            assert len(w) == width and all(isinstance(x, int) for x in w) and any(w)
            assert all(sum(map(operator.mul, row, w)) == 0 for row in rows)
        deficient += width - len(basis) < min(nrows, width)
        zero_rows += any(not any(row) for row in rows)
    assert deficient > 50 and zero_rows > 20
    assert linalg.kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_det_agrees_with_sympy():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randint(1, 4)
        m = random_matrix(rng, k, k, rational=True)
        assert linalg.det(m) == sympy.Matrix(m).det()
    assert linalg.det([]) == 1
    with pytest.raises(ValueError):
        linalg.det([[1, 2]])


def test_det_agrees_with_leibniz():
    """Bareiss from 3x3 up, with zero pivots, dependent rows and rational entries."""
    rng = random.Random(43)
    for k in (3, 4, 5, 6, 7):
        for trial in range(4):
            m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            if trial == 1:
                m[0][0] = m[1][0] = 0  # a row swap on the first pivot
            if trial == 2:
                m[-1] = [x - 2 * y for x, y in zip(m[0], m[1])]
            assert linalg.det(m) == det_leibniz(m)
        assert linalg.det([[0] * k] + m[1:]) == 0
    m = random_matrix(rng, 5, 5, rational=True)
    assert linalg.det(m) == det_leibniz([[Fraction(x) for x in row] for row in m])


def test_primitive_vectors():
    assert linalg.primitive([4, -6, 8]) == (2, -3, 4)
    assert linalg.primitive([0, 5, 0]) == (0, 1, 0)
    assert linalg.primitive([-3]) == (-1,)
    with pytest.raises(ValueError):
        linalg.primitive([0, 0])


P61 = 2**61 - 1


def _entry(rng, den_bound):
    num = rng.randint(-50, 50)
    if den_bound > 1 and rng.random() < 0.5:
        return Fraction(num, rng.randint(1, den_bound))
    return num


def _random_system(rng, den_bound):
    """A product of random nrows x rank and rank x ncols factors, maybe with
    zero rows mixed in, so every shape and rank occurs."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rank = rng.randint(0, min(nrows, ncols))
    left = [[_entry(rng, den_bound) for _ in range(rank)] for _ in range(nrows)]
    right = [[_entry(rng, den_bound) for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((a * b[j] for a, b in zip(lrow, right)), 0) for j in range(ncols)]
            for lrow in left]
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, nrows), [0] * ncols)
    return rows


@pytest.mark.parametrize("den_bound", [1, 10**6])
def test_nullspace_equals_bareiss_oracle_on_random_shapes(den_bound):
    rng = random.Random(41 + den_bound)
    seen = set()
    for _ in range(150):
        rows = _random_system(rng, den_bound)
        nrows, ncols = len(rows), len(rows[0])
        basis = linalg.nullspace(rows)
        assert basis == nullspace_bareiss(rows)
        assert len(basis) == ncols - sympy.Matrix(rows).rank()
        assert all(isinstance(x, Fraction) for vec in basis for x in vec)
        seen.add("tall" if nrows > ncols else "wide" if nrows < ncols else "square")
        seen.add("full column rank" if not basis else "deficient")
        if any(not any(row) for row in rows):
            seen.add("zero row")
    assert seen == {"tall", "wide", "square", "full column rank", "deficient", "zero row"}


def _fit_systems(monkeypatch):
    """The rows that `fit_operator` solves for the benchmark's fits."""
    rec = catalog.builtin("V22")
    v22 = constant_term_series(rec.model, 35)
    derived = dseries.solve_series(rec.derived_operator, 89)
    captured = []

    def capture(rows):
        captured.append(rows)
        return []

    monkeypatch.setattr(dseries.linalg, "nullspace", capture)
    for series, m, r, N in ((v22, 3, 4, 35), (derived, 6, 8, 72), (derived, 7, 9, 89)):
        dseries.fit_operator(series, m, r, N)
    monkeypatch.undo()
    return captured


def _spy_rref(monkeypatch):
    """Record (rows reduced, pivot columns) for every prime nullspace uses."""
    calls = []
    real = linalg._rref_mod

    def spy(rows, ncols, p):
        out = real(rows, ncols, p)
        calls.append((rows, out[1]))
        return out

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    return calls


def test_nullspace_equals_bareiss_oracle_on_benchmark_fit_systems(monkeypatch):
    systems = _fit_systems(monkeypatch)
    calls = _spy_rref(monkeypatch)
    sizes = []
    for rows in systems:
        basis = linalg.nullspace(rows)
        assert basis == nullspace_bareiss(rows)
        sizes.append(len(basis))
    assert sizes == [2, 24, 35]
    # The 90 x 80 system of rank 45 is reduced in full once, then only on the
    # 45 rows that prime picked.
    assert [(len(r), p) for r, p in calls[-2:]] == [(90, calls[-1][1]), (45, calls[-1][1])]
    assert len(calls[-1][1]) == 45


def _most_updated_rows(p, nrows, ncols):
    """Echelon rows e_i + (p - 1)(e_i+1 + ... ) and a last row that takes an
    update from every one of them, each time by p - 1 times entries p - 1:
    its entry i is 1 - i, so it reads 1 at every pivot column in turn."""
    rows = [[0] * i + [1] + [p - 1] * (ncols - i - 1) for i in range(nrows - 1)]
    return rows + [[(1 - i) % p for i in range(ncols)]]


@pytest.mark.parametrize("p", [P61, 7])
def test_packed_rref_mod_equals_gauss_jordan_oracle(p):
    """Pivot rows, pivot columns and source rows all agree, on rows that load
    one row's entries the most and on seeded fit-shaped 90 x 80 systems of
    rank 45."""
    systems = [_most_updated_rows(p, nrows, ncols) for nrows, ncols in ((2, 2), (15, 15), (16, 20))]
    systems.append([[k * (p - 1)] * 9 for k in range(1, 17)])
    for rows in systems:
        ncols = len(rows[0])
        assert linalg._rref_mod(rows, ncols, p) == rref_mod_gauss_jordan(rows, ncols, p)
    rng = random.Random(p)
    for _ in range(3):
        left = [[rng.randint(-9, 9) for _ in range(45)] for _ in range(90)]
        right = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(45)]
        rows = [[sum(map(operator.mul, row, col)) for col in zip(*right)] for row in left]
        got = linalg._rref_mod(rows, 80, p)
        assert got == rref_mod_gauss_jordan(rows, 80, p)
        assert len(got[1]) == 45


def test_prime_generator_counts_down_from_the_mersenne_prime():
    primes = list(itertools.islice(linalg._primes(), 8))
    assert primes[0] == P61
    assert primes == sorted(primes, reverse=True)
    assert all(sympy.isprime(p) for p in primes)
    assert all(sympy.prevprime(a) == b for a, b in zip(primes, primes[1:]))


def test_primes_once_found_are_not_tested_again(monkeypatch):
    rows = [[P61, 1]]  # needs several primes, so the list is extended
    first = linalg.nullspace(rows)
    tested = []
    real = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: tested.append(n) or real(n))
    assert linalg.nullspace(rows) == first
    assert tested == []
    known = len(linalg._PRIMES)
    primes = list(itertools.islice(linalg._primes(), known + 1))
    assert primes[:known] == linalg._PRIMES[:known] and tested
    assert min(tested) == primes[-1] and max(tested) < primes[-2]


def test_is_prime_equals_trial_division():
    carmichael = (561, 1105, 41041)
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7.
    for n in itertools.chain(range(10**5), carmichael, (3215031751,)):
        assert linalg.is_prime(n) == is_prime_trial(n), n
    for value in (True, False, 7.0, "7", None, -7):
        assert linalg.is_prime(value) is is_prime_trial(value) is False
    assert linalg.is_prime(P61) and not linalg.is_prime(P61 + 2)


def test_is_prime_refuses_numbers_at_its_bound():
    bound = 318665857834031151167461  # a strong pseudoprime to all 12 bases
    assert not linalg.is_prime(bound - 1) and not linalg.is_prime(3 * bound)
    for n in (bound, bound + 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37):
        with pytest.raises(ValueError, match="too large"):
            linalg.is_prime(n)


def test_prime_losing_rank_forces_row_reselection(monkeypatch):
    calls = _spy_rref(monkeypatch)
    # Mod 2^61 - 1 only row 0 is a pivot row; reducing that row alone at every
    # later prime would never reach the rank over Q.
    assert linalg.nullspace([[1, 0], [0, P61]]) == []
    assert [(len(r), p) for r, p in calls] == [(2, [0]), (2, [0, 1])]
    calls.clear()
    rows = [[1, 0, 0], [0, P61, 0], [2, 0, 0]]
    assert linalg.nullspace(rows) == nullspace_bareiss(rows) == [(0, 0, 1)]
    assert [(len(r), p) for r, p in calls] == [(3, [0]), (3, [0, 1])]


def test_later_primes_reduce_the_pivot_rows_of_the_first(monkeypatch):
    calls = _spy_rref(monkeypatch)
    big = 10**30
    r0, r2 = [1, 2, 3 * big], [0, 1, big + 1]
    rows = [r0, [2 * x for x in r0], r2, [a + b for a, b in zip(r0, r2)]]
    # The kernel is spanned by (2 - big, -big - 1, 1), which needs a modulus
    # over 2 big^2.  The first prime reduces all rows and picks r0 and r2; a
    # prime after a failed certificate reduces all rows again.
    assert linalg.nullspace(rows) == nullspace_bareiss(rows)
    reduced = [r for r, _ in calls]
    assert len(reduced) >= 4 and reduced[:2] == [rows, [r0, r2]]
    assert all(r in (rows, [r0, r2]) for r in reduced)


def test_wrong_pivot_list_mod_the_first_prime_is_replaced(monkeypatch):
    calls = _spy_rref(monkeypatch)
    rows = [[P61, 1]]
    assert linalg.nullspace(rows) == nullspace_bareiss(rows) == [(1, -P61)]
    # Mod 2^61 - 1 the pivot is column 1; the certificate rejects that basis,
    # column 0 wins at the next prime, and -P61 needs a modulus over 2 P61^2.
    assert [pivots for _, pivots in calls] == [[1], [0], [0], [0]]


def test_worse_pivot_list_mod_a_later_prime_is_dropped(monkeypatch):
    p2 = list(itertools.islice(linalg._primes(), 2))[1]
    calls = _spy_rref(monkeypatch)
    rows = [[p2, 1]]
    assert linalg.nullspace(rows) == nullspace_bareiss(rows) == [(1, -p2)]
    # Column 0 is the pivot mod the first prime; mod p2 it is column 1, a
    # worse pivot list, so p2 adds nothing to the Chinese remaindering.
    pivots = [pivots for _, pivots in calls]
    assert pivots[:3] == [[0], [1], [0]] and pivots[3:] == [[0]] * (len(pivots) - 3)


def test_entry_vanishing_mod_the_first_two_primes(monkeypatch):
    p1, p2 = itertools.islice(linalg._primes(), 2)
    calls = _spy_rref(monkeypatch)
    for rows, wrong, right in (
        ([[p1 * p2, 1]], [1], [0]),
        ([[p1 * p2, 1, 3], [2 * p1 * p2, 5, 7]], [1, 2], [0, 1]),
    ):
        calls.clear()
        assert linalg.nullspace(rows) == nullspace_bareiss(rows)
        pivots = [pivots for _, pivots in calls]
        assert pivots[:2] == [wrong, wrong]
        assert pivots[2:] == [right] * (len(pivots) - 2)
