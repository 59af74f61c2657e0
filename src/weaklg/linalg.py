"""Small exact linear algebra helpers over the rationals.

Matrices are plain sequences of rows, scaled to integers.  There are two
eliminations.  The fraction-free `echelon` answers every rank, on the rows
scaled to integers, and `kernel` and `det` are read off it.  `nullspace`
serves the fit's large rational systems alone, for `dseries.fit_operator`:
it eliminates modulo primes on rows packed one int each, and certifies the
result by checking every basis vector against every row in exact integers.
"""

import math
import operator
from fractions import Fraction


def _scaled_integer_rows(rows):
    """Copy rows, scaling each by the lcm of its denominators."""
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        out.append([int(x * den) for x in row])
    return out


def rank(rows) -> int:
    """Exact rank: the pivot count of `echelon` on the rows scaled to integers."""
    return len(echelon(_scaled_integer_rows(rows))[1])


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def is_prime(n) -> bool:
    """Miller-Rabin on the prime bases up to 37, exact below 318665857834031151167461.

    A number at or above that with no factor among the bases raises ValueError.
    """
    if not isinstance(n, int) or n < 2:
        return False
    if any(n % a == 0 for a in _BASES):
        return n in _BASES
    if n >= _PRIME_BOUND:
        from .laurent import clip  # laurent imports this module
        raise ValueError(f"{clip(n)} is too large to test: primality is exact below {_PRIME_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in _BASES)


def dot(a, x):
    """Sum of the products of matching entries."""
    return sum(map(operator.mul, a, x))


def _primes():
    """Primes down from 2^61 - 1, each found by `is_prime` as it is needed."""
    n = (1 << 61) - 1
    while True:
        if is_prime(n):
            yield n
        n -= 2


def _rref_mod(rows, ncols, p):
    """(pivot rows of the RREF mod p, pivot columns).

    Each row is packed into one int, entry j in bits [j w, (j + 1) w) with
    w = 2 bits(p) + bits(#rows) + 1 (Kronecker packing, as in `laurent`).
    Entries stay nonnegative and are reduced mod p only where they are read:
    an update adds (p - f) times a row reduced mod p, under p^2 per entry,
    and no row takes more updates than there are rows, so no entry carries
    into the next.  Forward elimination shifts each finished column out of
    the rows left; back-substitution then runs on the pivot rows only.
    """
    w = 2 * p.bit_length() + len(rows).bit_length() + 1
    mask = (1 << w) - 1

    def pack(xs):
        return sum(x % p << w * j for j, x in enumerate(xs))

    def unpack(v, k):
        return [(v >> w * j & mask) % p for j in range(k)]

    left, pivots, tops = [pack(row) for row in rows], [], []
    for c in range(ncols):
        k = next((i for i, v in enumerate(left) if (v & mask) % p), None)
        if k is not None:
            v = left[k]
            left[k] = left[0]
            del left[0]
            xs = unpack(v, ncols - c)
            inv = pow(xs[0], -1, p)
            top = pack([x * inv for x in xs])
            left = [v + (-(v & mask) % p) * top for v in left]
            pivots.append(c)
            tops.append(top)
        left = [v >> w for v in left]
    ech = []
    for i, (c, v) in enumerate(zip(pivots, tops)):
        # Each later echelon row clears its pivot column here, in column order.
        for d, u in zip(pivots[i + 1 :], tops[i + 1 :]):
            v += (-(v >> (d - c) * w & mask) % p) * u << (d - c) * w
        ech.append([0] * c + unpack(v, ncols - c))
    return ech, pivots


def _reconstruct(xs, m):
    """D*x mod m for x in xs and one D, all within sqrt(m/2), or None.  Wang's
    half-extended Euclid takes no step where D*x mod m is already small."""
    bound, den, w = math.isqrt(m >> 1), 1, []
    for x in xs:
        r0, r1, t0, t1 = m, x * den % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 * den > bound:
            return None
        if t1 != 1:
            den, w = den * t1, [u * t1 for u in w]
        w.append(r1)
    return w


def nullspace(rows):
    """Basis of the right nullspace as tuples of Fractions.

    One vector per free column, in free-column order, each scaled so that its
    first nonzero entry equals 1.  The width is read off the rows, so at
    least one row is required.

    Multi-modular, with Wang's (1981) rational reconstruction; cf. Dixon
    (1982).  Every prime reduces every nonzero row.  A better pivot list mod
    p (larger rank, then smaller) restarts the Chinese remaindering, a worse
    one drops the prime.  A w = 0 on every row, w on its free column and
    earlier pivots, proves the pivots over Q are those mod p and w the
    reduced-echelon vector; full rank mod p needs no check.  Finitely many
    primes are unlucky and reconstruction works once the modulus exceeds
    2 H^2 (Hadamard bound H): the loop has no cap.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("nullspace needs at least one row")
    ncols = len(rows[0])
    mat = [r for r in _scaled_integer_rows(rows) if any(r)]
    best = None
    for p in _primes():
        ech, pivots = _rref_mod(mat, ncols, p)
        if len(pivots) == ncols:
            return []
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if key != best:
            best, modulus = key, 1
            free = [c for c in range(ncols) if c not in pivots]
            acc = [[0] * ncols for _ in free]
        row_of, h = dict(zip(pivots, ech)), pow(modulus, -1, p)
        res = [[-row_of[j][c] if j in row_of else int(j == c) for j in range(ncols)] for c in free]
        acc = [[x + modulus * ((y - x) * h % p) for x, y in zip(xs, ys)] for xs, ys in zip(acc, res)]
        modulus *= p
        ws = [_reconstruct(xs, modulus) for xs in acc]
        if None in ws:
            continue
        if all(dot(row, w) == 0 for w in ws for row in mat):
            firsts = [next(x for x in w if x) for w in ws]
            return [tuple(Fraction(x, f) for x in w) for w, f in zip(ws, firsts)]


def echelon(rows):
    """Fraction-free Bareiss (1968) row echelon of an integer matrix:
    (rows, pivot columns, sign of the row swaps).  A column with no pivot is
    skipped.  Every entry below the pivot rows is a minor of the input, so
    each division is exact; with full rank the last pivot is, up to sign, the
    minor on the pivot columns."""
    a = [list(r) for r in rows]
    pivots, sign, prev = [], 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k], sign = a[k], a[r], -sign
        top, pivot = a[r], a[r][c]
        for row in a[r + 1 :]:
            f = row[c]
            row[c:] = [(x * pivot - f * y) // prev for x, y in zip(row[c:], top[c:])]
        prev = pivot
        pivots.append(c)
    return a, pivots, sign


def kernel(rows, width):
    """Integer basis of the right kernel of an integer matrix with `width`
    columns: one primitive vector per column with no pivot in `echelon`.
    That column is set to the last pivot, the minor on the pivot columns, and
    the other free columns to 0; by Cramer's rule the exact back-substitution
    then gives integers, so every division is exact.
    """
    a, pivots, _ = echelon(rows)
    top = a[: len(pivots)]
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        x = [0] * width
        x[free] = top[-1][pivots[-1]] if pivots else 1
        # Each echelon row is zero left of its pivot, where x is still zero.
        for row, c in zip(reversed(top), reversed(pivots)):
            x[c] = -dot(row, x) // row[c]
        basis.append(primitive(x))
    return basis


def det(matrix):
    """Exact determinant: the square case of `echelon`, on the matrix scaled
    to integers by the lcm of its denominators, so k^3 steps replace the k!
    terms of a cofactor expansion."""
    m = [list(r) for r in matrix]
    k = len(m)
    if any(len(r) != k for r in m):
        raise ValueError("determinant needs a square matrix")
    den = math.lcm(*(x.denominator for row in m for x in row if isinstance(x, Fraction)))
    a, pivots, sign = echelon([[int(x * den) for x in row] for row in m])
    if len(pivots) < k:
        return 0
    d = sign * a[-1][-1] if k else 1
    return d if den == 1 else Fraction(d, den**k)


def primitive(vec):
    """Divide an all-integer vector by the gcd of its entries."""
    g = math.gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)
