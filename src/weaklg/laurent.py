"""Sparse Laurent polynomials over exact rationals and their constant-term series.

The central object is the series Phi_f(t) = sum_i phi(i) t^i where phi(i) is
the coefficient of x^0 in f^i.  One split-power convolution evaluates it,
expanding f only up to half the order: phi(a+b) = sum_m [f^a]_m [f^b]_{-m}.
Products run on packed exponents, each vector one signed int sum e_i B^i with
balanced digits (Monagan and Pearce, CASC 2007), so multiplying monomials is
adding ints and -m has key -key(m).  The series runs on such keys too, each
term one row of one slot, or, where the support fills its rows, on
Kronecker rows: one int per row along an axis, so a row product is one int
product (Harvey, J. Symb. Comput. 44, 2009).
Everything is exact; coefficients are Python ints where possible and
Fractions otherwise.
"""

import math
import operator
import re
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

from . import linalg


class DimensionMismatch(ValueError):
    """Operands live in different numbers of variables."""


class ParseError(ValueError):
    """Malformed text input.  Remembers the offending 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message = message
        self.line = line


# Characters of one input field that an error message quotes: a longer field
# is cut there and marked, so a hostile file cannot make an unbounded line.
QUOTE_LIMIT = 40


def clip(field):
    """str(field) as an error message quotes it: at most QUOTE_LIMIT characters
    of it, followed by '... (n characters)' when it is longer."""
    try:
        text = str(field)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        text = format_rational(field)
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def normalize_rational(value):
    """Coerce to an exact rational, collapsing integral Fractions to int."""
    if isinstance(value, bool):
        raise TypeError("coefficient must be int or Fraction, not bool")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"coefficient must be int or Fraction, not {type(value).__name__}")


def format_rational(value) -> str:
    """Render as `p` or `p/q` in lowest terms, in full however many digits."""
    value = normalize_rational(value)
    if isinstance(value, Fraction):
        return f"{format_rational(value.numerator)}/{format_rational(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal(int) has no limit
        return str(Decimal(value))


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text, line=None):
    """Parse `p` or `p/q` in ASCII digits.

    Decimal and exponent notation, underscores and other scripts' digits are
    rejected on purpose: `Fraction` would accept them, and a token such as
    1e999999 would make it build a million-digit integer.
    """
    token = text.strip()
    if not _RATIONAL.fullmatch(token):
        raise ParseError(f"bad rational {clip(token)!r}", line)
    try:
        return normalize_rational(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {clip(token)!r}", line) from None


def data_lines(text, dims=None):
    """(lineno, stripped line) for each line that is neither blank nor a '#' comment.

    With `dims` (a PointDims), the '# dim n' comments go to it on the way.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            if dims is not None:
                dims.header(line, lineno)
        elif line:
            yield lineno, line


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_ints(field):
    """The integers of a whitespace-separated field, or None if a token is not ASCII [+-]?[0-9]+.

    `int()` alone would also read `1_0` as 10 and other scripts' digits.
    """
    tokens = field.split()
    if not all(map(_INTEGER.fullmatch, tokens)):
        return None
    try:
        return tuple(map(int, tokens))
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return None


def integer_point(point, what="point"):
    """`point` as a tuple of ints; any other entry, a bool or a float included, raises."""
    point = tuple(point)
    for x in point:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} {point} has a non-integer entry {x!r}")
    return point


class PointDims:
    """The dimension n of a file of integer points, and the check on each row.

    A comment whose first word is 'dim' declares it ('# dim 3'); otherwise
    the first point row fixes it.  A later row or header that disagrees
    fails at its own line.
    """

    def __init__(self):
        self.n = None

    def header(self, line, lineno):
        words = line[1:].split()
        if words[:1] != ["dim"]:
            return
        n = parse_ints(" ".join(words[1:]))
        if n is None or len(n) != 1:
            raise ParseError("bad dimension declaration", lineno)
        if n[0] < 1:
            raise ParseError("dimension must be positive", lineno)
        if self.n not in (None, n[0]):
            raise ParseError(f"'# dim {clip(n[0])}' contradicts dimension {clip(self.n)}", lineno)
        self.n = n[0]

    def point(self, field, lineno, what="point"):
        """The integer point in `field`, checked against n."""
        point = parse_ints(field)
        if point is None:
            raise ParseError(f"bad {what} {clip(field.strip())!r}", lineno)
        if not point:
            raise ParseError(f"empty {what}", lineno)
        if self.n is None:
            self.n = len(point)
        if len(point) != self.n:
            raise ParseError(f"{what} has {len(point)} coordinates, expected {clip(self.n)}", lineno)
        return point


def pack_exponents(exps, base):
    """sum e_i base^i, one key per vector in [-M, M]^n when base = 2M + 1.

    Packing is linear: adding keys adds vectors, and -m has key -key(m).
    """
    return sum(e * base**i for i, e in enumerate(exps))


def _unpack_exponents(key, base, n):
    out = []
    for _ in range(n):
        key, digit = divmod(key + base // 2, base)
        out.append(digit - base // 2)
    return tuple(out)


def _product(n, factors):
    """The product of LaurentPolys in n variables, multiplied on packed keys."""
    base = 2 * sum(max((abs(x) for e in g._terms for x in e), default=0)
                   for g in factors) + 1
    result = {0: 1}
    for g in factors:
        packed = {pack_exponents(e, base): c for e, c in g._terms.items()}
        result = multiply_term_maps(result, packed)
    return LaurentPoly(n, {_unpack_exponents(k, base, n): c for k, c in result.items()})


# The most entries a product may hold, counted while multiply_term_maps
# builds it: a bound on the memory of every expansion.
MAX_SERIES_TERMS = 1_000_000

# The most work constant_term_levels may do: a power step costs a unit per
# term pair plus la lb / 26 for coefficients la and lb 64-bit limbs wide, a
# level sum a unit per pair it reads.  A unit took 151-343 ns in Python 3.11
# on the runs in README, so a refused run would have taken 8 s or more.
MAX_WORK = 5 * 10**7


def multiply_term_maps(a, b):
    """Multiply two {packed exponent key: coefficient} maps.

    This is the inner loop of every power computation, so it works on raw
    dicts of int keys (see pack_exponents) rather than LaurentPoly wrappers;
    the coefficients are ints, a whole Kronecker row each where _rows
    packs, or Fractions.  Terms that cancel are deleted from the product
    itself, so no second copy of it is ever built.  A product past
    MAX_SERIES_TERMS entries is refused with ValueError.
    """
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    b_items = b.items()
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
        if len(out) > MAX_SERIES_TERMS:
            raise ValueError(f"a product would hold more than {MAX_SERIES_TERMS} terms")
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _limbs(power):  # 64-bit limbs of the widest coefficient, all ints
    return max(map(int.bit_length, power.values()), default=0) + 63 >> 6


def constant_term_levels(terms, N, split=1):
    """The x^0 parts of f^0..f^N, expanding f only up to ceil(N/2).

    `terms` maps key = xkey * split + ckey to an int coefficient: xkey packs
    the exponent of x, and 0 <= ckey < split packs nonnegative exponents of
    extra variables whose degrees never carry past split (split = 1: none).
    Entry i maps ckey to its coefficient in [x^0] f^i, the sum over xkey of
    [f^a]_xkey [f^b]_-xkey with a = floor(i/2), b = i - a.

    Those two are always consecutive powers, so one loop makes f^(a+1) from
    f^a, reads levels 2a+1 and 2a+2 off the pair, and drops f^a: memory
    holds two powers, not all ceil(N/2) + 1 of them.  Past MAX_WORK or
    MAX_SERIES_TERMS, f^k is refused with ValueError.
    """
    if split == 1:  # every series: grouping by xkey would only add work
        def grouped(power):
            return power

        def level(low, high):  # sum_k c_k c_-k counts each pair twice when low is high
            spend(26 * len(low))
            if low is high:
                return {0: 2 * sum(c * high[-k] for k, c in low.items() if k > 0 and -k in high)
                        + high.get(0, 0) ** 2}
            return {0: sum(c * high[-k] for k, c in low.items() if -k in high)}
    else:
        def grouped(power):  # xkey -> [(ckey, c)]
            rows = {}
            for key, c in power.items():
                xkey, ckey = divmod(key, split)
                rows.setdefault(xkey, []).append((ckey, c))
            return rows

        def level(low, high):
            spend(26 * sum(len(row) * len(high.get(-xkey, ())) for xkey, row in low.items()))
            acc = {}
            for xkey, row in low.items():
                for k1, c1 in row:
                    for k2, c2 in high.get(-xkey, ()):
                        acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
            return acc

    def spend(units):  # in 26ths of a unit, so that every count stays an int
        nonlocal work
        work += units
        if work > 26 * MAX_WORK:
            raise ValueError(f"f^{k}: the expansion would pass {MAX_WORK} units of work")

    power, work, k, f_limbs = {0: 1}, 0, 0, _limbs(terms)
    low = grouped(power)
    levels = [level(low, low)]
    while len(levels) <= N:
        k += 1
        spend(len(power) * len(terms) * (26 + _limbs(power) * f_limbs))
        try:
            power = multiply_term_maps(power, terms)
        except ValueError as err:
            raise ValueError(f"f^{k}: {err}") from None
        high = grouped(power)
        levels.append(level(low, high))
        if len(levels) <= N:
            levels.append(level(high, high))
        low = high
    return levels


class LaurentPoly:
    """Immutable sparse Laurent polynomial in n variables.

    Terms are a map from integer exponent tuples to nonzero exact rationals.
    Every exposed ordering is lexicographic in the exponent tuple, which makes
    serialization deterministic.
    """

    __slots__ = ("_n", "_terms")

    def __init__(self, n, terms=()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("dimension must be a positive integer")
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, value in items:
            e = tuple(exps)
            if len(e) != n:
                raise DimensionMismatch(
                    f"exponent vector {e} has length {len(e)}, expected {n}"
                )
            for x in e:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"exponents must be integers: {e}")
            data[e] = data.get(e, 0) + normalize_rational(value)
        self._n = n
        self._terms = {e: normalize_rational(c) for e, c in data.items() if c}

    @property
    def dimension(self):
        return self._n

    def terms(self):
        """Sorted (exponents, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    def support(self):
        return tuple(sorted(self._terms))

    def coefficient(self, exps):
        e = tuple(exps)
        if len(e) != self._n:
            raise DimensionMismatch(f"exponent vector {e} has length {len(e)}, expected {self._n}")
        return self._terms.get(e, 0)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self):
        return hash((self._n, frozenset(self._terms.items())))

    def __neg__(self):
        return LaurentPoly(self._n, {e: -c for e, c in self._terms.items()})

    def _check_dim(self, other):
        if self._n != other._n:
            raise DimensionMismatch(
                f"cannot combine polynomials in {self._n} and {other._n} variables"
            )

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_dim(other)
        data = dict(self._terms)
        for e, c in other._terms.items():
            data[e] = data.get(e, 0) + c
        return LaurentPoly(self._n, data)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            self._check_dim(other)
            return _product(self._n, (self, other))
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                return LaurentPoly(self._n)
            return LaurentPoly(self._n, {e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError("power exponent must be a nonnegative integer")
        return _product(self._n, (self,) * k)

    def __repr__(self):
        return f"LaurentPoly(n={self._n}, terms={len(self._terms)})"

    def to_text(self):
        """One term per line, `<coeff> : <e1> ... <en>`, sorted by exponents."""
        lines = [f"# dim {self._n}"]
        for exps, c in sorted(self._terms.items()):
            lines.append(f"{format_rational(c)} : {' '.join(str(x) for x in exps)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        dims = PointDims()
        entries = {}
        for lineno, line in data_lines(text, dims):
            left, sep, right = line.partition(":")
            if not sep:
                raise ParseError("expected '<coefficient> : <exponents>'", lineno)
            coeff = parse_rational(left, lineno)
            exps = dims.point(right, lineno, "exponent vector")
            if exps in entries:
                raise ParseError(f"duplicate exponent vector {clip(exps)}", lineno)
            entries[exps] = coeff
        if dims.n is None:
            raise ParseError("empty input: the zero polynomial needs a '# dim n' line")
        return cls(dims.n, entries)


class PowerSeries(tuple):
    """Exact truncated power series c_0 + c_1 t + ... + c_N t^N, as the
    tuple of its coefficients."""

    __slots__ = ()

    def __new__(cls, coeffs):
        vals = tuple(normalize_rational(c) for c in coeffs)
        if not vals:
            raise ValueError("a power series needs at least the order-0 coefficient")
        return super().__new__(cls, vals)

    @property
    def order(self):
        return len(self) - 1

    def truncate(self, N):
        if N < 0 or N > self.order:
            raise ValueError(f"cannot truncate order-{self.order} series at {N}")
        return PowerSeries(self[: N + 1])

    def __repr__(self):
        head = ", ".join(format_rational(c) for c in self[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"

    def to_text(self):
        return "\n".join(f"{i} {format_rational(c)}" for i, c in enumerate(self)) + "\n"

    @classmethod
    def from_text(cls, text):
        entries = {}
        for lineno, line in data_lines(text):
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError("expected '<index> <coefficient>'", lineno)
            idx = parse_ints(parts[0])
            if idx is None or idx[0] < 0:
                raise ParseError(f"bad index {clip(parts[0])!r}", lineno)
            if idx[0] in entries:
                raise ParseError(f"duplicate index {clip(idx[0])}", lineno)
            entries[idx[0]] = parse_rational(parts[1], lineno)
        if not entries:
            raise ParseError("empty series input")
        # len(entries) distinct indices >= 0 fill 0..len-1 or leave a gap there
        gap = next(i for i in range(len(entries) + 1) if i not in entries)
        if gap < len(entries):
            raise ParseError(f"missing coefficient for index {gap}")
        return cls(entries[i] for i in range(gap))


# The highest order constant_term_series and dseries.solve_series take: a
# bound on time where the work bound comes late or never (a one-term or
# one-dimensional f) and the solve's coefficients grow in bits with the
# order.  In Python 3.11, x + 1/x takes 2.45 s at N=4000 and V22's stored
# operator 46 s, so a refused run would have taken a minute or more.
MAX_SERIES_ORDER = 4000


def constant_term_series(f, N):
    """phi(i) for i = 0..N, expanding f only up to ceil(N/2); see constant_term_levels.

    On the rows of _rows, level i is one integer whose slot i h is
    D^i phi(i).  Every slot below it lies in (-2^(W-1), 2^(W-1)), so adding
    half of 2^(W i h) before the shift takes their borrow back; one-slot
    rows (W = h = 0) hold D^i phi(i) whole.  An order over MAX_SERIES_ORDER
    is refused with ValueError before any work, and an expansion past the
    bounds of constant_term_levels when it reaches them.
    """
    if not isinstance(f, LaurentPoly):
        raise TypeError("constant_term_series expects a LaurentPoly")
    if N < 0:
        raise ValueError("series order must be nonnegative")
    if N > MAX_SERIES_ORDER:
        raise ValueError(f"series order {clip(N)} is over {MAX_SERIES_ORDER}, the most a series takes")
    rows, width, h, scale = _rows(f._terms, N)
    try:
        levels = constant_term_levels(rows, N)
    except ValueError as err:
        raise ValueError(f"series order {clip(N)}: {err}") from None
    out = []
    for i, level in enumerate(levels):
        slot = level[0]
        if width:
            shift = width * i * h
            slot = (slot + (1 << shift >> 1)) >> shift & (1 << width) - 1 if shift >= 0 else 0
            slot -= slot >> width - 1 << width
        out.append(Fraction(slot, scale**i) if scale > 1 else slot)
    return PowerSeries(out)


def _width(values):
    return max(values) - min(values)


def _narrowed(points):
    """The coordinate rows of `points` (row i: the i-th exponent of each) in a narrower basis.

    Row i gains +-1 times one or two other rows while that makes its width,
    max - min, smaller; the rows are visited in turn until none of them
    moves.  Every move is unimodular, so phi does not change (see
    substitute_monomial).
    """
    rows = [list(row) for row in zip(*points)]
    signs = (operator.add, operator.sub)
    i = still = 0
    while still < len(rows):
        row, others = rows[i], rows[:i] + rows[i + 1:]
        steps = others + [list(map(op, a, b)) for k, a in enumerate(others)
                          for b in others[k + 1:] for op in signs]
        best = min((list(map(op, row, d)) for d in steps for op in signs), key=_width, default=row)
        if _width(best) < _width(row):
            rows[i], still = best, 0
        else:
            still += 1
        i = (i + 1) % len(rows)
    return rows


_ROW_BITS = 1 << 14


def _rows(terms, N):
    """f as rows of integers for phi(0..N): (rows, W, h, D), with g = D f integral.

    Both layouts key the terms by the balanced packing of their exponents in
    the basis of _narrowed, which leaves phi unchanged; D is the lcm of the
    denominators of f.  Where packing pays, the axis whose rows of supp(f f)
    are fullest is packed: the row of g at the other exponents m is the
    integer sum c 2^(W (e - min e)) over its terms c x^(m, e), so one int
    product multiplies two rows (Kronecker substitution), and h = -min e.
    W = bits(S^N) + 1 for S = sum |c|: every coefficient of g^i, i <= N,
    fits in W signed bits, so the sum over m of [g^a]_m [g^b]_-m holds
    D^i phi(i) whole in slot i h.  Otherwise each term c x^e of g is a row
    of one slot keyed by e, and W = h = 0.

    Packing pays where supp(f f) fills at least half of its rows times its
    span, f has more than one row, and the rows of f^ceil(N/2) stay within
    2^14 bits.  Outside that, measured against one-slot rows: x + 1/x (one
    row) was 1.35 times slower at N=50, and (1 + x + y)(1 + 1/x + 1/y) 2.2
    times at N=80 (20655-bit rows), where each level's whole-row products
    cost more than the power steps save.  Since bits(S^N) > N (bits(S) - 1),
    a depth past that bound is refused at once, and S^N is never built
    there; nor are the T^2 sums of supp(f f) past sqrt(MAX_SERIES_TERMS).
    """
    cols, scale = _narrowed(terms), math.lcm(*(c.denominator for c in terms.values()))
    coeffs = [int(c * scale) for c in terms.values()]
    S, K = sum(map(abs, coeffs)), (N + 1) // 2
    base = 2 * max((max(map(abs, col)) for col in cols), default=0) * max(K, 2) + 1
    keys = [pack_exponents(p, base) for p in zip(*cols)]
    if 1 < len(terms) <= math.isqrt(MAX_SERIES_TERMS) and N * (S.bit_length() - 1) < _ROW_BITS:
        rests = [{k - e * base**axis for k, e in zip(keys, col)} for axis, col in enumerate(cols)]
        # per axis: rows of supp(f f) times its span
        sizes = [len({a + b for a in rest for b in rest}) * (2 * _width(col) + 1)
                 for rest, col in zip(rests, cols)]
        axis = sizes.index(min(sizes))
        col, low, unit = cols[axis], min(cols[axis]), base**axis
        if 2 * len({a + b for a in keys for b in keys}) >= sizes[axis] and len(rests[axis]) > 1:
            width = (S**N).bit_length() + 1
            if (K * _width(col) + 1) * width <= _ROW_BITS:
                rows = {}
                for k, e, c in zip(keys, col, coeffs):
                    rows[k - e * unit] = rows.get(k - e * unit, 0) + (c << width * (e - low))
                return rows, width, -low, scale
    return dict(zip(keys, coeffs)), 0, 0, scale


def constant_term_series_mitm(f, N):
    """The same series under a name of its own, which perfbench/spans.py times by name."""
    return constant_term_series(f, N)


def substitute_monomial(f, matrix):
    """Relabel monomials by an integer change of variables, x^m -> x^(U m).

    U must be unimodular so the relabeling is a bijection of the monomial
    lattice; the constant-term series is then unchanged because U m = 0 only
    for m = 0.
    """
    n = f.dimension
    U = [integer_point(row, "matrix row") for row in matrix]
    if len(U) != n or any(len(row) != n for row in U):
        raise DimensionMismatch(f"matrix must be {n}x{n}")
    d = linalg.det(U)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {d})")
    terms = {}
    for exps, c in f._terms.items():
        e = tuple(sum(U[i][j] * exps[j] for j in range(n)) for i in range(n))
        terms[e] = c
    return LaurentPoly(n, terms)


class ClearingReport(namedtuple("ClearingReport", "passes cleared_degree shift")):
    """Result of clearing denominators of the pencil 1 - t f.

    `shift` is the componentwise monomial shift that clears all negative
    exponents; `cleared_degree` is the total degree of the cleared pencil,
    and `passes` says whether it equals dimension + 1 (degree 4 for n = 3,
    the anticanonical degree of projective space).
    """

    __slots__ = ()


def quartic_compactification_check(f):
    """Clear poles of 1 - t f by the minimal monomial shift and grade the result.

    The shift d has d_i = max(0, -min exponent of x_i over the support); the
    cleared degree is the larger of |d| (from the shifted 1) and the maximal
    shifted total degree over the support.  Passing means the pencil closes
    up in projective space in degree n + 1.
    """
    if not f:
        raise ValueError("the zero polynomial has no clearing degree")
    n = f.dimension
    support = f.support()
    shift = tuple(max(0, -min(m[i] for m in support)) for i in range(n))
    shifted_max = max(sum(m[i] + shift[i] for i in range(n)) for m in support)
    cleared = max(sum(shift), shifted_max)
    return ClearingReport(cleared == n + 1, cleared, shift)
