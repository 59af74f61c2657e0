"""Coefficient search: find integer Laurent polynomials with a given series.

The problem comes in as a support ansatz (points grouped into symmetry
orbits, one unknown coefficient per orbit, some orbits pinned to fixed
values) plus a target series prefix.  With the support fixed, each constant
term phi(r) is a polynomial of degree r in the orbit coefficients.  One
SearchConfig (target, primes, height, depths) drives both stages.
search_mod_p builds these level polynomials phi(1..depth) from one expansion
in which every orbit coefficient is a variable, reads off it both the level
where each orbit enters and phi(r) with the fixed values substituted, and
searches every configured prime from it.  It hands a ModularStage (the
level polynomials beside the survivors and their statistics) to
lift_and_verify, so the one expansion per search() serves both stages.
The search enumerates orbit coefficients modulo one or more primes, pruning
level by level: phi(r) only involves orbits whose points can take part in a
zero-sum r-fold product, so orbits are brought in exactly when they first
matter and each partial assignment is tested by evaluating phi(r) mod p.
Surviving residue assignments are lifted to integers within a height bound
(CRT across primes first), at most MAX_LIFTS of them.  Each lift must
first satisfy phi(1..depth) exactly, then its full constant-term series is
verified with the rational engine, so nothing modular is ever trusted in the
output.
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .laurent import (
    MAX_SERIES_TERMS,
    LaurentPoly,
    ParseError,
    PointDims,
    clip,
    constant_term_levels,
    constant_term_series,
    data_lines,
    format_rational,
    integer_point,
    normalize_rational,
    pack_exponents,
    parse_ints,
    parse_rational,
)
from .linalg import is_prime


class HeightBoundExceeded(RuntimeError):
    """Residue assignments survived, but no integer lift fits the height bound.

    `stats` carries the SearchStats of the stopped search.
    """

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class CoefficientDomain(namedtuple("CoefficientDomain", "kind values")):
    """What one orbit coefficient may be: free over Z, fixed, or a finite choice."""

    __slots__ = ()

    def __new__(cls, kind, values=()):
        if kind == "free":
            if values:
                raise ValueError("a free domain carries no values")
        elif kind == "fixed":
            if len(values) != 1:
                raise ValueError("a fixed domain needs exactly one value")
            values = (normalize_rational(values[0]),)
        elif kind == "choice":
            values = tuple(sorted(set(values)))
            if not values:
                raise ValueError("a choice domain needs at least one value")
            if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
                raise ValueError("choice values must be integers")
        else:
            raise ValueError(f"unknown domain kind {kind!r}")
        return super().__new__(cls, kind, values)

    @classmethod
    def free(cls):
        return cls("free")

    @classmethod
    def fixed(cls, value):
        return cls("fixed", (value,))

    @classmethod
    def choice(cls, *values):
        return cls("choice", tuple(values))

    def is_integral(self):
        if self.kind == "fixed":
            return isinstance(self.values[0], int)
        return True

    def describe(self):
        if self.kind == "free":
            return "free"
        if self.kind == "fixed":
            return f"fixed {format_rational(self.values[0])}"
        return "choice " + " ".join(str(v) for v in self.values)


class OrbitSpec(namedtuple("OrbitSpec", "label points domain")):
    """One symmetry orbit of support points sharing a single coefficient.

    `points` comes out as a sorted tuple of distinct int tuples, and `domain`
    is a CoefficientDomain.
    """

    __slots__ = ()

    def __new__(cls, label, points, domain):
        points = tuple(sorted(set(map(integer_point, points))))
        if not points:
            raise ValueError(f"orbit {label!r} has no points")
        return super().__new__(cls, label, points, domain)


class SupportAnsatz(namedtuple("SupportAnsatz", "dimension orbits")):
    """A support set partitioned into orbits, each with a coefficient domain."""

    __slots__ = ()

    def __new__(cls, dimension, orbits):
        if not isinstance(dimension, int) or dimension < 1:
            raise ValueError("dimension must be a positive integer")
        specs = tuple(sorted(orbits, key=lambda s: s.points[0]))
        if not specs:
            raise ValueError("an ansatz needs at least one orbit")
        seen_points = set()
        seen_labels = set()
        for spec in specs:
            if spec.label in seen_labels:
                raise ValueError(f"duplicate orbit label {spec.label!r}")
            seen_labels.add(spec.label)
            for p in spec.points:
                if len(p) != dimension:
                    raise ValueError(f"point {p} does not have dimension {dimension}")
                if p in seen_points:
                    raise ValueError(f"point {p} appears in two orbits")
                seen_points.add(p)
        return super().__new__(cls, dimension, specs)

    def support(self):
        return tuple(sorted(p for spec in self.orbits for p in spec.points))

    def to_text(self):
        lines = [f"# dim {self.dimension}"]
        for spec in self.orbits:
            for p in spec.points:
                coords = " ".join(str(x) for x in p)
                lines.append(f"{coords} : {spec.label} : {spec.domain.describe()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        dims = PointDims()
        groups = {}
        owners = {}
        for lineno, line in data_lines(text, dims):
            parts = [part.strip() for part in line.split(":")]
            if len(parts) != 3:
                raise ParseError("expected '<point> : <label> : <domain>'", lineno)
            point = dims.point(parts[0], lineno)
            label = parts[1]
            if not label:
                raise ParseError("empty orbit label", lineno)
            domain = _parse_domain(parts[2], lineno)
            entry = groups.setdefault(label, (domain, []))
            if entry[0] != domain:
                raise ParseError(
                    f"orbit {clip(label)!r} has conflicting domain annotations", lineno
                )
            if owners.setdefault(point, label) != label:
                raise ParseError(f"point {clip(point)} appears in two orbits", lineno)
            entry[1].append(point)
        if not groups:
            raise ParseError("empty ansatz input")
        specs = [
            OrbitSpec(label, tuple(points), domain)
            for label, (domain, points) in groups.items()
        ]
        return cls(dims.n, specs)


def _parse_domain(text, lineno):
    parts = text.split()
    if not parts:
        raise ParseError("missing domain annotation", lineno)
    if parts[0] == "free":
        if len(parts) != 1:
            raise ParseError("'free' takes no arguments", lineno)
        return CoefficientDomain.free()
    if parts[0] == "fixed":
        if len(parts) != 2:
            raise ParseError("'fixed' takes exactly one value", lineno)
        return CoefficientDomain.fixed(parse_rational(parts[1], lineno))
    if parts[0] == "choice":
        if len(parts) < 2:
            raise ParseError("'choice' needs at least one value", lineno)
        values = parse_ints(" ".join(parts[1:]))
        if values is None:
            raise ParseError("choice values must be integers", lineno)
        return CoefficientDomain.choice(*values)
    raise ParseError(f"unknown domain kind {clip(parts[0])!r}", lineno)


def _apply_matrix(matrix, point):
    return tuple(sum(row[j] * point[j] for j in range(len(point))) for row in matrix)


def orbits(points, generators):
    """Partition points into orbits under the group the generators produce.

    Each generator must map the point set into itself; since it is then a
    permutation of a finite set, closing under the generators alone already
    closes under their inverses.  Orbits come back sorted, each one a sorted
    tuple of points.
    """
    pts = sorted(set(map(integer_point, points)))
    if not pts:
        raise ValueError("no points to partition")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimensions")
    pset = set(pts)
    mats = []
    for g in generators:
        mat = tuple(integer_point(row, "generator row") for row in g)
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError(f"generator must be a {n}x{n} integer matrix")
        for p in pts:
            q = _apply_matrix(mat, p)
            if q not in pset:
                raise ValueError(f"generator does not preserve the support: {p} -> {q}")
        mats.append(mat)
    remaining = set(pts)
    result = []
    for p in pts:
        if p not in remaining:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for mat in mats:
                r = _apply_matrix(mat, q)
                if r not in orbit:
                    orbit.add(r)
                    frontier.append(r)
        remaining -= orbit
        result.append(tuple(sorted(orbit)))
    return tuple(result)


class SearchConfig(namedtuple(
    "SearchConfig", "target primes height depth verify_depth"
)):
    """Target prefix (a PowerSeries) plus the knobs of the modular search.

    `depth` is the modular matching depth (constraints phi(r) = a_r for
    r = 1..depth); `verify_depth` is the exact verification depth, so the
    target series must extend at least that far.
    """

    __slots__ = ()

    def __new__(cls, target, primes=(7,), height=6, depth=4, verify_depth=8):
        primes = tuple(primes)
        if not primes:
            raise ValueError("at least one prime is required")
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be distinct")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{clip(p)} is not prime")
        if height < 1:
            raise ValueError("height bound must be at least 1")
        if depth < 2:
            raise ValueError("modular depth must be at least 2")
        if verify_depth < depth:
            raise ValueError("verification depth must be at least the modular depth")
        if target.order < verify_depth:
            raise ValueError(
                f"target series order {target.order} is below the"
                f" verification depth {clip(verify_depth)}"
            )
        if target[0] != 1:
            raise ValueError("target series must have constant coefficient 1")
        return super().__new__(cls, target, primes, height, depth, verify_depth)


PrimeStats = namedtuple(
    "PrimeStats", "prime enumerated survivors_per_level survivor_count"
)


class SearchStats(namedtuple(
    "SearchStats", "prime_stats residue_combinations lifts_tried exact_matches"
)):
    """Search counters; `prime_stats` holds one PrimeStats per prime."""

    __slots__ = ()

    def to_document(self):
        lines = []
        for st in self.prime_stats:
            lines.append(f"prime.{st.prime}.assignments-enumerated: {st.enumerated}")
            for r, count in st.survivors_per_level:
                lines.append(f"prime.{st.prime}.survivors.r{r}: {count}")
            lines.append(f"prime.{st.prime}.survivors: {st.survivor_count}")
        lines.append(f"residue-combinations: {self.residue_combinations}")
        lines.append(f"lifts-tried: {self.lifts_tried}")
        lines.append(f"exact-matches: {self.exact_matches}")
        return "\n".join(lines) + "\n"


SearchResult = namedtuple("SearchResult", "matches stats")

# What search_mod_p hands to lift_and_verify: `levels` holds phi(1..depth) as
# _level_polynomials gives them, `survivors` maps each prime, in search
# order, to its survivor tuples, and `prime_stats` holds one PrimeStats each.
ModularStage = namedtuple("ModularStage", "ansatz config levels survivors prime_stats")


def _modular_residue(value, p, context):
    frac = Fraction(value)
    if frac.denominator % p == 0:
        raise ValueError(f"{context} {value} is not defined modulo {p}")
    return frac.numerator * pow(frac.denominator, -1, p) % p


def _level_polynomials(ansatz, depth):
    """(levels, first): phi(1..depth) and the level at which each orbit enters.

    One expansion makes every orbit coefficient a variable and every point
    coefficient 1, through the extra packed variables of
    laurent.constant_term_levels: c_j x^m has key pack(m) * C + (depth + 1)^j
    with C = (depth + 1)^k for k orbits, since no degree exceeds depth.  Each
    of its coefficients counts zero-sum r-fold products of support points, so
    none cancels: `first` maps each orbit index to the least r whose phi(r)
    holds that orbit's variable, fixed orbits included, and orbits that never
    matter within `depth` are absent.  `levels` substitutes the fixed values:
    entry r - 1 maps exponent tuples (one exponent per non-fixed orbit, in
    ansatz order) to nonzero int or Fraction coefficients.

    Each term of f^K, K = ceil(depth/2), is an exponent and an orbit monomial
    from a multiset of K of the T support points, so a depth whose
    C(T + K - 1, K) passes MAX_SERIES_TERMS is refused with ValueError
    before the expansion.
    """
    support, K = ansatz.support(), (depth + 1) // 2
    count = math.comb(len(support) + K - 1, K)
    if count > MAX_SERIES_TERMS:
        raise ValueError(f"search depth {clip(depth)}: f^{clip(K)} may have up to {clip(count)}"
                         f" terms, over {MAX_SERIES_TERMS}")
    digit = depth + 1
    specs = ansatz.orbits
    split = digit ** len(specs)
    base = 2 * max(abs(x) for p in support for x in p) * K + 1
    terms = {
        pack_exponents(point, base) * split + digit**j: 1
        for j, spec in enumerate(specs) for point in spec.points
    }
    fixed = [spec.domain.values[0] if spec.domain.kind == "fixed" else None for spec in specs]
    levels, first = [], {}
    for r, level in enumerate(constant_term_levels(terms, depth, split)[1:], 1):
        poly = {}
        for key, coeff in level.items():
            exps = []
            for j, value in enumerate(fixed):
                key, e = divmod(key, digit)
                if e:
                    first.setdefault(j, r)
                if value is None:
                    exps.append(e)
                elif e:
                    coeff *= value**e
            exps = tuple(exps)
            poly[exps] = poly.get(exps, 0) + coeff
        levels.append({exps: normalize_rational(c) for exps, c in poly.items() if c})
    return levels, first


def _sparse_terms(poly, positions):
    """(coefficient, ((position, exponent), ...)) pairs for _evaluate."""
    return [
        (c, tuple((positions[k], e) for k, e in enumerate(exps) if e))
        for exps, c in poly.items()
    ]


def _evaluate(terms, values):
    total = 0
    for coeff, factors in terms:
        for pos, e in factors:
            coeff *= values[pos] ** e
        total += coeff
    return total


def _undetermined(ansatz):
    """(index, spec) of every orbit whose coefficient is not fixed."""
    return [(idx, s) for idx, s in enumerate(ansatz.orbits) if s.domain.kind != "fixed"]


# Partial assignments search_mod_p may hold at once: a bound on its memory.
# The all-free S3-orbit searches of the catalog models, at any depth from 3
# to 6, pass up to p = 31 on V16 (7 orbits; it holds about 30758 (p/13)^4,
# 953312 at p = 31 in a 114 MiB Python 3.11 process) and up to p = 97 on V18
# (5 orbits; p^3 at level 2); p = 37 and p = 101 are refused.  Small
# primes combined by CRT reach any height window, so no search needs one
# large prime.
MAX_PARTIAL_ASSIGNMENTS = 1_000_000

# Lifts lift_and_verify may try: a bound on its time, checked before the
# first lift against the most lifts the residue combinations can have.  A
# lift the phi(1..depth) pre-check rejects costs about 1 us in Python 3.11:
# the all-free S3-orbit search of V18 at p = 11, depth 5 tries 53220 lifts
# at height 30 in 0.05 s and 7593750 at height 82 in 7.0 s, so a refused
# search would have run for about 10 s or more.  More primes shrink the
# window each residue combination lifts into.
MAX_LIFTS = 10_000_000


def search_mod_p(ansatz, config):
    """All orbit-coefficient assignments over Z/p matching the target prefix.

    Returns a ModularStage whose survivors cover config.primes, searched in
    order from one expansion of the level polynomials phi(1..depth).  Each
    survivor is a tuple of residues aligned with the non-fixed orbits in
    ansatz order.  Pruning is level by level in r, evaluating phi(r) mod p on
    each partial assignment; when the target has a non-integral coefficient
    and every coefficient domain is integral, that level eliminates
    everything (an integer polynomial has integer constant terms).  An
    extension past MAX_PARTIAL_ASSIGNMENTS partial assignments raises
    ValueError.
    """
    target, depth = config.target, config.depth
    integral = all(spec.domain.is_integral() for spec in ansatz.orbits)
    unreachable = {
        r for r in range(1, depth + 1) if integral and Fraction(target[r]).denominator != 1
    }
    levels, first = _level_polynomials(ansatz, depth)
    undetermined = _undetermined(ansatz)
    # orbits are assigned at the level where they first matter; a stable sort
    # keeps the ansatz's representative order within a level
    entry = [first.get(idx, depth + 1) for idx, _ in undetermined]
    order = sorted(range(len(undetermined)), key=entry.__getitem__)
    position = {k: pos for pos, k in enumerate(order)}
    entering = [[undetermined[k][1] for k in order if entry[k] == r] for r in range(1, depth + 2)]
    level_terms = [_sparse_terms(poly, position) for poly in levels]
    per_prime, prime_stats = {}, []
    for p in config.primes:
        residue_wanted = {
            r: _modular_residue(target[r], p, "target coefficient")
            for r in range(1, depth + 1) if r not in unreachable
        }
        for spec in ansatz.orbits:
            if spec.domain.kind == "fixed":
                # every level coefficient is then defined modulo p as well
                _modular_residue(spec.domain.values[0], p, "fixed coefficient")
        checks = [
            [(_modular_residue(c, p, "level coefficient"), factors) for c, factors in terms]
            for terms in level_terms
        ]

        partials = [()]
        enumerated = 0
        per_level = []
        # level depth + 1 only assigns the orbits that never influence the prefix
        for r, specs in enumerate(entering, 1):
            for spec in specs:
                if spec.domain.kind == "free":
                    domain = range(p)
                else:
                    domain = sorted({v % p for v in spec.domain.values})
                # len() of a range stops at sys.maxsize, below some primes is_prime accepts
                count = len(partials) * (p if isinstance(domain, range) else len(domain))
                if count > MAX_PARTIAL_ASSIGNMENTS:
                    raise ValueError(
                        f"level {r} would hold {count} partial assignments modulo {p},"
                        f" more than the {MAX_PARTIAL_ASSIGNMENTS} a search may hold"
                    )
                partials = [part + (v,) for part in partials for v in domain]
                enumerated += len(partials)
            if r > depth:
                break
            if r in unreachable:
                partials = []
            else:
                # phi(r) only involves orbits of level <= r, all assigned by now
                want, terms = residue_wanted[r], checks[r - 1]
                partials = [part for part in partials if _evaluate(terms, part) % p == want]
            per_level.append((r, len(partials)))
            if not partials:
                break
        survivors = tuple(
            sorted(tuple(part[position[k]] for k in range(len(order))) for part in partials)
        )
        per_prime[p] = survivors
        prime_stats.append(PrimeStats(p, enumerated, tuple(per_level), len(survivors)))
    return ModularStage(ansatz, config, levels, per_prime, tuple(prime_stats))


def _crt(residues, primes):
    """Residue and modulus of the combined congruence system."""
    value, modulus = residues[0] % primes[0], primes[0]
    for r, p in zip(residues[1:], primes[1:]):
        inv = pow(modulus, -1, p)
        t = ((r - value) * inv) % p
        value += modulus * t
        modulus *= p
    return value % modulus, modulus


def _assemble(ansatz, undetermined, values):
    terms = {}
    for spec in ansatz.orbits:
        if spec.domain.kind == "fixed":
            for point in spec.points:
                terms[point] = spec.domain.values[0]
    for (_, spec), v in zip(undetermined, values):
        for point in spec.points:
            terms[point] = v
    return LaurentPoly(ansatz.dimension, terms)


def lift_and_verify(stage):
    """Lift a ModularStage's surviving residues to integers and verify each lift exactly.

    Residues are combined across the stage's primes by CRT per orbit, lifted
    within the height bound, and checked exactly against the stage's level
    polynomials phi(1..depth); a lift passing that pre-check is assembled
    into a polynomial and accepted only when its exact constant-term series
    matches the target through config.verify_depth.  Returns the
    SearchResult, whose stats always carry the per-prime pruning profile,
    even when nothing survives.
    Raises HeightBoundExceeded, carrying those stats, when residue
    combinations survive but not a single one admits an in-range lift, and
    ValueError, before any lift, when the combinations could need more than
    MAX_LIFTS lifts.
    """
    ansatz, config, survivors = stage.ansatz, stage.config, stage.survivors
    primes = tuple(survivors)
    undetermined = _undetermined(ansatz)
    surviving = math.prod(map(len, survivors.values()))
    window = -(-(2 * config.height + 1) // math.prod(primes))
    most = surviving * math.prod(
        len(spec.domain.values) if spec.domain.kind == "choice" else window
        for _, spec in undetermined
    )
    if most > MAX_LIFTS:
        raise ValueError(
            f"{surviving} residue combinations modulo {'x'.join(str(p) for p in primes)}"
            f" could need {clip(most)} lifts into [-{clip(config.height)}, {clip(config.height)}],"
            f" more than the {MAX_LIFTS} a search may try"
        )
    target = config.target
    prefix = target.truncate(config.verify_depth)
    checks = [
        (target[r], _sparse_terms(poly, range(len(undetermined))))
        for r, poly in enumerate(stage.levels, 1)
    ]
    matches = {}
    combinations = 0
    lifts_tried = 0
    range_blocked = 0
    for combo in itertools.product(*survivors.values()):
        combinations += 1
        option_lists = []
        for pos, (_, spec) in enumerate(undetermined):
            value, modulus = _crt([assignment[pos] for assignment in combo], primes)
            if spec.domain.kind == "choice":
                options = [v for v in spec.domain.values if v % modulus == value]
            else:
                height = config.height
                options = range(-height + (value + height) % modulus, height + 1, modulus)
            if not options:
                range_blocked += spec.domain.kind != "choice"
                break
            option_lists.append(options)
        else:
            for values in itertools.product(*option_lists):
                lifts_tried += 1
                if any(_evaluate(terms, values) != want for want, terms in checks):
                    continue
                candidate = _assemble(ansatz, undetermined, values)
                if constant_term_series(candidate, config.verify_depth) == prefix:
                    matches.setdefault(candidate.to_text(), candidate)
    stats = SearchStats(stage.prime_stats, combinations, lifts_tried, len(matches))
    if not matches and lifts_tried == 0 and range_blocked > 0:
        raise HeightBoundExceeded(
            f"{combinations} residue combinations survived modulo"
            f" {'x'.join(str(p) for p in primes)} but none lifts into"
            f" [-{config.height}, {config.height}]",
            stats,
        )
    return SearchResult(tuple(matches[key] for key in sorted(matches)), stats)


def search(ansatz, config):
    """Full pipeline: per-prime modular search, CRT lift, exact verification."""
    return lift_and_verify(search_mod_p(ansatz, config))
