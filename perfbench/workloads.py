"""Seeded inputs, job lists and output checks for the four workloads.

The seed draws one random GL(3,Z) map, applied to every model and search
support, and the twelve `screen` point sets.  Series, verdicts, match counts
and search statistics are invariant under the map, so the known answers in
expected.json hold for every seed.  The program sees only the files written
here.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import (
    MODELS,
    OPERATORS,
    annihilates,
    apply_unimodular,
    constant_terms,
    fit_rows,
    fmt,
    hull,
    invariant_lines,
    rank_mod,
    solve,
)

WORKLOADS = ("verify", "search-enum", "search-lift", "screen")

# Passes are kept at 4 to 7 s on a 2-core VM so that three or more fit in a
# run.  The `verify` jobs compare at N=13: at the CLI default of 20 one pass
# takes about 30 s.  The `screen` point sets hold 20 to 30 points: at 40 one hull alone
# takes over a second.
VERIFY_N = 13
MITM_N = 24
SCREEN_SIZES = tuple(20 + round(10 * i / 11) for i in range(12))

# Search jobs: (name, model, orbit domains, prime, depth, height, matches,
# [assignments enumerated, survivors per level, survivors, residue
# combinations, lifts tried]).  The verification depth is the CLI default, 8.
# Match counts and statistics are the program's own output when the benchmark
# was defined; they do not depend on the seed.  The matches themselves are
# checked independently: each must have the target series.
SEARCHES = {
    "search-enum": (
        ("V18-free-p11", "V18", "free", 11, 5, 4, 2, [2926, (1, 132, 100, 20, 10), 10, 10, 4]),
    ),
    "search-lift": (
        ("V16-fixed-p7", "V16", "fixed", 7, 4, 5, 1, [21, (1, 1, 1, 1), 1, 1, 8]),
        ("V18-fixed-p7", "V18", "fixed", 7, 4, 5, 1, [14, (1, 1, 1, 1), 1, 1, 4]),
    ),
}
SEARCH_VERIFY_DEPTH = 8


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its arguments and a checker of (stdout, exit code).

    `check` returns None when the output is the known answer, otherwise a
    one-line reason.
    """

    name: str
    argv: tuple
    check: object


def random_unimodular(rng, steps=6):
    """Product of random shears, row swaps and sign flips; det stays +-1."""
    U = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(steps):
        kind, i, j = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        if kind == 0 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-a for a in U[i]]
    return U


def point_sets(rng):
    """Point sets in [-2,2]^3 that always hold +-e_i, so the origin is interior."""
    axes = [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    pool = [p for p in itertools.product(range(-2, 3), repeat=3) if p not in axes]
    return [sorted(axes + rng.sample(pool, size - len(axes))) for size in SCREEN_SIZES]


# --- file formats -------------------------------------------------------------

def poly_text(terms):
    lines = ["# dim 3"] + [f"{fmt(c)} : {' '.join(map(str, e))}" for e, c in sorted(terms.items())]
    return "\n".join(lines) + "\n"


def operator_text(table):
    lines = [f"order {len(table[0]) - 1}, tdeg {len(table) - 1}"] + [" ".join(r) for r in table]
    return "\n".join(lines) + "\n"


def series_text(coeffs):
    return "".join(f"{i} {c}\n" for i, c in enumerate(coeffs))


def ansatz_text(U, name, mode):
    """S3-orbit ansatz of a model's support, mapped by U.

    Orbits are taken in the recorded coordinates, where coordinate
    permutations are symmetries; `fixed` pins the orbits made of Newton
    vertices to 1 and leaves the rest free, `free` frees every orbit.
    """
    support = sorted(MODELS[name])
    vertices, _ = hull(support)
    orbits = sorted({tuple(sorted(set(itertools.permutations(p)))) for p in support})
    lines = ["# dim 3"]
    for k, orbit in enumerate(orbits):
        label = f"o{k}"
        domain = "fixed 1" if mode == "fixed" and all(q in vertices for q in orbit) else "free"
        for q in orbit:
            image = apply_unimodular(U, {q: 1})
            lines.extend(f"{' '.join(map(str, e))} : {label} : {domain}" for e in image)
    return "\n".join(lines) + "\n"


# --- checks -------------------------------------------------------------------

def _expect_text(want_code, want_text):
    def check(out, code):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if out != want_text:
            got, want = out.splitlines(), want_text.splitlines()
            diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                        min(len(got), len(want)))
            shown = got[diff] if diff < len(got) else "<end>"
            return f"line {diff + 1}: {shown!r}, expected {want[diff] if diff < len(want) else '<end>'!r}"
        return None
    return check


def verify_document(terms, table, phi, N):
    """The `verify` document the CLI should print, from independent parts."""
    sol = solve(table, N)
    first = next((i for i in range(N + 1) if Fraction(phi[i]) != sol[i]), None)
    support = list(terms)
    shift = [max(0, -min(m[i] for m in support)) for i in range(3)]
    cleared = max(sum(shift), max(sum(m[i] + shift[i] for i in range(3)) for m in support))
    m, r = len(table[0]) - 1, len(table) - 1
    determination = (m + 1) * (r + 1) + r
    _, facets = hull(support)
    lines = [
        f"verdict: {'mismatch' if first is not None else f'very-weak-confirmed-to-{N}'}",
        f"order-checked: {N}",
        f"first-mismatch: {'none' if first is None else first}",
        f"newton-interior: {'true' if all(c > 0 for _, c in facets) else 'false'}",
        f"quartic-passes: {'true' if cleared == 4 else 'false'}",
        f"quartic-cleared-degree: {cleared}",
        f"quartic-shift: {' '.join(map(str, shift))}",
        f"determination-order: {determination}",
        f"determined-within-bound: {'true' if N >= determination else 'false'}",
    ]
    for i in range(N + 1):
        a, b = Fraction(phi[i]), sol[i]
        lines.append(f"coeff.{i}: {fmt(a)} {fmt(b)} {'match' if a == b else 'MISMATCH'}")
    return "\n".join(lines) + "\n", (0 if first is None else 3)


def _parse_poly_blocks(lines):
    polys, stats = [], []
    for line in lines:
        if not line:
            polys.append({})
        elif line.startswith("#"):
            continue
        elif " : " in line:
            coeff, exps = line.split(" : ")
            polys[-1][tuple(int(x) for x in exps.split())] = Fraction(coeff)
        else:
            stats.append(line)
    return polys, stats


def _search_check(U, model, prime, want_matches, want_stats):
    enumerated, levels, survivors, combos, lifts = want_stats
    stats = [f"prime.{prime}.assignments-enumerated: {enumerated}"]
    stats += [f"prime.{prime}.survivors.r{r}: {n}" for r, n in enumerate(levels, 1)]
    stats += [f"prime.{prime}.survivors: {survivors}", f"residue-combinations: {combos}",
              f"lifts-tried: {lifts}", f"exact-matches: {want_matches}"]
    mapped = apply_unimodular(U, MODELS[model])
    target = solve(OPERATORS[model], SEARCH_VERIFY_DEPTH)

    def check(out, code):
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if not lines or lines[0] != f"matches: {want_matches}":
            return f"first line {lines[:1]}, expected 'matches: {want_matches}'"
        polys, got_stats = _parse_poly_blocks(lines[1:])
        if got_stats != stats:
            return f"statistics {got_stats}, expected {stats}"
        if len(polys) != want_matches:
            return f"{len(polys)} match blocks, expected {want_matches}"
        if mapped not in polys:
            return "the mapped catalog model is not among the matches"
        for poly in polys:
            if constant_terms(poly, SEARCH_VERIFY_DEPTH) != target:
                return "a match does not have the target series"
        return None
    return check


def _fit_check(series, m, r, N, basis_size):
    rows = fit_rows(series, m, r, N)

    def check(out, code):
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if lines[:1] != [f"basis-size: {basis_size}"]:
            return f"first line {lines[:1]}, expected 'basis-size: {basis_size}'"
        body = lines[1:]
        step = r + 3
        if len(body) != step * basis_size:
            return f"{len(body)} element lines, expected {step * basis_size}"
        tables = []
        for k in range(basis_size):
            block = body[k * step:(k + 1) * step]
            if block[:2] != [f"element: {k}", f"order {m}, tdeg {r}"]:
                return f"element {k} header {block[:2]}"
            flat = [Fraction(x) for row in block[2:] for x in row.split()]
            if not annihilates(rows, flat):
                return f"element {k} does not annihilate the series through {N}"
            tables.append(flat)
        if rank_mod(tables, (m + 1) * (r + 1)) != basis_size:
            return "basis elements are linearly dependent"
        return None
    return check


def build(workload, seed, workdir, expected):
    """Write the workload's inputs for this seed and return its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    U = random_unimodular(rng)
    screen_sets = point_sets(rng)

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    ops = {name: write(f"{name}.op", operator_text(t)) for name, t in OPERATORS.items()}
    models = {name: apply_unimodular(U, t) for name, t in MODELS.items()}
    polys = {name: write(f"{name}.poly", poly_text(t)) for name, t in models.items()}
    jobs = []
    if workload == "verify":
        for model, op in (("V16", "V16"), ("V18", "V18"), ("V22", "V22"), ("V22", "V22-derived")):
            text, code = verify_document(models[model], OPERATORS[op],
                                         expected["series"][model], VERIFY_N)
            jobs.append(Job(f"verify-{op}", ("verify", "-f", polys[model], "-L", ops[op],
                                             "-N", str(VERIFY_N)), _expect_text(code, text)))
        want = series_text(expected["series"]["V16"][:MITM_N + 1])
        jobs.append(Job("series-V16-mitm", ("series", "-f", polys["V16"], "-N", str(MITM_N),
                                            "--mitm"), _expect_text(0, want)))
    elif workload in SEARCHES:
        for name, model, mode, prime, depth, height, matches, stats in SEARCHES[workload]:
            path = write(f"{name}.ansatz", ansatz_text(U, model, mode))
            argv = ("search", "-a", path, "-L", ops[model], "--prime", str(prime),
                    "--depth", str(depth), "--height", str(height),
                    "--verify-depth", str(SEARCH_VERIFY_DEPTH))
            jobs.append(Job(name, argv, _search_check(U, model, prime, matches, stats)))
    else:
        for k, points in enumerate(screen_sets):
            path = write(f"points-{k:02d}.txt", "".join(" ".join(map(str, p)) + "\n" for p in points))
            text = "\n".join(invariant_lines(points)) + "\n"
            jobs.append(Job(f"hull-{k:02d}-{len(points)}pts", ("polytope", "-p", path),
                            _expect_text(0, text)))
        for name, lines in expected["catalog_polytope"].items():
            jobs.append(Job(f"polytope-{name}", ("polytope", "--catalog", name),
                            _expect_text(0, "\n".join(lines) + "\n")))
        sources = {"V22": expected["series"]["V22"], "V22-derived": expected["derived_solution"]}
        paths = {name: write(f"{name}.series", series_text(s)) for name, s in sources.items()}
        for fit in expected["fits"]:
            name, m, r, N = fit["series"], fit["m"], fit["r"], fit["N"]
            series = [int(c) for c in sources[name]]
            jobs.append(Job(f"fit-{name}-m{m}r{r}", ("fit", "-s", paths[name], "-m", str(m),
                                                     "-r", str(r), "-N", str(N)),
                            _fit_check(series, m, r, N, fit["basis_size"])))
    return jobs
