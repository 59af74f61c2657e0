"""Exact tools for weak Landau-Ginzburg models of Fano threefolds.

The package matches constant-term series of Laurent polynomials against
power-series solutions of low-order differential operators, fits annihilating
operators to series prefixes, computes lattice-polytope invariants of
candidate toric degenerations, and searches for integer coefficient
assignments by modular enumeration with exact lift verification.

Everything is exact: coefficients are Python ints or Fractions, and no
floating point enters any computation.
"""

__version__ = "0.1.0"

__all__ = [
    "laurent",
    "linalg",
    "dseries",
    "polytope",
    "search",
    "catalog",
    "cli",
]
