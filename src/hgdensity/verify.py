"""Bulk cross-checks between the digit criterion and the residue-class formula.

These helpers drive the exhaustive verification sweeps: for every parameter
triple of a given modulus they compare, prime by prime, the per-prime digit
inequality against membership of p mod m in the bounded-residue set, and the
empirical coefficient-valuation verdict against the digit verdict.  They are
written to be cheap enough for exhaustive runs over every modulus m <= 30
and are safe to fan out across processes (one task per modulus).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import HGParams, mod_order, primes_in_range
from .density import (
    _closure_members,
    _pointwise_members,
    bounded_counts,
    zero_density_criterion,
)
from .padic import Verdict, empirical_bounded


def params_with_modulus(m: int):
    """All integer triples (X, Y, Z) with (X/m, Y/m; Z/m) of modulus exactly m.

    Z != X, Y gives c != a, b; the lcm of the three denominators equals m
    exactly when gcd(X, Y, Z, m) = 1.
    """
    for X in range(1, m):
        gx = math.gcd(X, m)
        for Y in range(1, m):
            gxy = math.gcd(gx, Y)
            for Z in range(1, m):
                if Z == X or Z == Y:
                    continue
                if math.gcd(gxy, Z) == 1:
                    yield X, Y, Z


def _prime_classes(m: int, lo: int, hi: int) -> dict[int, list[int]]:
    """Primes lo < p < hi grouped by residue class mod m."""
    classes: dict[int, list[int]] = {}
    for p in primes_in_range(lo, hi):
        classes.setdefault(p % m, []).append(p)
    return classes


def _digit_check_tables(m: int, classes: dict[int, list[int]]):
    """Per residue class u: the multipliers -u^(M-1-j) mod m for j < M,
    where M is the order of u mod m."""
    tables = {}
    for u in classes:
        M = mod_order(u, m)
        tables[u] = [-pow(u, M - 1 - j, m) % m for j in range(M)]
    return tables


def _digit_pairs(X: int, Y: int, Z: int, m: int, mults: list[int]):
    """Digit numerators (C_j, E_j), j < M, of (X/m, Y/m; Z/m) at the primes
    p of one residue class, whose multipliers ``mults`` are -p^(M-1-j) mod m.

    Digit j of c - 1 is C_j p // m, and E_j is the larger of the numerators
    of a and b; floor is monotone, so max(a_j, b_j) = E_j p // m and the
    digit criterion holds at p iff C_j p // m <= E_j p // m for every j.
    """
    return [(w * Z % m, max(w * X % m, w * Y % m)) for w in mults]


def digit_residue_mismatches(m: int, prime_limit: int = 500) -> list[tuple]:
    """Criterion equivalence sweep for one modulus.

    For every triple of modulus m and every prime m < p < prime_limit,
    evaluates the digit inequality c_j(p) <= max(a_j(p), b_j(p)) over a full
    period, using the closed digit form floor(X_j p / m), and compares the
    verdict with membership of p mod m in B.  Returns all mismatches as
    (X, Y, Z, p) tuples; an empty list means full agreement.
    """
    classes = _prime_classes(m, m, prime_limit)
    tables = _digit_check_tables(m, classes)
    mismatches = []
    for X, Y, Z in params_with_modulus(m):
        in_b = set(_closure_members(m, *_pointwise_members(m, X, Y, Z)))
        for u, plist in classes.items():
            seq = _digit_pairs(X, Y, Z, m, tables[u])
            expected = u in in_b
            for p in plist:
                bounded = all(C * p // m <= E * p // m for C, E in seq)
                if bounded != expected:
                    mismatches.append((X, Y, Z, p))
    return mismatches


def empirical_digit_mismatches(m: int, prime_limit: int = 50) -> list[tuple]:
    """Oracle agreement sweep for one modulus.

    For every triple of modulus m and prime m < p < prime_limit, compares
    empirical_bounded(params, p, p^3) over actual coefficient valuations
    with the digit-criterion verdict.  Returns mismatching (X, Y, Z, p).
    """
    classes = _prime_classes(m, m, prime_limit)
    tables = _digit_check_tables(m, classes)
    mismatches = []
    for X, Y, Z in params_with_modulus(m):
        params = HGParams(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
        for u, plist in classes.items():
            seq = _digit_pairs(X, Y, Z, m, tables[u])
            for p in plist:
                digit_verdict = all(C * p // m <= E * p // m for C, E in seq)
                empirical = empirical_bounded(params, p, p**3)
                if (empirical.kind is Verdict.BOUNDED) != digit_verdict:
                    mismatches.append((X, Y, Z, p))
    return mismatches


def zero_density_mismatches(m: int) -> list[tuple]:
    """Triples of modulus m where (density == 0) != (c strictly smallest)."""
    triples = list(params_with_modulus(m))
    sizes = bounded_counts(m, *np.array(triples, dtype=np.int64).reshape(-1, 3).T)
    mismatches = []
    for (X, Y, Z), b_size in zip(triples, sizes.tolist()):
        params = HGParams(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
        if (b_size == 0) != zero_density_criterion(params):
            mismatches.append((X, Y, Z))
    return mismatches
