"""Bulk cross-checks between the digit criterion, the residue-class formula
and the coefficient valuations.

Each sweep covers every parameter triple of one modulus m: the digit
criterion and the valuation oracle are evaluated for all triples at once,
one prime at a time, and B comes from one batched :mod:`density` kernel call
per modulus.  Mismatches are returned as tuples of Python ints in
(X, Y, Z, p) order.  The sweeps are cheap enough for every modulus m <= 30
and safe to fan out across processes.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .arith import mod_order, primes_in_range
from .density import bounded_counts, bounded_members
# empirical_bounded is not called here; it stays importable from this module
# because perfbench/probes.py rebinds verify.empirical_bounded for its spans
from .padic import empirical_bounded, empirical_bounded_batch  # noqa: F401


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


def _triple_arrays(m: int):
    """The triples of :func:`params_with_modulus` as three int64 arrays."""
    flat = chain.from_iterable(params_with_modulus(m))
    return np.fromiter(flat, dtype=np.int64).reshape(-1, 3).T


def _digit_bounded(m: int, X, Y, Z, p: int) -> np.ndarray:
    """The digit criterion at the prime p > m for every triple (X/m, Y/m; Z/m).

    With M the order of p mod m and w_j = -p^(M-1-j) mod m, digit j of
    c - 1 is (w_j Z mod m) p // m, and likewise for a and b.  Floor is
    monotone, so max(a_j, b_j) = max(w_j X mod m, w_j Y mod m) p // m, and p
    is bounded iff c_j <= max(a_j, b_j) for every j < M.
    """
    M = mod_order(p, m)
    ok = np.ones(len(Z), dtype=bool)
    for j in range(M):
        w = -pow(p, M - 1 - j, m) % m
        ok &= (w * Z % m) * p // m <= np.maximum(w * X % m, w * Y % m) * p // m
    return ok


def _mismatches(X, Y, Z, p: int, bad) -> list[tuple]:
    """The (X, Y, Z, p) tuples of the triples where ``bad`` is true."""
    t = np.flatnonzero(bad)
    return list(zip(X[t].tolist(), Y[t].tolist(), Z[t].tolist(), [p] * len(t)))


def digit_residue_mismatches(m: int, prime_limit: int = 500) -> list[tuple]:
    """Criterion equivalence sweep for one modulus.

    For every triple of modulus m and every prime m < p < prime_limit,
    evaluates the digit inequality c_j(p) <= max(a_j(p), b_j(p)) over a full
    period, using the closed digit form floor(X_j p / m), and compares the
    verdict with membership of p mod m in B.  Returns all mismatches as
    (X, Y, Z, p) tuples; an empty list means full agreement.
    """
    X, Y, Z = _triple_arrays(m)
    primes = primes_in_range(m, prime_limit)
    in_b = bounded_members(m, X, Y, Z, primes)
    mismatches = []
    for k, p in enumerate(primes):
        mismatches += _mismatches(X, Y, Z, p, _digit_bounded(m, X, Y, Z, p) != in_b[:, k])
    return sorted(mismatches)


def empirical_digit_mismatches(m: int, prime_limit: int = 50) -> list[tuple]:
    """Oracle agreement sweep for one modulus.

    For every triple of modulus m and prime m < p < prime_limit, compares
    the valuation-oracle verdict over the coefficients up to p^3 (the rule
    of :func:`padic.empirical_bounded`, evaluated for all triples at once by
    :func:`padic.empirical_bounded_batch`) with the digit-criterion verdict.
    Returns mismatching (X, Y, Z, p).
    """
    X, Y, Z = _triple_arrays(m)
    mismatches = []
    for p in primes_in_range(m, prime_limit):
        oracle = empirical_bounded_batch(m, X, Y, Z, p, p**3)
        mismatches += _mismatches(X, Y, Z, p, oracle != _digit_bounded(m, X, Y, Z, p))
    return sorted(mismatches)


def zero_density_mismatches(m: int) -> list[tuple]:
    """Triples of modulus m where (density == 0) != (c strictly smallest).

    On the numerators, c is strictly the smallest parameter exactly when
    Z < X and Z < Y, the form :func:`density.zero_density_criterion` takes.
    """
    X, Y, Z = _triple_arrays(m)
    bad = (bounded_counts(m, X, Y, Z) == 0) != ((Z < X) & (Z < Y))
    return list(zip(X[bad].tolist(), Y[bad].tolist(), Z[bad].tolist()))
