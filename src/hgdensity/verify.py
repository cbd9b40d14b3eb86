"""Bulk cross-checks between the digit criterion, the residue-class formula
and the coefficient valuations.

Each sweep covers every parameter triple of one modulus m.  All three
verdicts are symmetric in a and b: 2F1(a, b; c) = 2F1(b, a; c), S takes
the larger of [-uA]_m and [-uB]_m, and the digit criterion the larger of
a_j and b_j.  So each unordered {a, b} is evaluated once, on the triples
with X <= Y, and a mismatch (X, Y, Z) is reported with its mirror
(Y, X, Z) when X != Y.  The digit criterion is evaluated for all triples
and all primes at once, with one table of digit residues per class of p
mod m; the valuation oracle for all triples at once, with one class layout
per class of p mod m and one pass per prime; and B comes from one batched
:mod:`density` kernel call per modulus.  Mismatches are returned sorted,
as tuples of Python ints in (X, Y, Z, p) order.  The sweeps are cheap
enough for every modulus m <= 30 and safe to fan out across processes;
each rejects a modulus that is not an int >= 2 and a prime limit that is
not an int, and refuses with ValueError, before it is built, a table of
triples, a prime sieve or a (triples, primes) verdict array above
``arith.TABLE_LIMIT`` entries, counting every ordered triple.
"""

from __future__ import annotations

import numpy as np

from .arith import (_prime_array, check_int, check_table_size, chunk_slices, mod_order,
                    modulus_triples)
from .density import bounded_counts, bounded_members
# empirical_bounded is not called here; it stays importable from this module
# because perfbench/probes.py rebinds verify.empirical_bounded for its spans
from .padic import _class_layout, _layout_bounded, empirical_bounded  # noqa: F401


def params_with_modulus(m: int):
    """The triples (X, Y, Z) of :func:`arith.modulus_triples` ``(m, m)``, one
    at a time as Python ints, in lexicographic order; ValueError for what
    that refuses."""
    yield from zip(*(v.tolist() for v in modulus_triples(m, m)))


def _digit_bounded(m: int, X, Y, Z, primes, flip=None) -> np.ndarray:
    """The digit criterion for every triple (X/m, Y/m; Z/m) at every prime p > m.

    With M the order of p mod m and w_j = -p^(M-1-j) mod m, digit j of
    c - 1 is (w_j Z mod m) p // m, and likewise for a and b.  Floor is
    monotone, so max(a_j, b_j) = max(w_j X mod m, w_j Y mod m) p // m, and p
    is bounded iff c_j <= max(a_j, b_j) for every j < M.  M and the w_j
    depend only on r = p mod m, so the (M, triples) residue tables are built
    once per class r and every prime of the class is evaluated against them
    in one broadcast, in chunks of at most ``arith.CHUNK_CELLS`` (prime,
    digit, triple) cells: as many primes as fit beside all the triples, then
    as many triples as fit beside that many primes.  The products stay below
    m * max(p): int32 when that fits, int64 otherwise.

    Returns ``out[t, k]``, the verdict for triple t at ``primes[k]``.  Given
    ``flip``, a bool (triples, primes) array, the verdicts are XORed into it
    in place and ``flip`` is returned, so no second such array is built.
    """
    primes = np.asarray(primes, dtype=np.int64)
    out = np.zeros((len(Z), len(primes)), dtype=bool) if flip is None else flip
    if len(Z) == 0 or len(primes) == 0:
        return out
    wide = np.int32 if m * int(primes.max()) <= np.iinfo(np.int32).max else np.int64
    X, Y, Z = (np.asarray(v, dtype=wide) for v in (X, Y, Z))
    classes = primes % m
    for r in set(classes.tolist()):
        cols = np.flatnonzero(classes == r)
        M = mod_order(r, m)
        w = np.array([-pow(r, M - 1 - j, m) % m for j in range(M)], dtype=wide)[:, None]
        groups = [cols[ks] for ks in chunk_slices(len(cols), M * len(Z))]  # primes
        for sl in chunk_slices(len(Z), M * len(groups[0])):
            z = w * Z[sl] % m
            xy = np.maximum(w * X[sl] % m, w * Y[sl] % m)
            # every prime group of the chunk forms its digits in these two
            # buffers: fresh arrays per group fault in new pages each time
            bz, bxy = (np.empty((len(groups[0]), *z.shape), dtype=wide) for _ in range(2))
            for ks in groups:
                P = primes[ks].astype(wide)[:, None, None]
                cz, cxy = bz[: len(ks)], bxy[: len(ks)]
                np.floor_divide(np.multiply(z, P, out=cz), m, out=cz)
                np.floor_divide(np.multiply(xy, P, out=cxy), m, out=cxy)
                out[sl, ks] ^= (cz <= cxy).all(axis=1).T
            del bz, bxy, cz, cxy  # the buffers die before the next chunk makes its own
    return out


def _mirrored(X, Y, Z, *rest) -> list[tuple]:
    """The rows (X, Y, Z, *rest), and (Y, X, Z, *rest) where X != Y, as sorted
    tuples of Python ints."""
    swap = X != Y
    pairs = ((X, Y), (Y, X), (Z, Z), *((r, r) for r in rest))
    cols = (np.concatenate((a, b[swap])) for a, b in pairs)
    return sorted(zip(*(c.tolist() for c in cols)))


def _mismatches(X, Y, Z, primes, bad) -> list[tuple]:
    """The (X, Y, Z, p) tuples of the cells where ``bad[t, k]`` is true, mirrored."""
    t, k = np.nonzero(bad)
    return _mirrored(X[t], Y[t], Z[t], primes[k])


def _sweep_cases(m, prime_limit=0):
    """(X, Y, Z, primes): the triples of modulus m with X <= Y and the primes
    m < p < prime_limit.

    ValueError for a non-int prime limit, a modulus that
    :func:`arith.modulus_triples` refuses, and, before it is built, a bool
    verdict array above ``arith.TABLE_LIMIT`` cells, counted over the
    ordered triples.
    """
    check_int(prime_limit, "prime_limit")
    X, Y, Z = modulus_triples(m, m)
    primes = _prime_array(prime_limit - 1)
    primes = primes[primes > m]
    check_table_size(len(Z) * len(primes), f"verdicts of modulus m={m} at primes "
                     f"below {prime_limit}: cells")
    half = X <= Y
    return X[half], Y[half], Z[half], primes


def digit_residue_mismatches(m: int, prime_limit: int = 500) -> list[tuple]:
    """Criterion equivalence sweep for one modulus.

    For every triple of modulus m and every prime m < p < prime_limit,
    evaluates the digit inequality c_j(p) <= max(a_j(p), b_j(p)) over a full
    period, using the closed digit form floor(X_j p / m), and compares the
    verdict with membership of p mod m in B.  Returns all mismatches as
    (X, Y, Z, p) tuples; an empty list means full agreement.
    """
    X, Y, Z, primes = _sweep_cases(m, prime_limit)
    bad = _digit_bounded(m, X, Y, Z, primes, flip=bounded_members(m, X, Y, Z, primes))
    return _mismatches(X, Y, Z, primes, bad)


def empirical_digit_mismatches(m: int, prime_limit: int = 50) -> list[tuple]:
    """Oracle agreement sweep for one modulus.

    For every triple of modulus m and prime m < p < prime_limit, compares
    the valuation-oracle verdict over the coefficients up to p^3 (the rule
    of :func:`padic.empirical_bounded`, evaluated for all triples at once as
    :func:`padic.empirical_bounded_batch` does, from one class layout per
    class of p mod m) with the digit-criterion verdict.  Returns mismatching
    (X, Y, Z, p).
    """
    X, Y, Z, primes = _sweep_cases(m, prime_limit)
    bad = _digit_bounded(m, X, Y, Z, primes)
    classes = primes % m
    for r in set(classes.tolist()):
        layout = _class_layout(m, X, Y, Z, r)
        for k in np.flatnonzero(classes == r).tolist():
            p = int(primes[k])
            bad[:, k] ^= _layout_bounded(m, layout, p, p**3)
    return _mismatches(X, Y, Z, primes, bad)


def zero_density_mismatches(m: int) -> list[tuple]:
    """Triples of modulus m where (density == 0) != (c strictly smallest).

    On the numerators, c is strictly the smallest parameter exactly when
    Z < X and Z < Y, the form :func:`density.zero_density_criterion` takes.
    Returned sorted, that is in lexicographic order.
    """
    X, Y, Z, _ = _sweep_cases(m)
    bad = (bounded_counts(m, X, Y, Z) == 0) != ((Z < X) & (Z < Y))
    return _mirrored(X[bad], Y[bad], Z[bad])
