"""Euler-Pfaff symmetry of B: an oracle for every kernel at any modulus.

Euler's and Pfaff's transformations (Abramowitz-Stegun 15.3.3-15.3.4,
DLMF 15.8.1) make B invariant under (a, b; c) -> ({c - a}, {c - b}; c) and
(a, b; c) -> (a, {c - b}; c).  On the numerators of one modulus m these are
(X, Y, Z) -> ((Z - X) mod m, (Z - Y) mod m, Z) and
(X, Y, Z) -> (X, (Z - Y) mod m, Z); both keep Z != X, Y and the modulus,
since gcd(Z - X, Y, Z, m) = gcd(X, Y, Z, m).  Each kernel is checked
against itself on the images, so the check shares no code with any other
kernel.  Three maps that are not symmetries must change |B| somewhere, so
the checks cannot pass vacuously.

The swap (X, Y, Z) -> (Y, X, Z), from 2F1(a, b; c) = 2F1(b, a; c), is a
third map for the kernels of the verification sweeps, which evaluate each
unordered {a, b} once and report its mirror.
"""

import json
import os
from fractions import Fraction

import numpy as np

from hgdensity import verify
from hgdensity.arith import modulus_triples, normalize_params, primes_in_range, units_mod
from hgdensity.density import _cycle_walk, bounded_counts, bounded_members
from hgdensity.padic import empirical_bounded_batch
from hgdensity.verify import _digit_bounded

QUERIES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "refs", "queries.json")


def euler(m, X, Y, Z):
    return (Z - X) % m, (Z - Y) % m, Z


def pfaff(m, X, Y, Z):
    return X, (Z - Y) % m, Z


def swap(m, X, Y, Z):
    return Y, X, Z


SYMMETRIES = (euler, pfaff)


def test_bounded_members_is_invariant_at_every_modulus_up_to_30():
    for m in range(3, 31):
        X, Y, Z = modulus_triples(m, m)
        units = units_mod(m)
        want = bounded_members(m, X, Y, Z, units)
        for f in (*SYMMETRIES, swap):
            assert np.array_equal(bounded_members(m, *f(m, X, Y, Z), units), want), (m, f.__name__)


def test_cycle_walk_is_invariant_at_every_modulus_up_to_16():
    for m in range(3, 17):
        for X, Y, Z in zip(*(v.tolist() for v in modulus_triples(m, m))):
            want = _cycle_walk(m, X, Y, Z)
            for f in SYMMETRIES:
                assert _cycle_walk(m, *f(m, X, Y, Z)) == want, (m, X, Y, Z, f.__name__)


def test_cycle_walk_is_invariant_on_the_query_pool():
    # every density and residues triple of the benchmark's stored pool, at
    # moduli up to about 5 * 10^5, where the walk's bulk filter runs
    with open(QUERIES) as f:
        pool = json.load(f)["full"]["pool"]
    triples = [argv.split()[1:] for kind, _, argv, _, _ in pool
               if kind.startswith(("density", "residues"))]
    assert len(triples) == 990
    largest = 0
    for words in triples:
        params = normalize_params(*map(Fraction, words))
        m = params.m
        X, Y, Z = (int(v * m) for v in (params.a, params.b, params.c))
        want = _cycle_walk(m, X, Y, Z)
        for f in SYMMETRIES:
            assert _cycle_walk(m, *f(m, X, Y, Z)) == want, (words, f.__name__)
        largest = max(largest, m)
    assert largest > 10**5


def test_digit_criterion_is_invariant_at_every_modulus_up_to_20():
    # per digit, [w(Z - X)]_m >= [wZ]_m exactly when [wX]_m > [wZ]_m, and
    # p > m keeps that strict order after the floor of the scaling by p / m
    for m in range(3, 21):
        X, Y, Z = modulus_triples(m, m)
        primes = primes_in_range(m, 500)
        want = _digit_bounded(m, X, Y, Z, primes)
        for f in (*SYMMETRIES, swap):
            assert np.array_equal(_digit_bounded(m, *f(m, X, Y, Z), primes), want), (m, f.__name__)


def test_valuation_oracle_is_invariant_under_the_swap_at_every_modulus_up_to_10():
    for m in range(3, 11):
        X, Y, Z = modulus_triples(m, m)
        for p in primes_in_range(m, 50):
            want = empirical_bounded_batch(m, X, Y, Z, p, p**3)
            assert np.array_equal(empirical_bounded_batch(m, Y, X, Z, p, p**3), want), (m, p)


def test_oracle_sweep_is_the_verdicts_of_every_ordered_triple():
    # the sweep evaluates the triples with X <= Y, from one layout per class
    # of p mod m, and mirrors what it finds; here every ordered triple is
    # evaluated by the public kernels, one call per prime
    for m in range(3, 13):
        X, Y, Z = modulus_triples(m, m)
        primes = primes_in_range(m, 50)
        bad = _digit_bounded(m, X, Y, Z, primes)
        for k, p in enumerate(primes):
            bad[:, k] ^= empirical_bounded_batch(m, X, Y, Z, p, p**3)
        t, k = np.nonzero(bad)
        want = sorted(zip(X[t].tolist(), Y[t].tolist(), Z[t].tolist(),
                          np.array(primes)[k].tolist()))
        assert want and verify.empirical_digit_mismatches(m) == want, m


def test_other_reflections_are_no_symmetry():
    # (1 - a, 1 - b; 1 - c), (a, b; a + b - c) and (a, b; 1 - c) each change
    # |B| on some triple, so an invariance check that always passed would
    # be caught here; images with c an integer or c = a or b are skipped
    maps = {
        "negate all": lambda m, X, Y, Z: (m - X, m - Y, m - Z),
        "c -> a + b - c": lambda m, X, Y, Z: (X, Y, (X + Y - Z) % m),
        "c -> 1 - c": lambda m, X, Y, Z: (X, Y, m - Z),
    }
    changed = dict.fromkeys(maps, 0)
    for m in range(3, 25):
        X, Y, Z = modulus_triples(m, m)
        sizes = bounded_counts(m, X, Y, Z)
        for name, f in maps.items():
            X2, Y2, Z2 = f(m, X, Y, Z)
            ok = (Z2 != 0) & (Z2 != X2) & (Z2 != Y2)
            image = bounded_counts(m, X2[ok], Y2[ok], Z2[ok])
            changed[name] += int(np.count_nonzero(image != sizes[ok]))
    assert all(changed.values()), changed
