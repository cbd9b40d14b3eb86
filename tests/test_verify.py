"""The verification sweeps: what they compare, and that they can fail."""

import hashlib
import json
from fractions import Fraction

import numpy as np

from hgdensity import verify
from hgdensity.arith import HGParams, primes_in_range
from hgdensity.density import zero_density_criterion


def test_zero_density_criterion_is_the_numerator_form():
    # the sweep checks Z < X and Z < Y; the library predicate must say so too
    for m in range(3, 13):
        for X, Y, Z in verify.params_with_modulus(m):
            params = HGParams(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            assert zero_density_criterion(params) == (Z < X and Z < Y), (X, Y, Z, m)


def test_criterion_sweep_reports_every_disagreement(monkeypatch):
    # flip B-membership for every triple at one prime and for one triple at
    # another; the sweep must report exactly those (triple, prime) pairs
    m, limit = 12, 120
    primes = primes_in_range(m, limit)
    k, cell = primes.index(37), (5, primes.index(61))
    triples = list(verify.params_with_modulus(m))
    real = verify.bounded_members

    def flipped(*args):
        got = real(*args)
        got[:, k] ^= True
        got[cell] ^= True
        return got

    monkeypatch.setattr(verify, "bounded_members", flipped)
    want = sorted([(*t, 37) for t in triples] + [(*triples[cell[0]], 61)])
    got = verify.digit_residue_mismatches(m, limit)
    assert got == want
    assert all(type(v) is int for row in got for v in row)


def test_zero_density_sweep_reports_every_disagreement(monkeypatch):
    m = 10
    triples = list(verify.params_with_modulus(m))
    monkeypatch.setattr(verify, "bounded_counts", lambda m, X, Y, Z: np.ones(len(X)))
    # with every |B| nonzero, each triple whose c is strictly smallest disagrees
    assert verify.zero_density_mismatches(m) == [
        t for t in triples if t[2] < t[0] and t[2] < t[1]
    ]


# count and sha256 of json.dumps(sorted(mismatches)) at p < 50, as stored
# for the oracle sweep in perfbench/refs/verify.json; the disagreements are
# by design (unbounded primes whose valuations first drop past p^3)
ORACLE_MISMATCHES = {
    3: (7, "21699bb551f29cdda5ebcfdeac0f7b63ebe404d024a9aeaa8edbd07135e7f77b"),
    4: (35, "8e6be10728c4072535a175dca17253d2f18e9e44979195102e81b2a6b9e0f3d1"),
    5: (210, "d65db6d3d9c67ed020d1f1c3d943c9127c2db97f9fd91961a7f8d7d663944847"),
    6: (174, "be49c371879929d705379601d16462c13925f5ca0cb09bbecd0e2c4dbd73b2d5"),
}


def test_oracle_sweep_matches_reference_digests():
    for m, (count, sha) in ORACLE_MISMATCHES.items():
        got = verify.empirical_digit_mismatches(m)
        assert len(got) == count, m
        assert got == sorted(got), m
        assert hashlib.sha256(json.dumps(sorted(got)).encode()).hexdigest() == sha, m
