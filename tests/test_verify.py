"""The verification sweeps: what they compare, and that they can fail."""

import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hgdensity import verify
from hgdensity.arith import HGParams, is_prime, modulus_triples, primes_in_range
from hgdensity.density import zero_density_criterion
from hgdensity.padic import Verdict, digit_bounded

from oracles import brute_modulus_triples

SWEEPS = [verify.digit_residue_mismatches, verify.zero_density_mismatches,
          verify.empirical_digit_mismatches]


def test_zero_density_criterion_is_the_numerator_form():
    # the sweep checks Z < X and Z < Y; the library predicate must say so too
    for m in range(3, 13):
        for X, Y, Z in brute_modulus_triples(m):
            params = HGParams(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            assert zero_density_criterion(params) == (Z < X and Z < Y), (X, Y, Z, m)


def _row(X, Y, Z, triple):
    """The one row of the sweep's arrays that holds ``triple``."""
    (t,) = np.flatnonzero((X == triple[0]) & (Y == triple[1]) & (Z == triple[2]))
    return t


def _flip_each_prime_and_cells(real, k, cells):
    """``real`` with every verdict at prime index k flipped, and each
    (triple, prime index) of ``cells``; the sweep passes (m, X, Y, Z, primes)."""
    def flipped(m, X, Y, Z, *args, **kwargs):
        got = real(m, X, Y, Z, *args, **kwargs)
        got[:, k] ^= True
        for triple, q in cells:
            got[_row(X, Y, Z, triple), q] ^= True
        return got

    return flipped


# (1, 5, 7) and (5, 1, 7) share one row of the sweep, which evaluates each
# unordered {X, Y} once; (7, 7, 1) has no mirror.  A flip at one prime must
# reach every ordered triple, a flip of a row with X < Y both orders, and a
# flip of a row with X = Y one tuple.
_FLIPPED = [((1, 5, 7), 61), ((7, 7, 1), 61)]
_REPORTED = [(1, 5, 7, 61), (5, 1, 7, 61), (7, 7, 1, 61)]


def test_criterion_sweep_reports_every_disagreement(monkeypatch):
    # flip B-membership for every triple at 37 and for the named rows at 61;
    # the sweep must report exactly those (triple, prime) pairs, mirrored
    m, limit = 12, 120
    primes = primes_in_range(m, limit)
    triples = list(brute_modulus_triples(m))
    cells = [(t, primes.index(p)) for t, p in _FLIPPED]
    monkeypatch.setattr(verify, "bounded_members", _flip_each_prime_and_cells(
        verify.bounded_members, primes.index(37), cells))
    want = sorted([(*t, 37) for t in triples] + _REPORTED)
    got = verify.digit_residue_mismatches(m, limit)
    assert got == want
    assert all(type(v) is int for row in got for v in row)


def test_criterion_sweep_reports_every_digit_disagreement(monkeypatch):
    # the mirror of the test above, on the digit side of the sweep, with an
    # X < Y row and an X = Y row at 97
    m, limit = 12, 120
    primes = primes_in_range(m, limit)
    triples = list(brute_modulus_triples(m))
    cells = [((5, 11, 1), primes.index(97)), ((5, 5, 1), primes.index(97))]
    monkeypatch.setattr(verify, "_digit_bounded", _flip_each_prime_and_cells(
        verify._digit_bounded, primes.index(43), cells))
    want = sorted([(*t, 43) for t in triples]
                  + [(5, 11, 1, 97), (11, 5, 1, 97), (5, 5, 1, 97)])
    got = verify.digit_residue_mismatches(m, limit)
    assert got == want
    assert all(type(v) is int for row in got for v in row)


def test_oracle_sweep_reports_a_flipped_prime(monkeypatch):
    # flipping every oracle verdict at one prime turns the mismatches there
    # into their complement over every ordered triple and leaves every other
    # prime's alone
    m, p = 5, 29
    before = verify.empirical_digit_mismatches(m)
    real = verify._layout_bounded

    def flipped(m, layout, q, N):
        got = real(m, layout, q, N)
        return ~got if q == p else got

    monkeypatch.setattr(verify, "_layout_bounded", flipped)
    after = verify.empirical_digit_mismatches(m)
    at_p = {t[:3] for t in before if t[3] == p}
    assert 0 < len(at_p) and {t for t in before if t[3] != p} == {t for t in after if t[3] != p}
    assert {t[:3] for t in after if t[3] == p} == set(brute_modulus_triples(m)) - at_p
    assert all(type(v) is int for row in after for v in row)


def _digit_pins(m, triples, primes):
    """The evaluator against the iterated p-adic division of padic.digit_bounded."""
    X, Y, Z = (np.array(v, dtype=np.int64) for v in zip(*triples))
    got = verify._digit_bounded(m, X, Y, Z, primes)
    assert got.shape == (len(triples), len(primes))
    for t, (x, y, z) in enumerate(triples):
        params = HGParams(Fraction(x, m), Fraction(y, m), Fraction(z, m))
        for k, p in enumerate(primes):
            want = digit_bounded(params, p).kind is Verdict.BOUNDED
            assert got[t, k] == want, (x, y, z, m, p)


def test_digit_evaluator_matches_padic_division():
    # every triple of modulus m <= 9 at every prime m < p < 100
    for m in range(3, 10):
        _digit_pins(m, list(brute_modulus_triples(m)), primes_in_range(m, 100))


def test_digit_evaluator_int64_path():
    # m * p passes 2^31 from the first prime on, so the evaluator works in
    # int64; from 2^31 / 29 on the products of the large residues do too
    m = 30
    primes = []
    for d in (30, 29, 25, 20, 16):
        p = 2**31 // d + 1
        while not is_prime(p) or p in primes:
            p += 1
        primes += [p, next(q for q in range(p + 2, p + 1000) if is_prime(q))]
    triples = [(1, 29, 7), (29, 1, 11), (13, 17, 19), (23, 7, 29), (11, 19, 1),
               (17, 27, 9), (7, 13, 1), (29, 23, 17)]
    _digit_pins(m, triples, primes)


def test_criterion_sweep_memory_is_bounded():
    # chunked evaluation; a second (triples x primes) array, or unchunked
    # (prime, digit, triple) tables, would exceed the bound
    tracemalloc.start()
    try:
        verify.digit_residue_mismatches(29, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_oracle_sweep_memory_is_bounded():
    # chunked valuation oracle; a table of every (triple, event) cell at
    # p = 47, or int64 class-valuation tables of a whole span, would exceed it
    tracemalloc.start()
    try:
        verify.empirical_digit_mismatches(12, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("m", [1, 0, -5, 12.0, True])
def test_sweeps_reject_bad_modulus(sweep, m):
    with pytest.raises(ValueError, match="modulus m"):
        sweep(m)


@pytest.mark.parametrize("sweep", [verify.digit_residue_mismatches,
                                   verify.empirical_digit_mismatches],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("limit", [120.0, True, "120"])
def test_sweeps_reject_bad_prime_limit(sweep, limit):
    with pytest.raises(ValueError, match="prime_limit"):
        sweep(5, limit)


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_sweeps_at_modulus_two_are_empty(sweep):
    # every numerator is 1, so Z != X leaves no triple
    assert sweep(2) == []


def test_zero_density_sweep_reports_every_disagreement(monkeypatch):
    m = 10
    triples = list(brute_modulus_triples(m))
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
    7: (691, "de953629ba7877336389310d05d0c5edaea7753eb08fe20ba262f388e33c39ba"),
    8: (600, "814a2c1f3a5eaf78f417728772db8e90e11cdbd29a9d8dc0bc71b56987233798"),
    9: (2223, "ccda2fd73b07bf59ed8667dec7e6f2e731df24c7747d51d5a4d92a5d18bc32cb"),
    10: (2600, "e162b72549ea27ade075f413aa58b40f3a50f041c419eb119472689da7ddae07"),
}


def test_oracle_sweep_matches_reference_digests():
    for m, (count, sha) in ORACLE_MISMATCHES.items():
        got = verify.empirical_digit_mismatches(m)
        assert len(got) == count, m
        assert got == sorted(got), m
        assert hashlib.sha256(json.dumps(sorted(got)).encode()).hexdigest() == sha, m
