"""The bounded-residue set, exact densities, and subgroup-union counting."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hgdensity.arith import normalize_params
from hgdensity.density import (
    DensityRecord,
    DivisorAntichain,
    _cycle_walk,
    bounded_counts,
    bounded_members,
    bounded_prime_test,
    bounded_residues,
    density,
    is_union_of_cyclic,
    pointwise_condition,
    record,
    subgroup_union_size,
    zero_density_criterion,
)
from hgdensity.arith import ResidueSet, units_mod
from hgdensity.errors import HypothesisError, PrimeTooSmall
from hgdensity.quadratic import quadratic_residues
from hgdensity import verify

from oracles import brute_bounded_set


def params(a, b, c):
    return normalize_params(Fraction(a), Fraction(b), Fraction(c))


def test_pointwise_condition_examples():
    pr = params("1/3", "1/3", "2/3")
    assert pointwise_condition(pr, 1) is True
    assert pointwise_condition(pr, 2) is False
    assert pointwise_condition(params("2/3", "2/3", "1/3"), 1) is False
    with pytest.raises(HypothesisError):
        pointwise_condition(params("1/4", "1/2", "5/6"), 2)  # 2 not a unit mod 12


def test_bounded_residues_examples():
    assert bounded_residues(params("1/3", "1/3", "2/3")).members == (1,)
    assert bounded_residues(params("2/3", "2/3", "1/3")).members == ()
    B = bounded_residues(params("4/47", "18/47", "46/47"))
    assert set(B.members) == set(quadratic_residues(47))
    assert len(B.members) == 23


def test_bounded_residues_match_definition_oracle():
    # every triple with modulus up to 10, straight against the definition
    for m in range(3, 11):
        for X, Y, Z in verify.params_with_modulus(m):
            pr = params(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            got = set(bounded_residues(pr).members)
            want = brute_bounded_set(pr.a, pr.b, pr.c)
            assert got == want, (X, Y, Z, m)


def test_density_examples():
    assert density(params("2/3", "2/3", "1/3")) == 0
    assert density(params("1/3", "1/3", "2/3")) == Fraction(1, 2)
    assert density(params("4/47", "18/47", "46/47")) == Fraction(1, 2)


def test_density_symmetric_in_a_b():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randrange(3, 40)
        xs = [x for x in range(1, m)]
        X, Y = rng.choice(xs), rng.choice(xs)
        zs = [z for z in xs if z not in (X, Y)]
        if not zs:
            continue
        Z = rng.choice(zs)
        try:
            p1 = params(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            p2 = params(Fraction(Y, m), Fraction(X, m), Fraction(Z, m))
        except ValueError:
            continue
        assert density(p1) == density(p2)


def test_bounded_prime_test_examples():
    pr = params("1/3", "1/3", "2/3")
    assert bounded_prime_test(pr, 7) is True
    assert bounded_prime_test(pr, 5) is False
    with pytest.raises(PrimeTooSmall):
        bounded_prime_test(pr, 3)


def test_is_union_of_cyclic_examples():
    assert is_union_of_cyclic(ResidueSet(modulus=7, members=())) is True
    assert is_union_of_cyclic(ResidueSet(modulus=7, members=(1, 2, 4))) is True
    assert is_union_of_cyclic(ResidueSet(modulus=7, members=(3,))) is False


def test_bounded_set_always_union_of_cyclic():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(3, 101)
        X, Y = rng.randrange(1, m), rng.randrange(1, m)
        zs = [z for z in range(1, m) if z not in (X, Y)]
        if not zs:
            continue
        Z = rng.choice(zs)
        try:
            pr = params(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
        except ValueError:
            continue
        assert is_union_of_cyclic(bounded_residues(pr))


def test_zero_density_criterion():
    assert zero_density_criterion(params("2/3", "2/3", "1/3")) is True
    assert zero_density_criterion(params("1/3", "1/3", "2/3")) is False
    assert zero_density_criterion(params("1/2", "1/4", "1/3")) is False
    # exhaustive equivalence with density == 0 at small moduli
    for m in range(3, 13):
        assert verify.zero_density_mismatches(m) == []


def test_identity_in_b_iff_c_not_smallest():
    for m in range(3, 16):
        for X, Y, Z in verify.params_with_modulus(m):
            pr = params(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            assert (1 in bounded_residues(pr).members) == (pr.c > min(pr.a, pr.b))


def test_divisor_antichain_validation():
    DivisorAntichain(x=12, J=frozenset({4, 6}))
    with pytest.raises(ValueError):
        DivisorAntichain(x=12, J=frozenset({5}))
    with pytest.raises(ValueError):
        DivisorAntichain(x=12, J=frozenset({2, 4}))


def test_subgroup_union_size_examples():
    assert subgroup_union_size(DivisorAntichain(x=12, J=frozenset({4, 6}))) == 8
    assert subgroup_union_size(DivisorAntichain(x=10, J=frozenset({10}))) == 10
    assert subgroup_union_size(DivisorAntichain(x=30, J=frozenset({6, 10, 15}))) == 22


def test_subgroup_union_size_matches_enumeration():
    from itertools import combinations

    from oracles import brute_subgroup_union_size

    for x in range(2, 61):
        divs = [d for d in range(1, x + 1) if x % d == 0]
        antichains = []
        for k in (1, 2, 3):
            for J in combinations(divs, k):
                if all(
                    d == e or (e % d and d % e) for d in J for e in J
                ):
                    antichains.append(frozenset(J))
        for J in antichains:
            got = subgroup_union_size(DivisorAntichain(x=x, J=J))
            assert got == brute_subgroup_union_size(x, J), (x, sorted(J))


def test_density_record_json_schema_round_trip():
    rec = record(params("1/3", "1/3", "2/3"))
    text = rec.to_json()
    assert json.loads(text) == {
        "a": "1/3",
        "b": "1/3",
        "c": "2/3",
        "m": 3,
        "B": [1],
        "phi": 2,
        "density": "1/2",
    }
    back = DensityRecord.from_json(text)
    assert back == rec


def test_digit_residue_equivalence_small_moduli():
    # the full m <= 30, p < 500 run is an acceptance test; spot it here
    for m in (3, 5, 8, 12):
        assert verify.digit_residue_mismatches(m, prime_limit=120) == []


def _batch(m):
    return np.array(list(verify.params_with_modulus(m)), dtype=np.int64).T


def test_bounded_counts_match_closure_walk():
    # every triple of modulus 3..30 against the per-triple cycle walk
    for m in range(3, 31):
        X, Y, Z = _batch(m)
        walks = [
            _cycle_walk(m, x, y, z)
            for x, y, z in zip(X.tolist(), Y.tolist(), Z.tolist())
        ]
        want = [len(walk) for walk in walks]
        assert bounded_counts(m, X, Y, Z).tolist() == want, m
        units = np.array(units_mod(m))
        members = bounded_members(m, X, Y, Z, units)
        for row, walk in zip(members, walks):
            assert units[row].tolist() == walk, m


def test_bounded_counts_chunking_is_invisible(monkeypatch):
    import sys

    kernel = sys.modules["hgdensity.density"]
    batches = {m: _batch(m) for m in (12, 15, 20)}
    whole = {m: bounded_counts(m, *batch) for m, batch in batches.items()}
    # 7 cells: one triple per chunk at every modulus here; 100: a few, with
    # a shorter last chunk
    for cap in (7, 100):
        monkeypatch.setattr(kernel, "_KERNEL_CELLS", cap)
        for m, batch in batches.items():
            assert np.array_equal(bounded_counts(m, *batch), whole[m]), (cap, m)


def test_bounded_counts_empty_and_ragged_batches():
    got = bounded_counts(12, [], [], [])
    assert got.shape == (0,) and got.dtype == np.int64
    with pytest.raises(ValueError, match="one length"):
        bounded_counts(12, [1, 5], [7], [11, 1])


def test_bounded_members_rejects_non_units_and_ragged_batches():
    # column[u] is -1 for a non-unit u, which would select the last subgroup
    for units in ([1, 2], [5, 12], [0], [[1, 5]]):
        with pytest.raises(ValueError, match="prime to 12"):
            bounded_members(12, [1], [5], [7], units)
    with pytest.raises(ValueError, match="one length"):
        bounded_members(12, [1, 5], [7], [11, 1], [1, 5])
    # units are reduced mod m; empty batches keep their shape
    assert np.array_equal(
        bounded_members(12, [1, 5], [5, 1], [7, 7], [13, -11, 1]),
        bounded_members(12, [1, 5], [5, 1], [7, 7], [1, 1, 1]),
    )
    assert bounded_members(12, [], [], [], [5, 7]).shape == (0, 2)
    assert bounded_members(12, [1], [5], [7], []).shape == (1, 0)
