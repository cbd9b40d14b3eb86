"""The bounded-residue set, exact densities, and subgroup-union counting."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hgdensity.arith import normalize_params
from hgdensity.density import (
    DensityRecord,
    _cycle_walk,
    _in_s,
    _neg_residues,
    _pointwise_mask,
    bounded_count,
    bounded_counts,
    bounded_members,
    bounded_prime_test,
    bounded_residues,
    density,
    is_union_of_cyclic,
    pointwise_condition,
    record,
    zero_density_criterion,
)
from hgdensity.arith import (ResidueSet, check_int_array, is_prime, mod_order, modulus_triples,
                             unit_mask, units_mod)
from hgdensity.errors import HypothesisError, PrimeTooSmall
from hgdensity.padic import empirical_bounded_batch
from hgdensity.quadratic import quadratic_residues
from hgdensity import verify

from oracles import (brute_bounded_set, brute_in_s, brute_modulus_triples,
                     inclusion_exclusion_union_size, power_walk_members)


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
        for X, Y, Z in brute_modulus_triples(m):
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
    with pytest.raises(HypothesisError):
        bounded_prime_test(pr, 25)


def test_bounded_prime_test_matches_bounded_residues():
    # the walk over <p mod m> against membership in the whole of B
    primes = [p for p in range(3, 200) if all(p % q for q in range(2, p))]
    for m in range(2, 13):
        for X, Y, Z in brute_modulus_triples(m):
            pr = params(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            B = bounded_residues(pr)
            for p in primes:
                if p > m:
                    assert bounded_prime_test(pr, p) == ((p % m) in B), (X, Y, Z, m, p)


def test_scalar_paths_stay_exact_far_beyond_the_table_limit():
    # m = 100003 * 100019 * 100043 ~ 1.0e15, whose products u (m - X) reach
    # 1e30, far past int64; no table is built, so the scalar paths take it
    pr = params("1/100003", "3/100019", "2/100043")
    m, rng = pr.m, random.Random(23)
    units = [1, m - 1] + [v for v in (rng.randrange(m) for _ in range(60)) if math.gcd(v, m) == 1]
    for v in units:
        assert pointwise_condition(pr, v) == brute_in_s(pr.a, pr.b, pr.c, v), v
    for u in units[:12]:
        p = next(k * m + u for k in range(1, 10**4) if is_prime(k * m + u))
        w = u  # walk <u> with the definition until it leaves S or closes
        for _ in range(10**4):
            if not brute_in_s(pr.a, pr.b, pr.c, w) or w * u % m == u:
                break
            w = w * u % m
        else:
            pytest.fail(f"<{u}> is too long to walk here")
        assert bounded_prime_test(pr, p) == brute_in_s(pr.a, pr.b, pr.c, w), u
    assert bounded_prime_test(pr, next(k * m - 1 for k in range(2, 10**4) if is_prime(k * m - 1)))


def test_bounded_prime_walk_is_refused_past_the_table_limit(monkeypatch, deadline):
    # (a, a + 1/2; 2a) has density 1, so the walk of <p mod m> never leaves
    # S; at m = 2q = 2,000,000,000,078 it once walked until killed.  At the
    # real limit the refusal comes after 2^24 powers, at 1-2 us a power
    import sys
    q = 10**12 + 39
    pr = params(f"1/{2 * q}", f"{q + 1}/{2 * q}", f"1/{q}")
    p = next(n for n in range(pr.m + 1, pr.m + 10**4) if is_prime(n))
    monkeypatch.setattr(sys.modules["hgdensity.density"], "TABLE_LIMIT", 2**10)
    with deadline(5, "the capped walk"), pytest.raises(ValueError, match="passed 1024 powers"):
        bounded_prime_test(pr, p)


def test_is_union_of_cyclic_examples():
    assert is_union_of_cyclic(ResidueSet(modulus=7, members=())) is True
    assert is_union_of_cyclic(ResidueSet(modulus=7, members=(1, 2, 4))) is True
    assert is_union_of_cyclic(ResidueSet(modulus=7, members=(3,))) is False
    # closed under every power but the last, u^d = 1
    assert is_union_of_cyclic(ResidueSet(modulus=19, members=tuple(range(2, 19)))) is False


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
        for X, Y, Z in brute_modulus_triples(m):
            pr = params(Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            assert (1 in bounded_residues(pr).members) == (pr.c > min(pr.a, pr.b))


def test_subgroup_union_size_examples():
    assert inclusion_exclusion_union_size(12, {4, 6}) == 8
    assert inclusion_exclusion_union_size(10, {10}) == 10
    assert inclusion_exclusion_union_size(30, {6, 10, 15}) == 22


def test_subgroup_union_size_matches_enumeration():
    # the inclusion-exclusion oracle that pins the special-prime closed forms
    # against the union's members, counted
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
            got = inclusion_exclusion_union_size(x, J)
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


def test_density_record_refuses_records_that_contradict_themselves():
    # B = [1] and phi(3) = 2 fix the density at 1/2
    good = json.loads(record(params("1/3", "1/3", "2/3")).to_json())
    for text in ("{}", "[]", json.dumps({k: v for k, v in good.items() if k != "phi"})):
        with pytest.raises(ValueError, match="with keys"):
            DensityRecord.from_json(text)
    for key, value in (("density", "1/7"), ("m", 4), ("phi", 3)):
        with pytest.raises(ValueError, match=r"not \(3, 2, 1/2\)"):
            DensityRecord.from_json(json.dumps(dict(good, **{key: value})))
    # a float member was once truncated (B = [1.5] read as {1} at m = 30) and
    # a list or a number in the wrong field raised TypeError
    thirtieths = json.loads(record(params("1/5", "1/6", "1/3")).to_json())
    assert thirtieths["m"] == 30
    for key, value, rec in (("B", [1.5], dict(thirtieths, density="1/8")), ("B", 5, good),
                            ("B", [True], good), ("a", [1], good), ("a", 0.5, good),
                            ("density", [0], good), ("m", 3.0, good), ("phi", True, good)):
        with pytest.raises(ValueError, match="str or int a, b, c, density"):
            DensityRecord.from_json(json.dumps(dict(rec, **{key: value})))
    # m = 100003 * 100019 * 100043 is refused before phi(m) factors it
    with pytest.raises(ValueError, match="too large"):
        DensityRecord.from_json(json.dumps(dict(good, a="1/100003", b="1/100019", c="2/100043")))


def test_digit_residue_equivalence_small_moduli():
    # the full m <= 30, p < 500 run is an acceptance test; spot it here
    for m in (3, 5, 8, 12):
        assert verify.digit_residue_mismatches(m, prime_limit=120) == []


def _batch(m):
    return np.array(list(brute_modulus_triples(m)), dtype=np.int64).T


@pytest.mark.parametrize("m", [65521, 65537, 491111])
def test_pointwise_set_matches_the_fraction_definition(m):
    # the batched kernel and the scalar paths form S with _neg_residue and
    # _in_s, so the pins of one kernel to another cannot see a fault in S;
    # here it meets the definition with exact fractional parts.  65521 forms
    # its products in uint32 close to 2^32 and 65537 in int64; the tables of
    # all units are formed in 4 blocks at 65537 and 22 at 491111, the largest
    # modulus of the benchmark's query pool
    rng = random.Random(m)
    units = np.flatnonzero(unit_mask(m))
    triples = [(m - 1, 1, m - 2), (1, m - 2, m - 1)]
    while len(triples) < 6:
        t = tuple(rng.sample(range(1, m), 3))
        if math.gcd(*t, m) == 1:
            triples.append(t)
    for X in triples:
        S = _in_s(*_neg_residues(m, X, units))
        a, b, c = (Fraction(x, m) for x in X)
        for k in [0, len(units) - 1] + rng.sample(range(len(units)), 200):
            assert S[k] == brute_in_s(a, b, c, int(units[k])), (m, X, int(units[k]))


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


@pytest.mark.parametrize("m", range(3, 61))
def test_bounded_members_match_the_power_walk(m):
    # one kernel call over every X <= Y triple of modulus m and every unit,
    # against a walk over each unit's powers that shares no code with
    # density: this pins the closure from S to B, which the Euler-Pfaff
    # oracle cannot see
    X, Y, Z = modulus_triples(m, m)
    half = X <= Y
    X, Y, Z = X[half], Y[half], Z[half]
    units = units_mod(m)
    bad = np.argwhere(bounded_members(m, X, Y, Z, units) != power_walk_members(m, X, Y, Z, units))
    assert len(bad) == 0, [(int(X[t]), int(Y[t]), int(Z[t]), units[k]) for t, k in bad[:5]]


def _walk_against_kernel(m, triples):
    X, Y, Z = (np.array(v, dtype=np.int64) for v in zip(*triples))
    units = np.array(units_mod(m))
    walks = [_cycle_walk(m, *t) for t in triples]
    assert bounded_counts(m, X, Y, Z).tolist() == [len(w) for w in walks], m
    for row, walk, t in zip(bounded_members(m, X, Y, Z, units), walks, triples):
        assert units[row].tolist() == walk, (m, t)
    return walks


def test_cycle_walk_filter_matches_kernel_at_large_moduli():
    # here |S| runs from 3,400 to 51,000 units, and the bulk filter steps 7
    # to 14 times before the walk decides the survivors
    rng = random.Random(2018)
    for _ in range(4):
        m = rng.randrange(10**4, 10**5)
        triples = []
        while len(triples) < 3:
            x, y, z = rng.sample(range(1, m), 3)
            if math.gcd(x, y, z, m) == 1:
                triples.append((x, y, z))
        _walk_against_kernel(m, triples)


def _pointwise_size(m, A, B, C):
    v = np.array(units_mod(m))
    return int(np.count_nonzero(-v * C % m <= np.maximum(-v * A % m, -v * B % m)))


def test_cycle_walk_matches_kernel_at_moduli_300_to_5000():
    # the filter runs once S holds _FILTER_MIN = 256 units and clears every
    # unit it drops from the walk's set; here that is most triples, and the
    # kernel's per-modulus plan is still cheap
    rng = random.Random(20)
    filtered = total = 0
    for _ in range(24):
        m = rng.randrange(300, 5001)
        triples = []
        while len(triples) < 3:
            x, y, z = rng.sample(range(1, m), 3)
            if math.gcd(x, y, z, m) == 1:
                triples.append((x, y, z))
        _walk_against_kernel(m, triples)
        filtered += sum(_pointwise_size(m, *t) >= 256 for t in triples)
        total += len(triples)
    assert filtered >= total // 2, (filtered, total)


def test_cycle_walk_stops_at_a_unit_an_earlier_walk_ruled_out():
    # found by instrumenting the walk: at m = 913 = 11 * 83 the filter steps
    # twice and leaves 727 and 782 in the walk's set, both in S; 727 is
    # walked first and fails, so it is cleared, and 782's walk stops at
    # 782^2 = 727.  Without the clearing that walk would go on past 727
    # through 77 more powers inside S before one leaves it.
    m, (x, y, z) = 913, (813, 119, 830)
    pr = params(Fraction(x, m), Fraction(y, m), Fraction(z, m))
    assert 782 * 782 % m == 727
    assert pointwise_condition(pr, 727) and pointwise_condition(pr, 782)
    w, inside = 727 * 782 % m, 0
    while pointwise_condition(pr, w):
        w, inside = w * 782 % m, inside + 1
    assert inside == 77 and w != 782
    (walk,) = _walk_against_kernel(m, [(x, y, z)])
    assert walk == sorted(brute_bounded_set(pr.a, pr.b, pr.c)) == [1, 331]


def test_cycle_walk_keeps_members_of_order_above_the_filter_steps():
    # the filter steps 8 times here, and B holds units of order 14: they
    # survive the filter and the walk puts their whole cycles into B
    m = 16415
    (walk,) = _walk_against_kernel(m, [(6337, 1169, 13615)])
    assert max(mod_order(u, m) for u in walk) == 14
    assert len(walk) == 42


def test_cycle_walk_dense_b():
    # (1/d, 1 - 1/d; 1/2) at m = 2d: every unit is in S, so B is all of them
    d = 10007
    m = 2 * d
    (walk,) = _walk_against_kernel(m, [(2, m - 2, d)])
    assert walk == units_mod(m)


def test_cycle_walk_rejects_moduli_beyond_int64(deadline):
    # (m - 1)^2 exceeds 2^63 - 1 exactly for m > 3037000500, far above
    # TABLE_LIMIT, so _pointwise_mask refuses every such m before its first
    # table; a table of m entries built first would take minutes
    assert math.isqrt(2**63 - 1) == 3037000499
    big = 3037000501
    pr = params(Fraction(1, big), Fraction(2, big), Fraction(3, big))
    with deadline(2, "the refusal of m beyond int64"):
        for call in (bounded_residues, density, record):
            with pytest.raises(ValueError, match=f"modulus m={big} is too large"):
                call(pr)
        with pytest.raises(ValueError, match="too large"):
            _cycle_walk(big - 1, 1, 2, 3)


def test_cycle_walk_refuses_moduli_beyond_the_table_limit(deadline):
    # m = 997 * 991 * 983 = 971230541: its masks alone would take gigabytes;
    # _pointwise_mask refuses it before its first table
    pr = params(Fraction(1, 997), Fraction(1, 991), Fraction(1, 983))
    assert pr.m == 971230541
    with deadline(2, "the refusal of m beyond the table limit"):
        for call in (bounded_residues, density, record):
            with pytest.raises(ValueError, match="modulus m=971230541 is too large"):
                call(pr)


def _mask_triples(kind):
    """(m, triples) for each kind of period the walk's mask of S meets."""
    rng = random.Random(kind)
    if kind == "coprime":  # a = k/97, b = k'/89, c = k''/83: periods 8051 and 7387
        m = 716539
        return m, [(rng.randrange(1, 97) * 7387, rng.randrange(1, 89) * 8051,
                    rng.randrange(1, 83) * 8633) for _ in range(3)]
    if kind == "shared":  # denominators share factors with m and with each other
        m, triples = 720720, []
        while len(triples) < 3:
            t = tuple(d * rng.randrange(1, m // d) for d in rng.sample((8, 9, 10, 21, 143), 3))
            if math.gcd(*t, m) == 1:
                triples.append(t)
        return m, triples
    # c has denominator m, so L = m: 11 blocks of arith.CHUNK_CELLS
    m = 716539
    return m, [(7387 * 5, 8051 * 3, 12345)]


@pytest.mark.parametrize("kind", ["coprime", "shared", "full period"])
def test_walk_mask_of_s_matches_the_fraction_definition(kind):
    # the walk forms S from one period per parameter pair, not from
    # _neg_residues: pin it to exact fractional parts on sampled units, and
    # as a whole to _in_s over every unit
    m, triples = _mask_triples(kind)
    units = np.flatnonzero(unit_mask(m))
    rng = random.Random(m)
    for X in triples:
        assert all(0 < x < m for x in X) and math.gcd(*X, m) == 1, X
        S = _pointwise_mask(m, *X)
        assert S.shape == (m,) and not S[~unit_mask(m)].any(), X
        assert np.array_equal(S[units], _in_s(*_neg_residues(m, X, units))), X
        a, b, c = (Fraction(x, m) for x in X)
        for u in [1, int(units[-1])] + rng.sample(units.tolist(), 300):
            assert S[u] == brute_in_s(a, b, c, u), (m, X, u)


def test_walk_mask_of_s_stays_under_56_mib_near_the_table_limit():
    # at m = 2^24 - 3, a prime, (1, 2, 3) has period m in both pairs; a unit
    # list and (3, phi) residue table in place of the masks take 352 MiB traced
    m = 16777213
    assert is_prime(m)
    tracemalloc.start()
    try:
        S = _pointwise_mask(m, 1, 2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
    a, b, c = (Fraction(x, m) for x in (1, 2, 3))
    for u in random.Random(m).sample(range(1, m), 200):
        assert S[u] == brute_in_s(a, b, c, u), u


def test_bounded_counts_chunking_is_invisible(monkeypatch):
    import sys

    arith = sys.modules["hgdensity.arith"]
    batches = {m: _batch(m) for m in (12, 15, 20)}
    whole = {m: bounded_counts(m, *batch) for m, batch in batches.items()}
    # 7 cells: one triple per chunk at every modulus here; 100: a few, with
    # a shorter last chunk
    for cap in (7, 100):
        monkeypatch.setattr(arith, "CHUNK_CELLS", cap)
        for m, batch in batches.items():
            assert np.array_equal(bounded_counts(m, *batch), whole[m]), (cap, m)


@pytest.mark.parametrize("m", [65521, 99991])  # primes below and above 2^16
def test_bounded_counts_on_both_sides_of_the_uint32_table(m):
    # below 2^16 the kernel forms v * (m - u) in uint32, where (m - 1)^2
    # is close to the limit; above it in int64, where uint32 would wrap
    rng = random.Random(m)
    X, Y, Z = [m - 1, 1, m - 2], [m - 1, m - 1, 2], [m - 2, 2, m - 1]
    for _ in range(5):
        x, y, z = rng.sample(range(1, m), 3)
        X, Y, Z = X + [x], Y + [y], Z + [z]
    want = [len(_cycle_walk(m, x, y, z)) for x, y, z in zip(X, Y, Z)]
    assert bounded_counts(m, X, Y, Z).tolist() == want


def test_bounded_counts_empty_and_ragged_batches():
    got = bounded_counts(12, [], [], [])
    assert got.shape == (0,) and got.dtype == np.int64
    with pytest.raises(ValueError, match="one length"):
        bounded_counts(12, [1, 5], [7], [11, 1])


def test_batched_kernel_refuses_a_plan_beyond_the_table_budget(monkeypatch):
    # the plan for this one triple once took 34.9 CPU s and 2.5 GiB
    import sys
    import time
    import tracemalloc

    m = 16777213  # a prime at the table limit
    start = time.process_time()
    tracemalloc.start()
    try:
        for call in (bounded_counts, lambda *t: bounded_members(*t, [1])):
            with pytest.raises(ValueError, match="bounded_count answers"):
                call(m, [1], [2], [3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1 and peak < 1 << 20
    assert bounded_counts(m, [], [], []).shape == (0,)
    # the rule at its boundary: 26 int64 entries per unit
    monkeypatch.setattr(sys.modules["hgdensity.density"], "TABLE_LIMIT", 26 * 12)
    assert bounded_counts(13, [1], [2], [3]).tolist() == [bounded_count(13, 1, 2, 3)]
    with pytest.raises(ValueError, match="phi\\(m\\)=16 units"):
        bounded_counts(17, [1], [2], [3])


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


def test_bounded_members_refuses_non_integer_units():
    # a cast to int64 would answer for unit 7 when given 7.9, and for 1 at True
    for units in ([7.9], np.array([5.0]), [True]):
        with pytest.raises(ValueError, match="must be integers"):
            bounded_members(6, [1], [1], [5], units)


@pytest.mark.parametrize("bad", [0, 6, -5, 7])
def test_single_triple_path_refuses_numerators_outside_1_to_m_minus_1(bad):
    # -5 and 7 would stand for 1/6 and 0 for an integral parameter; each
    # once answered 1
    for walk in (_cycle_walk, bounded_count):
        for triple in ((bad, 1, 5), (1, bad, 5), (1, 5, bad)):
            with pytest.raises(ValueError, match=r"\[1, 5\]"):
                walk(6, *triple)
    assert bounded_count(6, np.int64(1), np.int32(1), np.uint8(5)) == bounded_count(6, 1, 1, 5)


@pytest.mark.parametrize("bad", [0, 6, -5, 7])
def test_batched_kernels_refuse_numerators_outside_1_to_m_minus_1(bad):
    # -5 and 7 are 1 mod 6: taken mod m they would silently stand for 1/6
    kernels = (
        lambda X, Y, Z: bounded_counts(6, X, Y, Z),
        lambda X, Y, Z: bounded_members(6, X, Y, Z, [1, 5]),
        lambda X, Y, Z: empirical_bounded_batch(6, X, Y, Z, 7, 343),
    )
    for kernel in kernels:
        for triple in (([bad], [1], [5]), ([1], [bad], [5]), ([1], [5], [bad])):
            with pytest.raises(ValueError, match=r"\[1, 5\]"):
                kernel(*triple)


@pytest.mark.parametrize("kernel", [
    lambda X, Y, Z: bounded_counts(6, X, Y, Z),
    lambda X, Y, Z: bounded_members(6, X, Y, Z, [1, 5]),
    lambda X, Y, Z: empirical_bounded_batch(6, X, Y, Z, 7, 343),
], ids=["bounded_counts", "bounded_members", "empirical_bounded_batch"])
def test_batched_kernels_refuse_non_integer_numerators(kernel):
    # a cast to int64 would truncate 1.9 to 1 and read True as 1
    for bad in ([1.9], np.array([5.0]), [True], [Fraction(1)]):
        for triple in ((bad, [1], [5]), ([1], bad, [5]), ([1], [5], bad)):
            with pytest.raises(ValueError, match="must be integers"):
                kernel(*triple)


def test_batched_kernels_refuse_a_bool_among_ints():
    # numpy reads [1, True] as two int64 ones, so each once answered for (1, 1)
    for call in (
        lambda: bounded_members(6, [1], [1], [5], [1, True]),
        lambda: bounded_counts(6, [1, True], [1, 1], [5, 5]),
        lambda: empirical_bounded_batch(6, [1, True], [1, 1], [5, 5], 7, 49),
    ):
        with pytest.raises(ValueError, match="must be integers within int64, not floats or bools"):
            call()
    X = np.array([1, 5], dtype=np.int64)
    assert check_int_array(X, "X") is X  # an int64 array passes without a copy


@pytest.mark.parametrize("call", [
    lambda: empirical_bounded_batch(0, [], [], [], 7, 10),
    lambda: empirical_bounded_batch(1.5, [], [], [], 7, 10),
    lambda: bounded_counts(6.0, [1], [1], [5]),
    lambda: bounded_counts(None, [1], [1], [2]),
    lambda: bounded_members(2**70, [1], [1], [3], [1]),
    lambda: bounded_members(True, [], [], [], [1]),
    lambda: modulus_triples(2.5, 3),
    lambda: modulus_triples(True, 3),
    lambda: modulus_triples(6, 2.5),
], ids=["oracle-0", "oracle-float", "counts-float", "counts-None", "members-2^70",
        "members-bool", "triples-float", "triples-bool", "triples-height"])
def test_batched_kernels_check_the_modulus(call, deadline):
    # each once escaped as ZeroDivisionError, TypeError, OverflowError or
    # UFuncTypeError, or answered for m = True
    with deadline(1, "modulus check"), pytest.raises(ValueError, match="modulus m|height"):
        call()


def test_batched_kernels_answer_empty_batches_from_the_least_modulus():
    assert bounded_counts(2, [], [], []).shape == (0,)
    assert bounded_members(2, [], [], [], [1, 3]).shape == (0, 2)
    assert empirical_bounded_batch(2, [], [], [], 3, 10).shape == (0,)
    assert all(len(v) == 0 for v in modulus_triples(2, 3))
