"""Foundation arithmetic: fractional parts, residues, orders, parameters."""

import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdensity import padic, quadratic, specialcase, survey, verify
from hgdensity.arith import (
    TABLE_LIMIT,
    HGParams,
    ResidueSet,
    check_prime,
    chunk_slices,
    cyclic_powers,
    euler_phi,
    factorize,
    frac_part,
    is_prime,
    least_residue,
    mod_order,
    modulus_triples,
    normalize_params,
    primes_in_range,
    primes_up_to,
    unit_mask,
    units_mod,
)
from hgdensity.density import _cycle_walk, bounded_counts, bounded_prime_test, pointwise_condition
from hgdensity.errors import IntegralParameter, NotAUnit

from oracles import sieve_primes

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def test_frac_part_examples():
    assert frac_part(Fraction(-4, 3)) == Fraction(2, 3)
    assert frac_part(Fraction(5)) == 0
    assert frac_part(Fraction(7, 11)) == Fraction(7, 11)


@settings(deadline=None)
@given(rationals)
def test_frac_part_plus_floor_recovers(q):
    r = frac_part(q)
    assert 0 <= r < 1
    assert (q - r).denominator == 1
    assert r + math.floor(q) == q


def test_least_residue_examples():
    assert least_residue(-128, 11) == 4
    assert least_residue(0, 7) == 0
    assert least_residue(14, 13) == 1


@settings(deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 997))
def test_least_residue_multiplicative(u, v, m):
    lhs = least_residue(u * v, m)
    rhs = least_residue(least_residue(u, m) * least_residue(v, m), m)
    assert lhs == rhs


def test_mod_order_examples():
    assert mod_order(1, 12) == 1
    assert mod_order(2, 11) == 10
    assert mod_order(13 % 11, 11) == 10


def test_mod_order_requires_unit():
    with pytest.raises(ValueError):
        mod_order(4, 12)


def test_mod_order_divides_phi():
    for m in range(2, 200):
        phi = euler_phi(m)
        for u in units_mod(m):
            k = mod_order(u, m)
            assert phi % k == 0
            assert pow(u, k, m) == 1
            assert all(pow(u, i, m) != 1 for i in range(1, k))


def test_cyclic_powers_is_the_subgroup():
    for m in range(1, 201):
        for u in units_mod(m):
            powers = cyclic_powers(u, m)
            assert powers == [pow(u, k, m) for k in range(len(powers))], (u, m)
            assert len(set(powers)) == len(powers), (u, m)
            if m >= 2:
                assert len(powers) == mod_order(u, m), (u, m)
    assert cyclic_powers(-1, 7) == [1, 6]


def test_cyclic_powers_requires_unit():
    with pytest.raises(NotAUnit):
        cyclic_powers(4, 12)
    with pytest.raises(NotAUnit):
        cyclic_powers(0, 5)
    with pytest.raises(ValueError):
        cyclic_powers(1, 0)


def test_mod_order_large_modulus_path():
    # the phi-descent at a modulus with a large prime factor: the order is
    # minimal, since no prime factor of it can be divided out
    m = 10007 * 2
    for u in (3, 5, 20013):
        k = mod_order(u, m)
        assert pow(u, k, m) == 1
        for q, _ in factorize(k):
            assert pow(u, k // q, m) != 1


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(11) == 10
    assert euler_phi(47) == 46


def test_euler_phi_matches_unit_count():
    for m in range(1, 300):
        direct = sum(1 for u in range(1, m + 1) if math.gcd(u, m) == 1)
        assert euler_phi(m) == direct


def test_normalize_params_examples():
    p = normalize_params(Fraction(4, 3), Fraction(1, 2), Fraction(5, 6))
    assert (p.a, p.b, p.c) == (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6))
    with pytest.raises(IntegralParameter):
        normalize_params(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    p = normalize_params(Fraction(8, 11), Fraction(8, 11), Fraction(3, 11))
    assert (p.a, p.b, p.c) == (Fraction(8, 11), Fraction(8, 11), Fraction(3, 11))


def test_normalize_params_rejects_integral_differences():
    with pytest.raises(IntegralParameter):
        normalize_params(Fraction(1, 3), Fraction(1, 2), Fraction(4, 3))
    with pytest.raises(IntegralParameter):
        normalize_params(Fraction(2), Fraction(1, 2), Fraction(1, 3))


def test_params_modulus_is_lcm():
    p = normalize_params(Fraction(1, 4), Fraction(5, 6), Fraction(1, 2))
    assert p.m == 12
    assert p.phi == euler_phi(12)


def test_shifted_parameter_keeps_denominator():
    # den(a - 1) = den(a) for a in (0,1): the modulus may be built either way
    for den in range(2, 40):
        for num in range(1, den):
            a = Fraction(num, den)
            assert (a - 1).denominator == a.denominator


def test_residue_set_validation():
    rs = ResidueSet(modulus=12, members=(1, 5, 7))
    assert list(rs.members) == [1, 5, 7]
    with pytest.raises(ValueError):
        ResidueSet(modulus=12, members=(1, 4))


def test_residue_set_sorts_and_deduplicates():
    rs = ResidueSet(modulus=35, members=[34, 1, 12, 1, 34, 2, 12])
    assert rs.members == (1, 2, 12, 34)
    assert all(type(u) is int for u in rs.members)
    assert ResidueSet(modulus=7, members=frozenset({6, 3, 5})).members == (3, 5, 6)
    assert ResidueSet(modulus=7, members=iter([])).members == ()
    assert len(ResidueSet(modulus=7, members=(4, 4, 4))) == 1


@pytest.mark.parametrize("members, bad", [
    ((1, 5, 10), 5),  # gcd(5, 35) = 5, even after a unit
    ((12, 7, 7, 3), 7),  # unsorted, the least non-unit is named
    ((0, 1), 0),
    ((1, 35), 35),
    ((36, 1), 36),
    ((-1, 2), -1),
])
def test_residue_set_rejects_non_units_and_out_of_range(members, bad):
    with pytest.raises(ValueError, match=rf"^{bad} is not a unit in \[1, 34\]"):
        ResidueSet(modulus=35, members=members)


def test_residue_set_rejects_members_beyond_int64():
    with pytest.raises(ValueError, match="outside"):
        ResidueSet(modulus=35, members=(1, 2**70))


def test_residue_set_membership_reduces_mod_modulus():
    rs = ResidueSet(modulus=12, members=(11, 1, 7))
    assert 7 in rs and 1 in rs and 11 in rs
    assert 5 not in rs and 0 not in rs and 4 not in rs
    # u >= modulus and negative u are reduced first
    assert 19 in rs and 12 * 5 + 11 in rs and -1 in rs and -5 in rs
    assert 17 not in rs and -7 not in rs and 12 not in rs
    assert 1 not in ResidueSet(modulus=12, members=())


def test_units_mod_matches_gcd():
    assert units_mod(1) == [0]
    for m in range(2, 300):
        assert units_mod(m) == [u for u in range(1, m) if math.gcd(u, m) == 1]


def test_unit_mask_refuses_a_modulus_beyond_the_table_limit(monkeypatch):
    import sys

    assert TABLE_LIMIT >= 20 * 5 * 10**5  # far above the moduli in everyday use
    monkeypatch.setattr(sys.modules["hgdensity.arith"], "TABLE_LIMIT", 100)
    assert unit_mask(100).sum() == 40
    with pytest.raises(ValueError, match="modulus m=101 is too large"):
        unit_mask(101)


def test_is_prime_matches_sieve():
    truth = set(sieve_primes(20000))
    for n in range(20000 + 1):
        assert is_prime(n) == (n in truth)


def test_is_prime_is_exact_or_refuses():
    # the least strong pseudoprime to the twelve prime bases 2..37 passes them
    # all; base 41 exposes it, and the thirteen bases decide every n below
    # the least strong pseudoprime to all of them, which is refused instead
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(2**61 - 1) and is_prime(2**24 - 3)
    for n in (psi13, psi13 + 2, 2**89 - 1):
        for call in (is_prime, check_prime):
            with pytest.raises(ValueError, match="too large"):
                call(n)


def test_factorize_stops_trial_division_at_the_table_limit():
    # trial division up to sqrt(2^61 - 1) would run for hours
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large to factor"):
        HGParams(Fraction(1, 2**61 - 1), Fraction(1, 2), Fraction(1, 3)).phi
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="too large to factor"):
        factorize(4099 * 4111)  # two primes above sqrt(TABLE_LIMIT) = 4096
    # every n <= TABLE_LIMIT factors, and so does a larger n with at most one
    # prime factor past the trial divisors
    assert factorize(TABLE_LIMIT) == ((2, 24),)
    assert factorize(TABLE_LIMIT - 3) == ((TABLE_LIMIT - 3, 1),)
    assert factorize(2**100 * 3**5 * 4099) == ((2, 100), (3, 5), (4099, 1))


_HUGE = [
    (lambda: primes_up_to(TABLE_LIMIT), "sieve"),
    (lambda: primes_in_range(5, 10**10), "sieve"),
    (lambda: modulus_triples(1000, 1000), "triple table of modulus m=1000"),
    (lambda: modulus_triples(TABLE_LIMIT + 1, 3), "modulus m="),
    (lambda: verify.zero_density_mismatches(1000), "triple table of modulus m=1000"),
    (lambda: verify.digit_residue_mismatches(5, 10**10), "sieve"),
    (lambda: verify.digit_residue_mismatches(20, 30_000), "verdicts of modulus m=20"),
    (lambda: verify.empirical_digit_mismatches(20, 30_000), "verdicts of modulus m=20"),
    (lambda: padic.coefficient_valuations(_THIRDS, 5, TABLE_LIMIT), "valuations up to"),
    (lambda: quadratic.u_interval_decomposition(TABLE_LIMIT + 1, 2**25), "x="),
]


@pytest.mark.parametrize("call, match", _HUGE, ids=[
    "primes_up_to", "primes_in_range", "modulus_triples-cells", "modulus_triples-m",
    "zero_density_mismatches", "digit_residue_mismatches-sieve",
    "digit_residue_mismatches-verdicts", "empirical_digit_mismatches-verdicts",
    "coefficient_valuations", "u_interval_decomposition"])
def test_oversize_tables_are_refused_before_they_are_built(call, match, deadline):
    # each would take from tens of MiB to many GiB: m = 1000 asks for a
    # 999^3 keep table, 10^10 for a 10 GB sieve, 20 and 30,000 for 18.0M
    # (triple, prime) verdicts, which the sweeps must count before they
    # halve them to the triples with X <= Y (9.4M, under the limit); a
    # refusal that comes too late fails on the deadline instead of running
    # for minutes
    tracemalloc.start()
    try:
        with deadline(5, match), pytest.raises(ValueError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_prime_lists():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    for n in (0, 1, 2, 3, 10, 499, 10**5):
        got = primes_up_to(n)
        assert got == sieve_primes(n) and all(type(p) is int for p in got), n
    assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]


def test_hgparams_rejects_out_of_range():
    with pytest.raises(ValueError):
        HGParams(Fraction(0), Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        HGParams(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("bad", [0.5, True, "1/2", None])
def test_parameters_must_be_ints_or_fractions(bad):
    # a float would compare fine and then fail on .denominator
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    for args in ((bad, third, quarter), (third, bad, quarter), (third, quarter, bad)):
        for build in (HGParams, normalize_params):
            with pytest.raises(ValueError, match="an int or a Fraction"):
                build(*args)


_THIRDS = normalize_params(Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))


@pytest.mark.parametrize("call", [
    lambda: check_prime(7.0),
    lambda: check_prime(True),
    lambda: padic.digit_bounded(_THIRDS, 31.0),
    lambda: padic.padic_digits(Fraction(-1, 2), 7.0),
    lambda: specialcase.find_generator(7.0),
    lambda: quadratic.class_number(7.0),
    lambda: specialcase.parse_special_prime(7.0),
    lambda: specialcase.SpecialPrime(7, 3, True),
    lambda: specialcase.SpecialPrime(7.0, 3, 1),
    lambda: bounded_prime_test(_THIRDS, 31.0),
    lambda: bounded_prime_test(_THIRDS, 41.0),
    lambda: padic.empirical_bounded(_THIRDS, 31.0, 10),
    lambda: padic.coefficient_valuations(_THIRDS, 31, 10.5),
    lambda: padic.empirical_bounded(_THIRDS, 31, 10.5),
    lambda: padic.empirical_bounded_batch(3, [1], [1], [2], 31, 10.5),
], ids=["check_prime", "check_prime-bool", "digit_bounded", "padic_digits",
        "find_generator", "class_number", "parse_special_prime", "SpecialPrime-r",
        "SpecialPrime-p", "bounded_prime_test-31", "bounded_prime_test-41",
        "empirical_bounded-p", "coefficient_valuations-N", "empirical_bounded-N",
        "empirical_bounded_batch-N"])
def test_primes_and_horizons_must_be_ints(call):
    # a float once compared fine, then failed deep inside with a TypeError
    # or AttributeError, or answered as if it were the int it equals
    with pytest.raises(ValueError, match="must be an int, got"):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: pointwise_condition(_THIRDS, 1.0), "v must be an int"),
    (lambda: pointwise_condition(_THIRDS, True), "v must be an int"),
    (lambda: padic.normalized_digit_limit(Fraction(1, 3), 2.0, 0), "u must be an int"),
    (lambda: padic.normalized_digit_limit(Fraction(1, 3), 2, 0.5), "j must be an int"),
    (lambda: padic.normalized_digit_limit(Fraction(1, 3), True, 0), "u must be an int"),
    (lambda: padic.normalized_digit_limit(Fraction(1, 3), 2, True), "j must be an int"),
    (lambda: padic.normalized_digit_limit(0.25, 3, 0), "an int or a Fraction"),
    (lambda: quadratic.legendre(1.5, 7), "y must be an int"),
    (lambda: quadratic.legendre(2, 7.0), "p must be an int"),
    (lambda: quadratic.legendre(5, 9), "p=9 is not prime"),
], ids=["pointwise-float", "pointwise-bool", "digit_limit-u", "digit_limit-j",
        "digit_limit-u-bool", "digit_limit-j-bool", "digit_limit-a", "legendre-y",
        "legendre-p", "legendre-composite"])
def test_scalar_arguments_are_checked_at_the_library_boundary(call, error):
    # each once raised TypeError or AttributeError deep inside, or answered:
    # True as 1, 1.5 and 7.0 as the ints near them, and (5/9) as the Jacobi
    # symbol 1, though 5 is no square mod 9
    with pytest.raises(ValueError, match=error):
        call()


def test_modulus_triples_match_the_reference_generator():
    # element for element and in order, against the per-triple generator
    for m in range(3, 31):
        ref = np.array(list(verify.params_with_modulus(m))).T
        got = np.array(modulus_triples(m, m))
        assert got.shape == ref.shape and (got == ref).all(), m


def test_modulus_triples_small_and_invalid():
    assert all(len(v) == 0 for v in modulus_triples(2, 10))
    X, Y, Z = modulus_triples(12, 4)  # denominators 2, 3, 4 only, lcm 12
    assert len(Z) > 0
    for x in (X, Y, Z):
        assert (12 // np.gcd(x, 12) <= 4).all()
    assert all(len(v) == 0 for v in modulus_triples(6, 1))
    with pytest.raises(ValueError):
        modulus_triples(0, 5)


@pytest.mark.parametrize("n, width, cap", [(0, 5, 64), (10, 5, 64), (100, 7, 64), (5, 100, 64),
                                           (1, 1, 1)])
def test_chunk_slices_cover_the_rows_within_the_budget(monkeypatch, n, width, cap):
    monkeypatch.setattr(sys.modules["hgdensity.arith"], "CHUNK_CELLS", cap)
    slices = list(chunk_slices(n, width))
    assert [i for sl in slices for i in range(n)[sl]] == list(range(n))
    assert all(sl.stop - sl.start == max(1, cap // width) for sl in slices[:-1])
    assert all(0 < sl.stop - sl.start for sl in slices)


def test_one_chunk_budget_is_invisible(monkeypatch):
    # at 7 cells the digit evaluator takes one prime and a few triples per
    # chunk, the subgroup kernel and the valuation oracle one triple, the
    # special sweep one row, the dry run 7 indices and the walk's mask of S 7
    # residues of a period of 6 to 210; every result, and the verdicts behind
    # the two sweeps that find no mismatch, stay as they are
    X, Y, Z = modulus_triples(7, 7)
    runs = {
        "criterion": lambda: verify.digit_residue_mismatches(7, 60),
        "digit verdicts": lambda: verify._digit_bounded(
            7, X, Y, Z, primes_in_range(7, 60)).tolist(),
        "zero": lambda: verify.zero_density_mismatches(8),
        "counts": lambda: bounded_counts(8, *modulus_triples(8, 8)).tolist(),
        "walk": lambda: [_cycle_walk(m, *t) for m, t in [
            (30, (1, 7, 11)), (30, (11, 13, 25)), (30, (6, 15, 10)), (210, (1, 2, 3)),
            (210, (70, 42, 15)), (210, (105, 1, 209))]],
        "oracle": lambda: verify.empirical_digit_mismatches(6, 30),
        "survey": lambda: (survey._COUNT_CACHE.clear(), survey.survey_counts(6))[1],
        "special": lambda: specialcase.sweep_special(specialcase.parse_special_prime(23)),
        "dry run": lambda: survey.slice_dry_run(8, stride=7),
    }
    want = {name: run() for name, run in runs.items()}
    assert want["oracle"] and not all(v for row in want["digit verdicts"] for v in row)
    monkeypatch.setattr(sys.modules["hgdensity.arith"], "CHUNK_CELLS", 7)
    try:
        for name, run in runs.items():
            assert run() == want[name], name
    finally:
        survey._COUNT_CACHE.clear()
