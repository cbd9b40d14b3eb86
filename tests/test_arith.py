"""Foundation arithmetic: fractional parts, residues, orders, parameters."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdensity.arith import (
    HGParams,
    ResidueSet,
    euler_phi,
    factorize,
    frac_part,
    is_prime,
    least_residue,
    mod_order,
    normalize_params,
    primes_in_range,
    primes_up_to,
    units_mod,
)
from hgdensity.errors import IntegralParameter

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


def test_is_prime_matches_sieve():
    truth = set(sieve_primes(20000))
    for n in range(20000 + 1):
        assert is_prime(n) == (n in truth)


def test_prime_lists():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]


def test_hgparams_rejects_out_of_range():
    with pytest.raises(ValueError):
        HGParams(Fraction(0), Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        HGParams(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
