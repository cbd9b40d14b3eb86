"""Legendre symbols, class numbers, U/V/W sets and their identities."""

import random
from fractions import Fraction

import pytest

from hgdensity.arith import ResidueSet, primes_up_to
from hgdensity.quadratic import (
    class_number,
    interval_integer_points,
    least_nonresidue,
    legendre,
    legendre_interval_sum,
    multiples_in_u,
    quadratic_residues,
    u_interval_decomposition,
    u_set,
    v_set,
    w_count_formula,
    w_intersection_nonempty,
    w_set,
)

from oracles import euler_legendre, reduced_form_class_number

ODD_PRIMES = primes_up_to(200)[1:]
P3MOD4 = [p for p in ODD_PRIMES if p % 4 == 3 and p > 3]


def test_legendre_examples():
    for p in ODD_PRIMES:
        assert legendre(1, p) == 1
        if p % 4 == 3:
            assert legendre(-1, p) == -1
    assert legendre(2, 11) == -1
    assert legendre(22, 11) == 0


def test_legendre_matches_euler_criterion():
    for p in ODD_PRIMES:
        for y in range(-p, 2 * p):
            assert legendre(y, p) == euler_legendre(y, p)


def test_class_number_examples():
    assert class_number(7).h == 1
    assert class_number(11).h == 1
    assert class_number(23).h == 3
    with pytest.raises(ValueError):
        class_number(13)
    with pytest.raises(ValueError):
        class_number(3)


def test_class_number_matches_reduced_form_oracle():
    for p in P3MOD4:
        assert class_number(p).h == reduced_form_class_number(p), p


def test_class_number_sum_divisibility():
    for p in [q for q in primes_up_to(500) if q % 4 == 3 and q > 3]:
        s = sum(legendre(y, p) * y for y in range(1, p))
        assert s % p == 0
        assert -s // p >= 1
        assert class_number(p).h == -s // p


def test_least_nonresidue_examples():
    assert least_nonresidue(11) == 2
    assert least_nonresidue(7) == 3
    assert least_nonresidue(47) == 5
    for p in ODD_PRIMES:
        n = least_nonresidue(p)
        assert legendre(n, p) == -1
        assert all(legendre(k, p) == 1 for k in range(1, n))


def test_u_set_examples():
    for p in ODD_PRIMES[:10]:
        assert u_set(1, p).members == ()
    assert set(u_set(2, 11).members) == {6, 7, 8, 9, 10}
    # definition check
    assert set(u_set(2, 11).members) == {y for y in range(1, 11) if (2 * y) % 11 < y}


def test_modp_set_membership_reduces_mod_p():
    U = u_set(2, 11)  # {6, 7, 8, 9, 10}
    assert 6 in U and 10 in U
    assert 5 not in U and 1 not in U and 0 not in U
    # y >= p and negative y are reduced first
    assert 17 in U and 11 * 4 + 9 in U and -1 in U and -5 in U
    assert 11 not in U and 16 not in U and -6 not in U
    # every y in [-2p, 2p) against the definition
    for p in ODD_PRIMES[:8]:
        for x in range(2, p):
            U = u_set(x, p)
            for y in range(-2 * p, 2 * p):
                assert (y in U) == (y % p != 0 and x * y % p < y % p), (x, p, y)


def test_u_set_size_and_pairing():
    for p in ODD_PRIMES:
        for x in range(2, p):
            U = set(u_set(x, p).members)
            assert len(U) == (p - 1) // 2
            for y in range(1, (p + 1) // 2):
                assert (y in U) != (p - y in U)


def test_u_set_symmetries():
    for p in primes_up_to(100)[1:]:
        for x in range(2, p):
            U = set(u_set(x, p).members)
            assert U == set(u_set(1 - x, p).members)
            # (x-1) * U_p(x) = U_p(x/(x-1)) as subsets of units
            if (x - 1) % p:
                inv = pow(x - 1, -1, p)
                target = set(u_set(x * inv % p, p).members)
                assert {(x - 1) * y % p for y in U} == target


def test_v_set_examples():
    assert v_set(1, 11).members == ()
    assert set(v_set(2, 11).members) == {1, 2, 3, 4, 5}
    # x * U_p(x) = V_p(x^{-1}) elementwise, x = 3, p = 11
    x, p = 3, 11
    lhs = {x * y % p for y in u_set(x, p).members}
    assert lhs == set(v_set(pow(x, -1, p), p).members)


def test_w_set_published_values():
    assert w_set(2, 11).members == (9,)
    assert w_set(6, 11).members == (4,)
    assert w_set(29, 47).members == (18, 25, 28, 36)
    assert w_set(43, 47).members == (21, 32, 34, 42)


def test_w_count_formula_examples():
    assert w_count_formula(2, 11) == 1 == len(w_set(2, 11).members)
    assert w_count_formula(3, 11) == len(w_set(3, 11).members)
    # case chi(x) = chi(1-x) = 1 gives (n + h)/2
    for p in P3MOD4:
        h = class_number(p).h
        n = (p - 1) // 2
        for x in range(2, p - 1):
            if legendre(x, p) == 1 and legendre(1 - x, p) == 1:
                assert w_count_formula(x, p) == (n + h) // 2
                break


def test_w_count_formula_matches_set():
    for p in P3MOD4:
        for x in range(2, p):
            if x % p in (0, 1):
                continue
            assert w_count_formula(x, p) == len(w_set(x, p).members), (x, p)


def test_interval_decomposition_examples():
    iv = u_interval_decomposition(1, 11)
    assert iv == [(Fraction(11, 2), Fraction(11, 1))]
    assert interval_integer_points(iv) == [6, 7, 8, 9, 10]
    iv = u_interval_decomposition(2, 11)
    assert iv == [
        (Fraction(11, 3), Fraction(11, 2)),
        (Fraction(22, 3), Fraction(11, 1)),
    ]
    assert interval_integer_points(iv) == [4, 5, 8, 9, 10]
    assert set(interval_integer_points(iv)) == set(u_set(9, 11).members)


def test_interval_decomposition_equals_u_set_of_minus_x():
    for p in primes_up_to(100)[1:]:
        for x in range(1, p - 1):
            pts = interval_integer_points(u_interval_decomposition(x, p))
            assert sorted(pts) == list(u_set(-x % p, p).members), (x, p)
            if x == p - 2:
                assert len(pts) == (p - 1) // 2


def test_legendre_interval_sum_examples():
    assert legendre_interval_sum(1, 11) == -3
    assert legendre_interval_sum(1, 7) == -1
    # p = 23, x = 3: identity holds with h = 3
    val = legendre_interval_sum(3, 23)
    assert val == (legendre(4, 23) - legendre(3, 23) - 1) * 3


def test_legendre_interval_sum_identity_holds():
    for p in [q for q in primes_up_to(100) if q % 4 == 3 and q > 3]:
        h = class_number(p).h
        for x in range(1, p - 1):
            val = legendre_interval_sum(x, p)
            assert val == (legendre(x + 1, p) - legendre(x, p) - 1) * h


def test_multiples_in_u():
    assert multiples_in_u(6, 2, 11) == [6]
    assert multiples_in_u(4, 9, 11) == [4, 8]
    U = set(u_set(9, 11).members)
    assert set(multiples_in_u(4, 9, 11)) <= U
    with pytest.raises(ValueError):
        multiples_in_u(1, 2, 11)  # 1 is not in U_11(2)
    # j = 1 always returns y itself
    for y in u_set(3, 13).members:
        assert multiples_in_u(y, 3, 13)[0] == y


@pytest.mark.parametrize("p", [19963, 19991])
def test_sets_and_class_number_at_benchmark_sizes(p):
    # the benchmark's `queries` workload draws p = 3 mod 4 up to 20,000
    Q = {y * y % p for y in range(1, p)}
    assert quadratic_residues(p) == Q
    for x in (2, 3, (p + 1) // 2, p - 2, p - 1, -7, p + 5):
        U, V, W = u_set(x, p), v_set(x, p), w_set(x, p)
        for S in (U, V, W):
            assert isinstance(S, ResidueSet) and S.modulus == p
        assert set(U) == {y for y in range(1, p) if x * y % p < y}, x
        assert set(V) == {y for y in range(1, p) if y < x * y % p}, x
        assert set(W) == {y for y in U if y in Q}, x
    assert class_number(p).h == reduced_form_class_number(p)


def test_w_intersection_examples():
    assert w_intersection_nonempty(2, 6, 11) == (False, None)
    assert w_intersection_nonempty(29, 43, 47) == (False, None)
    for u in range(2, 19):
        for v in range(2, 19):
            ok, witness = w_intersection_nonempty(u, v, 19)
            assert ok and witness in set(w_set(u, 19).members) & set(
                w_set(v, 19).members
            )


@pytest.mark.parametrize("p", [19963, 19991])
def test_w_intersection_matches_set_intersection(p):
    # U_p(1) is empty, so any pair with a u or v of 1 mod p has no witness
    rng = random.Random(p)
    pairs = [(rng.randrange(2, p), rng.randrange(2, p)) for _ in range(12)]
    pairs += [(1, rng.randrange(2, p)), (rng.randrange(2, p), p + 1), (5, 5)]
    empty = 0
    for u, v in pairs:
        common = set(w_set(u, p).members) & set(w_set(v, p).members)
        want = (True, min(common)) if common else (False, None)
        assert w_intersection_nonempty(u, v, p) == want, (u, v)
        empty += not common
    assert empty >= 2


def test_even_least_residues_when_x_is_half():
    # for p = 3 mod 8: U_p((p+1)/2) is the even residues in [2, p-1], and
    # |W_p((p+1)/2)| = ((p-1)/2 - 3 h_p) / 2
    for p in [q for q in primes_up_to(200) if q % 8 == 3 and q > 3]:
        x = (p + 1) // 2
        assert set(u_set(x, p).members) == set(range(2, p, 2))
        h = class_number(p).h
        assert len(w_set(x, p).members) == ((p - 1) // 2 - 3 * h) // 2


def test_largest_residue_membership():
    # the largest quadratic residue r_p = p - 2 is excluded from U_p(x)
    # exactly when x = (p+1)/2, for p = 3 mod 8 (where n_p = 2)
    for p in [q for q in primes_up_to(200) if q % 8 == 3 and q > 3]:
        assert least_nonresidue(p) == 2
        r_p = p - 2
        assert legendre(r_p, p) == 1
        for x in range(2, p):
            in_u = r_p in set(u_set(x, p).members)
            assert in_u == (x != (p + 1) // 2), (p, x)


def test_record_w_intersections_for_seven_mod_eight():
    # nonemptiness for p = 7 mod 8 has no effective bound; record failures
    # (p > 11) without asserting their absence
    failures = []
    for p in [q for q in primes_up_to(500) if q % 8 == 7 and q > 11]:
        masks = {}
        for x in range(2, p):
            mask = 0
            for y in w_set(x, p).members:
                mask |= 1 << y
            masks[x] = mask
        for u in range(2, p):
            for v in range(u, p):
                if not masks[u] & masks[v]:
                    failures.append((p, u, v))
    if failures:  # informational only, by design
        print(f"\nempty W-set intersections for p = 7 mod 8: {failures[:20]}")
