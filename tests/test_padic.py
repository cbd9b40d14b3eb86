"""Digit expansions, the digit boundedness criterion, valuation profiles."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from hgdensity.arith import HGParams, mod_order, normalize_params, primes_in_range, primes_up_to
from hgdensity.errors import HypothesisError, PrimeTooSmall
from hgdensity.padic import (
    Verdict,
    coefficient_valuations,
    digit_bounded,
    digits_by_formula,
    empirical_bounded,
    empirical_bounded_batch,
    normalized_digit_limit,
    padic_digits,
)
from hgdensity.verify import params_with_modulus

from oracles import brute_coefficient_valuations


def params(a, b, c):
    return normalize_params(Fraction(a), Fraction(b), Fraction(c))


def test_digits_of_minus_three_elevenths_at_13():
    exp = padic_digits(Fraction(8, 11) - 1, 13)
    assert exp.period == mod_order(13, 11) == 10
    assert exp.digits[:5] == (8, 10, 11, 5, 9)
    assert exp.digits == (8, 10, 11, 5, 9, 4, 2, 1, 7, 3)


def test_digit_reconstruction_exact():
    for den in (3, 7, 11, 12, 25):
        for num in range(1, den):
            if math.gcd(num, den) != 1:
                continue
            a = Fraction(num, den)
            for p in (13, 101, 997):
                if den % p == 0:
                    continue
                exp = padic_digits(a - 1, p)
                assert exp.reconstruct() == a - 1
                assert all(0 <= d < p for d in exp.digits)


def test_formula_and_division_digits_agree():
    fracs = [
        Fraction(n, d)
        for d in range(2, 31)
        for n in range(1, d)
        if math.gcd(n, d) == 1
    ]
    for p in primes_up_to(200)[1:]:  # odd primes
        for a in fracs:
            if a.denominator % p == 0:
                continue
            assert digits_by_formula(a, p) == padic_digits(a - 1, p).digits


def test_complement_symmetry_of_digits():
    # when p^(M/2) = -1 mod den, the second half-period complements the first
    for den in (5, 11, 13):
        for p in primes_up_to(200)[1:]:
            if den % p == 0:
                continue
            M = mod_order(p, den)
            if M % 2 or pow(p, M // 2, den) != den - 1:
                continue
            for num in range(1, den):
                if math.gcd(num, den) != 1:
                    continue
                d = padic_digits(Fraction(num, den) - 1, p).digits
                for j in range(M // 2):
                    assert d[j + M // 2] == p - 1 - d[j]


def test_normalized_digit_limits():
    limits = [normalized_digit_limit(Fraction(8, 11), 2, j) for j in range(5)]
    assert limits == [
        Fraction(7, 11),
        Fraction(9, 11),
        Fraction(10, 11),
        Fraction(5, 11),
        Fraction(8, 11),
    ]


def test_normalized_digits_converge_to_limits():
    a = Fraction(8, 11)
    for p in (13, 79, 101, 167, 409, 1949):
        if p % 11 != 2:
            continue
        digits = padic_digits(a - 1, p).digits
        for j in range(10):
            lim = normalized_digit_limit(a, 2, j)
            assert abs(Fraction(digits[j], p) - lim) < Fraction(11, p)


def test_digit_bounded_examples():
    assert digit_bounded(params("1/3", "1/3", "2/3"), 7).kind is Verdict.BOUNDED
    v = digit_bounded(params("2/3", "2/3", "1/3"), 5)
    assert v.kind is Verdict.UNBOUNDED
    assert v.witness == 1  # c_1 = 3 > a_1 = b_1 = 1 in base 5
    with pytest.raises(PrimeTooSmall):
        digit_bounded(params("1/3", "1/3", "2/3"), 3)


def test_valuation_profile_matches_exact_rational_oracle():
    cases = [
        (("2/3", "2/3", "1/3"), 5),
        (("1/3", "1/3", "2/3"), 7),
        (("2/5", "3/5", "1/5"), 7),
        (("8/11", "8/11", "3/11"), 13),
        (("1/4", "5/6", "1/2"), 13),
    ]
    for (a, b, c), p in cases:
        pr = params(a, b, c)
        got = list(coefficient_valuations(pr, p, 300).valuations)
        want = brute_coefficient_valuations(pr.a, pr.b, pr.c, p, 300)
        assert got == want
        assert got[0] == 0


def test_valuation_minima_across_scales():
    # unbounded at p=5: the running minimum keeps descending, but only about
    # once per p^2 because the digit inequality fails at odd digit indices
    pr = params("2/3", "2/3", "1/3")
    vals = coefficient_valuations(pr, 5, 700).valuations
    assert min(vals[: 5**2 + 1]) == -1
    assert min(vals[: 5**3 + 1]) == -1  # no new low yet at the p^3 scale
    assert min(vals[:261]) == -2  # first coefficient below -1 is n = 260
    assert min(vals[:260]) == -1
    # bounded at p=7: the minimum over one period's scale never deepens
    pr = params("1/3", "1/3", "2/3")
    vals = coefficient_valuations(pr, 7, 350).valuations
    assert min(vals) == min(vals[:50]) == 0


def test_empirical_verdict_rule():
    # the verdict flags a strict descent below an already-negative valuation
    pr = params("2/3", "2/3", "1/3")
    v = empirical_bounded(pr, 5, 700)
    assert v.kind is Verdict.UNBOUNDED
    assert v.witness == (260, -2)
    # with too small a horizon the same series still looks bounded
    assert empirical_bounded(pr, 5, 125).kind is Verdict.BOUNDED
    # a genuinely bounded prime stays BOUNDED at any horizon
    assert empirical_bounded(params("1/3", "1/3", "2/3"), 7, 343).kind is Verdict.BOUNDED


def test_empirical_detection_threshold_is_a_digit_position():
    # the first failing digit index j of (8/11,8/11;3/11) at p=13 is 3, so
    # descent below -1 cannot appear before roughly p^4; the valuation oracle
    # is blind to unboundedness at the p^3 horizon
    pr = params("8/11", "8/11", "3/11")
    assert digit_bounded(pr, 13).kind is Verdict.UNBOUNDED
    assert digit_bounded(pr, 13).witness == 3
    assert empirical_bounded(pr, 13, 13**3).kind is Verdict.BOUNDED


@pytest.mark.parametrize("p", [0, 1, -5])
def test_prime_below_two_is_a_value_error(p):
    calls = [
        lambda: padic_digits(Fraction(-3, 11), p),
        lambda: digits_by_formula(Fraction(8, 11), p),
        lambda: digit_bounded(params("1/3", "1/3", "2/3"), p),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime >= 2") as exc:
            call()
        assert not isinstance(exc.value, HypothesisError)


@pytest.mark.parametrize("p", [4, 25, 91])
def test_composite_prime_is_a_hypothesis_error(p):
    with pytest.raises(HypothesisError, match="not prime"):
        padic_digits(Fraction(-3, 11), p)
    with pytest.raises(HypothesisError, match="not prime"):
        digits_by_formula(Fraction(8, 11), p)
    with pytest.raises(HypothesisError, match="not prime"):
        digit_bounded(params("1/3", "1/3", "2/3"), p)


@pytest.mark.parametrize("N", [0, -1])
def test_empirical_bounded_needs_a_coefficient(N):
    with pytest.raises(ValueError, match="N="):
        empirical_bounded(params("1/3", "1/3", "2/3"), 7, N)


def _batch(m):
    return np.array(list(params_with_modulus(m))).T


def _one_by_one(m, X, Y, Z, p, N):
    return np.array([
        empirical_bounded(HGParams(Fraction(x, m), Fraction(y, m), Fraction(z, m)), p, N)
        .kind is Verdict.BOUNDED
        for x, y, z in zip(X.tolist(), Y.tolist(), Z.tolist())
    ])


@pytest.mark.parametrize("m", range(3, 9))
def test_batched_oracle_equals_per_triple_oracle(m):
    # at the sweep's horizon p^3 and at one that ends inside a block of p
    X, Y, Z = _batch(m)
    for p in primes_in_range(m, 50):
        for N in (p**3, p**2 + 7):
            got = empirical_bounded_batch(m, X, Y, Z, p, N)
            assert np.array_equal(got, _one_by_one(m, X, Y, Z, p, N)), (m, p, N)


def test_batched_oracle_flips_at_the_first_descent():
    # the horizon is exact: a triple turns UNBOUNDED at the first N that
    # includes the event of its witness (n, v), which is k = n - 1
    flips = 0
    for m, p in ((3, 5), (4, 7), (5, 7)):
        X, Y, Z = _batch(m)
        for t, (x, y, z) in enumerate(zip(X.tolist(), Y.tolist(), Z.tolist())):
            hg = HGParams(Fraction(x, m), Fraction(y, m), Fraction(z, m))
            v = empirical_bounded(hg, p, p**4)
            if v.bounded:
                continue
            n = v.witness[0]
            assert empirical_bounded_batch(m, X, Y, Z, p, n - 1)[t], (m, p, t)
            assert not empirical_bounded_batch(m, X, Y, Z, p, n)[t], (m, p, t)
            flips += 1
    assert flips >= 5


def test_batched_oracle_chunking_is_invisible(monkeypatch):
    # 7 cells: one triple and one block of p per chunk, so every triple
    # carries its valuation across blocks; 100: a few of each, with a
    # shorter last chunk
    kernel = sys.modules["hgdensity.padic"]
    cases = [(m, p, N) for m in (5, 8) for p in (11, 13) for N in (p**3, p**2 + 7)]
    whole = {c: empirical_bounded_batch(c[0], *_batch(c[0]), *c[1:]) for c in cases}
    assert any(not v.all() for v in whole.values())  # some verdict is UNBOUNDED
    for cap in (7, 100):
        monkeypatch.setattr(kernel, "_ORACLE_CELLS", cap)
        for c, want in whole.items():
            got = empirical_bounded_batch(c[0], *_batch(c[0]), *c[1:])
            assert np.array_equal(got, want), (cap, c)


def test_batched_oracle_boundary():
    X, Y, Z = _batch(6)
    for p in (2, 3, 5):
        with pytest.raises(PrimeTooSmall):
            empirical_bounded_batch(6, X, Y, Z, p, 125)
    for N in (0, -1):
        with pytest.raises(ValueError, match="N="):
            empirical_bounded_batch(6, X, Y, Z, 7, N)
    with pytest.raises(ValueError, match="too large"):
        empirical_bounded_batch(6, X, Y, Z, 7, 2**62)
    with pytest.raises(HypothesisError, match="not prime"):
        empirical_bounded_batch(6, X, Y, Z, 9, 729)
    with pytest.raises(ValueError, match="one length"):
        empirical_bounded_batch(6, [1, 5], [5], [2, 3], 7, 343)
    for bad in ([0], [6]):
        with pytest.raises(ValueError, match=r"\[1, 5\]"):
            empirical_bounded_batch(6, bad, [5], [1], 7, 343)
    assert empirical_bounded_batch(6, [], [], [], 7, 343).shape == (0,)
