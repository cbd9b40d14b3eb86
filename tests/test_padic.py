"""Digit expansions, the digit boundedness criterion, valuation profiles."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hgdensity.arith import HGParams, mod_order, normalize_params, primes_in_range, primes_up_to
from hgdensity.errors import HypothesisError, PrimeTooSmall
from hgdensity.padic import (
    Verdict,
    _class_valuations,
    _descents,
    _first_two_of_runs,
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


def test_normalized_digit_limit_refuses_a_outside_the_unit_interval():
    # the twin of digits_by_formula's refusal: {-u^(M-1-j) a} at a = 5/3
    # would be the limit for a = 2/3, not for a
    for a in (Fraction(5, 3), Fraction(0), Fraction(1), Fraction(-1, 3)):
        with pytest.raises(HypothesisError, match=r"must lie in \(0, 1\)"):
            normalized_digit_limit(a, 2, 0)


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
        lambda: coefficient_valuations(params("1/3", "1/3", "2/3"), p, 10),
        lambda: empirical_bounded(params("1/3", "1/3", "2/3"), p, 100),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime >= 2") as exc:
            call()
        assert not isinstance(exc.value, HypothesisError)
    with pytest.raises(ValueError, match="N=-3 must be >= 0"):
        coefficient_valuations(params("1/3", "1/3", "2/3"), 5, -3)


@pytest.mark.parametrize("p", [4, 25, 91])
def test_composite_prime_is_a_hypothesis_error(p):
    with pytest.raises(HypothesisError, match="not prime"):
        padic_digits(Fraction(-3, 11), p)
    with pytest.raises(HypothesisError, match="not prime"):
        digits_by_formula(Fraction(8, 11), p)
    with pytest.raises(HypothesisError, match="not prime"):
        digit_bounded(params("1/3", "1/3", "2/3"), p)
    with pytest.raises(HypothesisError, match="not prime"):
        coefficient_valuations(params("1/3", "1/3", "2/3"), p, 10)
    # padic_digits refuses an a - 1 outside (-1, 0); the formula route alike
    for a in (Fraction(5, 3), Fraction(0), Fraction(1), Fraction(-1, 3)):
        with pytest.raises(HypothesisError, match=r"must lie in \(0, 1\)"):
            digits_by_formula(a, 7)


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
    # at the sweep's horizon p^3 and at one that ends inside a block of p;
    # for p <= 13 also at p^4 + 3, which crosses p^3 with several irregular
    # super-blocks per row and v_p >= 3 events, and ends inside a block
    X, Y, Z = _batch(m)
    for p in primes_in_range(m, 50):
        for N in (p**3, p**2 + 7) + ((p**4 + 3,) if p <= 13 else ()):
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
    # 7 and 100 cells both give one triple per chunk at these p, since a
    # chunk is sized for 4 cells per block a triple may keep, in every
    # super-block it may keep; the
    # default cap, which computes `whole`, puts many triples in a chunk, with
    # a shorter last one at m = 8 and N = p^3
    arith = sys.modules["hgdensity.arith"]
    cases = [(m, p, N) for m in (5, 8) for p in (11, 13) for N in (p**3, p**2 + 7)]
    whole = {c: empirical_bounded_batch(c[0], *_batch(c[0]), *c[1:]) for c in cases}
    assert any(not v.all() for v in whole.values())  # some verdict is UNBOUNDED
    for cap in (7, 100):
        monkeypatch.setattr(arith, "CHUNK_CELLS", cap)
        for c, want in whole.items():
            got = empirical_bounded_batch(c[0], *_batch(c[0]), *c[1:])
            assert np.array_equal(got, want), (cap, c)


@pytest.mark.parametrize("m, p", [(3, 5), (5, 7), (8, 11), (10, 47)])
def test_super_blocks_at_the_sweep_horizon(m, p):
    # the layout the batched oracle relies on: at N = p^3 every row of the
    # class-valuation table has one super-block (p blocks) with an entry
    # outside {1, 2}, and all its other super-blocks are equal
    N = p**3
    table = _class_valuations(m, p, N, p * p).reshape(m + 1, p, p)[1:]
    regular = ((table >= 1) & (table <= 2)).all(axis=2)
    assert (np.count_nonzero(~regular, axis=1) == 1).all()
    for row, ok in zip(table, regular):
        assert (row[ok] == row[ok][0]).all()
        assert np.count_nonzero(row[ok][0] == 2) == 1


@pytest.mark.parametrize("m, p", [(3, 5), (5, 7), (8, 11), (10, 47)])
def test_blocks_at_the_sweep_horizon(m, p):
    # the layout one level down: at N = p^3 the entries >= 2 of a row lie in
    # one block of each super-block, the same block j = (k2 - k0) / p mod p
    # in all of them, with k0 and k2 the least k of the row's class mod p
    # and mod p^2; every other entry is 1
    N = p**3
    table = _class_valuations(m, p, N, p * p).reshape(m + 1, p, p)[1:]
    big = table >= 2
    assert (np.count_nonzero(big, axis=2) == 1).all()
    t = np.arange(1, m + 1)
    k0 = -t * pow(m, -1, p) % p
    k2 = -t * pow(m, -1, p * p) % (p * p)
    assert (np.argmax(big, axis=2) == ((k2 - k0) // p % p)[:, None]).all()
    assert (table[~big] == 1).all()


def test_first_two_of_runs_keeps_two_copies():
    # positions 0 and 1, every false one, and exactly the first two of each
    # run of true ones; rows padded with n to the widest
    ok = np.array([[1, 1, 1, 1, 0, 1, 1, 1, 1, 1],
                   [0, 0, 1, 1, 1, 0, 1, 0, 1, 1]], dtype=bool)
    assert _first_two_of_runs(ok).tolist() == [[0, 1, 4, 5, 6, 10, 10, 10, 10],
                                               [0, 1, 2, 3, 5, 6, 7, 8, 9]]
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 16):
        ok = rng.random((40, n)) < 0.8
        got = _first_two_of_runs(ok)
        for row, sel in zip(ok.tolist(), got.tolist()):
            want, run = [], 0
            for j, x in enumerate(row):
                run = run + 1 if x else 0
                if j < 2 or run <= 2:
                    want.append(j)
            assert sel == want + [n] * (len(sel) - len(want)), (row, sel)
        assert got.shape[1] == max(np.count_nonzero(got < n, axis=1))


@pytest.mark.parametrize("m", range(3, 7))
def test_batched_oracle_equals_per_triple_oracle_where_blocks_drop(m):
    # p > 14, so a triple keeps fewer than p blocks of a super-block; the
    # horizons end inside a super-block, where a block is plain in some
    # super-blocks only
    X, Y, Z = _batch(m)
    for p in (17, 23, 47):
        for N in (p**3 - 1, 2 * p**2 + 3 * p + 1, p**3 + p**2 + 5):
            got = empirical_bounded_batch(m, X, Y, Z, p, N)
            assert np.array_equal(got, _one_by_one(m, X, Y, Z, p, N)), (m, p, N)


def test_batched_oracle_chunks_hold_the_cell_budget(monkeypatch):
    # at N = p^2 + 7 almost no block is plain in both super-blocks, so a
    # triple keeps all p blocks; at N = p^3 it keeps at most 14 of them
    kernel, arith = sys.modules["hgdensity.padic"], sys.modules["hgdensity.arith"]
    X, Y, Z = _batch(12)
    p = 47
    want = _one_by_one(12, X, Y, Z, p, p**2 + 7)
    shapes = []

    def spy(vals, before):
        shapes.append(vals.shape)
        return _descents(vals, before)

    monkeypatch.setattr(kernel, "_descents", spy)
    assert np.array_equal(empirical_bounded_batch(12, X, Y, Z, p, p**2 + 7), want)
    assert len(shapes) > 1 and max(r * c for r, c in shapes) <= arith.CHUNK_CELLS
    assert max(c for _, c in shapes) == 4 * 2 * p
    shapes.clear()
    empirical_bounded_batch(12, X, Y, Z, p, p**3)
    assert len(shapes) > 1 and max(r * c for r, c in shapes) <= arith.CHUNK_CELLS
    assert max(c for _, c in shapes) <= 4 * 14 * 14


def test_descents_repeat_from_the_second_copy():
    # the rule behind skipping regular super-blocks: a block of values that
    # sums to no change, repeated from one level, finds in its third and
    # later copies exactly the descents of its second, but the first copy
    # may find fewer: [-2, -1, 0] has none, then one at -2
    floor = np.array(np.iinfo(np.int8).min, dtype=np.int8)
    drops, best = _descents(np.array([-2, -1, 0, -2, -1, 0], dtype=np.int8), floor)
    assert drops.tolist() == [False, False, False, True, False, False] and best == -1
    rng = np.random.default_rng(5)
    for _ in range(300):
        vals = rng.integers(-4, 4, size=int(rng.integers(1, 12))).astype(np.int8)
        start = np.array(rng.choice([floor, rng.integers(-5, 0)]), dtype=np.int8)
        drops, best = _descents(np.tile(vals, 4), start)
        copies = drops.reshape(4, -1)
        assert (copies[1:] == copies[1]).all()
        assert best == _descents(np.tile(vals, 2), start)[1]


def test_empirical_horizon_beyond_the_event_limit(monkeypatch):
    # the events are counted before any is made: at 4 N / (p - 1) or so,
    # 100 events up to N = 151 and 101 up to 152
    padic = sys.modules["hgdensity.padic"]
    monkeypatch.setattr(sys.modules["hgdensity.arith"], "TABLE_LIMIT", 100 * padic._EVENT_ENTRIES)
    pr = params("1/3", "1/3", "2/3")
    assert empirical_bounded(pr, 7, 151).bounded
    with pytest.raises(ValueError, match="too large"):
        empirical_bounded(pr, 7, 152)


def test_empirical_horizon_within_the_event_limit_stays_in_its_table_budget(monkeypatch):
    # at the largest accepted horizon the call holds at most _EVENT_ENTRIES
    # int64 entries per event (at 2^24 entries, 301 MiB traced before the
    # limit was tied to what the call holds); 2^18 entries keep the test small
    padic = sys.modules["hgdensity.padic"]
    limit = 1 << 18
    monkeypatch.setattr(sys.modules["hgdensity.arith"], "TABLE_LIMIT", limit)
    for triple, p in ((("1/3", "1/3", "2/3"), 7), (("1/2", "1/3", "1/5"), 10007)):
        pr = params(*triple)
        lo, hi = 1, 1 << 40  # the largest N the rule accepts
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                padic._valuation_deltas(pr, p, mid)
                lo = mid
            except ValueError:
                hi = mid - 1
        tracemalloc.start()
        try:
            empirical_bounded(pr, p, lo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * limit, (triple, p, lo, peak)
        with pytest.raises(ValueError, match="too large"):
            empirical_bounded(pr, p, lo + p)


def test_largest_valuation_profile_stays_in_its_table_budget():
    # int64 per_k and cumsum arrays and a generator-built tuple once held
    # 24.6 bytes per valuation, about 400 MiB at the old limit of N near 2^24
    padic = sys.modules["hgdensity.padic"]
    limit = sys.modules["hgdensity.arith"].TABLE_LIMIT
    N = limit // padic._VALUATION_ENTRIES - 1
    pr = params("1/3", "1/3", "2/3")
    tracemalloc.start()
    try:
        vals = coefficient_valuations(pr, 10007, N).valuations
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vals) == N + 1 and (min(vals), max(vals)) == (-1, 1)
    del vals
    assert peak < 8 * limit, f"traced peak {peak / 2**20:.2f} MiB"
    with pytest.raises(ValueError, match="valuations up to"):
        coefficient_valuations(pr, 10007, N + 1)


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
    # 2^40 fits in int64, but its class table would hold about 2^40 entries:
    # refused at once, before anything is built
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="too large"):
            empirical_bounded_batch(6, [1], [5], [2], 7, 2**40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    with pytest.raises(HypothesisError, match="not prime"):
        empirical_bounded_batch(6, X, Y, Z, 9, 729)
    with pytest.raises(ValueError, match="one length"):
        empirical_bounded_batch(6, [1, 5], [5], [2, 3], 7, 343)
    for bad in ([0], [6]):
        with pytest.raises(ValueError, match=r"\[1, 5\]"):
            empirical_bounded_batch(6, bad, [5], [1], 7, 343)
    assert empirical_bounded_batch(6, [], [], [], 7, 343).shape == (0,)


def test_valuation_profile_check_survives_python_O():
    # the field check is an exception, not an assert that -O strips
    code = "from hgdensity.padic import ValuationProfile; ValuationProfile(prime=5, upto=0, valuations=())"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError: valuations must start with 0")
