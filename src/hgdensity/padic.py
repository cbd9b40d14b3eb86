"""Periodic p-adic digit expansions and the per-prime boundedness criterion.

A normalized parameter a in (0, 1) is studied through the expansion of
a - 1, which is a negative p-adic unit whenever p does not divide the
denominator, and therefore has a perfectly periodic p-adic expansion whose
period is the multiplicative order of p modulo the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .arith import HGParams, check_prime, mod_order
from .errors import HypothesisError, PrimeTooSmall

# the batched valuation oracle holds at most this many (triple, event) cells
# at once, which bounds its temporaries to a few arrays of this many entries
_ORACLE_CELLS = 1 << 15


class Verdict(Enum):
    BOUNDED = "BOUNDED"
    UNBOUNDED = "UNBOUNDED"


@dataclass(frozen=True)
class BoundednessVerdict:
    """Outcome of a boundedness test, with a witness when unbounded.

    The witness is a failing digit index j for the digit criterion, or a
    pair (n, v) of coefficient index and valuation for the empirical test.
    """

    kind: Verdict
    witness: object = None

    def __post_init__(self):
        if self.kind is Verdict.UNBOUNDED and self.witness is None:
            raise ValueError("UNBOUNDED verdicts must carry a witness")

    @property
    def bounded(self) -> bool:
        return self.kind is Verdict.BOUNDED


@dataclass(frozen=True)
class DigitExpansion:
    """One full period of the p-adic expansion of a value in (-1, 0)."""

    prime: int
    value: Fraction
    period: int
    digits: tuple[int, ...]

    def reconstruct(self) -> Fraction:
        """Sum of one period times 1/(1 - p^M); must equal ``value``."""
        p, M = self.prime, self.period
        s = sum(d * p**j for j, d in enumerate(self.digits))
        return Fraction(s, 1 - p**M)


def padic_digits(a_minus_1: Fraction, p: int) -> DigitExpansion:
    """Expansion of a - 1 (with a in (0,1)) by iterated p-adic division.

    Digit j is the unique d in [0, p-1] with (x - d)/p p-integral; one full
    period of length M = ord(p mod den) is returned.
    """
    check_prime(p)
    return _expansion(a_minus_1, p)


def _expansion(a_minus_1: Fraction, p: int) -> DigitExpansion:
    """:func:`padic_digits` for a p already known to be prime."""
    if not (-1 < a_minus_1 < 0):
        raise HypothesisError(f"{a_minus_1} must lie in (-1, 0)")
    den = a_minus_1.denominator
    if den % p == 0:
        raise HypothesisError(f"p={p} divides the denominator of {a_minus_1}")
    M = mod_order(p, den)
    inv_den = pow(den, -1, p)
    n = a_minus_1.numerator
    start = n
    digits = []
    for _ in range(M):
        d = n * inv_den % p
        digits.append(d)
        n = (n - d * den) // p
    assert n == start, "expansion failed to close after one period"
    return DigitExpansion(prime=p, value=a_minus_1, period=M, digits=tuple(digits))


def digits_by_formula(a: Fraction, p: int) -> tuple[int, ...]:
    """Digits of a - 1 via the closed form floor({-p^(M-1-j) a} p).

    Kept as a second, independent route to the same digits; property tests
    pin it against :func:`padic_digits`.
    """
    check_prime(p)
    den = a.denominator
    if den % p == 0:
        raise HypothesisError(f"p={p} divides the denominator of {a}")
    M = mod_order(p, den)
    na = a.numerator
    out = []
    for j in range(M):
        x = (-pow(p, M - 1 - j, den) * na) % den  # den * {-p^(M-1-j) a}
        out.append(x * p // den)
    return tuple(out)


def normalized_digit_limit(a: Fraction, u: int, j: int) -> Fraction:
    """Limit of a_j(p)/p over primes p = u mod den(a): {-u^(M-1-j) a}."""
    den = a.denominator
    if math.gcd(u, den) != 1:
        raise HypothesisError(f"u={u} is not a unit mod {den}")
    M = mod_order(u, den)
    if not (0 <= j < M):
        raise HypothesisError(f"index j={j} out of range [0, {M})")
    return Fraction((-pow(u, M - 1 - j, den) * a.numerator) % den, den)


def digit_bounded(params: HGParams, p: int) -> BoundednessVerdict:
    """Digit criterion: bounded iff c_j(p) <= max(a_j(p), b_j(p)) for all j.

    The three expansions are compared over the common period
    M = ord(p mod m); each individual period divides M.
    """
    check_prime(p)
    m = params.m
    if p <= m:
        raise PrimeTooSmall(f"p={p} must exceed the modulus m={m}")
    M = mod_order(p, m)
    seqs = []
    for v in (params.a, params.b, params.c):
        exp = _expansion(v - 1, p)
        assert M % exp.period == 0
        seqs.append((exp.digits * (M // exp.period)))
    da, db, dc = seqs
    for j in range(M):
        if dc[j] > max(da[j], db[j]):
            return BoundednessVerdict(Verdict.UNBOUNDED, witness=j)
    return BoundednessVerdict(Verdict.BOUNDED)


@dataclass(frozen=True)
class ValuationProfile:
    """p-adic valuations of the first N+1 Taylor coefficients."""

    prime: int
    upto: int
    valuations: tuple[int, ...]

    def __post_init__(self):
        assert self.valuations[0] == 0, "constant coefficient is 1"


def _ap_start(num: int, den: int, pk: int) -> int:
    """Least k >= 0 with p^i | (num + k*den), given pk = p^i coprime to den."""
    return (-num * pow(den, -1, pk)) % pk


def _valuation_deltas(params: HGParams, p: int, N: int):
    """Positions k in [0, N) and integer deltas of the per-term valuation.

    The running sum of deltas up to k < n is the valuation of coefficient n:
    each k contributes v_p(a+k) + v_p(b+k) - v_p(c+k) - v_p(k+1).
    """
    pos_parts = []
    delta_parts = []
    specs = [
        (params.a.numerator, params.a.denominator, 1),
        (params.b.numerator, params.b.denominator, 1),
        (params.c.numerator, params.c.denominator, -1),
        (1, 1, -1),  # v_p(k + 1), the factorial term
    ]
    for num, den, sign in specs:
        if den % p == 0:
            raise HypothesisError(f"p={p} divides a parameter denominator")
        pk = p
        while pk <= num + (N - 1) * den:
            k0 = _ap_start(num, den, pk)
            if k0 < N:
                ks = np.arange(k0, N, pk, dtype=np.int64)
                pos_parts.append(ks)
                delta_parts.append(np.full(len(ks), sign, dtype=np.int64))
            pk *= p
    if not pos_parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pos = np.concatenate(pos_parts)
    del_ = np.concatenate(delta_parts)
    order = np.argsort(pos, kind="stable")
    pos, del_ = pos[order], del_[order]
    # collapse repeated positions
    uniq, idx = np.unique(pos, return_index=True)
    sums = np.add.reduceat(del_, idx)
    keep = sums != 0
    return uniq[keep], sums[keep]


def coefficient_valuations(params: HGParams, p: int, N: int) -> ValuationProfile:
    """Exact v_p of the coefficients of 2F1(a,b;c) up to index N.

    Valuations are accumulated term by term as integers; the coefficients
    themselves are never materialized.
    """
    pos, deltas = _valuation_deltas(params, p, N)
    per_k = np.zeros(N, dtype=np.int64)
    per_k[pos] = deltas
    vals = np.concatenate([[0], np.cumsum(per_k)])
    return ValuationProfile(prime=p, upto=N, valuations=tuple(int(v) for v in vals))


def _descents(vals: np.ndarray, before: np.ndarray):
    """Where a valuation falls strictly below an earlier one that was <= -1.

    The verdict rule of the valuation oracle, along the last axis of
    ``vals``: unboundedness shows as descending negative minima across
    p-power scales, while a bounded prime may keep a fixed negative
    plateau.  ``before`` holds, per row, the largest valuation <= -1 met
    before the first one of ``vals`` (the dtype's minimum if none).
    Returns the mask of descents and that largest valuation after the last.
    """
    neg = np.where(vals <= -1, vals, np.iinfo(vals.dtype).min)
    best = np.maximum.accumulate(np.concatenate((before[..., None], neg), axis=-1), axis=-1)
    return vals < best[..., :-1], best[..., -1]


def empirical_bounded(params: HGParams, p: int, N: int) -> BoundednessVerdict:
    """Heuristic boundedness check over actual coefficient valuations.

    UNBOUNDED iff some valuation drops strictly below an earlier valuation
    that was already <= -1 (:func:`_descents`).  The prime is not checked
    here: it is the one-triple reference for :func:`empirical_bounded_batch`,
    and callers draw their primes from a sieve.
    """
    if N < 1:
        raise ValueError(f"N={N} must be >= 1: no coefficient would be examined")
    pos, deltas = _valuation_deltas(params, p, N)
    vals = np.cumsum(deltas)  # valuation right after each event
    drops, _ = _descents(vals, np.array(np.iinfo(vals.dtype).min))
    if drops.any():
        e = int(np.argmax(drops))
        return BoundednessVerdict(
            Verdict.UNBOUNDED, witness=(int(pos[e]) + 1, int(vals[e]))
        )
    return BoundednessVerdict(Verdict.BOUNDED)


def _class_valuations(m: int, p: int, N: int, cols: range) -> np.ndarray:
    """v_p(t + k m) at the k < N of the class k = -t/m mod p, block by block.

    Row t in 1..m, column j for k in block j of p consecutive k (0 where
    k >= N); row 0 is all 0.
    """
    t = np.arange(1, m + 1, dtype=np.int64)[:, None]
    k = (-t * pow(m, -1, p)) % p + p * np.arange(cols.start, cols.stop, dtype=np.int64)
    x = (t + k * m) // p  # p divides t + k m on its class
    table = np.zeros((m + 1, len(cols)), dtype=np.int8)
    v = table[1:]
    v[...] = k < N
    more = (x % p == 0) & (k < N)
    while more.any():
        v += more
        x[more] //= p
        more &= x % p == 0
    return table


def empirical_bounded_batch(m: int, X, Y, Z, p: int, N: int) -> np.ndarray:
    """:func:`empirical_bounded` for every triple (X[t]/m, Y[t]/m; Z[t]/m).

    For p > m, v_p(X/m + k) = v_p(X + k m), and the factorial term
    v_p(k + 1) = v_p(m + k m) is the numerator m.  The events of numerator
    t in 1..m therefore sit on the class k = -t/m mod p, one per block of p
    consecutive k, and distinct numerators have distinct classes.  One
    table of class valuations per (m, p) gives any triple's events: per
    block, the rows X, Y, -Z and -m in the order of their class residues,
    with equal numerators merged into one event as :func:`_valuation_deltas`
    collapses repeated positions.  A running sum gives the coefficient
    valuations, and :func:`_descents` the verdict.  (X, Y, Z) and (Y, X, Z)
    are evaluated once.  Work goes in blocks of at most ``_ORACLE_CELLS``
    cells, carrying each triple's valuation and negative maximum across
    column blocks.  Returns a bool array, true where the verdict is BOUNDED.
    """
    if N < 1:
        raise ValueError(f"N={N} must be >= 1: no coefficient would be examined")
    check_prime(p)
    if p <= m:
        raise PrimeTooSmall(f"p={p} must exceed the modulus m={m}")
    X, Y, Z = (np.asarray(v, dtype=np.int64) for v in (X, Y, Z))
    if not X.shape == Y.shape == Z.shape == (len(Z),):
        raise ValueError(f"X, Y, Z must be 1-d of one length, got "
                         f"{X.shape}, {Y.shape}, {Z.shape}")
    if len(Z) and (min(X.min(), Y.min(), Z.min()) < 1 or max(X.max(), Y.max(), Z.max()) >= m):
        raise ValueError(f"numerators must lie in [1, {m - 1}]")
    if (N + p) * m > np.iinfo(np.int64).max:
        raise ValueError(f"N={N} is too large: t + k m must fit in int64")
    # v_p of coefficient n sums, over the levels p^i <= m N, four counts of
    # k < n on one class mod p^i, each floor(n / p^i) or one more: so it
    # lies in [-2 levels, 2 levels], and levels <= 62 once m N fits in int64
    levels = 0
    while p ** (levels + 1) <= m * N:
        levels += 1
    assert 2 * levels <= np.iinfo(np.int8).max, "valuations must fit in int8"
    key, inverse = np.unique((np.minimum(X, Y) * m + np.maximum(X, Y)) * m + Z,
                             return_inverse=True)
    nums = np.stack((key // (m * m), key // m % m, key % m, np.full_like(key, m)), axis=1)
    weights = np.broadcast_to(np.array([1, 1, -1, -1], dtype=np.int8), nums.shape)
    order = np.argsort((-nums * pow(m, -1, p)) % p, axis=1)
    nums = np.take_along_axis(nums, order, axis=1)
    weights = np.take_along_axis(weights, order, axis=1)
    for i in range(3):  # merge equal neighbours into the later one
        same = nums[:, i] == nums[:, i + 1]
        weights[same, i + 1] += weights[same, i]
        weights[same, i] = 0
    blocks = -(-N // p)
    cols = min(blocks, max(1, _ORACLE_CELLS // (4 * (m + 1))))
    rows = max(1, _ORACLE_CELLS // (4 * cols))
    level = np.zeros(len(key), dtype=np.int8)
    best = np.full(len(key), np.iinfo(np.int8).min, dtype=np.int8)
    unbounded = np.zeros(len(key), dtype=bool)
    for c0 in range(0, blocks, cols):
        span = range(c0, min(blocks, c0 + cols))
        table = _class_valuations(m, p, N, span)
        for r0 in range(0, len(key), rows):
            sl = slice(r0, r0 + rows)
            events = (table[nums[sl]] * weights[sl, :, None]).transpose(0, 2, 1)
            vals = np.cumsum(events.reshape(len(events), -1), axis=1, dtype=np.int8)
            vals += level[sl, None]
            drops, best[sl] = _descents(vals, best[sl])
            unbounded[sl] |= drops.any(axis=1)
            level[sl] = vals[:, -1]
    return ~unbounded[inverse]
