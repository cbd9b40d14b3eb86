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


def empirical_bounded(params: HGParams, p: int, N: int) -> BoundednessVerdict:
    """Heuristic boundedness check over actual coefficient valuations.

    UNBOUNDED iff some valuation drops strictly below an earlier valuation
    that was already <= -1; unboundedness manifests as descending negative
    minima across p-power scales, while a bounded prime may keep a fixed
    negative plateau.  The prime is not checked here: sweeps call this once
    per (triple, prime) pair with primes they drew from a sieve.
    """
    if N < 1:
        raise ValueError(f"N={N} must be >= 1: no coefficient would be examined")
    pos, deltas = _valuation_deltas(params, p, N)
    vals = np.cumsum(deltas)  # valuation right after each event
    if len(vals) == 0:
        return BoundednessVerdict(Verdict.BOUNDED)
    sentinel = np.iinfo(np.int64).min
    neg = np.where(vals <= -1, vals, sentinel)
    best_before = np.concatenate([[sentinel], np.maximum.accumulate(neg)[:-1]])
    drops = np.nonzero(vals < best_before)[0]
    if len(drops):
        e = int(drops[0])
        return BoundednessVerdict(
            Verdict.UNBOUNDED, witness=(int(pos[e]) + 1, int(vals[e]))
        )
    return BoundednessVerdict(Verdict.BOUNDED)
