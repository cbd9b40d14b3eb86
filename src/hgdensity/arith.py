"""Exact rational and modular arithmetic foundation.

All rational quantities are ``fractions.Fraction`` values: arbitrary
precision, always in lowest terms with positive denominator.  No floating
point is used anywhere in the mathematical core.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError, IntegralParameter, NotAUnit

log = logging.getLogger(__name__)


def frac_part(q: Fraction) -> Fraction:
    """Fractional part {q} = q - floor(q), always in [0, 1)."""
    return Fraction(q.numerator % q.denominator, q.denominator)


def least_residue(x: int, m: int) -> int:
    """The unique integer in [0, m) congruent to x mod m."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    return x % m


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(m: int) -> int:
    """Number of units in Z/mZ."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    phi = 1
    for p, e in factorize(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mod_order(u: int, m: int) -> int:
    """Multiplicative order of u modulo m >= 2.

    The order divides phi(m): start from phi(m) and divide out each prime
    factor for as long as u to the smaller exponent is still 1.
    """
    if m < 2:
        raise ValueError(f"order requires modulus >= 2, got {m}")
    u %= m
    if math.gcd(u, m) != 1:
        raise NotAUnit(f"{u} is not a unit mod {m}")
    k = euler_phi(m)
    for p, _ in factorize(k):
        while k % p == 0 and pow(u, k // p, m) == 1:
            k //= p
    return k


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-sized integers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int):
    """ValueError for p < 2, HypothesisError for a composite p."""
    if p < 2:
        raise ValueError(f"p={p} must be a prime >= 2")
    if not is_prime(p):
        raise HypothesisError(f"p={p} is not prime")


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p < hi."""
    return [p for p in primes_up_to(hi - 1) if p > lo]


@dataclass(frozen=True)
class HGParams:
    """A validated hypergeometric parameter triple (a, b; c).

    Invariants: 0 < a, b, c < 1 and c != a, c != b.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (0 < v < 1):
                raise IntegralParameter(f"parameter {name}={v} must lie in (0, 1)")
        if self.c == self.a or self.c == self.b:
            raise IntegralParameter(f"c={self.c} must differ from a and b")

    @property
    def m(self) -> int:
        """Least common multiple of the three denominators.

        For a in (0, 1) the denominators of a and a-1 coincide, so this is
        also the lcm for the shifted parameters.
        """
        return math.lcm(self.a.denominator, self.b.denominator, self.c.denominator)

    @property
    def phi(self) -> int:
        return euler_phi(self.m)

    def __str__(self):
        return f"({self.a}, {self.b}; {self.c})"


def normalize_params(a: Fraction, b: Fraction, c: Fraction) -> HGParams:
    """Reduce (a, b; c) to ({a}, {b}; {c}) and validate.

    Raises IntegralParameter if any of a, b, c, a-c, b-c is an integer,
    since the density formula hypotheses are then violated.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("a-c", a - c), ("b-c", b - c)):
        if v.denominator == 1:
            raise IntegralParameter(f"{name} = {v} is an integer")
    if not all(0 < v < 1 for v in (a, b, c)):
        log.info("normalizing (%s, %s; %s) into (0,1) by fractional parts", a, b, c)
    return HGParams(frac_part(a), frac_part(b), frac_part(c))


@dataclass(frozen=True)
class ResidueSet:
    """A subset of the units of Z/mZ, kept sorted and deduplicated."""

    modulus: int
    members: tuple[int, ...]

    def __post_init__(self):
        try:
            ms = np.sort(np.fromiter(self.members, dtype=np.int64))
        except OverflowError:
            raise ValueError(f"a member lies outside [1, {self.modulus - 1}]") from None
        first = np.ones(len(ms), dtype=bool)  # cheaper than np.unique
        first[1:] = ms[1:] != ms[:-1]
        ms = ms[first]
        bad = (ms < 1) | (ms >= self.modulus) | (np.gcd(ms, self.modulus) != 1)
        if bad.any():
            raise ValueError(f"{ms[bad][0]} is not a unit in [1, {self.modulus - 1}]")
        object.__setattr__(self, "members", tuple(ms.tolist()))

    def __contains__(self, u: int) -> bool:
        u %= self.modulus
        i = bisect_left(self.members, u)
        return i < len(self.members) and self.members[i] == u

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def unit_mask(m: int) -> np.ndarray:
    """Length-m boolean sieve, true at the units of Z/mZ (at 0 for m = 1)."""
    mask = np.ones(m, dtype=bool)
    for p, _ in factorize(m):
        mask[::p] = False
    return mask


def units_mod(m: int) -> list[int]:
    """The units of Z/mZ in increasing order, from :func:`unit_mask`."""
    return np.flatnonzero(unit_mask(m)).tolist()
