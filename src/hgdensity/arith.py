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

# the most entries of a table indexed by residue, mod m or mod p, or by a pair
# of residues mod p, that the library builds: 16 MiB as a bool mask and
# 128 MiB as int64, while the largest moduli in everyday use stay below 10^6
TABLE_LIMIT = 1 << 24

# the most cells that one step of a chunked numpy loop evaluates at once,
# which bounds its temporaries to a few arrays of this many entries; every
# such loop takes its chunks from chunk_slices, which reads it at call time
CHUNK_CELLS = 1 << 16


def chunk_slices(n: int, width: int):
    """Slices that cover rows 0..n-1 of ``width`` cells in order, each of at
    most ``CHUNK_CELLS`` cells and never less than one row."""
    rows = max(1, CHUNK_CELLS // width)
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def frac_part(q: Fraction) -> Fraction:
    """Fractional part {q} = q - floor(q), always in [0, 1)."""
    check_rational(q, "q")
    return Fraction(q.numerator % q.denominator, q.denominator)


def least_residue(x: int, m: int) -> int:
    """The unique integer in [0, m) congruent to x mod m."""
    check_int(x, "x")
    check_int(m, "modulus m", 1)
    return x % m


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) by trial division.

    Trial divisors stop at sqrt(``TABLE_LIMIT``): every n <= ``TABLE_LIMIT``
    factors, and a larger n whose part left there may be composite is
    refused with ValueError.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    top = math.isqrt(TABLE_LIMIT)
    d = 2
    while d * d <= n:
        if d > top:  # what is left, at least d^2, has no prime factor up to top
            raise ValueError(f"{n}, left after trial division up to sqrt({TABLE_LIMIT}), "
                             f"is too large to factor")
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
    check_int(m, "modulus m", 1)
    phi = 1
    for p, e in factorize(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mod_order(u: int, m: int) -> int:
    """Multiplicative order of u modulo m >= 2.

    The order divides phi(m): start from phi(m) and divide out each prime
    factor for as long as u to the smaller exponent is still 1.
    """
    check_int(u, "u")
    check_int(m, "modulus m", 2)
    u %= m
    if math.gcd(u, m) != 1:
        raise NotAUnit(f"{u} is not a unit mod {m}")
    if m > TABLE_LIMIT:
        raise ValueError(f"modulus m={m} is too large: orders need phi(m), which is "
                         f"factored by trial division, limited to m <= {TABLE_LIMIT}")
    k = euler_phi(m)
    for p, _ in factorize(k):
        while k % p == 0 and pow(u, k // p, m) == 1:
            k //= p
    return k


def cyclic_powers(u: int, m: int) -> list[int]:
    """[1, u, u^2, ..., u^(d-1)] mod m >= 1, d the order of the unit u.

    The list is the cyclic subgroup <u>, with ``powers[k % d] = u^k``.  A
    non-unit raises NotAUnit, as in :func:`mod_order`; m > ``TABLE_LIMIT``,
    whose list could hold as many powers, is refused with ValueError first.
    """
    check_int(u, "u")
    check_int(m, "modulus m", 1)
    check_table_size(m, "modulus m")
    u %= m
    if math.gcd(u, m) != 1:
        raise NotAUnit(f"{u} is not a unit mod {m}")
    one = 1 % m
    powers, w = [one], u
    while w != one:
        powers.append(w)
        w = w * u % m
    return powers


# Miller-Rabin to the first 13 prime bases decides every n below _MR_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below ``_MR_LIMIT``; ValueError above it."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"n={n} is too large: primality is decided below {_MR_LIMIT}")
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
    """ValueError for a non-int or p < 2, HypothesisError for a composite p."""
    check_int(p, "prime p")
    if p < 2:
        raise ValueError(f"p={p} must be a prime >= 2")
    if not is_prime(p):
        raise HypothesisError(f"p={p} is not prime")


def _prime_array(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by a sieve of n + 1 bytes that is
    refused first: n >= ``TABLE_LIMIT`` is a ValueError."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_table_size(n + 1, "sieve for primes up to n, entries")
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8)).astype(np.int64, copy=False)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, from :func:`_prime_array`."""
    return _prime_array(n).tolist()


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p < hi."""
    primes = _prime_array(hi - 1)
    return primes[primes > lo].tolist()


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
            check_rational(v, f"parameter {name}")
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
    for name, v in (("a", a), ("b", b), ("c", c)):
        check_rational(v, f"parameter {name}")
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
        check_int(self.modulus, "modulus", 1)
        ms = np.array(list(self.members))  # no dtype: a cast would truncate a float
        if ms.size and ms.dtype.kind != "i":
            raise ValueError(f"members must be ints in [1, {self.modulus - 1}], got "
                             f"{ms.dtype} entries: a float, a bool or a member outside int64")
        ms = np.sort(ms.astype(np.int64, copy=False))
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


def check_int(value, name: str, least: int | None = None) -> None:
    """ValueError unless value is an int (a bool is not), and >= least if given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_rational(value, name: str) -> None:
    """ValueError unless value is an int (a bool is not) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")


def check_int_array(values, name: str) -> np.ndarray:
    """values as an int64 array, not copied when it is one already.

    ValueError for a float or bool entry, which a cast would truncate or read
    as 1; numpy reads [1, True] as ints, so a sequence is searched for bools.
    """
    v = np.asarray(values)
    if (v.size and v.dtype.kind not in "iu") or not isinstance(values, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat):
        raise ValueError(f"{name} must be integers within int64, not floats or bools")
    return v.astype(np.int64, copy=False)


def check_numerators(m: int, X, Y, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, Y, Z) as int64 arrays, the numerators of triples (X[t]/m, Y[t]/m; Z[t]/m).

    ValueError first unless m is an int in [2, ``TABLE_LIMIT``], the moduli
    every batched kernel takes; then unless the numerators pass
    :func:`check_int_array` and are 1-d of one length with every entry in
    [1, m - 1].
    """
    check_int(m, "modulus m", 2)
    check_table_size(m, "modulus m")
    X, Y, Z = (check_int_array(v, "numerators") for v in (X, Y, Z))
    if not X.shape == Y.shape == Z.shape == (len(Z),):
        raise ValueError(f"numerators must be 1-d of one length, got "
                         f"{X.shape}, {Y.shape}, {Z.shape}")
    if len(Z) and (min(X.min(), Y.min(), Z.min()) < 1 or max(X.max(), Y.max(), Z.max()) >= m):
        raise ValueError(f"numerators must lie in [1, {m - 1}]")
    return X, Y, Z


def check_table_size(n: int, name: str) -> None:
    """ValueError before a table of n entries is built, if n > TABLE_LIMIT."""
    if n > TABLE_LIMIT:
        raise ValueError(f"{name}={n} is too large: residue tables "
                         f"are limited to {TABLE_LIMIT} entries")


def unit_mask(m: int) -> np.ndarray:
    """Length-m boolean sieve, true at the units of Z/mZ (at 0 for m = 1).

    The first table of every modulus-sized computation in :mod:`density`,
    so m > ``TABLE_LIMIT`` is refused here with ValueError.
    """
    check_table_size(m, "modulus m")
    mask = np.ones(m, dtype=bool)
    for p, _ in factorize(m):
        mask[::p] = False
    return mask


def units_mod(m: int) -> list[int]:
    """The units of Z/mZ in increasing order, from :func:`unit_mask`."""
    return np.flatnonzero(unit_mask(m)).tolist()


def modulus_triples(m: int, height: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerators (X, Y, Z) of every triple (X/m, Y/m; Z/m) of modulus exactly
    m with all denominators <= height and Z != X, Y, in lexicographic order.

    The lcm of the denominators is m exactly when no prime of m divides all of
    X, Y and Z: a cell is kept when the AND of their prime bitmasks is 0.
    ValueError for an m or a height that is not an int and for an m below 2;
    an m above ``TABLE_LIMIT``, or a table of n^3 cells above it (n the
    numerators kept), is refused with ValueError before it is built.
    """
    check_int(m, "modulus m", 2)
    check_int(height, "height")
    check_table_size(m, "modulus m")
    x = np.arange(1, m, dtype=np.int64)
    x = x[m // np.gcd(x, m) <= height]
    n = len(x)
    check_table_size(n**3, f"triple table of modulus m={m}: cells")
    mask = np.zeros(n, dtype=np.uint16)  # an int64 has at most 15 primes
    for bit, (p, _) in enumerate(factorize(m)):
        mask[x % p == 0] |= 1 << bit
    keep = ((mask[:, None] & mask)[:, :, None] & mask) == 0
    diag = np.arange(n)
    keep[diag, :, diag] = keep[:, diag, diag] = False  # Z != X and Z != Y
    cell = np.flatnonzero(keep)  # cell = (i * n + j) * n + k
    return x[cell // (n * n)], x[cell // n % n], x[cell % n]
