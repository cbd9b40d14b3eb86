"""Quadratic-residue machinery for primes p = 3 mod 4.

Legendre symbols, Dirichlet class numbers, least nonresidues, the sets
U_p(x) = {y : [xy]_p < [y]_p} and W_p(x) = U_p(x) n Q, the class-number
counting formula for |W_p(x)|, interval decompositions of U_p(-x), and
restricted Legendre-symbol interval sums.  The sets are
``arith.ResidueSet`` values with modulus p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ResidueSet, check_prime
from .errors import HypothesisError


def legendre(y: int, p: int) -> int:
    """Legendre symbol (y/p) for an odd prime p, by quadratic reciprocity."""
    if p == 2 or p < 2:
        raise HypothesisError(f"p={p} must be an odd prime")
    a = y % p
    if a == 0:
        return 0
    # Jacobi-symbol recursion; log-time, no exponentiation
    n = p
    t = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t


def _residue_mask(p: int) -> np.ndarray:
    """Length-p boolean mask, true at the nonzero quadratic residues mod p."""
    y = np.arange(1, p, dtype=np.int64)
    mask = np.zeros(p, dtype=bool)
    mask[y * y % p] = True  # y * y < p^2: exact in int64 for p < 3 * 10^9
    return mask


def quadratic_residues(p: int) -> frozenset[int]:
    """Nonzero quadratic residues mod p."""
    return frozenset(np.flatnonzero(_residue_mask(p)).tolist())


def _check_3_mod_4(p: int):
    """check_prime, then HypothesisError unless p = 3 mod 4 and p > 3."""
    check_prime(p)
    if p % 4 != 3 or p <= 3:
        raise HypothesisError(f"p={p} must be a prime = 3 mod 4 with p > 3")


@dataclass(frozen=True)
class ClassNumber:
    """Class number h of Q(sqrt(-p)) for p = 3 mod 4, p > 3."""

    p: int
    h: int


def class_number(p: int) -> ClassNumber:
    """h from the Dirichlet character sum: -p*h = sum chi(y)*y over 0<y<p."""
    _check_3_mod_4(p)
    y = np.arange(1, p, dtype=np.int64)
    s = int(np.where(_residue_mask(p)[1:], y, -y).sum())
    q, r = divmod(-s, p)
    assert r == 0, f"character sum {s} not divisible by p={p}"
    assert q >= 1
    return ClassNumber(p=p, h=q)


def least_nonresidue(p: int) -> int:
    """Smallest n > 1 that is not a quadratic residue mod p."""
    check_prime(p)
    if p == 2:
        raise HypothesisError(f"p={p} must be an odd prime")
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


def _products(x: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """y = 1, ..., p-1 and [xy]_p, for a prime p and x not 0 mod p."""
    check_prime(p)
    if x % p == 0:
        raise HypothesisError(f"x={x} is 0 mod p={p}")
    y = np.arange(1, p, dtype=np.int64)
    # x is reduced first, so x * y < p^2: exact in int64 for p < 3 * 10^9
    return y, (x % p) * y % p


def u_set(x: int, p: int) -> ResidueSet:
    """U_p(x) = {y in [1, p-1] : [xy]_p < [y]_p}."""
    y, xy = _products(x, p)
    return ResidueSet(modulus=p, members=y[xy < y].tolist())


def v_set(x: int, p: int) -> ResidueSet:
    """V_p(x) = {y in [1, p-1] : [y]_p < [xy]_p}."""
    y, xy = _products(x, p)
    return ResidueSet(modulus=p, members=y[y < xy].tolist())


def w_set(x: int, p: int) -> ResidueSet:
    """W_p(x) = U_p(x) intersected with the quadratic residues."""
    y, xy = _products(x, p)
    return ResidueSet(modulus=p, members=y[(xy < y) & _residue_mask(p)[1:]].tolist())


def w_count_formula(x: int, p: int) -> int:
    """Closed form |W_p(x)| = (n + (chi(x) + chi(1-x) - 1) h_p) / 2, n=(p-1)/2."""
    _check_3_mod_4(p)
    if x % p in (0, 1):
        raise HypothesisError(f"x={x} must not be 0 or 1 mod p")
    n = (p - 1) // 2
    h = class_number(p).h
    num = n + (legendre(x, p) + legendre(1 - x, p) - 1) * h
    q, r = divmod(num, 2)
    assert r == 0, "count formula produced an odd numerator"
    return q


def u_interval_decomposition(x: int, p: int) -> list[tuple[Fraction, Fraction]]:
    """The x disjoint open intervals (ap/(x+1), ap/x) whose integer points
    make up U_p(-x), for 1 <= x <= p-2."""
    if not (1 <= x <= p - 2):
        raise HypothesisError(f"x={x} outside [1, {p - 2}]")
    return [(Fraction(a * p, x + 1), Fraction(a * p, x)) for a in range(1, x + 1)]


def interval_integer_points(intervals: list[tuple[Fraction, Fraction]]) -> list[int]:
    """Integers strictly inside each open interval, concatenated."""
    out = []
    for lo, hi in intervals:
        first = math.floor(lo) + 1
        last = math.ceil(hi) - 1
        out.extend(range(first, last + 1))
    return out


def legendre_interval_sum(x: int, p: int) -> int:
    """Sum of (y/p) over the U_p(-x) intervals; equals (chi(x+1)-chi(x)-1) h_p.

    Both sides are computed and checked against each other before returning.
    """
    _check_3_mod_4(p)
    if not (1 <= x <= p - 2):
        raise HypothesisError(f"x={x} outside [1, {p - 2}]")
    lhs = sum(
        legendre(y, p)
        for y in interval_integer_points(u_interval_decomposition(x, p))
    )
    rhs = (legendre(x + 1, p) - legendre(x, p) - 1) * class_number(p).h
    if lhs != rhs:
        raise RuntimeError(
            f"interval-sum identity failed at x={x}, p={p}: {lhs} != {rhs}"
        )
    return lhs


def multiples_in_u(y: int, x: int, p: int) -> list[int]:
    """The multiples y, 2y, ..., floor(p/y)*y, all of which stay in U_p(x)."""
    U = set(u_set(x, p))
    if y not in U:
        raise HypothesisError(f"y={y} is not in U_{p}({x})")
    out = [y * j for j in range(1, p // y + 1)]
    for v in out:
        assert v % p in U, f"multiple {v} escaped U_{p}({x})"
    return out


def w_intersection_nonempty(u: int, v: int, p: int) -> tuple[bool, int | None]:
    """Whether W_p(u) n W_p(v) is nonempty, with the least witness if so."""
    y, uy = _products(u, p)
    _, vy = _products(v, p)
    common = y[(uy < y) & (vy < y) & _residue_mask(p)[1:]][:1].tolist()
    if common:
        return True, common[0]
    return False, None
