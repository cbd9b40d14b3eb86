"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles (definitions,
not the production algorithms) so that agreement is meaningful evidence.
Deliberately slow and simple.
"""

from fractions import Fraction
from math import floor, gcd, isqrt


def brute_valuation(q: Fraction, p: int) -> int:
    """v_p of a nonzero rational, by repeated division."""
    assert q != 0
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def brute_coefficient_valuations(a, b, c, p: int, N: int) -> list[int]:
    """v_p of the first N+1 Taylor coefficients of 2F1(a,b;c), materializing
    the exact rational coefficients (slow; the thing production avoids)."""
    coef = Fraction(1)
    out = [0]
    for n in range(N):
        coef *= (a + n) * (b + n) / ((c + n) * (n + 1))
        out.append(brute_valuation(coef, p))
    return out


def brute_frac(q: Fraction) -> Fraction:
    return q - floor(q)


def brute_in_s(a, b, c, v: int) -> bool:
    """v lies in the pointwise set S of (a, b; c): {-v c} <= max({-v a}, {-v b})."""
    return brute_frac(-v * c) <= max(brute_frac(-v * a), brute_frac(-v * b))


def brute_bounded_set(a, b, c) -> set[int]:
    """B(a,b;c) straight from the definition with exact fractional parts:
    units u mod m such that every power v = u^j lies in S."""
    from math import lcm

    m = lcm(a.denominator, b.denominator, c.denominator)
    members = set()
    for u in range(1, m):
        if gcd(u, m) != 1:
            continue
        v = u
        ok = True
        while True:
            if not brute_in_s(a, b, c, v):
                ok = False
                break
            v = v * u % m
            if v == u:
                break
        if ok:
            members.add(u)
    return members


def reduced_form_class_number(p: int) -> int:
    """Class number of discriminant -p (p = 3 mod 4) by counting reduced
    primitive binary quadratic forms ax^2 + bxy + cy^2 of discriminant -p:
    |b| <= a <= c, b^2 - 4ac = -p, b > 0 when |b| = a or a = c."""
    D = -p
    count = 0
    a = 1
    while 4 * a * a <= 3 * p:  # reduced forms have a <= sqrt(p/3)
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            if b < 0 and (a == c or a == abs(b)):
                continue  # the negative twin of a counted form
            count += 1
        a += 1
    return count


def brute_subgroup_union_size(x: int, J) -> int:
    """|union of the subgroups of order d, d in J| inside Z/xZ, enumerated."""
    union = set()
    for d in J:
        g = x // d  # generator of the subgroup of order d in Z/xZ
        union.update(g * i % x for i in range(d))
    return len(union)


def euler_legendre(y: int, p: int) -> int:
    """Legendre symbol by Euler's criterion."""
    r = pow(y % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def sieve_primes(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(n + 1) if flags[i]]
