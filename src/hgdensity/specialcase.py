"""Density analysis for primes p = 2*q**r + 1 with q an odd prime.

For such p the unit group mod p is cyclic of order 2*q**r, its subgroup
lattice is a small ladder, and B(x/p, y/p; z/p) can only be one of a short
list of shapes with explicitly known densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import (TABLE_LIMIT, HGParams, ResidueSet, check_int, check_prime,
                    check_table_size, chunk_slices, cyclic_powers, euler_phi, factorize,
                    is_prime, mod_order)
from .density import _in_s, _neg_residues, bounded_residues, density
from .errors import CaseViolation, HypothesisError, ShapeMismatch


@dataclass(frozen=True)
class SpecialPrime:
    """A prime p = 2*q**r + 1 with q an odd prime; p = 3 mod 4 and p > 3."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        # r is bounded before q**r is formed; q odd and r >= 1 give p > 3
        # and p = 3 mod 4
        for name in ("p", "q", "r"):
            check_int(getattr(self, name), name)
        if not (
            0 < self.r < self.p.bit_length()
            and self.q % 2 == 1
            and self.p == 2 * self.q**self.r + 1
            and is_prime(self.q)
            and is_prime(self.p)
        ):
            raise ValueError(
                f"p={self.p}, q={self.q}, r={self.r} is not a prime p = 2*q^r + 1"
                " with q an odd prime"
            )

    @cached_property
    def generator(self) -> int:
        """The least primitive root mod p, found on first use and kept."""
        return find_generator(self.p)


def parse_special_prime(p: int) -> SpecialPrime | None:
    """Recognize p = 2*q**r + 1; None when p is not of this form."""
    check_int(p, "p")
    if p < 5 or not is_prime(p):
        return None
    if p > TABLE_LIMIT:
        raise ValueError(f"prime p={p} is too large: (p - 1)/2 is factored by trial "
                         f"division, limited to p <= {TABLE_LIMIT}")
    factors = factorize((p - 1) // 2)
    if len(factors) != 1 or factors[0][0] == 2:
        return None  # (p - 1) / 2 must be a power of a single odd prime
    [(q, r)] = factors
    return SpecialPrime(p=p, q=q, r=r)


@dataclass(frozen=True)
class BShape:
    """One of the possible forms of B over a special prime.

    B is the union of the cyclic subgroups of the given orders: EMPTY; HALF(j),
    order q^(r-j), density 1/(2 q^j); FULL(k), order 2 q^(r-k), density 1/q^k;
    UNION(j, k) with j < k, both, density (q^(k-j)+1)/(2 q^k).
    """

    kind: str
    j: int | None
    k: int | None
    density: Fraction
    orders: tuple[int, ...]

    def label(self) -> str:
        if self.kind == "EMPTY":
            return "EMPTY"
        if self.kind == "HALF":
            return f"HALF({self.j})"
        if self.kind == "FULL":
            return f"FULL({self.k})"
        return f"UNION({self.j},{self.k})"


def _shape(sp: SpecialPrime, j: int | None, k: int | None) -> BShape:
    q, r = sp.q, sp.r
    if j is None and k is None:
        return BShape("EMPTY", None, None, Fraction(0), ())
    if k is None:
        return BShape("HALF", j, None, Fraction(1, 2 * q**j), (q ** (r - j),))
    if j == k:
        return BShape("FULL", None, k, Fraction(1, q**k), (2 * q ** (r - k),))
    if j is None or j > k:
        raise ValueError(f"impossible shape j={j}, k={k}")
    orders = (q ** (r - j), 2 * q ** (r - k))
    return BShape("UNION", j, k, Fraction(q ** (k - j) + 1, 2 * q**k), orders)


def enumerate_b_shapes(sp: SpecialPrime) -> list[BShape]:
    """The complete table of possible B-shapes and densities."""
    out = [_shape(sp, None, None)]
    out += [_shape(sp, j, None) for j in range(sp.r + 1)]
    out += [_shape(sp, k, k) for k in range(sp.r + 1)]
    out += [
        _shape(sp, j, k)
        for j in range(sp.r + 1)
        for k in range(j + 1, sp.r + 1)
    ]
    return out


def find_generator(p: int) -> int:
    """Least primitive root mod an odd prime p: the least g of order p - 1."""
    check_prime(p)
    if p == 2:
        raise HypothesisError("p=2 must be an odd prime")
    return next(g for g in range(2, p) if mod_order(g, p) == p - 1)


def _lattice(p: int) -> tuple[np.ndarray, list[int]]:
    """powers[k] = g^k for the least primitive root g, and the divisors of n = p - 1.

    The unit group is cyclic, so its subgroup of order d | n is powers[::n // d].
    """
    n = p - 1
    powers = cyclic_powers(find_generator(p), p)
    return np.array(powers), [d for d in range(1, n + 1) if n % d == 0]


def shape_members(sp: SpecialPrime, shape: BShape) -> ResidueSet:
    """The explicit subset of (Z/pZ)^x described by a shape.

    Walks only the subgroups of the shape's orders, H_d = <g^(n/d)>, so
    the cost is O(|members|) beyond the primitive root g, which ``sp``
    finds once for all its shapes.
    """
    p, n, g = sp.p, sp.p - 1, sp.generator
    return ResidueSet(p, [w for d in shape.orders for w in cyclic_powers(pow(g, n // d, p), p)])


def classify_b(params: HGParams) -> BShape:
    """Match the computed B(a,b;c) against the enumerated shapes.

    Raises ShapeMismatch when B matches no shape; that would contradict the
    subgroup classification and must be surfaced loudly.
    """
    sp = parse_special_prime(params.m)
    if sp is None:
        raise HypothesisError(f"modulus {params.m} is not of the form 2*q^r + 1")
    B = bounded_residues(params)
    for shape in enumerate_b_shapes(sp):
        if B == shape_members(sp, shape):
            return shape
    raise ShapeMismatch(f"B={list(B)} over p={sp.p} matches no enumerated shape")


@dataclass
class SweepResult:
    """Aggregate of an exhaustive (x, y; z) sweep over one special prime."""

    sp: SpecialPrime
    shape_counts: dict[str, int]  # shape label -> number of ordered triples
    max_density: Fraction
    witness: tuple[int, int, int]  # lexicographically least (x, y, z) attaining it
    total: int


def _size_table(sp: SpecialPrime, divs: list[int]) -> dict[int, BShape]:
    """|B| of every shape, in the order of enumerate_b_shapes.

    A cyclic H_d lies in a union of subgroups when its generator does, so in
    one of them, H_e, which holds exactly when d | e.  The shape's size is the
    sum of phi(d) over those d and must match its closed-form density.  The
    sizes 0, q^(r-j), 2 q^(r-k) and q^(r-j) + q^(r-k) differ in base q >= 3.
    """
    n = sp.p - 1
    table = {}
    for shape in enumerate_b_shapes(sp):
        size = sum(euler_phi(d) for d in divs if any(e % d == 0 for e in shape.orders))
        if size != shape.density * n:
            raise ShapeMismatch(
                f"{shape.label()} over p={sp.p} has {size} members, not"
                f" {shape.density} * {n}"
            )
        table[size] = shape
    return table


def _orbit_rows(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows 2 <= s <= t <= (p + 1)/2 and their orbit sizes."""
    h = (p + 1) // 2
    t = np.concatenate([np.arange(s, h + 1, dtype=np.uint16) for s in range(2, h + 1)])
    s = np.repeat(np.arange(2, h + 1, dtype=np.uint16), np.arange(h - 1, 0, -1))  # p <= 4097
    weight = np.where((s == t) | (t == h), np.uint8(4), np.uint8(8))
    weight[-1] = 1  # s = t = h
    return s, t, weight


def _pattern_sweep(p: int, powg: np.ndarray, divs: list[int]) -> tuple[np.ndarray, int, int]:
    """Triples (x/p, y/p; z/p) per |B|, the largest |B| and its key.

    The pointwise set of (x, y; z) is determined by s = x/z and t = y/z mod p,
    and u lies in B exactly when the coset z<u> is contained in
    T(s, t) = {w : [-w]_p <= max([-ws]_p, [-wt]_p)}.  With n = p - 1 and
    powg[k] = g^k for a primitive root g, the subgroups of the cyclic unit
    group are H_d = <g^(n/d)> for the divisors d in divs, and z*H_d lies in T
    exactly when T holds at every log k = log z (mod n/d).  So fits[d], of
    width n/d, is T's row reduced over the d cosets of that class.  The T
    row of (s, t) is the pointwise set S of (s/p, t/p; 1/p) over the units
    g^k in log order, read from one table of [-i g^k]_p for 1 <= i <= h.

    The reductions follow the least-prime recursion: with l the least prime
    of d > 1, H_d is l cosets of H_(d/l), so
    fits[d] = fits[d/l].reshape(rows, l, n/d).all(axis=1) reads the
    l*n/d columns of its predecessor instead of all n columns of T.
    B is the union of the H_d that fit, and its units of order d generate
    H_d, so |B| is the sum of phi(d) over the d that fit.  phi(d) * fits[d]
    is summed back down the same tree, each divisor's column added, tiled,
    into its predecessor's: every divisor reaches the full width along
    exactly one path, so each (row, z) cell ends with its |B|, and every
    partial sum fits the narrowest unsigned dtype that holds p - 1.

    Symmetry.  Euler's and Pfaff's transformations (Abramowitz-Stegun
    15.3.3-15.3.4, DLMF 15.8.1),
    F(a, b; c; z) = (1 - z)^(-b) F(c - a, b; c; z/(z - 1)) and
    F(a, b; c; z) = (1 - z)^(c - a - b) F(c - a, c - b; c; z),
    keep p-integrality at every prime p not dividing the denominators.  For
    a rational lambda whose denominator p does not divide, (1 - z)^lambda
    has the coefficients (-1)^k binom(lambda, k), which are p-adic integers
    (binom(., k) maps Z into Z, hence its closure Z_p into Z_p), and so has
    its inverse (1 - z)^(-lambda).  z/(z - 1) = -z - z^2 - ... is integral
    with a unit linear term and is its own inverse under composition, so
    f(z) -> f(z/(z - 1)) is an automorphism of Z_p[[z]].  Hence F(a, b; c)
    and F(c - a, b; c) are bounded at the same such primes.  Reading c - a
    mod 1 is harmless: the Dwork-Christol criterion sees a parameter only
    through its Dwork image D_p(a) = (a + l)/p, l in [0, p) with
    l = -a mod p, and D_p(a + 1) = D_p(a) once p exceeds the numerators, so
    shifting a parameter by an integer changes boundedness at finitely many
    primes, which no Dirichlet density sees; and this package's B reads a
    parameter A/m only through [-vA]_m, a function of A mod m.

    In the sweep's coordinates (a, b; c) -> ({c - a}, b; c) is
    x -> z - x, that is s -> 1 - s, and Pfaff's map on b is t -> 1 - t.
    B is invariant already cell by cell, at any prime, special or not:
    for w = vz with [-w]_p != [-ws]_p (s != 1), [-w(1 - s)]_p is
    [-w]_p - [-ws]_p when that is positive and [-w]_p - [-ws]_p + p
    otherwise, so [-w]_p <= [-w(1 - s)]_p exactly when [-w]_p <= [-ws]_p,
    and T(1 - s, t) = T(s, t).  With the swap s <-> t these maps generate a
    group of order 8 on the pairs (s, t) of residues other than 0 and 1,
    and it keeps every cell's |B|; h = (p + 1)/2 is the fixed point of
    s -> 1 - s = p + 1 - s.  The sweep therefore walks only the fundamental
    domain 2 <= s <= t <= h and weighs each row by its orbit size: 8 when
    s < t < h, 4 when s = t < h or s < t = h, and 1 at s = t = h.  The total
    (p - 2)^2 (p - 1) that :func:`sweep_special` checks guards the weights.

    Rows go in chunks of ``arith.chunk_slices`` at p - 1 cells a row, at
    most ``arith.CHUNK_CELLS`` cells at any admitted p.  Returns the count of ordered
    triples per |B| (p entries), the largest |B| and the key
    min(x, y)*p^2 + max(x, y)*p + z of the lexicographically least triple
    attaining it: per hit cell, the least key over its images
    (s or 1 - s) x (t or 1 - t), the key's min and max taking the swap.
    """
    n = p - 1
    up = [divs.index(d // factorize(d)[0][0]) for d in divs[1:]]  # index of d/l
    phi = [np.min_scalar_type(n).type(euler_phi(d)) for d in divs]
    res = _neg_residues(p, np.arange(1, (p + 1) // 2 + 1), powg)  # res[i - 1, k] = [-i g^k]_p
    counts = np.zeros(p, dtype=np.int64)
    best_size, best_key = -1, 0
    rows = _orbit_rows(p)
    for sl in chunk_slices(len(rows[0]), n):
        s, t, weight = (v[sl] for v in rows)
        fits = [_in_s(res[s - 1], res[t - 1], res[0])]
        for d, i in zip(divs[1:], up):
            fits.append(fits[i].reshape(-1, d // divs[i], n // d).all(axis=1))
        sums = [f * phi_d for f, phi_d in zip(fits, phi)]
        del fits
        for d, i in zip(divs[:0:-1], up[::-1]):  # each divisor after its multiples
            child = sums.pop()
            sums[i].reshape(-1, d // divs[i], n // d)[...] += child[:, None, :]
        (size,) = sums
        found = sum(w * np.bincount(size[weight == w].ravel(), minlength=p)
                    for w in (8, 4, 1))
        counts += found
        top = int(np.flatnonzero(found)[-1])
        if top < best_size:
            continue
        r, j = np.divmod(np.flatnonzero(size == top), n)
        z = powg[j]
        x, y = s[r] * z % p, t[r] * z % p
        key = min(int((np.minimum(a, b) * p * p + np.maximum(a, b) * p + z).min())
                  for a in (x, (z - x) % p) for b in (y, (z - y) % p))
        if top > best_size or key < best_key:
            best_size, best_key = top, key
    return counts, best_size, best_key


def sweep_special(sp: SpecialPrime) -> SweepResult:
    """Classify B for every triple (x/p, y/p; z/p) over a special prime.

    :func:`_pattern_sweep` counts the triples per |B|, building each
    subgroup's coset-fit table from its maximal subgroup's (the least-prime
    recursion) and summing phi(d) over the subgroups H_d that fit, in the
    narrowest unsigned dtype that holds p - 1.  It walks one
    row (s, t) per orbit of the Euler-Pfaff symmetry group, 2 <= s <= t <=
    (p + 1)/2, weighted by the orbit's size, and runs one kernel pass per
    chunk of rows of at most ``arith.CHUNK_CELLS`` cells.  The counts are mapped
    to shapes through a table of |B| built once from the subgroup orders of
    enumerate_b_shapes; a size that matches no shape, or a total other
    than (p - 2)^2 (p - 1), raises ShapeMismatch.  The sweep's residue table
    holds (p + 1)/2 x (p - 1) uint16 cells, the bytes of (p - 1)^2 bool
    cells, so (p - 1)^2 above ``TABLE_LIMIT`` is refused with ValueError
    before anything is built.
    """
    p = sp.p
    n = p - 1
    check_table_size(n * n, f"special prime p={p}: (p - 1)^2")
    powg, divs = _lattice(p)
    table = _size_table(sp, divs)
    counts, best_size, best_key = _pattern_sweep(p, powg, divs)
    for m in np.flatnonzero(counts).tolist():
        if m not in table:
            raise ShapeMismatch(f"|B| = {m} over p={p} matches no enumerated shape")
    shape_counts = {
        shape.label(): int(counts[m]) for m, shape in table.items() if counts[m]
    }
    total = int(counts.sum())
    expected = (p - 2) * (p - 2) * (p - 1)
    if total != expected:
        raise ShapeMismatch(f"swept {total} triples over p={p}, expected {expected}")
    return SweepResult(
        sp=sp,
        shape_counts=shape_counts,
        max_density=Fraction(best_size, n),
        witness=(best_key // (p * p), best_key // p % p, best_key % p),
        total=total,
    )


def remark_case_classification(params: HGParams) -> str:
    """Case pattern for p = 2q + 1 (r = 1): returns one of
    'zero', 'c-largest', 'c-between' after checking the computed density
    against the allowed two-element density set for the case."""
    sp = parse_special_prime(params.m)
    if sp is None or sp.r != 1:
        raise HypothesisError(f"modulus {params.m} is not of the form 2*q + 1")
    q = sp.q
    D = density(params)
    if D == 1:
        raise CaseViolation(f"D = 1 occurred at {params}")
    a, b, c = params.a, params.b, params.c
    if c < a and c < b:
        tag, allowed = "zero", {Fraction(0)}
    elif a < c and b < c:
        tag, allowed = "c-largest", {Fraction(1, 2 * q), Fraction(1, 2)}
    else:
        tag, allowed = "c-between", {Fraction(1, q), Fraction(q + 1, 2 * q)}
    if D not in allowed:
        raise CaseViolation(
            f"density {D} of {params} contradicts case {tag} (allowed {allowed})"
        )
    return tag


def shape_table_json(sp: SpecialPrime) -> list[dict]:
    """JSON-friendly rows of the shape/density table."""
    return [
        {"shape": s.label(), "density": str(s.density)}
        for s in enumerate_b_shapes(sp)
    ]
