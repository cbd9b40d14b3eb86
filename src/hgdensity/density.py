"""The bounded-residue set B(a,b;c) and its exact Dirichlet density.

For m the lcm of the parameter denominators, B(a,b;c) is the set of units
u mod m whose whole cyclic subgroup satisfies the pointwise fractional-part
condition; the density of bounded primes is |B| / phi(m), an exact fraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .arith import (HGParams, ResidueSet, euler_phi, factorize, is_prime, unit_mask,
                    units_mod)
from .errors import HypothesisError, PrimeTooSmall

# the subgroup kernel evaluates at most this many (triple, unit) cells at
# once, which bounds its temporaries to a few arrays of this many entries
_KERNEL_CELLS = 1 << 16


def pointwise_condition(params: HGParams, v: int) -> bool:
    """Single-element predicate {-vc} <= max({-va}, {-vb}).

    Comparisons are done at the common denominator m as integer least
    residues, which is exact since every parameter denominator divides m.
    """
    m = params.m
    if math.gcd(v, m) != 1:
        raise HypothesisError(f"v={v} is not a unit mod {m}")
    A = int(params.a * m)
    B = int(params.b * m)
    C = int(params.c * m)
    return (-v * C) % m <= max((-v * A) % m, (-v * B) % m)


def _cycle_walk(m: int, A: int, B: int, C: int) -> list[int]:
    """B for the single triple (A/m, B/m; C/m), in increasing order.

    S holds the units v with [-vC]_m <= max([-vA]_m, [-vB]_m); a unit u is
    in B when its whole cyclic subgroup <u> lies inside S.  A walk over the
    powers of u that closes inside S puts every power it met into B, since
    each of them generates a subgroup of <u>; those are not walked again.
    """
    units = np.flatnonzero(unit_mask(m))
    S = units[(-units * C) % m <= np.maximum((-units * A) % m, (-units * B) % m)]
    mask = np.zeros(m, dtype=bool)
    mask[S] = True
    in_s = mask.tobytes()  # indexing bytes is cheaper than indexing an array
    in_b: set[int] = set()
    for u in S.tolist():
        if u in in_b:
            continue
        cycle = [u]
        w = u * u % m
        while w != u and in_s[w]:
            cycle.append(w)
            w = w * u % m
        if w == u:
            in_b.update(cycle)
    return sorted(in_b)


def bounded_residues(params: HGParams) -> ResidueSet:
    """B(a,b;c): units whose every power satisfies the pointwise condition."""
    m = params.m
    members = _cycle_walk(m, int(params.a * m), int(params.b * m), int(params.c * m))
    return ResidueSet(modulus=m, members=tuple(members))


def bounded_count(m: int, A: int, B: int, C: int) -> int:
    """|B| for the single triple (A/m, B/m; C/m).

    One triple walks the cycles of S directly; batches of triples of one
    modulus go through :func:`bounded_counts`, whose per-modulus plan costs
    more than the walk when it serves a single triple.
    """
    return len(_cycle_walk(m, A, B, C))


class _Plan(NamedTuple):
    """The cyclic subgroups of (Z/m)^*, laid out for the subgroup kernel.

    Kernel row r stands for the unit ``m - neg_units[r]``.  Rows are grouped
    by the cyclic subgroup they generate, and subgroups by their number of
    generators: each ``(start, count, size)`` in ``classes`` covers ``count``
    subgroups with ``size`` generators each, in rows
    ``start : start + count * size``.  ``weights[h] = phi(|H_h|)`` is the
    generator count of subgroup h in that order.  ``steps`` lists, level by
    level in Omega(|H|), index arrays ``(dst, src)`` pairing subgroups H of
    that level with one maximal subgroup H^l each (l a prime dividing |H|);
    every such pair occurs in exactly one step and no H occurs twice in a
    step.  ``column[u]`` is the subgroup that u generates, -1 for non-units.
    """

    neg_units: np.ndarray
    classes: list
    weights: np.ndarray
    steps: list
    column: np.ndarray


def _subgroup_plan(m: int) -> _Plan:
    """The cyclic subgroups of (Z/m)^* and their maximal subgroups."""
    sub_of: dict[int, int] = {}  # unit -> index of the subgroup it generates
    gens: list[list[int]] = []
    maximal: list[list[int]] = []  # per subgroup, u^l for each prime l | |H|
    level: list[int] = []  # Omega(|H|)
    for u in units_mod(m):
        if u in sub_of:
            continue
        powers = [u]  # powers[k - 1] = u^k
        w = u * u % m
        while w != u:
            powers.append(w)
            w = w * u % m
        d = len(powers)
        g = [powers[k - 1] for k in range(1, d + 1) if math.gcd(k, d) == 1]
        for x in g:
            sub_of[x] = len(gens)
        gens.append(g)
        primes = factorize(d)
        maximal.append([powers[l - 1] for l, _ in primes])
        level.append(sum(e for _, e in primes))
    order = sorted(range(len(gens)), key=lambda h: len(gens[h]))
    rank = {h: i for i, h in enumerate(order)}
    neg_units = np.array([m - u for h in order for u in gens[h]], dtype=np.int64)
    weights = np.array([len(gens[h]) for h in order], dtype=np.int64)
    sizes, counts = np.unique(weights, return_counts=True)
    starts = np.cumsum(sizes * counts) - sizes * counts
    classes = list(zip(starts.tolist(), counts.tolist(), sizes.tolist()))
    steps = []
    for lev in range(1, max(level) + 1):
        tier = [h for h in range(len(gens)) if level[h] == lev]
        for j in range(max(len(maximal[h]) for h in tier)):
            pairs = [(rank[h], rank[sub_of[maximal[h][j]]])
                     for h in tier if len(maximal[h]) > j]
            steps.append(tuple(np.array(side, dtype=np.intp) for side in zip(*pairs)))
    column = np.full(m, -1, dtype=np.intp)
    column[m - neg_units] = np.repeat(np.arange(len(weights)), weights)
    return _Plan(neg_units, classes, weights, steps, column)


def _subgroup_chunks(m: int, A, B, C):
    """Yield ``(chunk slice, ok, plan)`` over the triples of one modulus m.

    B is the union of the cyclic subgroups H of (Z/m)^* with H inside the
    pointwise set S.  Every element of a cyclic group H either generates H
    or lies in one of its maximal subgroups H^l, l a prime dividing |H|.
    Hence H lies inside S exactly when all of its generators do and all of
    its H^l lie inside S, which the kernel resolves level by level in
    Omega(|H|), from the trivial group up: one AND over the generator rows
    of S per subgroup, then one AND per (H, H^l) pair.  ``ok[h, t]`` says
    whether subgroup h of ``plan`` lies inside S for triple t of the chunk.
    Chunks hold at most ``_KERNEL_CELLS`` (triple, unit) cells; within a
    chunk, [-vX]_m is computed once per distinct numerator X and gathered
    per triple.  The numerators are expected in [0, m).
    """
    A, B, C = (np.asarray(x, dtype=np.int64) for x in (A, B, C))
    if not A.shape == B.shape == C.shape == (len(C),):
        raise ValueError(f"A, B, C must be 1-d of one length, got "
                         f"{A.shape}, {B.shape}, {C.shape}")
    if len(C) == 0:
        return
    plan = _subgroup_plan(m)
    rows = max(1, _KERNEL_CELLS // len(plan.neg_units))
    dtype = np.min_scalar_type(m)
    for lo in range(0, len(C), rows):
        sl = slice(lo, lo + rows)
        vals, idx = np.unique(np.concatenate((A[sl], B[sl], C[sl])), return_inverse=True)
        table = (np.multiply.outer(vals, plan.neg_units) % m).astype(dtype)
        a, b, c = np.split(table[idx], 3)  # a[t, v] = [-vA_t]_m
        S = np.ascontiguousarray(((c <= a) | (c <= b)).T)
        ok = np.concatenate([
            S[start : start + count * size].reshape(count, size, -1).all(axis=1)
            for start, count, size in plan.classes
        ])
        for dst, src in plan.steps:
            ok[dst] &= ok[src]
        yield sl, ok, plan


def bounded_counts(m: int, A, B, C) -> np.ndarray:
    """|B| for each triple (A[t]/m, B[t]/m; C[t]/m) of one modulus m.

    Every unit generates exactly one cyclic subgroup, so |B| is the sum of
    phi(|H|) over the cyclic subgroups H inside S.  The numerators are
    expected in [0, m).
    """
    out = np.empty(len(C), dtype=np.int64)
    for sl, ok, plan in _subgroup_chunks(m, A, B, C):
        out[sl] = plan.weights @ ok
    return out


def bounded_members(m: int, A, B, C, units) -> np.ndarray:
    """``out[t, k]``: is ``units[k] mod m`` in B for the triple t?

    The triples are (A[t]/m, B[t]/m; C[t]/m) of one modulus m, numerators
    in [0, m), and a unit u lies in B exactly when the cyclic subgroup it
    generates lies inside S.  ``units`` may be any integers prime to m, such
    as primes p > m.
    """
    units = np.asarray(units, dtype=np.int64)
    if units.ndim != 1 or (np.gcd(units, m) != 1).any():
        raise ValueError(f"units must be a 1-d array of integers prime to {m}")
    out = np.empty((len(C), len(units)), dtype=bool)
    for sl, ok, plan in _subgroup_chunks(m, A, B, C):
        # mode="clip" (the columns are checked above) writes out unbuffered
        np.take(ok, plan.column[units % m], axis=0, out=out[sl].T, mode="clip")
    return out


def density(params: HGParams) -> Fraction:
    """Exact Dirichlet density of bounded primes: |B(a,b;c)| / phi(m)."""
    m = params.m
    n = bounded_count(m, int(params.a * m), int(params.b * m), int(params.c * m))
    return Fraction(n, euler_phi(m))


def bounded_prime_test(params: HGParams, p: int) -> bool:
    """True iff p (> m, prime) lies in a bounded residue class mod m."""
    m = params.m
    if p <= m:
        raise PrimeTooSmall(f"p={p} must exceed the modulus m={m}")
    if not is_prime(p):
        raise HypothesisError(f"p={p} is not prime")
    return (p % m) in bounded_residues(params)


def is_union_of_cyclic(rs: ResidueSet) -> bool:
    """True iff the set is closed under taking powers of its elements."""
    members = set(rs.members)
    m = rs.modulus
    for u in members:
        w = u * u % m
        while w != u:
            if w not in members:
                return False
            w = w * u % m
    return True


def zero_density_criterion(params: HGParams) -> bool:
    """True iff c is strictly the smallest parameter (equivalent to D = 0)."""
    return params.c < params.a and params.c < params.b


@dataclass(frozen=True)
class DivisorAntichain:
    """A set of divisors of x, none dividing another."""

    x: int
    J: frozenset[int]

    def __post_init__(self):
        J = frozenset(self.J)
        object.__setattr__(self, "J", J)
        for d in J:
            if d < 1 or self.x % d != 0:
                raise ValueError(f"{d} does not divide {self.x}")
        for d in J:
            for e in J:
                if d != e and e % d == 0:
                    raise ValueError(f"not an antichain: {d} divides {e}")


def subgroup_union_size(antichain: DivisorAntichain) -> int:
    """|union of <u_d> for d in J| inside a cyclic group of order x.

    Inclusion-exclusion: the intersection over a subset K is the subgroup
    of order gcd(K).
    """
    J = sorted(antichain.J)
    if not J:
        raise ValueError("antichain must be nonempty")
    total = 0
    for k in range(1, len(J) + 1):
        for K in combinations(J, k):
            total += (-1) ** (k - 1) * math.gcd(*K) if k > 1 else K[0]
    return total


@dataclass(frozen=True)
class DensityRecord:
    """(params, m, B, density): the unit of sweep output."""

    params: HGParams
    m: int
    B: ResidueSet
    density: Fraction

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": str(self.params.a),
                "b": str(self.params.b),
                "c": str(self.params.c),
                "m": self.m,
                "B": list(self.B.members),
                "phi": euler_phi(self.m),
                "density": str(self.density),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DensityRecord":
        d = json.loads(text)
        params = HGParams(Fraction(d["a"]), Fraction(d["b"]), Fraction(d["c"]))
        return cls(
            params=params,
            m=d["m"],
            B=ResidueSet(modulus=d["m"], members=tuple(d["B"])),
            density=Fraction(d["density"]),
        )


def record(params: HGParams) -> DensityRecord:
    B = bounded_residues(params)
    return DensityRecord(
        params=params,
        m=params.m,
        B=B,
        density=Fraction(len(B), euler_phi(params.m)),
    )
