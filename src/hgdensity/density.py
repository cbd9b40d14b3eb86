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

import numpy as np

from .arith import HGParams, ResidueSet, euler_phi, factorize, is_prime, units_mod
from .errors import HypothesisError, PrimeTooSmall

# bounded_counts evaluates at most this many (triple, unit) cells at once,
# which bounds its temporaries to a few arrays of this many entries
_KERNEL_CELLS = 1 << 16
# per-modulus unit arrays for the vectorized pointwise-set computation
_UNITS_NP: dict[int, np.ndarray] = {}


def _units_np(m: int) -> np.ndarray:
    arr = _UNITS_NP.get(m)
    if arr is None:
        arr = np.array(units_mod(m), dtype=np.int64)
        _UNITS_NP[m] = arr
    return arr


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


def _pointwise_members(m: int, A: int, B: int, C: int):
    """Units v mod m with [-vC]_m <= max([-vA]_m, [-vB]_m).

    Returns (passing unit list, membership bool array of size m).
    """
    units = _units_np(m)
    mask = (-units * C) % m <= np.maximum((-units * A) % m, (-units * B) % m)
    passing = units[mask]
    in_s = np.zeros(m, dtype=bool)
    in_s[passing] = True
    return passing.tolist(), in_s


def _closure_members(m: int, S: list[int], in_s) -> list[int]:
    """Units u whose full cyclic subgroup <u> lies inside S."""
    verdict: dict[int, bool] = {}
    out = []
    for u in S:
        known = verdict.get(u)
        if known is not None:
            if known:
                out.append(u)
            continue
        cycle = []
        w = u
        ok = True
        while True:
            if not in_s[w]:
                ok = False
                break
            cycle.append(w)
            w = w * u % m
            if w == u:
                break
        if ok:
            for x in cycle:
                verdict[x] = True
            out.append(u)
        else:
            verdict[u] = False
    return sorted(out)


def bounded_residues(params: HGParams) -> ResidueSet:
    """B(a,b;c): units whose every power satisfies the pointwise condition."""
    m = params.m
    S, in_s = _pointwise_members(
        m, int(params.a * m), int(params.b * m), int(params.c * m)
    )
    return ResidueSet(modulus=m, members=tuple(_closure_members(m, S, in_s)))


def bounded_count(m: int, A: int, B: int, C: int) -> int:
    """|B| for the single triple (A/m, B/m; C/m).

    One triple walks the cycles of S directly; batches of triples of one
    modulus go through :func:`bounded_counts`, whose per-modulus plan costs
    more than the walk when it serves a single triple.
    """
    return len(_closure_members(m, *_pointwise_members(m, A, B, C)))


def _subgroup_plan(m: int):
    """The cyclic subgroups of (Z/m)^*, laid out for :func:`bounded_counts`.

    Returns ``(neg_units, classes, weights, steps)``.  Kernel row r stands
    for the unit ``m - neg_units[r]``.  Rows are grouped by the cyclic
    subgroup they generate, and subgroups by their number of generators:
    each ``(start, count, size)`` in ``classes`` covers ``count`` subgroups
    with ``size`` generators each, in rows ``start : start + count * size``.
    ``weights[h] = phi(|H_h|)`` is the generator count of subgroup h in that
    order.  ``steps`` lists, level by level in Omega(|H|), index arrays
    ``(dst, src)`` pairing subgroups H of that level with one maximal
    subgroup H^l each (l a prime dividing |H|); every such pair occurs in
    exactly one step and no H occurs twice in a step.
    """
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
    return neg_units, classes, weights, steps


def bounded_counts(m: int, A, B, C) -> np.ndarray:
    """|B| for each triple (A[t]/m, B[t]/m; C[t]/m) of one modulus m.

    B is the union of the cyclic subgroups H of (Z/m)^* with H inside the
    pointwise set S, and every unit generates exactly one cyclic subgroup,
    so |B| = sum of phi(|H|) over the H inside S.  Every element of a cyclic
    group H either generates H or lies in one of its maximal subgroups H^l,
    l a prime dividing |H|.  Hence H lies inside S exactly when all of its
    generators do and all of its H^l lie inside S, which the kernel
    resolves level by level in Omega(|H|), from the trivial group up: one
    AND over the generator rows of S per subgroup, then one AND per
    (H, H^l) pair.  Triples are processed in chunks of at most
    ``_KERNEL_CELLS`` (triple, unit) cells; within a chunk, [-vX]_m is
    computed once per distinct numerator X and gathered per triple.
    The numerators are expected in [0, m).
    """
    A, B, C = (np.asarray(x, dtype=np.int64) for x in (A, B, C))
    if not A.shape == B.shape == C.shape == (len(C),):
        raise ValueError(f"A, B, C must be 1-d of one length, got "
                         f"{A.shape}, {B.shape}, {C.shape}")
    out = np.empty(len(C), dtype=np.int64)
    if len(C) == 0:
        return out
    neg_units, classes, weights, steps = _subgroup_plan(m)
    rows = max(1, _KERNEL_CELLS // len(neg_units))
    dtype = np.min_scalar_type(m)
    for lo in range(0, len(C), rows):
        sl = slice(lo, lo + rows)
        vals, idx = np.unique(np.concatenate((A[sl], B[sl], C[sl])), return_inverse=True)
        table = (np.multiply.outer(vals, neg_units) % m).astype(dtype)
        a, b, c = np.split(table[idx], 3)  # a[t, v] = [-vA_t]_m
        S = np.ascontiguousarray(((c <= a) | (c <= b)).T)
        ok = np.concatenate([
            S[start : start + count * size].reshape(count, size, -1).all(axis=1)
            for start, count, size in classes
        ])
        for dst, src in steps:
            ok[dst] &= ok[src]
        out[sl] = weights @ ok
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
