"""The bounded-residue set B(a,b;c) and its exact Dirichlet density.

For m the lcm of the parameter denominators, B(a,b;c) is the set of units
u mod m whose whole cyclic subgroup satisfies the pointwise fractional-part
condition; the density of bounded primes is |B| / phi(m), an exact fraction.

``hgdensity.density`` is the function, not this module: the package
re-exports the function under the module's name.  Reach the module with
``importlib.import_module("hgdensity.density")``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .arith import (TABLE_LIMIT, HGParams, ResidueSet, check_int, check_int_array,
                    check_numerators, check_prime, check_table_size, chunk_slices,
                    cyclic_powers, euler_phi, factorize, unit_mask, units_mod)
from .errors import HypothesisError, PrimeTooSmall

# the single-triple walk's bulk power filter steps its candidates while at
# least _FILTER_MIN remain and each step removes at least 1/_FILTER_CUT of
# them, so it never runs for m <= _FILTER_MIN, where phi(m) < _FILTER_MIN
_FILTER_MIN = 256
_FILTER_CUT = 32

# the subgroup plan holds Python ints in lists and a dict, measured at 132 to
# 208 bytes per unit (m near 10^6); at 208 bytes, 26 int64 entries of a table
_PLAN_ENTRIES_PER_UNIT = 26


def _numerators(params: HGParams) -> tuple[int, int, int]:
    """(A, B, C) with params = (A/m, B/m; C/m) at m = ``params.m``."""
    m = params.m  # a property that takes an lcm
    return int(params.a * m), int(params.b * m), int(params.c * m)


def _neg_residue(m: int, X, u):
    """[-u X]_m for 0 < X < m, exact on Python ints and elementwise on arrays."""
    w = (m - X) * u
    w -= w // m * m  # faster than % m on an array
    return w


def _neg_residues(m: int, X, units) -> np.ndarray:
    """``out[i, k] = [-units[k] X[i]]_m``, formed ``arith.CHUNK_CELLS`` products at a time.

    The products fit uint32 below m = 2^16 and int64 above, as every caller
    has refused m > ``TABLE_LIMIT`` = 2^24.
    """
    wide = np.uint32 if m < 1 << 16 else np.int64
    X, units = np.asarray(X, dtype=wide)[:, None], np.asarray(units, dtype=wide)
    out = np.empty((len(X), len(units)), dtype=np.min_scalar_type(m - 1))
    for sl in chunk_slices(len(units), len(X)):
        out[:, sl] = _neg_residue(m, X, units[sl])
    return out


def _in_s(a, b, c):
    """S from the residues a, b, c of A, B, C: [-uC]_m <= max([-uA]_m, [-uB]_m)."""
    return (c <= a) | (c <= b)


def pointwise_condition(params: HGParams, v: int) -> bool:
    """Single-element predicate {-vc} <= max({-va}, {-vb}).

    Comparisons are done at the common denominator m as integer least
    residues, which is exact since every parameter denominator divides m.
    """
    check_int(v, "v")
    m = params.m
    if math.gcd(v, m) != 1:
        raise HypothesisError(f"v={v} is not a unit mod {m}")
    A, B, C = _numerators(params)
    return _in_s(_neg_residue(m, A, v), _neg_residue(m, B, v), _neg_residue(m, C, v))


def _periodic_le(m: int, C: int, X: int) -> np.ndarray:
    """Length-m mask ``[-uC]_m <= [-uX]_m`` over all u in [0, m).

    [-uX]_m depends only on u mod m / gcd(X, m), so the mask repeats with
    period L = lcm(m / gcd(C, m), m / gcd(X, m)), a divisor of m: it is
    formed on [0, L), ``arith.CHUNK_CELLS`` residues at a time, and copied.
    The products u (m - X) are steps of one int64 range, below m^2.
    """
    L = math.lcm(m // math.gcd(C, m), m // math.gcd(X, m))
    out = np.empty(m, dtype=bool)
    for sl in chunk_slices(L, 1):
        c, x = (np.arange(sl.start * (m - Y), sl.stop * (m - Y), m - Y, dtype=np.int64)
                for Y in (C, X))
        c %= m
        x %= m
        np.less_equal(c, x, out=out[sl])
    out.reshape(-1, L)[1:] = out[:L]
    return out


def _pointwise_mask(m: int, A: int, B: int, C: int) -> np.ndarray:
    """Length-m mask of S: true at the units u with [-uC]_m <= max([-uA]_m, [-uB]_m).

    Never more than two masks of m entries are alive; m > ``TABLE_LIMIT``
    is refused with ValueError before the first of them is built.
    """
    check_table_size(m, "modulus m")
    S = _periodic_le(m, C, A)
    S |= _periodic_le(m, C, B)
    S &= unit_mask(m)
    return S


def _cycle_walk(m: int, A: int, B: int, C: int) -> list[int]:
    """B for the single triple (A/m, B/m; C/m), in increasing order.

    S holds the units v with [-vC]_m <= max([-vA]_m, [-vB]_m); a unit u is
    in B when its whole cyclic subgroup <u> lies inside S.  Its mask comes
    from :func:`_pointwise_mask`, one period per parameter pair.

    The walk keeps a working set S' with B <= S' <= S and shrinks it as it
    rules units out.  That is exact because B is closed under powers: a
    unit v is in B iff <v> lies inside S, and then every power of v is in B
    too.  So once some u is known to lie outside B, every v with u in <v>
    lies outside B, and a walk over <v> may stop at u; hence v is in B iff
    <v> lies inside S'.

    A bulk filter first steps every candidate u of S at once through u^2,
    u^3, ... and drops u from S' as soon as a power leaves S', since then
    <u> is not inside S.  It stops when fewer than ``_FILTER_MIN`` candidates
    remain or a step removes fewer than 1/``_FILTER_CUT`` of them, so it
    does at most ``_FILTER_CUT * |S|`` element steps.  A walk over the
    powers of each survivor then decides it: a walk that closes inside S'
    puts every power it met into B, since each of them generates a subgroup
    of <u>, and those are not walked again; a walk that leaves S' drops u
    from it.  Only u itself is dropped, which keeps the walk simple.

    Numerators outside [1, m - 1] are a ValueError.  The products w * u stay
    below m^2 and are formed in int64; :func:`_pointwise_mask` refuses every
    m above ``TABLE_LIMIT`` = 2^24 with ValueError, so m^2 <= 2^48.
    """
    if not 0 < min(A, B, C) <= max(A, B, C) < m:
        raise ValueError(f"numerators must lie in [1, {m - 1}], got {A}, {B}, {C}")
    mask = _pointwise_mask(m, A, B, C)
    cand = w = np.flatnonzero(mask)  # w = cand^k after k steps
    while len(cand) >= _FILTER_MIN:
        w = w * cand
        w -= w // m * m
        keep = mask[w]
        removed = len(keep) - np.count_nonzero(keep)
        if removed:
            mask[cand] = keep  # drop the ruled-out candidates from S'
            kept = np.flatnonzero(keep)
            cand, w = cand[kept], w[kept]
        if removed * _FILTER_CUT < len(keep):
            break
    in_s = bytearray(mask.tobytes())  # indexing bytes is cheaper than an array
    in_b: set[int] = set()
    for u in cand.tolist():
        if u in in_b:
            continue
        cycle = [u]
        w = u * u % m
        while w != u and in_s[w]:
            cycle.append(w)
            w = w * u % m
        if w == u:
            in_b.update(cycle)
        else:
            in_s[u] = 0
    return sorted(in_b)


def bounded_residues(params: HGParams) -> ResidueSet:
    """B(a,b;c): units whose every power satisfies the pointwise condition."""
    m = params.m
    return ResidueSet(modulus=m, members=tuple(_cycle_walk(m, *_numerators(params))))


def bounded_count(m: int, A: int, B: int, C: int) -> int:
    """|B| for the single triple (A/m, B/m; C/m).

    One triple walks the cycles of S directly; batches of triples of one
    modulus go through :func:`bounded_counts`, whose per-modulus plan costs
    more than the walk when it serves a single triple.
    """
    return len(_cycle_walk(m, A, B, C))


class _Plan(NamedTuple):
    """The cyclic subgroups of (Z/m)^*, laid out for the subgroup kernel.

    Kernel row r stands for the unit ``units[r]``.  Rows are grouped
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

    units: np.ndarray
    classes: list
    weights: np.ndarray
    steps: list
    column: np.ndarray


def _subgroup_plan(m: int) -> _Plan:
    """The cyclic subgroups of (Z/m)^* and their maximal subgroups.

    A plan larger than an int64 table of ``TABLE_LIMIT`` entries (128 MiB)
    is refused with ValueError before it is built: phi(m) above 645,277.
    """
    phi = euler_phi(m)
    if phi * _PLAN_ENTRIES_PER_UNIT > TABLE_LIMIT:
        raise ValueError(
            f"modulus m={m} is too large for the batched kernel: its plan of "
            f"phi(m)={phi} units would exceed {8 * TABLE_LIMIT >> 20} MiB; "
            f"bounded_count answers a single triple"
        )
    sub_of: dict[int, int] = {}  # unit -> index of the subgroup it generates
    gens: list[list[int]] = []
    maximal: list[list[int]] = []  # per subgroup, u^l for each prime l | |H|
    level: list[int] = []  # Omega(|H|)
    for u in units_mod(m):
        if u in sub_of:
            continue
        powers = cyclic_powers(u, m)
        d = len(powers)
        g = [w for k, w in enumerate(powers) if math.gcd(k, d) == 1]  # gcd(0, d) = d
        for x in g:
            sub_of[x] = len(gens)
        gens.append(g)
        primes = factorize(d)
        maximal.append([powers[l % d] for l, _ in primes])
        level.append(sum(e for _, e in primes))
    order = sorted(range(len(gens)), key=lambda h: len(gens[h]))
    rank = {h: i for i, h in enumerate(order)}
    units = np.array([u for h in order for u in gens[h]], dtype=np.int64)
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
    column[units] = np.repeat(np.arange(len(weights)), weights)
    return _Plan(units, classes, weights, steps, column)


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
    Chunks hold at most ``arith.CHUNK_CELLS`` (triple, unit) cells; within a
    chunk, the residue row of each distinct numerator is formed once and
    gathered per triple.  Numerators outside [1, m - 1] are a ValueError.
    """
    A, B, C = check_numerators(m, A, B, C)
    if len(C) == 0:
        return
    plan = _subgroup_plan(m)
    for sl in chunk_slices(len(C), len(plan.units)):
        vals, idx = np.unique(np.concatenate((A[sl], B[sl], C[sl])), return_inverse=True)
        # the gathered rows die with the call, before the next chunk gathers
        S = np.ascontiguousarray(_in_s(*np.split(_neg_residues(m, vals, plan.units)[idx], 3)).T)
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
    phi(|H|) over the cyclic subgroups H inside S.  The numerators must lie
    in [1, m - 1], and a modulus whose subgroup plan would exceed the table
    budget is refused with ValueError (:func:`_subgroup_plan`).
    """
    out = np.empty(len(C), dtype=np.int64)
    for sl, ok, plan in _subgroup_chunks(m, A, B, C):
        out[sl] = plan.weights @ ok
    return out


def bounded_members(m: int, A, B, C, units) -> np.ndarray:
    """``out[t, k]``: is ``units[k] mod m`` in B for the triple t?

    The triples are (A[t]/m, B[t]/m; C[t]/m) of one modulus m, numerators
    in [1, m - 1], and a unit u lies in B exactly when the cyclic subgroup it
    generates lies inside S.  ``units`` may be any integers prime to m, such
    as primes p > m.
    """
    units = check_int_array(units, "units")
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
    return Fraction(bounded_count(m, *_numerators(params)), euler_phi(m))


def bounded_prime_test(params: HGParams, p: int) -> bool:
    """True iff p (> m, prime) lies in a bounded residue class mod m.

    The class u = p mod m is bounded when every power of u satisfies the
    pointwise condition, so only <u> is walked, up to its first power
    outside S: O(ord(u)) steps, not all of B.
    """
    check_prime(p)
    m = params.m
    if p <= m:
        raise PrimeTooSmall(f"p={p} must exceed the modulus m={m}")
    A, B, C = _numerators(params)
    u = w = p % m
    while _in_s(_neg_residue(m, A, w), _neg_residue(m, B, w), _neg_residue(m, C, w)):
        w = w * u % m
        if w == u:
            return True
    return False


def is_union_of_cyclic(rs: ResidueSet) -> bool:
    """True iff the set is closed under taking powers of its elements."""
    members = set(rs.members)
    return all(members.issuperset(cyclic_powers(u, rs.modulus)) for u in members)


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
        """ValueError: a missing or mistyped key, m > ``TABLE_LIMIT``, a wrong m, phi or density."""
        d = json.loads(text)
        if not isinstance(d, dict) or not {"a", "b", "c", "m", "B", "phi", "density"} <= d.keys():
            raise ValueError("a density record is an object with keys a, b, c, m, B, phi, density")
        if not (all(type(d[k]) in (str, int) for k in ("a", "b", "c", "density"))
                and type(d["m"]) is type(d["phi"]) is int
                and type(d["B"]) is list and all(type(u) is int for u in d["B"])):
            raise ValueError("a density record has str or int a, b, c, density, int m, phi, B")
        params = HGParams(Fraction(d["a"]), Fraction(d["b"]), Fraction(d["c"]))
        check_table_size(params.m, "modulus m")  # before phi(m) factors it
        m, phi = params.m, euler_phi(params.m)
        B = ResidueSet(modulus=m, members=tuple(d["B"]))
        if (d["m"], d["phi"], Fraction(d["density"])) != (m, phi, Fraction(len(B), phi)):
            raise ValueError(f"record of {params} has (m, phi, density) = ({d['m']}, {d['phi']}, "
                             f"{d['density']}), not ({m}, {phi}, {Fraction(len(B), phi)})")
        return cls(params=params, m=m, B=B, density=Fraction(len(B), phi))


def record(params: HGParams) -> DensityRecord:
    B = bounded_residues(params)
    return DensityRecord(
        params=params,
        m=params.m,
        B=B,
        density=Fraction(len(B), euler_phi(params.m)),
    )
