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

from .arith import (HGParams, check_int, check_numerators, check_prime, check_rational,
                    check_table_size, chunk_slices, mod_order)
from .errors import HypothesisError, PrimeTooSmall

# the int64 entries per valuation event that the one-triple oracle holds at
# its peak: measured at 17 to 28 bytes per event, at most 3.5 entries
_EVENT_ENTRIES = 4
# coefficient_valuations' int64 entries per valuation at its peak: 20-21 bytes
# measured, 32 more for a valuation outside CPython's cached ints [-5, 256]
_VALUATION_ENTRIES = 3


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
    if not (0 < a < 1):
        raise HypothesisError(f"{a} must lie in (0, 1)")
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
    check_rational(a, "a")
    check_int(u, "u")
    check_int(j, "j")
    if not (0 < a < 1):
        raise HypothesisError(f"{a} must lie in (0, 1)")
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
    M = ord(p mod m), the lcm of their own periods; digit j of each is read
    at j modulo its period.
    """
    check_prime(p)
    m = params.m
    if p <= m:
        raise PrimeTooSmall(f"p={p} must exceed the modulus m={m}")
    M = mod_order(p, m)
    da, db, dc = (_expansion(v - 1, p).digits for v in (params.a, params.b, params.c))
    for j in range(M):
        if dc[j % len(dc)] > max(da[j % len(da)], db[j % len(db)]):
            return BoundednessVerdict(Verdict.UNBOUNDED, witness=j)
    return BoundednessVerdict(Verdict.BOUNDED)


@dataclass(frozen=True)
class ValuationProfile:
    """p-adic valuations of the first N+1 Taylor coefficients."""

    prime: int
    upto: int
    valuations: tuple[int, ...]

    def __post_init__(self):
        if not self.valuations or self.valuations[0] != 0:
            raise ValueError("valuations must start with 0: the constant coefficient is 1")


def _ap_start(num: int, den: int, pk: int) -> int:
    """Least k >= 0 with p^i | (num + k*den), given pk = p^i coprime to den."""
    return (-num * pow(den, -1, pk)) % pk


def _valuation_deltas(params: HGParams, p: int, N: int):
    """Positions k in [0, N) and integer deltas of the per-term valuation.

    The running sum of deltas up to k < n is the valuation of coefficient n:
    each k contributes v_p(a+k) + v_p(b+k) - v_p(c+k) - v_p(k+1), one event
    per power p^i that divides a term.  The events are counted before any is
    made, and refused with ValueError when ``_EVENT_ENTRIES`` int64 entries
    per event exceed ``arith.TABLE_LIMIT``.
    """
    ranges = []  # per term and p^i, its events as the keys 2 k + (1 if it adds)
    for num, den, adds in ((params.a.numerator, params.a.denominator, 1),
                           (params.b.numerator, params.b.denominator, 1),
                           (params.c.numerator, params.c.denominator, 0),
                           (1, 1, 0)):  # v_p(k + 1), the factorial term
        if den % p == 0:
            raise HypothesisError(f"p={p} divides a parameter denominator")
        pk = p
        while pk <= num + (N - 1) * den:
            ranges.append(range(2 * _ap_start(num, den, pk) + adds, 2 * N, 2 * pk))
            pk *= p
    events = sum(map(len, ranges))
    check_table_size(_EVENT_ENTRIES * events,
                     f"valuation events up to N={N} at p={p}, {_EVENT_ENTRIES} int64 entries each")
    if not events:
        return np.empty(0, np.int64), np.empty(0, np.int32)
    keys = np.empty(events, dtype=np.uint64)  # 2 k + 1 < 2^64 for k < N <= 2^63
    at = 0
    for r in filter(None, ranges):
        # from the exact length, as np.arange counts in floats; a lone
        # event's step may not fit uint64
        n = len(r)
        keys[at : at + n] = np.arange(n, dtype=np.uint64) * (r.step if n > 1 else 0) + r.start
        at += n
    keys.sort()
    signs = (keys & 1).astype(np.int8) * 2 - 1
    keys >>= 1  # the positions
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    # a sum, and a valuation, is at most the number of events in size, so
    # int32 holds them below the table limit
    sums = np.add.reduceat(signs, starts, dtype=np.int32)
    del signs
    pos = keys[starts]
    del keys, starts
    keep = sums != 0  # a zero sum is no event
    return pos[keep], sums[keep]


def coefficient_valuations(params: HGParams, p: int, N: int) -> ValuationProfile:
    """Exact v_p of the coefficients of 2F1(a,b;c) up to index N.

    Valuations are accumulated term by term as integers; the coefficients
    themselves are never materialized.  ``_VALUATION_ENTRIES`` int64 entries per
    valuation above ``arith.TABLE_LIMIT`` are refused with ValueError first.
    """
    check_prime(p)
    check_int(N, "N")
    if N < 0:
        raise ValueError(f"N={N} must be >= 0")
    check_table_size(_VALUATION_ENTRIES * (N + 1), f"int64 entries of the valuations up to N={N}")
    pos, deltas = _valuation_deltas(params, p, N)
    vals = np.zeros(N + 1, dtype=np.int32)  # |valuation| <= events < 2^31
    vals[1:][pos] = deltas
    del pos, deltas
    np.cumsum(vals, out=vals)
    return ValuationProfile(prime=p, upto=N, valuations=tuple(vals.tolist()))


def _descents(vals: np.ndarray, before: np.ndarray):
    """Where a valuation falls strictly below an earlier one that was <= -1.

    The verdict rule of the valuation oracle, along the last axis of
    ``vals``: unboundedness shows as descending negative minima across
    p-power scales, while a bounded prime may keep a fixed negative
    plateau.  ``before`` holds, per row, the largest valuation <= -1 met
    before the first one of ``vals`` (the dtype's minimum if none).
    Returns the mask of descents and that largest valuation after the last.
    The running maximum includes each value itself: a value <= -1 is never
    below itself, and one >= 0 is above every value <= -1.
    """
    # the values <= -1, and the dtype's minimum elsewhere, built in place:
    # the sign bit, spread by an arithmetic shift, masks each value (a select
    # is slower)
    best = vals >> (8 * vals.itemsize - 1)
    best &= vals
    best |= np.iinfo(vals.dtype).min
    if not best.shape[-1]:
        return vals < best, before
    best[..., 0] = np.maximum(best[..., 0], before)
    np.maximum.accumulate(best, axis=-1, out=best)
    return vals < best, best[..., -1]


def empirical_bounded(params: HGParams, p: int, N: int) -> BoundednessVerdict:
    """Heuristic boundedness check over actual coefficient valuations.

    UNBOUNDED iff some valuation drops strictly below an earlier valuation
    that was already <= -1 (:func:`_descents`).  The prime is not checked
    here beyond being an int >= 2: it is the one-triple reference for
    :func:`empirical_bounded_batch`, and callers draw their primes from a sieve.
    """
    check_int(p, "prime p")
    check_int(N, "N")
    if p < 2:
        raise ValueError(f"p={p} must be a prime >= 2")
    if not 1 <= N <= 1 << 63:
        raise ValueError(f"N={N} must be >= 1 (no coefficient would be examined) "
                         f"and at most 2^63 (the coefficient indices are int64)")
    pos, deltas = _valuation_deltas(params, p, N)
    vals = np.cumsum(deltas, out=deltas)  # valuation right after each event
    drops, _ = _descents(vals, np.array(np.iinfo(vals.dtype).min))
    if drops.any():
        e = int(np.argmax(drops))
        return BoundednessVerdict(
            Verdict.UNBOUNDED, witness=(int(pos[e]) + 1, int(vals[e]))
        )
    return BoundednessVerdict(Verdict.BOUNDED)


def _class_valuations(m: int, p: int, N: int, cols: int) -> np.ndarray:
    """v_p(t + k m) at the k < N of the class k = -t/m mod p, block by block.

    Row t in 1..m, column j < ``cols`` for k in block j of p consecutive k
    (0 where k >= N); row 0 is all 0.  With k0 the least k of the class,
    t + k m is p (c + j m) for c = (t + k0 m) / p, so v_p is 1 except on the
    class of j mod p where p divides c + j m; only those columns are divided
    out.
    """
    inv = pow(m, -1, p)
    t = np.arange(1, m + 1, dtype=np.int64)
    k0 = -t * inv % p
    c = (t + k0 * m) // p
    table = np.zeros((m + 1, cols), dtype=np.int8)
    table[1:] = np.arange(cols) < (N - k0[:, None] + p - 1) // p
    jj = (-c * inv) % p  # first column of the class, then every p-th
    jj = jj[:, None] + p * np.arange(-(-cols // p))
    r, q = np.nonzero(jj < cols)
    o = jj[r, q]
    live = table[r + 1, o] == 1  # k < N
    r, o = r[live], o[live]
    x = (c[r] + o * m) // p
    while len(x):
        table[r + 1, o] += 1
        more = x % p == 0
        r, o, x = r[more], o[more], x[more] // p
    return table


def _first_two_of_runs(ok: np.ndarray) -> np.ndarray:
    """Positions of a bool (rows, n) array that a run-skipping pass keeps.

    Kept are positions 0 and 1, every false position, and the first two of
    each run of true ones; a row's positions come in increasing order, padded
    with n up to the widest row.
    """
    n = ok.shape[1]
    ok = np.concatenate((np.zeros((len(ok), 2), dtype=bool), ok), axis=1)
    keep = ~(ok[:, 2:] & ok[:, 1:-1] & ok[:, :-2])
    sel = np.sort(np.where(keep, np.arange(n), n), axis=1)
    return sel[:, :np.count_nonzero(keep, axis=1).max()]


def empirical_bounded_batch(m: int, X, Y, Z, p: int, N: int) -> np.ndarray:
    """:func:`empirical_bounded` for every triple (X[t]/m, Y[t]/m; Z[t]/m).

    For p > m, v_p(X/m + k) = v_p(X + k m), and the factorial term
    v_p(k + 1) = v_p(m + k m) is the numerator m.  The events of numerator
    t in 1..m therefore sit on the class k = -t/m mod p, one per block of p
    consecutive k, and distinct numerators have distinct classes.  One
    table of class valuations per (m, p) gives any triple's events: per
    block, the rows X, Y, -Z and -m in the order of their class residues
    (:func:`_class_layout`).  A running sum gives the coefficient
    valuations, and :func:`_descents` the verdict.  (X, Y, Z) and (Y, X, Z)
    are evaluated once.  The layout depends on p only through p mod m, so a
    sweep over many primes builds it once per class and runs only the
    per-prime pass, :func:`_layout_bounded`, at each prime.

    Only the super-blocks (p consecutive blocks) that can change a verdict
    are evaluated, and in them only such blocks.  A super-block is regular
    for a row when its p table entries all lie in {1, 2}: every k < N and
    no v_p >= 3.  p^2 divides t + k m on one class of the block index mod p,
    so all regular super-blocks of a row are equal, and one regular for all
    four rows of a triple repeats the triple's events.  Those sum to zero
    (the weights 1, 1, -1, -1 do), so each copy in a run of regular
    super-blocks starts from the level the run started from; the second copy
    meets every valuation the first did, so it leaves the negative maximum
    where it found it, and every later copy finds the descents the second
    found.  Each triple therefore keeps its irregular super-blocks and the
    first two of each regular run (:func:`_first_two_of_runs`).
    Rows of kept super-blocks are padded with an all-zero super-block, whose
    events repeat the last valuation and so are descents only after one.

    The same argument applies one level down.  A block is plain for a row
    when its entry is 1 in every super-block: no v_p >= 2 and k < N
    throughout.  The events of a block plain for all four rows of a triple
    are the triple's weights in class order, the same in every plain block,
    and they sum to zero; so in each kept super-block the triple keeps
    blocks 0 and 1, its non-plain blocks and the first two of each plain
    run.  Blocks that pad a triple's selection get weight 0, so they too
    repeat the last valuation.  Row t has its entries >= 2 in one block,
    j = (k2 - k0) / p mod p with k0 and k2 the least k of its class mod p
    and p^2, and in the same block of every super-block; a v_p >= 3 entry is
    one of them.  So at N = p^3 each row has one irregular super-block and
    one non-plain block, and a triple keeps at most 14 of the p super-blocks
    and at most 14 of the p blocks in each.

    One table covers every super-block, plus the padding one; a horizon
    whose table would exceed ``arith.TABLE_LIMIT`` entries is refused with
    ValueError before the table is built, as every residue table is.
    Triples go in chunks of at most ``arith.CHUNK_CELLS`` cells, or one
    triple where one needs more; a chunk's int64 gather index dies before
    its events are weighed, so the largest temporaries are that index and
    a few int8 or bool arrays of its cells.  Returns a bool array, true
    where the verdict is BOUNDED.
    """
    check_int(N, "N")
    if N < 1:
        raise ValueError(f"N={N} must be >= 1: no coefficient would be examined")
    check_prime(p)
    if p <= m:
        raise PrimeTooSmall(f"p={p} must exceed the modulus m={m}")
    X, Y, Z = check_numerators(m, X, Y, Z)
    return _layout_bounded(m, _class_layout(m, X, Y, Z, p % m), p, N)


def _class_layout(m: int, X, Y, Z, r: int):
    """The event rows of :func:`empirical_bounded_batch` at every prime p = r mod m.

    Returns (nums, weights, inverse).  Row i of ``nums`` holds the numerators
    X, Y, Z and the factorial's m of the i-th distinct triple, up to the swap
    of X and Y, in the order of their classes k = -t/m mod p; ``weights``
    holds their weights 1, 1, -1, -1, with equal numerators merged into the
    later one as :func:`_valuation_deltas` collapses repeated positions; and
    ``inverse`` maps each given triple to its row.  The least k of the class
    of t in 1..m is (j p - t) / m, with j = t / p mod m taken in [1, m], and
    t < p, so the class order is by j, then by -t: it depends on p only
    through r.
    """
    key, inverse = np.unique((np.minimum(X, Y) * m + np.maximum(X, Y)) * m + Z,
                             return_inverse=True)
    nums = np.stack((key // (m * m), key // m % m, key % m, np.full_like(key, m)), axis=1)
    weights = np.broadcast_to(np.array([1, 1, -1, -1], dtype=np.int8), nums.shape)
    order = np.argsort((nums * pow(r, -1, m) - 1) % m * m - nums, axis=1)
    nums = np.take_along_axis(nums, order, axis=1)
    weights = np.take_along_axis(weights, order, axis=1)
    for i in range(3):  # merge equal neighbours into the later one
        same = nums[:, i] == nums[:, i + 1]
        weights[same, i + 1] += weights[same, i]
        weights[same, i] = 0
    return nums, weights, inverse


def _layout_bounded(m: int, layout, p: int, N: int) -> np.ndarray:
    """:func:`empirical_bounded_batch` at the prime p > m and horizon N >= 1,
    from the :func:`_class_layout` of p's class mod m; neither is checked."""
    nums, weights, inverse = layout
    supers = -(-N // (p * p))
    check_table_size((m + 1) * (supers + 1) * p, f"class table for N={N} at p={p}: entries")
    # v_p of coefficient n sums, over the levels p^i <= m N, four counts of
    # k < n on one class mod p^i, each floor(n / p^i) or one more; the table
    # limit keeps m N below 2^24 p, so at most 25 levels, and int8 holds it
    # super-block `supers` lies past N, so it is all 0
    table = _class_valuations(m, p, N, (supers + 1) * p)
    grid = table.reshape(m + 1, supers + 1, p)[:, :supers]
    regular = ((grid >= 1) & (grid <= 2)).all(axis=2)
    plain = (grid == 1).all(axis=1)
    # with at most i irregular super-blocks per row, a triple has at most
    # 4 i and keeps at most 3 (4 i) + 2, and likewise for non-plain blocks:
    # chunks are sized for those widths
    irregular = supers - np.count_nonzero(regular[1:], axis=1).min()
    nonplain = p - np.count_nonzero(plain[1:], axis=1).min()
    width = 4 * min(supers, 12 * irregular + 2) * min(p, 12 * nonplain + 2)
    table = table.ravel()
    unbounded = np.zeros(len(nums), dtype=bool)
    for sl in chunk_slices(len(nums), width):
        sel = _first_two_of_runs(regular[nums[sl]].all(axis=1))
        blk = _first_two_of_runs(plain[nums[sl]].all(axis=1))
        # one flat index in (super-block, block, row) order, built as
        # super-block offsets plus (block, row) offsets so that the inner
        # loops run over whole super-blocks; a padding block (blk == p)
        # reads block p - 1 with weight 0
        inner = nums[sl, None, :] * ((supers + 1) * p) + np.minimum(blk, p - 1)[:, :, None]
        at = (sel * p)[:, :, None] + inner.reshape(len(sel), 1, -1)
        w = weights[sl, None, :] * (blk < p)[:, :, None]
        events = table.take(at)
        del at
        events *= w.reshape(len(sel), 1, -1)
        vals = np.cumsum(events.reshape(len(sel), -1), axis=1, dtype=np.int8)
        floor = np.full(len(sel), np.iinfo(np.int8).min, dtype=np.int8)
        unbounded[sl] = _descents(vals, floor)[0].any(axis=1)
    return ~unbounded[inverse]
