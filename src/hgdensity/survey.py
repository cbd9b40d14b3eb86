"""Parameter-space enumeration up to a height bound and density statistics.

Height of a parameter in (0, 1) is its denominator; the survey enumerates
every ordered triple (a, b; c) of reduced fractions with denominators at
most N and c != a, b, one modulus at a time, computes all densities exactly,
and aggregates them into exact histograms and beta(r, N) proportions.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from multiprocessing import Pool

import numpy as np

from .arith import _prime_array, check_int, check_rational, chunk_slices, euler_phi, modulus_triples
# bounded_count is not called here; it stays importable from this module
# because perfbench/probes.py rebinds survey.bounded_count for its spans
from .density import bounded_count, bounded_counts  # noqa: F401

MIN_HEIGHT = 3  # below this no triple with c != a, b exists


def fractions_up_to(N: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= N, ascending."""
    out = {Fraction(n, d) for d in range(2, N + 1) for n in range(1, d)}
    return sorted(out)


def _fraction_count(N: int) -> int:
    """``len(fractions_up_to(N))``, the sum of phi(d) over d = 2..N, from a
    totient sieve of N + 1 entries (refused above ``arith.TABLE_LIMIT``).  Only
    the primes q <= sqrt(N) sieve: a larger q divides n = k q <= N once, where
    the sieve leaves phi(k) q, so phi(k) is taken off once per such q."""
    primes = _prime_array(N)  # refuses the sieve first
    phi = np.arange(N + 1, dtype=np.int32)  # N < 2^31 once the sieve is accepted
    k = np.arange(1, math.isqrt(N) + 1)
    small = int(np.searchsorted(primes, len(k), side="right"))  # the primes <= sqrt(N)
    for q in primes[:small].tolist():
        phi[q::q] -= phi[q::q] // q
    large = np.searchsorted(primes, N // k, side="right") - small  # in (sqrt(N), N / k]
    return int(phi[2:].sum(dtype=np.int64)) - int(phi[k] @ large)


def enumerate_params(N: int):
    """Yield every triple (a, b, c) with heights <= N and c != a, b,
    exactly once, in lexicographic order."""
    check_int(N, "height bound", MIN_HEIGHT)
    fracs = fractions_up_to(N)
    for i, a in enumerate(fracs):
        for j, b in enumerate(fracs):
            for k, c in enumerate(fracs):
                if k != i and k != j:
                    yield (a, b, c)


def _moduli(N: int) -> list[int]:
    """The moduli of the sweep: every lcm of three denominators in 2..N."""
    return sorted({math.lcm(*d) for d in combinations_with_replacement(range(2, N + 1), 3)})


def _modulus_counts(m: int, N: int) -> tuple[int, list]:
    """phi(m) and the (values, counts) of |B| over the triples (a <= b, c) of
    modulus m and height <= N, first for a != b, then for a == b.  Fractions
    are made once, in the caller's merge, since hashing them is not cheap."""
    X, Y, Z = modulus_triples(m, N)
    keep = X <= Y
    X, Y, Z = X[keep], Y[keep], Z[keep]
    sizes = bounded_counts(m, X, Y, Z)
    equal = X == Y
    return euler_phi(m), [np.unique(s, return_counts=True) for s in (sizes[~equal], sizes[equal])]


@dataclass(frozen=True)
class SweepCounts:
    """Exact density counters over the ordered triples of height <= N,
    split by whether a == b (beta uses only pairwise-distinct triples)."""

    N: int
    distinct: Counter
    equal_ab: Counter

    @property
    def merged(self) -> Counter:
        return self.distinct + self.equal_ab


# The package's one remaining cache.  It stays because callers that ask for
# density_histogram(N) and then beta(eps, N) at the same height (the
# height-survey demo, the benchmark's sweep pass) would otherwise run the
# kernel twice.  Tests clear it with .clear().
_COUNT_CACHE: dict[int, SweepCounts] = {}


def survey_counts(N: int, workers: int = 1) -> SweepCounts:
    """Run (or reuse) the full density sweep at height N, one modulus at a
    time, on at most ``workers`` processes and no more than the moduli or
    the CPUs this process may run on."""
    check_int(N, "height bound", MIN_HEIGHT)
    check_int(workers, "workers", 1)
    cached = _COUNT_CACHE.get(N)
    if cached is not None:
        return cached
    moduli = _moduli(N)
    count = partial(_modulus_counts, N=N)
    # the CPUs this process may run on (the affinity call is Linux-only)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, len(moduli), cpus or 1)
    # keyed by the reduced (numerator, denominator) of |B| / phi: one Fraction
    # per distinct density is made at the end, not one per (modulus, |B|)
    tallies = (Counter(), Counter())  # distinct, equal_ab
    with Pool(processes) if processes > 1 else nullcontext() as pool:
        # the large moduli cost the most: hand them out first
        parts = pool.imap_unordered(count, moduli[::-1]) if pool else map(count, moduli)
        for phi, sizes in parts:  # a triple with a != b stands for (b, a) too
            for counter, weight, (values, mult) in zip(tallies, (2, 1), sizes):
                for v, c in zip(values.tolist(), mult.tolist()):
                    g = math.gcd(v, phi)
                    counter[v // g, phi // g] += weight * c
    distinct, equal_ab = (Counter({Fraction(*key): c for key, c in t.items()}) for t in tallies)
    result = SweepCounts(N=N, distinct=distinct, equal_ab=equal_ab)
    _COUNT_CACHE[N] = result
    return result


@dataclass(frozen=True)
class Histogram:
    """Exact density -> triple count map; keys are reduced fractions."""

    entries: dict[Fraction, int]
    total: int

    def __post_init__(self):
        counted = sum(self.entries.values())
        if counted != self.total:
            raise ValueError(f"the entries count {counted} triples, not total={self.total}")


def density_histogram(N: int, workers: int = 1, drop_zero: bool = False) -> Histogram:
    """Histogram of exact densities over all triples of height <= N."""
    merged = survey_counts(N, workers).merged
    entries = {d: c for d, c in merged.items() if not (drop_zero and d == 0)}
    return Histogram(entries=entries, total=sum(entries.values()))


def beta(r: Fraction, N: int, workers: int = 1) -> Fraction:
    """Proportion of triples of height <= N with density <= r.

    Computed over triples with a, b, c pairwise distinct, which makes the
    permutation-symmetry value beta(0, N) = 1/3 exact at every height.
    """
    check_rational(r, "r")
    if not (0 <= r <= 1):
        raise ValueError(f"r={r} outside [0, 1]")
    counts = survey_counts(N, workers).distinct
    total = sum(counts.values())
    good = sum(c for d, c in counts.items() if d <= r)
    return Fraction(good, total)


def conjecture_trend(
    eps: Fraction, N_list: list[int], workers: int = 1
) -> list[tuple[int, Fraction]]:
    """beta(eps, N) for each N, for trend inspection; no asymptotic claim."""
    check_rational(eps, "eps")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return [(N, beta(eps, N, workers)) for N in N_list]


def histogram_csv(hist: Histogram, stream):
    """Rows `density,count` sorted by density ascending, densities exact."""
    w = csv.writer(stream)
    w.writerow(["density", "count"])
    for d in sorted(hist.entries):
        w.writerow([f"{d.numerator}/{d.denominator}", hist.entries[d]])


def beta_csv(rows: list[tuple[Fraction, int, Fraction]], stream):
    """Rows `epsilon,N,beta` with exact fractions."""
    w = csv.writer(stream)
    w.writerow(["epsilon", "N", "beta"])
    for eps, N, b in rows:
        w.writerow(
            [f"{eps.numerator}/{eps.denominator}", N, f"{b.numerator}/{b.denominator}"]
        )


@dataclass
class DryRunReport:
    """Outcome of a resumable stratified dry-run over the triple index space."""

    N: int
    stride: int
    sampled: int
    valid: int
    completed: bool


def _resume_point(checkpoint: str, N: int, stride: int, space: int) -> tuple[int, int, int]:
    """(next, sampled, valid) from a dry-run checkpoint file; (0, 0, 0) when
    it was written for another N or stride, ValueError when it is malformed."""
    with open(checkpoint) as f:
        try:
            state = json.load(f)
        except ValueError as e:
            raise ValueError(f"checkpoint {checkpoint!r} is not JSON ({e})") from None
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {checkpoint!r} does not hold a JSON object")
    if state.get("N") != N or state.get("stride") != stride:
        return 0, 0, 0
    start, sampled, valid = point = tuple(state.get(k) for k in ("next", "sampled", "valid"))
    if not (all(type(v) is int for v in point)
            and 0 <= start <= space and 0 <= valid <= sampled):
        raise ValueError(
            f"checkpoint {checkpoint!r} needs ints 0 <= next <= {space} and "
            f"0 <= valid <= sampled, got {point}"
        )
    return point


def slice_dry_run(
    N: int,
    stride: int = 100,
    checkpoint: str | None = None,
    max_chunks: int | None = None,
    chunk: int = 5_000_000,
    progress=None,
) -> DryRunReport:
    """Walk every stride-th linear triple index, validating each triple.

    Demonstrates that the full large-height sweep is mechanically supported:
    the index space is chunked, each finished chunk is checkpointed to a JSON
    file, and a rerun with the same checkpoint resumes where it stopped.
    Densities are not computed (dry run).  The sampled indices of a chunk are
    counted ``arith.CHUNK_CELLS`` at a time.
    """
    check_int(N, "height bound", MIN_HEIGHT)
    check_int(stride, "stride", 1)
    check_int(chunk, "chunk", 1)
    n = _fraction_count(N)
    space = n**3
    start = sampled = valid = 0
    if checkpoint and os.path.exists(checkpoint):
        start, sampled, valid = _resume_point(checkpoint, N, stride, space)
    chunks_done = 0
    lo = start
    while lo < space:
        hi = min(lo + chunk, space)
        due = range(lo + (-lo) % stride, hi, stride)  # sampled indices >= lo
        for sl in chunk_slices(len(due), 1):
            idx = np.arange(due[sl].start, due[sl].stop, stride)
            k, ij = idx % n, idx // n  # idx = (i * n + j) * n + k
            sampled += len(idx)
            valid += int(np.count_nonzero((k != ij % n) & (k != ij // n)))  # c != a, b
        lo = hi
        chunks_done += 1
        if checkpoint:
            with open(checkpoint, "w") as f:
                json.dump({"N": N, "stride": stride, "next": lo, "sampled": sampled,
                           "valid": valid}, f)
        if progress:
            progress(lo, space)
        if max_chunks is not None and chunks_done >= max_chunks:
            break
    return DryRunReport(N=N, stride=stride, sampled=sampled, valid=valid,
                        completed=lo >= space)
