"""Parameter-space enumeration up to a height bound and density statistics.

Height of a parameter in (0, 1) is its denominator; the survey enumerates
every ordered triple (a, b; c) of reduced fractions with denominators at
most N and c != a, b, computes all densities exactly, and aggregates them
into exact-rational histograms and beta(r, N) proportions.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool

import numpy as np

from .arith import euler_phi
# bounded_count is not called here; it stays importable from this module
# because perfbench/probes.py rebinds survey.bounded_count for its spans
from .density import bounded_count, bounded_counts  # noqa: F401

MIN_HEIGHT = 3  # below this no triple with c != a, b exists


def _check_height(N: int):
    if N < MIN_HEIGHT:
        raise ValueError(f"height bound must be >= {MIN_HEIGHT}, got {N}")


def fractions_up_to(N: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= N, ascending."""
    out = {Fraction(n, d) for d in range(2, N + 1) for n in range(1, d)}
    return sorted(out)


def enumerate_params(N: int):
    """Yield every triple (a, b, c) with heights <= N and c != a, b,
    exactly once, in lexicographic order."""
    _check_height(N)
    fracs = fractions_up_to(N)
    for i, a in enumerate(fracs):
        for j, b in enumerate(fracs):
            for k, c in enumerate(fracs):
                if k != i and k != j:
                    yield (a, b, c)


def _modulus_batches(N: int) -> list[tuple]:
    """The triples (a, b, c) of height <= N with a <= b and c != a, b,
    grouped by their modulus m: one (m, A, B, C, equal) per modulus, where
    A, B, C are the numerators of a, b, c over m and equal marks a == b."""
    fracs = fractions_up_to(N)
    n = len(fracs)
    num = np.array([f.numerator for f in fracs], dtype=np.int64)
    den = np.array([f.denominator for f in fracs], dtype=np.int64)
    i, j = np.triu_indices(n)
    i, j = np.repeat(i, n), np.repeat(j, n)
    k = np.tile(np.arange(n), n * (n + 1) // 2)
    keep = (k != i) & (k != j)
    i, j, k = i[keep], j[keep], k[keep]
    m = np.lcm(np.lcm(den[i], den[j]), den[k])
    order = np.argsort(m, kind="stable")
    moduli, first = np.unique(m[order], return_index=True)
    batches = []
    for mod, sel in zip(moduli.tolist(), np.split(order, first[1:])):
        a, b, c = i[sel], j[sel], k[sel]
        A, B, C = (num[x] * (mod // den[x]) for x in (a, b, c))
        batches.append((mod, A, B, C, a == b))
    return batches


def _sweep_worker(batches: list[tuple]) -> tuple[Counter, Counter]:
    """Densities over per-modulus batches of (a <= b, c) triples; returns
    (counter over a != b weighted by 2, counter over a == b)."""
    distinct: Counter = Counter()
    equal_ab: Counter = Counter()
    for m, A, B, C, equal in batches:
        sizes = bounded_counts(m, A, B, C)
        phi = euler_phi(m)
        for part, weight, counter in (
            (sizes[~equal], 2, distinct),
            (sizes[equal], 1, equal_ab),
        ):
            values, mult = np.unique(part, return_counts=True)
            for v, c in zip(values.tolist(), mult.tolist()):
                counter[Fraction(v, phi)] += weight * c
    return distinct, equal_ab


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


_COUNT_CACHE: dict[int, SweepCounts] = {}


def survey_counts(N: int, workers: int = 1) -> SweepCounts:
    """Run (or reuse) the full density sweep at height N."""
    _check_height(N)
    cached = _COUNT_CACHE.get(N)
    if cached is not None:
        return cached
    batches = _modulus_batches(N)
    if workers == 1:
        parts = [_sweep_worker(batches)]
    else:
        # dealing the moduli out in order of kernel cells balances the work
        batches.sort(key=lambda bt: len(bt[3]) * euler_phi(bt[0]), reverse=True)
        with Pool(processes=workers) as pool:
            parts = pool.map(_sweep_worker, [batches[w::workers] for w in range(workers)])
    distinct: Counter = Counter()
    equal_ab: Counter = Counter()
    for d, e in parts:
        distinct += d
        equal_ab += e
    result = SweepCounts(N=N, distinct=distinct, equal_ab=equal_ab)
    _COUNT_CACHE[N] = result
    return result


@dataclass(frozen=True)
class Histogram:
    """Exact density -> triple count map; keys are reduced fractions."""

    entries: dict[Fraction, int]
    total: int

    def __post_init__(self):
        assert sum(self.entries.values()) == self.total


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
    Densities are not computed (dry run).
    """
    _check_height(N)
    if stride < 1 or chunk < 1:
        raise ValueError(f"stride and chunk must be >= 1, got {stride} and {chunk}")
    n = len(fractions_up_to(N))
    space = n**3
    start = 0
    sampled = valid = 0
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as f:
            state = json.load(f)
        if state.get("N") == N and state.get("stride") == stride:
            start, sampled, valid = state["next"], state["sampled"], state["valid"]
    chunks_done = 0
    lo = start
    while lo < space:
        hi = min(lo + chunk, space)
        idx = lo + (-lo) % stride  # first sampled index >= lo
        while idx < hi:
            k = idx % n
            ij = idx // n
            j = ij % n
            i = ij // n
            sampled += 1
            if k != i and k != j:  # c != a and c != b
                valid += 1
            idx += stride
        lo = hi
        chunks_done += 1
        if checkpoint:
            with open(checkpoint, "w") as f:
                json.dump(
                    {"N": N, "stride": stride, "next": lo, "sampled": sampled,
                     "valid": valid},
                    f,
                )
        if progress:
            progress(lo, space)
        if max_chunks is not None and chunks_done >= max_chunks and lo < space:
            return DryRunReport(N=N, stride=stride, sampled=sampled, valid=valid,
                                completed=False)
    return DryRunReport(N=N, stride=stride, sampled=sampled, valid=valid,
                        completed=True)


def print_progress(done: int, total: int, stream=sys.stderr):
    stream.write(f"\rsweep: {done}/{total} ({100.0 * done / total:.1f}%)")
    stream.flush()
