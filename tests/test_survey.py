"""Height-bounded parameter sweeps, histograms, and beta proportions."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hgdensity import survey
from hgdensity.arith import euler_phi, modulus_triples
from hgdensity.density import density
from hgdensity.arith import normalize_params
from hgdensity.specialcase import enumerate_b_shapes, parse_special_prime

from oracles import brute_bounded_set


def fresh_counts(N, workers):
    survey._COUNT_CACHE.clear()
    return survey.survey_counts(N, workers=workers)


def test_fractions_up_to():
    assert survey.fractions_up_to(3) == [
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
    ]
    # count of reduced fractions in (0,1) with denominator <= 16
    assert len(survey.fractions_up_to(16)) == sum(
        euler_phi(k) for k in range(2, 17)
    ) == 79


def test_enumerate_params_small():
    triples = list(survey.enumerate_params(3))
    assert len(triples) == 12
    assert len(set(triples)) == 12
    assert triples == sorted(triples)
    for a, b, c in triples:
        assert c != a and c != b
        assert 0 < a < 1 and 0 < b < 1 and 0 < c < 1
    with pytest.raises(ValueError):
        list(survey.enumerate_params(2))


def test_moduli_partition_the_triples():
    # the per-modulus enumeration covers every triple of height <= N once
    for N in range(3, 12):
        union = [
            (Fraction(X, m), Fraction(Y, m), Fraction(Z, m))
            for m in survey._moduli(N)
            for X, Y, Z in zip(*(v.tolist() for v in modulus_triples(m, N)))
        ]
        assert len(set(union)) == len(union), N
        assert sorted(union) == list(survey.enumerate_params(N)), N


def test_histogram_at_height_3():
    hist = survey.density_histogram(3)
    assert hist.total == 12
    # c strictly smallest: 4 triples with c=1/3 plus (2/3,2/3;1/2)
    assert hist.entries[Fraction(0)] == 5
    assert sum(hist.entries.values()) == 12
    dropped = survey.density_histogram(3, drop_zero=True)
    assert Fraction(0) not in dropped.entries
    assert dropped.total == 7


def test_histogram_matches_direct_enumeration():
    hist = survey.density_histogram(5)
    direct = {}
    for a, b, c in survey.enumerate_params(5):
        d = density(normalize_params(a, b, c))
        direct[d] = direct.get(d, 0) + 1
    assert hist.entries == direct


def test_beta_values():
    assert survey.beta(Fraction(0), 3) == Fraction(1, 3)
    assert survey.beta(Fraction(0), 8) == Fraction(1, 3)
    assert survey.beta(Fraction(1), 3) == 1
    prev = Fraction(0)
    for r in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        val = survey.beta(r, 8)
        assert val >= prev
        prev = val
    with pytest.raises(ValueError):
        survey.beta(Fraction(2), 3)


def test_beta_counts_distinct_triples_only():
    # beta is computed over pairwise-distinct (a, b, c); at height 3 these
    # are the 6 permutations of {1/3, 1/2, 2/3}, of which 2 have c smallest
    counts = survey.survey_counts(3).distinct
    assert sum(counts.values()) == 6
    assert counts[Fraction(0)] == 2


def test_conjecture_trend():
    rows = survey.conjecture_trend(Fraction(1), [3, 4])
    assert rows == [(3, Fraction(1)), (4, Fraction(1))]
    rows = survey.conjecture_trend(Fraction(1, 10), [3, 5, 8])
    assert [n for n, _ in rows] == [3, 5, 8]
    assert all(0 <= v <= 1 for _, v in rows)
    with pytest.raises(ValueError):
        survey.conjecture_trend(Fraction(-1), [3])


@pytest.mark.parametrize("bad", [0.1, True])
def test_beta_refuses_floats_and_bools(bad):
    # 0.1 would be compared with the exact densities as a float
    with pytest.raises(ValueError, match="an int or a Fraction"):
        survey.beta(bad, 5)
    with pytest.raises(ValueError, match="an int or a Fraction"):
        survey.conjecture_trend(bad, [5])


def test_sweep_determinism_across_workers():
    one = fresh_counts(6, workers=1)
    two = fresh_counts(6, workers=2)
    assert one.distinct == two.distinct
    assert one.equal_ab == two.equal_ab
    assert one.merged == two.merged


def test_densities_symmetric_under_ab_swap():
    merged = survey.survey_counts(5).merged
    swapped = {}
    for a, b, c in survey.enumerate_params(5):
        d = density(normalize_params(b, a, c))
        swapped[d] = swapped.get(d, 0) + 1
    assert dict(merged) == swapped


def test_special_modulus_densities_match_shape_table():
    # triples whose modulus is a special prime only realize table densities
    for p in (7, 11):
        sp = parse_special_prime(p)
        allowed = {s.density for s in enumerate_b_shapes(sp)}
        for x in range(1, p):
            for y in range(1, p):
                for z in range(1, p):
                    if z in (x, y):
                        continue
                    d = density(
                        normalize_params(
                            Fraction(x, p), Fraction(y, p), Fraction(z, p)
                        )
                    )
                    assert d in allowed


def test_spot_equivalence_with_definition_oracle():
    rng = random.Random(2024)
    fracs = survey.fractions_up_to(10)
    for _ in range(20):
        a, b = rng.choice(fracs), rng.choice(fracs)
        cs = [c for c in fracs if c not in (a, b)]
        c = rng.choice(cs)
        m = math.lcm(a.denominator, b.denominator, c.denominator)
        want = Fraction(len(brute_bounded_set(a, b, c)), euler_phi(m))
        assert density(normalize_params(a, b, c)) == want


def test_histogram_csv_format():
    hist = survey.density_histogram(3)
    buf = io.StringIO()
    survey.histogram_csv(hist, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "density,count"
    assert lines[1].startswith("0/1,")
    fracs = [Fraction(line.split(",")[0]) for line in lines[1:]]
    assert fracs == sorted(fracs)
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 12


def test_beta_csv_format():
    buf = io.StringIO()
    survey.beta_csv([(Fraction(1, 10), 8, Fraction(1, 3))], buf)
    assert buf.getvalue().strip().splitlines() == [
        "epsilon,N,beta",
        "1/10,8,1/3",
    ]


def test_dry_run_counts_exactly():
    rep = survey.slice_dry_run(4, stride=1)
    n = len(survey.fractions_up_to(4))
    assert rep.sampled == n**3
    assert rep.valid == len(list(survey.enumerate_params(4)))
    assert rep.completed


def test_dry_run_counts_the_fractions_without_making_them(deadline):
    # the count once came from len(fractions_up_to(N)), N^2 / 2 Fractions
    # made before the first progress line: about 4 s and 39 MiB at N = 1000
    for N in range(2, 64):
        assert survey._fraction_count(N) == len(survey.fractions_up_to(N))
    with deadline(1, "slice_dry_run"):
        rep = survey.slice_dry_run(1000, stride=10**9, max_chunks=1)
    assert (rep.sampled, rep.valid, rep.completed) == (1, 0, False)
    with pytest.raises(ValueError, match="too large"):
        survey.slice_dry_run(1 << 24)


def test_fraction_count_is_the_totient_sum():
    # every N = 3..300 against phi(d) counted by gcd; the squares of the
    # primes up to 17 and N = k q for primes q just above sqrt(N) are all met
    phi = [0, 0] + [sum(math.gcd(n, d) == 1 for n in range(1, d)) for d in range(2, 301)]
    for N in range(3, 301):
        assert survey._fraction_count(N) == sum(phi[: N + 1]), N


@pytest.mark.parametrize("kwargs", [{"stride": -3}, {"stride": 0}, {"chunk": 0}])
def test_dry_run_rejects_nonpositive_stride_and_chunk(kwargs, deadline):
    # without validation a negative stride or a zero chunk loops forever: the
    # deadline turns a hang into a failure
    with deadline(10, "slice_dry_run"), pytest.raises(ValueError, match="must be >= 1"):
        survey.slice_dry_run(8, **kwargs)


@pytest.mark.parametrize(
    "call, args, kwargs",
    [
        pytest.param(survey.density_histogram, (12.0,), {}, id="histogram-N"),
        pytest.param(survey.survey_counts, (5.5,), {}, id="counts-N"),
        pytest.param(survey.survey_counts, (True,), {}, id="counts-bool-N"),
        pytest.param(survey.survey_counts, (6,), {"workers": 1.5}, id="counts-workers"),
        pytest.param(survey.survey_counts, (6,), {"workers": True}, id="counts-bool-workers"),
        pytest.param(survey.beta, (Fraction(0), 5.0), {}, id="beta-N"),
        pytest.param(survey.slice_dry_run, (5.5,), {}, id="dry-run-N"),
        pytest.param(survey.slice_dry_run, (6,), {"stride": 2.5}, id="dry-run-stride"),
        pytest.param(survey.slice_dry_run, (6,), {"chunk": 10.0}, id="dry-run-chunk"),
    ],
)
def test_non_int_sizes_are_value_errors(call, args, kwargs):
    # each reached range() with a float before, and a TypeError escaped
    survey._COUNT_CACHE.clear()
    with pytest.raises(ValueError, match="must be an int, got"):
        call(*args, **kwargs)
    assert survey._COUNT_CACHE == {}


def test_dry_run_resume_equivalence(tmp_path):
    ck = str(tmp_path / "ck.json")
    full = survey.slice_dry_run(8, stride=7)
    part = survey.slice_dry_run(8, stride=7, checkpoint=ck, chunk=2000, max_chunks=2)
    assert not part.completed
    assert os.path.exists(ck)
    resumed = survey.slice_dry_run(8, stride=7, checkpoint=ck, chunk=2000)
    assert resumed.completed
    assert (resumed.sampled, resumed.valid) == (full.sampled, full.valid)


def test_height_12_csv_matches_reference_digest():
    # sha256 of the `sweep 12` histogram CSV, captured from the per-triple
    # code that this batched sweep replaced (perfbench/refs/sweep.json)
    survey._COUNT_CACHE.clear()
    buf = io.StringIO()
    survey.histogram_csv(survey.density_histogram(12), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "0891829e656518d4f10f226319fd1cafc01047ba5b531d6ed2a308ef875bc1cb"
    )


def test_sweep_split_across_workers_at_8():
    one = fresh_counts(8, workers=1)
    two = fresh_counts(8, workers=2)
    assert one.distinct == two.distinct
    assert one.equal_ab == two.equal_ab


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the process count it is
    asked for and runs the work in this process."""

    started: list = []

    def __init__(self, processes=None):
        self.started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))

    def imap_unordered(self, fn, items):
        return map(fn, items)


def test_pool_size_comes_from_the_input(monkeypatch):
    monkeypatch.setattr(survey, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    serial = fresh_counts(3, workers=1)
    assert _RecordingPool.started == []
    pooled = fresh_counts(3, workers=64)
    assert _RecordingPool.started == [3]  # one per modulus: 2, 3 and 6
    assert (pooled.distinct, pooled.equal_ab) == (serial.distinct, serial.equal_ab)
    for workers in (0, -2):
        survey._COUNT_CACHE.clear()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            survey.survey_counts(3, workers=workers)
        assert survey._COUNT_CACHE == {}
    assert len(_RecordingPool.started) == 1


def test_pool_size_is_capped_by_the_cpus(monkeypatch):
    # one process per modulus would be 491 processes at N = 24
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(survey, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    try:
        serial = fresh_counts(8, workers=1)
        assert fresh_counts(8, workers=1000) == serial
        assert _RecordingPool.started == ([min(cpus, len(survey._moduli(8)))] if cpus > 1 else [])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert fresh_counts(8, workers=1000) == serial
        assert _RecordingPool.started[-1] == 3
    finally:
        survey._COUNT_CACHE.clear()


def test_sweep_streams_one_modulus_at_a_time():
    # materialising every triple of the sweep at once peaks near 17 MiB here
    survey._COUNT_CACHE.clear()
    tracemalloc.start()
    try:
        survey.survey_counts(16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("state", [
    {"N": 8, "stride": 100},
    [1, 2],
    {"N": 8, "stride": 100, "next": -1, "sampled": 0, "valid": 0},
    {"N": 8, "stride": 100, "next": 9262, "sampled": 0, "valid": 0},
    {"N": 8, "stride": 100, "next": 0, "sampled": 1, "valid": 2},
    {"N": 8, "stride": 100, "next": 0, "sampled": -1, "valid": -1},
    {"N": 8, "stride": 100, "next": 1.5, "sampled": 0, "valid": 0},
    {"N": 8, "stride": 100, "next": True, "sampled": 0, "valid": 0},
    {"N": 8, "stride": 100, "next": "0", "sampled": 0, "valid": 0},
])
def test_dry_run_rejects_malformed_checkpoint(tmp_path, state):
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="ck.json"):
        survey.slice_dry_run(8, checkpoint=str(ck))


def test_dry_run_checkpoint_of_another_run_restarts(tmp_path):
    full = survey.slice_dry_run(8, stride=7)
    for other in ({"N": 9, "stride": 7}, {"N": 8, "stride": 100}):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(dict(other, next=5, sampled=3, valid=1)))
        rep = survey.slice_dry_run(8, stride=7, checkpoint=str(ck))
        assert (rep.sampled, rep.valid, rep.completed) == (full.sampled, full.valid, True)


def test_histogram_check_survives_python_O():
    # the field check is an exception, not an assert that -O strips
    code = "from fractions import Fraction; from hgdensity.survey import Histogram; Histogram({Fraction(1, 2): 3}, 4)"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError: the entries count 3 triples")
