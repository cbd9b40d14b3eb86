"""Height-bounded parameter sweeps, histograms, and beta proportions."""

import hashlib
import io
import math
import os
import random
import signal
from fractions import Fraction

import pytest

from hgdensity import survey
from hgdensity.arith import euler_phi
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


def _timeout(signum, frame):
    raise TimeoutError("slice_dry_run did not return")


@pytest.mark.parametrize("kwargs", [{"stride": -3}, {"stride": 0}, {"chunk": 0}])
def test_dry_run_rejects_nonpositive_stride_and_chunk(kwargs):
    # without validation a negative stride or a zero chunk loops forever: the
    # alarm turns a hang into a failure
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="must be >= 1"):
            survey.slice_dry_run(8, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
