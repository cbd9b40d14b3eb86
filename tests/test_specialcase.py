"""Shape classification of B over primes p = 2*q**r + 1."""

import dataclasses
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hgdensity.arith import (
    ResidueSet,
    is_prime,
    modulus_triples,
    normalize_params,
    primes_up_to,
)
from hgdensity.density import (
    DivisorAntichain,
    bounded_counts,
    bounded_residues,
    density,
    is_union_of_cyclic,
    subgroup_union_size,
)
from hgdensity.errors import HypothesisError, ShapeMismatch
from hgdensity.quadratic import legendre, quadratic_residues
from hgdensity.specialcase import (
    SpecialPrime,
    classify_b,
    enumerate_b_shapes,
    find_generator,
    parse_special_prime,
    remark_case_classification,
    shape_members,
    shape_table_json,
    sweep_special,
)

from hgdensity import specialcase, verify


def params(x, y, z, p):
    return normalize_params(Fraction(x, p), Fraction(y, p), Fraction(z, p))


def test_parse_special_prime():
    sp = parse_special_prime(47)
    assert (sp.p, sp.q, sp.r) == (47, 23, 1)
    sp = parse_special_prime(23)
    assert (sp.p, sp.q, sp.r) == (23, 11, 1)
    assert parse_special_prime(13) is None  # (13-1)/2 = 6
    sp = parse_special_prime(19)  # 19 = 2 * 3^2 + 1
    assert (sp.p, sp.q, sp.r) == (19, 3, 2)
    assert parse_special_prime(29) is None  # 29 = 1 mod 4
    assert parse_special_prime(21) is None  # not prime


def test_enumerate_b_shapes_densities():
    sp = parse_special_prime(23)
    dens = {s.density for s in enumerate_b_shapes(sp)}
    assert dens == {
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 22),
        Fraction(1),
        Fraction(1, 11),
        Fraction(6, 11),
    }
    sp = parse_special_prime(47)
    dens = {s.density for s in enumerate_b_shapes(sp)}
    assert dens == {
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 46),
        Fraction(1),
        Fraction(1, 23),
        Fraction(12, 23),
    }
    # UNION(0, k) is always larger than the 1/q bound
    for p in (19, 23, 47):
        sp = parse_special_prime(p)
        for s in enumerate_b_shapes(sp):
            if s.kind == "UNION" and s.j == 0:
                assert s.density > Fraction(1, sp.q)


def test_shape_members_are_subgroup_unions():
    # 19 = 2 * 3^2 + 1 has every shape kind, 487 = 2 * 3^5 + 1 the most shapes
    for p in (19, 23, 47, 163, 487):
        sp = parse_special_prime(p)
        shapes = enumerate_b_shapes(sp)
        members = [shape_members(sp, s) for s in shapes]
        assert len(set(members)) == len(shapes), p  # all shapes are distinct sets
        for s, rs in zip(shapes, members):
            assert isinstance(rs, ResidueSet) and rs.modulus == p, (p, s)
            assert is_union_of_cyclic(rs), (p, s)
            assert len(rs) == s.density * (p - 1), (p, s)


def test_shape_members_refuse_a_huge_prime_at_once():
    # finding the primitive root needs p - 1 factored by trial division,
    # which mod_order refuses above TABLE_LIMIT before any work
    sp = SpecialPrime(p=200000000000000363, q=100000000000000181, r=1)
    shape = enumerate_b_shapes(sp)[1]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="too large"):
            shape_members(sp, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_shape_orders_give_the_closed_form_densities():
    # the paper's density formulas against density's inclusion-exclusion
    # over each shape's subgroup orders, at every special prime below 1000
    primes = [p for p in range(1000) if parse_special_prime(p)]
    assert len(primes) == 28
    nonempty = 0
    for p in primes:
        for s in enumerate_b_shapes(parse_special_prime(p)):
            if s.orders:
                antichain = DivisorAntichain(p - 1, frozenset(s.orders))
                assert s.density * (p - 1) == subgroup_union_size(antichain), (p, s)
                nonempty += 1
            else:
                assert s.kind == "EMPTY" and s.density == 0
    assert nonempty == 190


def test_classify_b_raises_when_b_is_no_shape(monkeypatch):
    p = 19
    triple = params(1, 7, 4, p)
    assert classify_b(triple).label() == "FULL(1)"
    # 2 generates the units mod 19, so {2} is no union of subgroups
    monkeypatch.setattr(
        specialcase, "bounded_residues", lambda params: ResidueSet(p, (2,))
    )
    with pytest.raises(ShapeMismatch):
        classify_b(triple)


def test_classify_b_examples():
    shape = classify_b(params(4, 18, 46, 47))
    assert shape.label() == "HALF(0)"
    assert shape.density == Fraction(1, 2)
    assert set(bounded_residues(params(4, 18, 46, 47)).members) == set(
        quadratic_residues(47)
    )
    assert classify_b(params(22, 21, 2, 23)).label() == "EMPTY"
    with pytest.raises(HypothesisError):
        classify_b(normalize_params(Fraction(1, 13), Fraction(2, 13), Fraction(3, 13)))


def test_sweep_matches_brute_force_at_23():
    p = 23
    sp = parse_special_prime(p)
    res = sweep_special(sp)
    brute = Counter()
    best = (Fraction(0), None)
    for X, Y, Z in verify.params_with_modulus(p):
        shape = classify_b(params(X, Y, Z, p))
        brute[shape.label()] += 1
        cand = (min(X, Y), max(X, Y), Z)
        if shape.density > best[0] or (shape.density == best[0] and cand < best[1]):
            best = (shape.density, cand)
    assert res.shape_counts == dict(brute)
    assert res.total == sum(brute.values()) == (p - 2) * (p - 2) * (p - 1)
    assert (res.max_density, res.witness) == best


def test_sweep_matches_brute_force_at_19():
    # 19 = 2 * 3^2 + 1: the smallest r > 1 prime, where UNION(j, k) occurs
    p = 19
    res = sweep_special(parse_special_prime(p))
    brute = Counter()
    best = (Fraction(0), None)
    for X, Y, Z in verify.params_with_modulus(p):
        shape = classify_b(params(X, Y, Z, p))
        brute[shape.label()] += 1
        cand = (min(X, Y), max(X, Y), Z)
        if shape.density > best[0] or (shape.density == best[0] and cand < best[1]):
            best = (shape.density, cand)
    assert res.shape_counts == dict(brute) == {
        "EMPTY": 1785, "FULL(1)": 96, "FULL(2)": 936, "HALF(1)": 879,
        "HALF(2)": 906, "UNION(1,2)": 600,
    }
    assert res.total == sum(brute.values()) == (p - 2) * (p - 2) * (p - 1)
    assert (res.max_density, res.witness) == best == (Fraction(1, 3), (1, 7, 4))


def survey_kernel_summary(p):
    """|B| histogram, largest |B| and lex-least witness over every triple mod p.

    The survey kernel shares no code with the sweep: it tests each triple's
    cyclic subgroups in unit coordinates, with no discrete log.
    """
    X, Y, Z = modulus_triples(p, p)
    sizes = bounded_counts(p, X, Y, Z)
    top = int(sizes.max())
    i = np.flatnonzero(sizes == top)
    lo, hi = np.minimum(X[i], Y[i]), np.maximum(X[i], Y[i])
    return Counter(sizes.tolist()), top, min(zip(lo.tolist(), hi.tolist(), Z[i].tolist()))


@pytest.mark.parametrize("p", [47, 59, 83, 107])
def test_sweep_agrees_with_the_survey_kernel(p):
    res = sweep_special(parse_special_prime(p))
    shapes = {s.label(): s for s in enumerate_b_shapes(res.sp)}
    hist = Counter()
    for label, count in res.shape_counts.items():
        hist[shapes[label].density * (p - 1)] += count
    want, top, witness = survey_kernel_summary(p)
    assert (hist, res.max_density, res.witness) == (want, Fraction(top, p - 1), witness)


@pytest.mark.parametrize("p", [13, 31, 61, 73])
def test_pattern_kernel_agrees_with_the_survey_kernel_at_any_prime(p):
    # the kernel needs only a cyclic unit group; at these primes no shape
    # table applies, distinct unions of subgroups share a size, and at 61
    # and 73 the lex-least witness lies in the second union of the top size
    assert parse_special_prime(p) is None
    powg, divs = specialcase._lattice(p)
    counts, top, key = specialcase._pattern_sweep(p, powg, divs)
    assert len(counts) == p
    hist = Counter({m: int(counts[m]) for m in np.flatnonzero(counts).tolist()})
    witness = (key // (p * p), key // p % p, key % p)
    assert (hist, top, witness) == survey_kernel_summary(p)


def test_size_table_gives_every_shape_its_own_size():
    # the sweep tells shapes apart by |B| alone, so at every special prime
    # below 4097 the shapes' sizes must be distinct
    primes = [p for p in range(5, 4097) if parse_special_prime(p) is not None]
    assert len(primes) == 67
    for p in primes:
        sp = parse_special_prime(p)
        table = specialcase._size_table(sp, [d for d in range(1, p) if (p - 1) % d == 0])
        assert list(table.values()) == enumerate_b_shapes(sp), p


def test_pattern_kernel_memory_does_not_grow_with_the_divisors():
    # p - 1 = 240 has 20 divisors; one bin per subgroup pattern, 2^20 of
    # them, once peaked at 48.6 MiB at this p; one bin per |B| reads 0.7 MiB
    p = 241
    powg, divs = specialcase._lattice(p)
    assert len(divs) == 20
    tracemalloc.start()
    try:
        counts, top, _ = specialcase._pattern_sweep(p, powg, divs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    assert int(counts.sum()) == (p - 2) * (p - 2) * (p - 1)
    assert top == 32


# Computed by an independent per-triple coset descent, not by the kernel
# under test; the 163 values are also the benchmark's references.
R_GT_1_SWEEPS = {
    163: (  # 2 * 3^4 + 1
        {
            "EMPTY": 1404081, "FULL(3)": 119376, "FULL(4)": 769392,
            "HALF(2)": 56708, "HALF(3)": 581761, "HALF(4)": 765612,
            "UNION(2,3)": 12528, "UNION(2,4)": 43408, "UNION(3,4)": 446336,
        },
        Fraction(2, 27),
        (1, 27, 24),
    ),
    251: (  # 2 * 5^3 + 1
        {
            "EMPTY": 5177125, "FULL(2)": 58680, "FULL(3)": 4145148,
            "HALF(2)": 1003613, "HALF(3)": 4173512, "UNION(2,3)": 942172,
        },
        Fraction(1, 25),
        (1, 5, 3),
    ),
    # captured from the sweep at 89632cb, before its least-prime recursion,
    # when every subgroup's fit was reduced from the full row
    487: (  # 2 * 3^5 + 1
        {
            "EMPTY": 38145735, "FULL(3)": 3744, "FULL(4)": 3385944,
            "FULL(5)": 20952360, "HALF(3)": 1673012, "HALF(4)": 15551944,
            "HALF(5)": 20920779, "UNION(3,4)": 350664, "UNION(3,5)": 1279828,
            "UNION(4,5)": 12055340,
        },
        Fraction(1, 27),
        (1, 73, 37),
    ),
}


@pytest.mark.parametrize("p", sorted(R_GT_1_SWEEPS))
def test_sweep_pinned_at_r_gt_1_primes(p):
    counts, dmax, witness = R_GT_1_SWEEPS[p]
    res = sweep_special(parse_special_prime(p))
    assert res.shape_counts == counts
    assert (res.max_density, res.witness) == (dmax, witness)
    assert res.total == (p - 2) * (p - 2) * (p - 1)
    assert all(type(v) is int for v in res.shape_counts.values())


def test_sweep_structure_at_487():
    p = 487  # 2 * 3^5 + 1
    sp = parse_special_prime(p)
    assert (sp.q, sp.r) == (3, 5)
    # the sweep holds one chunk of at most CHUNK_CELLS cells at a time and
    # its row list as uint16 pairs and uint8 weights; the same list held as
    # three int64 arrays reads 1.97 MiB
    tracemalloc.start()
    try:
        res = sweep_special(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    labels = {s.label() for s in enumerate_b_shapes(sp)}
    assert set(res.shape_counts) <= labels
    assert "FULL(0)" not in res.shape_counts
    assert sum(res.shape_counts.values()) == res.total == (p - 2) * (p - 2) * (p - 1)
    assert density(params(*res.witness, p)) == res.max_density


def test_sweep_raises_on_unmatched_pattern(monkeypatch):
    sp = parse_special_prime(19)
    assert "HALF(1)" in sweep_special(sp).shape_counts
    full_table = specialcase.enumerate_b_shapes
    monkeypatch.setattr(
        specialcase,
        "enumerate_b_shapes",
        lambda sp: [s for s in full_table(sp) if s.label() != "HALF(1)"],
    )
    with pytest.raises(ShapeMismatch):
        sweep_special(sp)


# The largest |B| / (p - 1) over every triple mod p, at every prime
# 5 <= p < 100: the data the paper's open case (p not 2q^r + 1) asks for.
MAX_DENSITY = {
    5: Fraction(1, 2), 7: Fraction(2, 3), 11: Fraction(3, 5), 13: Fraction(2, 3),
    17: Fraction(1, 4), 19: Fraction(1, 3), 23: Fraction(6, 11),
    29: Fraction(5, 14), 31: Fraction(3, 5), 37: Fraction(7, 18),
    41: Fraction(3, 10), 43: Fraction(2, 7), 47: Fraction(12, 23),
    53: Fraction(1, 13), 59: Fraction(1, 29), 61: Fraction(4, 15),
    67: Fraction(8, 33), 71: Fraction(8, 35), 73: Fraction(1, 4),
    79: Fraction(3, 13), 83: Fraction(1, 41), 89: Fraction(9, 44),
    97: Fraction(5, 24),
}


def test_pattern_kernel_max_density_at_every_prime_below_100():
    assert sorted(MAX_DENSITY) == [p for p in range(5, 100) if is_prime(p)]
    for p, want in MAX_DENSITY.items():
        _, top, _ = specialcase._pattern_sweep(p, *specialcase._lattice(p))
        assert Fraction(top, p - 1) == want, p


@pytest.mark.parametrize("p", [13, 19, 23, 47, 61])
def test_pattern_kernel_blocks_are_invisible(monkeypatch, p):
    # a chunk holds max(1, cap // (p - 1)) rows: one at a cap of 1 cell,
    # three at 4 (p - 1) - 1, which splits the (p - 1)/2 rows of s = 2
    # across chunks, and exactly the rows of s = 2 at (p - 1)^2 / 2, with
    # rows of two s in later chunks; the default holds every row at 13 to
    # 61.  The witness must survive a tie between chunks and within one
    powg, divs = specialcase._lattice(p)
    outs = []
    for cap in (None, 1, 4 * (p - 1) - 1, (p - 1) * (p - 1) // 2):
        if cap is not None:
            monkeypatch.setattr(sys.modules["hgdensity.arith"], "CHUNK_CELLS", cap)
        counts, top, key = specialcase._pattern_sweep(p, powg, divs)
        outs.append((counts.tolist(), top, key))
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_orbit_rows_at_the_largest_prime_stay_small():
    # 2,094,081 rows at p = 4093 hold 9.99 MiB as uint16 pairs and uint8
    # weights; built through int64 index arrays they once peaked at 43.94 MiB
    tracemalloc.start()
    try:
        s, t, weight = specialcase._orbit_rows(4093)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 2046 * 2047 // 2 and s.dtype == t.dtype == np.uint16
    assert s[:3].tolist() == [2, 2, 2] and s[2047] == 3
    assert t[:3].tolist() == [2, 3, 4] and t[2045:2048].tolist() == [2047, 3, 4]
    assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("p", [p for p in range(5, 60) if is_prime(p)])
def test_orbit_rows_meet_every_orbit_once(p):
    # the group {s <-> t, s -> 1 - s, t -> 1 - t} on (F_p minus {0, 1})^2,
    # closed by brute force: each orbit holds exactly one row, weighted by
    # the orbit's size
    s, t, weight = specialcase._orbit_rows(p)
    assert (s.dtype, t.dtype, weight.dtype) == (np.uint16, np.uint16, np.uint8)
    row = {pair: r for r, pair in enumerate(zip(s.tolist(), t.tolist()))}
    assert len(row) == len(weight)
    seen, met = set(), []
    for pair in itertools.product(range(2, p), repeat=2):
        if pair in seen:
            continue
        orbit, todo = {pair}, [pair]
        while todo:
            a, b = todo.pop()
            for image in ((b, a), ((1 - a) % p, b), (a, (1 - b) % p)):
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        [r] = [row[x] for x in orbit if x in row]
        assert weight[r] == len(orbit), (p, pair)
        met.append(r)
    assert sorted(met) == list(range(len(weight)))
    assert int(weight.sum()) == (p - 2) ** 2


def test_cell_budget_bounds_the_sweep_memory(monkeypatch):
    # 2^12 cells are 8 rows of 486 units at p = 487, so each chunk's
    # temporaries are a few KiB and the peak is the 244 x 486 residue table,
    # its blocks of products and the row list; a chunk of the 243 rows of
    # s = 2 reads 1.62 MiB
    p = 487
    powg, divs = specialcase._lattice(p)
    monkeypatch.setattr(sys.modules["hgdensity.arith"], "CHUNK_CELLS", 1 << 12)
    tracemalloc.start()
    try:
        counts, _, _ = specialcase._pattern_sweep(p, powg, divs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    assert int(counts.sum()) == (p - 2) * (p - 2) * (p - 1)


def test_special_prime_rejects_inconsistent_fields():
    for p, q, r in [
        (11, 3, 1),  # 2 * 3 + 1 = 7
        (3, 1, 1),  # q = 1 is no prime, and p > 3 is required
        (55, 3, 3),  # 2 * 3^3 + 1 = 55 = 5 * 11
        (19, 9, 1),  # 9 is no prime
        (5, 3, 10**9),  # refused before 3^r is formed
    ]:
        with pytest.raises(ValueError, match="is not a prime p = 2"):
            SpecialPrime(p=p, q=q, r=r)
    with pytest.raises(ValueError):
        specialcase._shape(parse_special_prime(19), 2, 1)  # UNION needs j < k


def test_special_prime_check_survives_python_O():
    # the field check is an exception, not an assert that -O strips
    code = "from hgdensity.specialcase import SpecialPrime; SpecialPrime(p=11, q=3, r=1)"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError: p=11, q=3, r=1 is not")


def test_pattern_table_raises_on_a_wrong_closed_form(monkeypatch):
    full_table = specialcase.enumerate_b_shapes

    def wrong_density(sp):
        shapes = full_table(sp)
        shapes[1] = dataclasses.replace(shapes[1], density=shapes[1].density / 2)
        return shapes

    monkeypatch.setattr(specialcase, "enumerate_b_shapes", wrong_density)
    with pytest.raises(ShapeMismatch, match="members"):
        sweep_special(parse_special_prime(19))


def test_sweep_raises_on_a_wrong_total(monkeypatch):
    kernel = specialcase._pattern_sweep

    def one_short(p, powg, divs):
        counts, top, key = kernel(p, powg, divs)
        counts[0] -= 1  # the EMPTY pattern, which every special sweep meets
        return counts, top, key

    monkeypatch.setattr(specialcase, "_pattern_sweep", one_short)
    with pytest.raises(ShapeMismatch, match="swept 5201 triples"):
        sweep_special(parse_special_prime(19))


def test_max_density_values():
    res = sweep_special(parse_special_prime(23))
    d, witness = res.max_density, res.witness
    assert d == Fraction(6, 11)  # UNION(0,1): (q+1)/(2q)
    assert density(params(*witness, 23)) == d
    d = sweep_special(parse_special_prime(59)).max_density
    assert d <= Fraction(1, 29)


def test_nonresidue_z_excludes_large_shapes():
    # when -z is a nonresidue, B cannot contain the quadratic-residue
    # generator, ruling out HALF(0), FULL(0) and UNION(0, k)
    p = 23
    for X, Y, Z in verify.params_with_modulus(p):
        if legendre(-Z, p) != -1:
            continue
        label = classify_b(params(X, Y, Z, p)).label()
        assert label not in {"HALF(0)", "FULL(0)", "UNION(0,1)"}, (X, Y, Z)


def test_remark_case_classification():
    assert remark_case_classification(params(2, 3, 22, 23)) == "c-largest"
    assert density(params(2, 3, 22, 23)) in {Fraction(1, 22), Fraction(1, 2)}
    assert remark_case_classification(params(22, 21, 2, 23)) == "zero"
    with pytest.raises(HypothesisError):
        remark_case_classification(
            normalize_params(Fraction(1, 19), Fraction(2, 19), Fraction(3, 19))
        )  # r = 2, outside the r = 1 remark


def test_remark_cases_exhaustive_at_23():
    # no triple violates its case's density set, and D = 1 never occurs
    for X, Y, Z in verify.params_with_modulus(23):
        remark_case_classification(params(X, Y, Z, 23))  # raises on violation


def test_find_generator():
    # the least g whose powers reach every unit, by brute force
    for p in primes_up_to(1000)[1:]:
        least = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        assert find_generator(p) == least, p
    for p in (2, 9, 15):
        with pytest.raises(HypothesisError):
            find_generator(p)
    with pytest.raises(ValueError, match="too large"):
        find_generator(16777259)  # a prime above TABLE_LIMIT


def test_special_prime_finds_its_generator_once(monkeypatch):
    # classify_b compares B with every shape's members: 21 shapes at p = 163
    calls = []
    real = specialcase.find_generator
    monkeypatch.setattr(specialcase, "find_generator", lambda p: calls.append(p) or real(p))
    assert classify_b(params(1, 9, 5, 163)).label() == "FULL(4)"
    sp = parse_special_prime(163)
    assert [shape_members(sp, s) for s in enumerate_b_shapes(sp)][-1].modulus == 163
    assert calls == [163, 163] and sp.generator == 2


def test_shape_table_json():
    rows = shape_table_json(parse_special_prime(23))
    assert {"shape": "HALF(0)", "density": "1/2"} in rows
    assert {"shape": "UNION(0,1)", "density": "6/11"} in rows
    assert len(rows) == 6
