"""One pass of one workload in a fresh interpreter.

Every cache in ``hgdensity`` lives at module level, so each pass runs in a
new process and pays for filling them, as a command-line user does.  Timed
regions and queries are measured in CPU seconds of this process
(``time.process_time``), stamped with ``time.monotonic`` so that ``run.py``
can scale them by the host speed at that moment.  The last line of standard
output is a JSON object read by ``run.py``.

    python3 perfbench/child.py --workload sweep [--size tiny] [--trace]
        [--setup-only] [--fanout] [--corrupt] [--capture] [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from probes import PROBES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"

SIZES = {
    "full": {
        "sweep_height": 12,
        "special_p": 163,
        "criterion_m": 20,
        "criterion_p": 500,
        "zero_m": 20,
        "oracle_m": 10,
        "oracle_p": 50,
        "query_scale": 1,
    },
    "tiny": {
        "sweep_height": 5,
        "special_p": 23,
        "criterion_m": 6,
        "criterion_p": 500,
        "zero_m": 6,
        "oracle_m": 6,
        "oracle_p": 50,
        "query_scale": 25,
    },
}

# stratum -> queries per pass; the stored pool holds POOL_FACTOR times as many
QUERY_MIX = {
    "density": 180,
    "residues": 120,
    "density_large": 20,
    "residues_large": 10,
    "bounded": 160,
    "bounded_empirical": 80,
    "digits": 150,
    "class_number": 80,
    "wset": 80,
    "intersect": 80,
    "error": 40,
}
POOL_FACTOR = 3
TAIL_STRATA = ("density_large", "residues_large")  # they hold query_p99_ms
POOL_SEED = 2018


def import_package():
    """Import hgdensity from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hgdensity

    where = Path(hgdensity.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hgdensity imported from {where}, not from {SRC}")


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


class Checker:
    """Counts checked operations; a failed one is kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Pass:
    """State shared by a workload's pass: inputs, tracer, checker, outputs."""

    def __init__(self, size, tracer, checker, seed, queries=None):
        self.size = SIZES[size]
        self.tr = tracer
        self.chk = checker
        self.seed = seed
        self.queries = queries
        self.obs: dict = {}  # observable outputs, compared with the references
        self.extra: dict = {}  # counts for the per-layer report
        self.latencies_ms: list[float] = []  # CPU milliseconds per query
        self.latency_at: list[float] = []  # monotonic start of each query


# --- workloads ---------------------------------------------------------------


def run_sweep(ps: Pass):
    survey = importlib.import_module("hgdensity.survey")
    N = ps.size["sweep_height"]
    with ps.tr.span("survey.sweep"):
        hist = survey.density_histogram(N, workers=1)
    buf = io.StringIO()
    with ps.tr.span("survey.csv"):
        survey.histogram_csv(hist, buf)
    with ps.tr.span("survey.enumerate"):
        enumerated = sum(1 for _ in survey.enumerate_params(N))
    beta0 = survey.beta(Fraction(0), N)
    ps.obs["csv_sha256"] = digest(buf.getvalue())
    ps.obs["triples"] = hist.total
    ps.chk.check("enumerated triples == histogram total", enumerated == hist.total)
    ps.chk.check("beta(0) == 1/3 on the distinct counts", beta0 == Fraction(1, 3))
    ps.extra["survey.triples"] = hist.total


def run_fanout(ps: Pass):
    """survey_counts with two worker processes, checked like the sweep."""
    survey = importlib.import_module("hgdensity.survey")
    N = ps.size["sweep_height"]
    with ps.tr.span("survey.fanout"):
        counts = survey.survey_counts(N, workers=2)
    hist = survey.density_histogram(N)  # reuses the counts just computed
    buf = io.StringIO()
    survey.histogram_csv(hist, buf)
    ps.obs["csv_sha256"] = digest(buf.getvalue())
    ps.obs["triples"] = sum(counts.merged.values())


def run_special(ps: Pass):
    sc = importlib.import_module("hgdensity.specialcase")
    p = ps.size["special_p"]
    with ps.tr.span("specialcase.table"):
        sp = sc.parse_special_prime(p)
        shapes = sc.enumerate_b_shapes(sp)
        members = [sc.shape_members(sp, s) for s in shapes]
    with ps.tr.span("specialcase.sweep"):
        res = sc.sweep_special(sp)
    ps.obs["prime"] = [sp.p, sp.q, sp.r]
    ps.obs["table"] = [
        [s.label(), str(s.density), len(mem)] for s, mem in zip(shapes, members)
    ]
    ps.obs["shape_counts"] = dict(sorted(res.shape_counts.items()))
    ps.obs["max_density"] = str(res.max_density)
    ps.obs["witness"] = list(res.witness)
    ps.chk.check(
        "every shape has |members| == density * (p - 1)",
        all(len(mem) == s.density * (p - 1) for s, mem in zip(shapes, members)),
    )
    expected = (p - 2) ** 2 * (p - 1)
    ps.chk.check("total == (p-2)^2 (p-1)", res.total == expected)
    ps.chk.check("shape counts sum to total", sum(res.shape_counts.values()) == res.total)
    ps.extra["specialcase.triples"] = res.total


def _verify_sweep(ps: Pass, name, fn, moduli, key):
    verify = importlib.import_module("hgdensity.verify")
    moduli = list(moduli)
    random.Random(ps.seed).shuffle(moduli)  # the seed only orders the moduli
    found = 0
    for m in moduli:
        with ps.tr.span(name):
            mism = fn(verify, m)
        ps.obs[f"{key}/m={m}"] = [len(mism), digest(json.dumps(sorted(mism)))]
        found += len(mism)
    ps.extra[f"{name}_mismatches"] = found


def run_verify(ps: Pass):
    z = ps.size
    cp, op = z["criterion_p"], z["oracle_p"]
    _verify_sweep(ps, "verify.criterion",
                  lambda v, m: v.digit_residue_mismatches(m, cp),
                  range(3, z["criterion_m"] + 1), "criterion")
    _verify_sweep(ps, "verify.zero",
                  lambda v, m: v.zero_density_mismatches(m),
                  range(3, z["zero_m"] + 1), "zero")
    _verify_sweep(ps, "verify.oracle",
                  lambda v, m: v.empirical_digit_mismatches(m, op),
                  range(3, z["oracle_m"] + 1), "oracle")


def verify_check_counts(size) -> dict:
    """(triple, prime) pairs each verification sweep examines."""
    verify = importlib.import_module("hgdensity.verify")
    arith = importlib.import_module("hgdensity.arith")

    def pairs(m_max, p_lim):
        return sum(
            sum(1 for _ in verify.params_with_modulus(m))
            * len(arith.primes_in_range(m, p_lim))
            for m in range(3, m_max + 1)
        )

    return {
        "verify.criterion_checks": pairs(size["criterion_m"], size["criterion_p"]),
        "verify.oracle_checks": pairs(size["oracle_m"], size["oracle_p"]),
    }


def run_queries(ps: Pass):
    cli = importlib.import_module("hgdensity.cli")
    nonzero = 0
    for query in ps.queries:
        argv = query.split()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            at = time.monotonic()
            t0 = time.process_time()
            try:
                with ps.tr.span("cli.main"):
                    rc = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a traceback is a failed query
                rc = f"raised {type(e).__name__}"
            t1 = time.process_time()
        ps.latencies_ms.append((t1 - t0) * 1000.0)
        ps.latency_at.append(at)
        nonzero += rc != 0
        ps.obs[query] = [rc, digest(out.getvalue())[:16]]
    ps.extra["cli.nonzero_exits"] = nonzero


WORKLOADS = {
    "sweep": run_sweep,
    "special": run_special,
    "verify": run_verify,
    "queries": run_queries,
}


# --- query pool --------------------------------------------------------------


def _primes(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def _frac(rng, d: int) -> Fraction:
    while True:
        n = rng.randrange(1, d)
        if math.gcd(n, d) == 1:
            return Fraction(n, d)


def _triple(rng, lo: int, hi: int, m_range=None):
    """(a, b, c) with denominators in [lo, hi], c != a, b; m = lcm of them."""
    while True:
        a, b, c = (_frac(rng, rng.randint(lo, hi)) for _ in range(3))
        m = math.lcm(a.denominator, b.denominator, c.denominator)
        if c in (a, b) or (m_range and not m_range[0] <= m <= m_range[1]):
            continue
        return [str(a), str(b), str(c)], m


def make_query(rng, stratum: str, primes: list[int]) -> tuple[list[str], int]:
    """One query of a stratum, with a size key that orders its cost."""
    quad_primes = [p for p in primes if p % 4 == 3 and 7 <= p <= 20_000]
    if stratum in ("density", "residues"):
        abc, m = _triple(rng, 2, 30)
        return [stratum, *abc], m
    if stratum in ("density_large", "residues_large"):
        abc, m = _triple(rng, 31, 100, (100_000, 500_000))
        return [stratum.split("_")[0], *abc], m
    if stratum in ("bounded", "bounded_empirical"):
        abc, m = _triple(rng, 2, 30)
        p = rng.choice([q for q in primes if q > m])
        argv = ["bounded", *abc, str(p)]
        if stratum == "bounded_empirical":
            argv += ["--empirical", str(rng.randint(100, 20_000))]
        return argv, m
    if stratum == "digits":
        a = _frac(rng, rng.randint(2, 100))
        p = rng.choice([q for q in primes if q > a.denominator])
        return ["digits", str(a), str(p), "--full-period"], a.denominator
    if stratum == "class_number":
        p = rng.choice(quad_primes)
        return ["quad", "class-number", str(p)], p
    if stratum == "wset":
        p = rng.choice(quad_primes)
        return ["quad", "wset", str(rng.randrange(2, p)), str(p)], p
    if stratum == "intersect":
        p = rng.choice(quad_primes)
        u, v = rng.randrange(2, p), rng.randrange(2, p)
        return ["quad", "intersect", str(u), str(v), str(p)], p
    # error: hypothesis violations exit 1, malformed arguments exit 2
    kind = rng.randrange(5)
    if kind == 0:
        abc, m = _triple(rng, 11, 30)
        return ["bounded", *abc, str(rng.choice([q for q in primes if q <= m]))], 0
    if kind == 1:
        a = _frac(rng, rng.randint(2, 30))
        return ["density", str(a), str(_frac(rng, rng.randint(2, 30))), str(a)], 0
    if kind == 2:
        p = rng.choice([q for q in primes if q % 4 == 1 and q < 20_000])
        return ["quad", "class-number", str(p)], 0
    if kind == 3:
        return ["density", f"{rng.randint(1, 9)}/0", "1/2", "1/3"], 0
    return ["digits", str(_frac(rng, rng.randint(2, 30))), "x"], 0


def make_pool() -> list[list]:
    """The query pool: rows [stratum, size, argv] sorted by stratum and size;
    the stored references append the exit code and stdout digest to each."""
    rng = random.Random(POOL_SEED)
    primes = _primes(100_000)
    pool = []
    for stratum, per_pass in QUERY_MIX.items():
        seen = set()
        while len(seen) < per_pass * POOL_FACTOR:
            argv, size = make_query(rng, stratum, primes)
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                pool.append([stratum, size, " ".join(argv)])
    pool.sort(key=lambda e: (e[0], e[1], e[2]))
    return pool


def select_stream(pool: list[list], seed: int, scale: int) -> list[list]:
    """The seeded query stream, as pool rows: from each stratum, one query out
    of every POOL_FACTOR consecutive ones by size, so that every seed gets the
    same spread of query costs; then shuffled.  The tail strata take the
    middle query of each run for every seed, so that ``query_p99_ms`` and
    ``peak_rss_mb`` measure the code rather than the seed's draw."""
    rng = random.Random(seed)
    by_stratum: dict[str, list] = {}
    for row in pool:
        by_stratum.setdefault(row[0], []).append(row)
    stream = []
    for stratum, per_pass in QUERY_MIX.items():
        rows = by_stratum[stratum]
        want = max(1, per_pass // scale)
        step = len(rows) // want
        runs = [rows[i * step : (i + 1) * step] for i in range(want)]
        if stratum in TAIL_STRATA:
            stream += [run[len(run) // 2] for run in runs]
        else:
            stream += [rng.choice(run) for run in runs]
    rng.shuffle(stream)
    return stream


# --- per-layer metrics -------------------------------------------------------

SPAN_METRICS = {  # metric -> span whose total seconds it reports
    "survey.sweep_s": "survey.sweep",
    "survey.enumerate_s": "survey.enumerate",
    "survey.csv_s": "survey.csv",
    "density.bounded_count_s": "density.bounded_count",
    "density.density_s": "density.density",
    "density.residues_s": "density.residues",
    "specialcase.table_s": "specialcase.table",
    "specialcase.sweep_s": "specialcase.sweep",
    "verify.criterion_s": "verify.criterion",
    "verify.zero_s": "verify.zero",
    "verify.oracle_s": "verify.oracle",
    "padic.empirical_bounded_s": "padic.empirical_bounded",
    "padic.digit_bounded_s": "padic.digit_bounded",
    "padic.padic_digits_s": "padic.padic_digits",
    "arith.mod_order_s": "arith.mod_order",
    "arith.normalize_params_s": "arith.normalize_params",
    "quadratic.class_number_s": "quadratic.class_number",
    "quadratic.w_set_s": "quadratic.w_set",
    "quadratic.w_intersection_s": "quadratic.w_intersection",
    "cli.main_s": "cli.main",
}
COUNT_METRICS = {  # metric -> span whose number of calls it reports
    "density.bounded_count_calls": "density.bounded_count",
    "padic.empirical_bounded_calls": "padic.empirical_bounded",
    "arith.mod_order_calls": "arith.mod_order",
    "cli.main_calls": "cli.main",
}
EXTRA_METRICS = [  # counts the workloads report; 0 where a workload has none
    "survey.triples",
    "specialcase.triples",
    "verify.criterion_checks",
    "verify.criterion_mismatches",
    "verify.zero_mismatches",
    "verify.oracle_checks",
    "verify.oracle_mismatches",
    "cli.nonzero_exits",
]


def layer_metrics(tr, extra: dict) -> dict:
    """Per-layer values of one traced pass; None marks a missing probe."""
    out = {}
    for metric, span in SPAN_METRICS.items():
        out[metric] = None if span in tr.missing else tr.total(span)
    for metric, span in COUNT_METRICS.items():
        out[metric] = None if span in tr.missing else tr.count(span)
    for metric in EXTRA_METRICS:
        out[metric] = extra.get(metric, 0)
    bc = "density.bounded_count"
    if bc in tr.missing:
        for k in ("survey.self_s", "density.moduli", "density.distinct_key_ratio"):
            out[k] = None
    else:
        keys = tr.bounded_count_keys
        out["survey.self_s"] = tr.self_time("survey.sweep", {bc})
        out["density.moduli"] = len({k[0] for k in keys})
        out["density.distinct_key_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    cli_missing = any(
        span in tr.missing
        for module, _, span in PROBES
        if module in ("hgdensity.cli", "hgdensity.padic", "hgdensity.quadratic")
    )
    out["cli.self_s"] = None if cli_missing else tr.self_time("cli.main")
    return out


# --- entry point -------------------------------------------------------------


def load_refs(workload: str, size: str):
    """References of one size; the tiny query stream draws on the full pool."""
    with open(REFS / f"{workload}.json") as f:
        refs = json.load(f)
    return refs["full"] if workload == "queries" else refs[size]


def corrupt(refs: dict) -> dict:
    """Every reference value altered, so that every reference check must fail."""
    return {k: ["corrupted", v] for k, v in refs.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fanout", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--capture", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import_package()
    import numpy

    size = SIZES[args.size]
    queries = None
    if args.capture:
        refs = {}
        if args.workload == "queries":
            pool = make_pool()
            queries = [row[2] for row in pool]
    else:
        refs = load_refs(args.workload, args.size)
        if args.workload == "queries":
            stream = select_stream(refs["pool"], args.seed, size["query_scale"])
            queries = [row[2] for row in stream]
            refs = {row[2]: row[3:] for row in stream}
        if args.corrupt:
            refs = corrupt(refs)

    if args.setup_only:
        print(json.dumps({"t_first": time.monotonic(), "cpu_first": time.process_time()}))
        return

    tr = Tracer()
    if args.trace:
        tr.install()
    chk = Checker()
    ps = Pass(args.size, tr, chk, args.seed, queries)
    run = run_fanout if args.fanout else WORKLOADS[args.workload]
    t_first, cpu_first = time.monotonic(), time.process_time()
    try:
        run(ps)
    except Exception as e:  # reported as a failed operation, never a crash
        chk.check(f"{run.__name__} raised {type(e).__name__}: {e}", False)
    ref_failed = 0
    for key, want in refs.items():
        ok = ps.obs.get(key) == want
        chk.check(f"output {key} differs from the reference", ok)
        ref_failed += not ok
    t_last, cpu_last = time.monotonic(), time.process_time()

    result = {
        "t_first": t_first,
        "t_last": t_last,
        "cpu_first": cpu_first,
        "cpu_last": cpu_last,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures,
        "ref_checks": len(refs),
        "ref_failed": ref_failed,
        "latencies_ms": ps.latencies_ms,
        "latency_at": ps.latency_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "span_s": {n: tr.total(n) for n in set(tr.names)},
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if args.trace:
        if args.workload == "verify":
            ps.extra.update(verify_check_counts(size))
        result["layers"] = layer_metrics(tr, ps.extra)
        result["missing"] = tr.missing
        if args.spans:
            tr.dump(args.spans)
    if args.capture:
        if args.workload == "queries":
            result["refs"] = {"pool": [row + ps.obs[row[2]] for row in pool]}
        else:
            result["refs"] = ps.obs
    print(json.dumps(result))


if __name__ == "__main__":
    main()
