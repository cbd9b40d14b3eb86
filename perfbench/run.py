"""Benchmark of hgdensity: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all      # the four workloads in turn
    python3 perfbench/run.py --self-check     # tiny sizes, checker not vacuous
    python3 perfbench/run.py --capture        # rewrite perfbench/refs/*.json

Each pass of a workload runs in a fresh interpreter (``child.py``), one at a
time, and passes repeat until ``--seconds`` would be exceeded.  With
``--trace 0`` the last line of standard output is the JSON result with every
end-to-end metric; with ``--trace 1`` traced and untraced passes alternate
and it holds every per-layer metric.  Times are the passes' CPU seconds,
scaled to a reference host speed by ``calibrator.py``, which runs beside
them on the same CPU.  The full result, with the machine and versions, is
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
CALIBRATOR = BENCH / "calibrator.py"
OUT = BENCH / "out"
WORKLOADS = ("sweep", "special", "verify", "queries")
MIN_SETUPS = 10  # setup_s is the median of at least this many fresh starts
CALIB_REF_S = 0.0035  # a calibrator chunk's CPU time on the reference host
MIN_WINDOW_S = 1.0  # a time is scaled by the calibrator samples of this long a window
MIN_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(*args: str, cpus: set[int] | None = None) -> dict:
    """Run one child pass, on ``cpus`` when given, else on this process's
    CPUs; returns its result with ``elapsed_s`` added."""
    cmd = [sys.executable, str(CHILD), *args]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    res = json.loads(lines[-1])
    res["elapsed_s"] = time.monotonic() - t0
    return res


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q / 100.0 * len(s))) - 1))]


def machine(numpy_version: str | None, python_version: str | None) -> dict:
    """The machine and versions recorded with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": python_version or platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "refs_captured_at": json.loads((BENCH / "refs" / "sweep.json").read_text())[
            "captured_at"
        ],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Calibrator:
    """``calibrator.py`` running beside the passes on their CPU.

    ``scale(t0, t1)`` is the mean of CALIB_REF_S / chunk time over the
    samples taken between monotonic times t0 and t1, the window widened to
    at least MIN_WINDOW_S.  Multiplying a time measured in that window by it
    gives the time at the reference speed of the host.  The samples are
    evenly spaced, so this mean of relative speeds integrates the speed over
    the window; a ratio of means would not, and under-weights the fast
    phases when the speed changes within a pass.
    """

    def __init__(self, path: Path, cpu: int):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(CALIBRATOR), str(path)], cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.samples: list[list[float]] = []
        self.mids: list[float] = []

    def stop(self):
        """Stop the calibrator, wait for it and read its samples."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.path.is_file():
            self.samples = sorted(json.loads(self.path.read_text()))
            self.path.unlink()
        self.mids = [(w0 + w1) / 2 for w0, w1, _ in self.samples]

    def scale(self, t0: float, t1: float) -> float:
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        while True:
            lo = bisect.bisect_left(self.mids, t0 - pad)
            hi = bisect.bisect_right(self.mids, t1 + pad)
            if hi - lo >= MIN_SAMPLES:
                break
            if pad > 60:
                raise ChildFailed(f"{hi - lo} calibration samples near [{t0}, {t1}]")
            pad = 2 * pad + 0.5
        return statistics.fmean(CALIB_REF_S / s[2] for s in self.samples[lo:hi])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Pin to one CPU, so that the calibrator and the passes share it, and
    run the passes of one benchmark run."""
    all_cpus = os.sched_getaffinity(0)
    cpu = min(all_cpus)
    os.sched_setaffinity(0, {cpu})
    OUT.mkdir(exist_ok=True)
    calib = Calibrator(OUT / f"calib-{workload}-seed{seed}-{os.getpid()}.json", cpu)
    try:
        out = _measure(workload, seed, seconds, trace, all_cpus)
    finally:
        calib.stop()
        os.sched_setaffinity(0, all_cpus)
    return scaled(out, calib, trace)


def _measure(workload, seed, seconds, trace, all_cpus) -> dict:
    """Run the passes of one benchmark run, one at a time."""
    start = time.monotonic()
    deadline = start + seconds
    base = ["--workload", workload, "--seed", str(seed)]
    # half the set-up starts now and half after the passes, so that they
    # sample two moments of the host's speed, not one
    setups = [spawn(*base, "--setup-only") for _ in range(MIN_SETUPS // 2)]
    reserve = (MIN_SETUPS - len(setups)) * statistics.median(s["elapsed_s"] for s in setups)
    plain, traced, fanout = [], [], []
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    if trace and workload == "sweep":
        fanout.append(spawn(*base, "--fanout", cpus=all_cpus))
    while True:
        if trace:
            traced.append(spawn(*base, "--trace", "--spans", str(spans)))
        plain.append(spawn(*base))
        per_round = statistics.median(p["elapsed_s"] for p in plain + traced)
        if trace:
            per_round *= 2
        if time.monotonic() + per_round + reserve > deadline:
            break
    setups += [spawn(*base, "--setup-only") for _ in range(MIN_SETUPS - len(setups))]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "setups": setups, "plain": plain, "traced": traced, "fanout": fanout,
            "elapsed_s": time.monotonic() - start}


def scaled(run: dict, calib: Calibrator, trace: bool) -> dict:
    """Scale every pass's CPU times by the host speed around it, and
    aggregate the metrics of the run."""
    setups, plain, traced, fanout = (run[k] for k in ("setups", "plain", "traced", "fanout"))
    for p in setups + plain + traced + fanout:
        t_start = p["t_first"] - p["cpu_first"]  # about when the interpreter started
        p["setup_scale"] = calib.scale(t_start, p["t_first"])
        p["setup_s"] = p["cpu_first"] * p["setup_scale"]
        if "t_last" in p:  # setup-only starts have no timed calls
            p["scale"] = calib.scale(p["t_first"], p["t_last"])
            p["wall_raw_s"] = p["cpu_last"] - p["cpu_first"]
            p["wall_s"] = p["wall_raw_s"] * p["scale"]
    if run["workload"] == "queries":
        lat = [
            ms * calib.scale(at, at + ms / 1000.0)
            for p in plain
            for ms, at in zip(p["latencies_ms"], p["latency_at"])
        ]
    else:  # one operation is one whole pass
        lat = [p["wall_s"] * 1000.0 for p in plain]
    p50 = statistics.median(lat)
    setup_s = [p["setup_s"] for p in setups + plain]
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "query_p50_ms": p50,
        # p99 needs ten samples beyond it; with fewer it falls back to p50
        "query_p99_ms": percentile(lat, 99) if len(lat) >= 1000 else p50,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    passes = plain + traced + fanout
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out = {
        "workload": run["workload"],
        "seed": run["seed"],
        "seconds": run["seconds"],
        "trace": trace,
        "machine": machine(plain[0]["numpy"], plain[0]["python"]),
        "passes": len(plain),
        "traced_passes": len(traced),
        "query_samples": len(lat),
        "error_rate": failed / attempted,
        "end_to_end": end_to_end,
        "raw": {
            "wall_s": [p["wall_raw_s"] for p in plain],
            "setup_s": [p["cpu_first"] for p in setups + plain],
            "setup_scale": [p["setup_scale"] for p in setups + plain],
            "scale": [p["scale"] for p in plain],
            "calibration_samples": len(calib.samples),
        },
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for p in passes for f in p["failures"]})[:20],
        "elapsed_s": run["elapsed_s"],
    }
    if trace:
        out["per_layer"] = per_layer(traced, plain, fanout)
        out["missing"] = traced[0]["missing"]
    return out


def per_layer(traced: list[dict], plain: list[dict], fanout: list[dict]) -> dict:
    """Medians of the traced passes' layer metrics, plus the run-level ones;
    seconds are scaled like the end-to-end times."""
    layers = {}
    for name in traced[0]["layers"]:
        vals = [t["layers"][name] for t in traced]
        if None in vals:
            layers[name] = None
            continue
        if name.endswith("_s"):
            vals = [v * t["scale"] for v, t in zip(vals, traced)]
        layers[name] = statistics.median(vals)
    layers["trace.overhead_s"] = statistics.median(
        t["wall_s"] for t in traced
    ) - statistics.median(p["wall_s"] for p in plain)
    layers["survey.fanout_2w_s"] = 0.0
    layers["survey.fanout_efficiency"] = 0.0
    if fanout:
        two = fanout[0]["span_s"]["survey.fanout"] * fanout[0]["scale"]
        one = statistics.median(p["span_s"]["survey.sweep"] * p["scale"] for p in plain)
        layers["survey.fanout_2w_s"] = two
        layers["survey.fanout_efficiency"] = one / (2 * two)
    return layers


def report(out: dict, spec: dict) -> dict:
    """The result object of the contract: end-to-end or per-layer metrics."""
    if out["trace"]:
        metrics = {}
        for m in spec["per_layer"]:
            value = out["per_layer"].get(m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            if value is None:
                metrics[m["name"]]["missing"] = True
    else:
        metrics = {
            m["name"]: {"value": out["end_to_end"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def self_check() -> int:
    """Every workload at tiny size: references pass, corrupted ones all fail,
    and the traced pass reports every layer metric."""
    ok = True
    for w in WORKLOADS:
        base = ["--workload", w, "--size", "tiny", "--seed", "7"]
        good = spawn(*base, "--trace")
        bad = spawn(*base, "--corrupt")
        fan = spawn(*base, "--fanout") if w == "sweep" else None
        missing = [k for k, v in good["layers"].items() if v is None]
        checks = [
            (good["failed"] == 0 and good["attempted"] > 0, "tiny pass is correct"),
            (not missing, f"every layer metric reported (missing: {missing})"),
            (bad["ref_checks"] > 0, "references were checked"),
            (bad["ref_failed"] == bad["ref_checks"], "every corrupted reference fails"),
            (bad["failed"] >= bad["ref_failed"], "corrupted references count as failed"),
        ]
        if fan is not None:
            checks.append((fan["failed"] == 0, "two-worker fan-out is correct"))
        for passed, what in checks:
            print(f"{w:8s} {'ok  ' if passed else 'FAIL'} {what}")
            ok &= passed
        if good["failures"]:
            print(f"{w:8s}      failures: {good['failures']}")

    # a probe whose target is gone marks its metrics missing, never fails
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from child import layer_metrics
    from probes import Tracer

    tr = Tracer()
    tr.install([("hgdensity.survey", "no_such_function", "density.bounded_count")])
    layers = layer_metrics(tr, {})
    passed = (
        tr.missing == {"density.bounded_count": "hgdensity.survey.no_such_function"}
        and layers["density.bounded_count_calls"] is None
        and layers["density.distinct_key_ratio"] is None
        and layers["cli.main_s"] == 0.0
    )
    print(f"probes   {'ok  ' if passed else 'FAIL'} a missing probe target is reported missing")
    ok &= passed
    return 0 if ok else 1


def capture() -> int:
    """Record every workload's outputs at both sizes as the references."""
    commit = git_commit()
    for w in WORKLOADS:
        refs = {"captured_at": commit}
        for size in ("full",) if w == "queries" else ("full", "tiny"):
            res = spawn("--workload", w, "--size", size, "--capture")
            if res["failed"]:
                print(f"{w}/{size}: invariant checks failed: {res['failures']}")
                return 1
            refs[size] = res["refs"]
        with open(BENCH / "refs" / f"{w}.json", "w") as f:
            json.dump(refs, f, separators=(",", ":"))
            f.write("\n")
        print(f"captured {w}")
    return 0


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """Measure one workload, write ``out/`` and print the report."""
    out = measure(workload, seed, seconds, bool(trace))
    result = report(out, json.loads((ROOT / "BENCHMARK.json").read_text()))
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps({**out, "result": result}, indent=1) + "\n")
    print("machine " + json.dumps(out["machine"]))
    print(f"workload {workload}: {out['passes']} passes, "
          f"{out['query_samples']} latency samples, "
          f"error_rate {out['error_rate']:.6g} ({out['failed']}/{out['attempted']})")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']!s:>24} {m['unit']}")
    for f in out["failures"]:
        print(f"  FAILED: {f}")
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--capture", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hgdensity" / "__init__.py").is_file():
        print(f"no hgdensity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.capture:
            return capture()
        if args.workload is None:
            ap.error("--workload is required")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for w in workloads:  # a wrong output is reported in the result, not by exit code
            run_one(w, args.seed, args.seconds, args.trace)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark pass failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
