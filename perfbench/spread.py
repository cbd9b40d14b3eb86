"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads special --seeds 1-5
    python3 perfbench/spread.py --workloads sweep,special,verify,queries \
        --seeds 201-210 --write-baseline

Each run is a separate ``run.py`` command, as a benchmark check makes it.
The spread of a metric is the distance between the first and the third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share of
their median; BENCHMARK.json's bound for the metric applies to it.
``--write-baseline`` stores the medians and quartiles in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ROADMAP_ROWS = {
    "sweep N=12 (density_histogram(12), serial)": "sweep",
    "special p=163 --max-density (sweep_special)": "special",
}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="sweep,special,verify,queries")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)
    baseline = {"workloads": {}, "seeds": seeds}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            full = json.loads((BENCH / "out" / f"{w}-seed{seed}-trace0.json").read_text())
            runs.append((result, full))
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: passes={full['passes']} failed={result['failed']} {values}",
                  flush=True)
        stats = {}
        for name in bounds:
            stats[name] = quartiles([r["metrics"][name]["value"] for r, _ in runs])
            third = stats[name]["spread"] < bounds[name] / 3
            print(f"  {w:8s} {name:14s} median {stats[name]['median']:.6g}  "
                  f"spread {stats[name]['spread']:.4f}  bound {bounds[name]}"
                  f"{'' if third else '  (above a third of the bound)'}")
            ok &= name == "setup_s" or stats[name]["spread"] <= bounds[name]
        stats["raw_wall_s"] = quartiles(
            [statistics.median(f["raw"]["wall_s"]) for _, f in runs])
        stats["passes_per_run"] = [f["passes"] for _, f in runs]
        stats["error_rate"] = statistics.fmean(f["error_rate"] for _, f in runs)
        ok &= all(r["correct"] for r, _ in runs)
        baseline["workloads"][w] = stats
        baseline["machine"] = runs[-1][1]["machine"]
    if args.write_baseline:
        baseline["note"] = (
            f"medians and quartiles over {len(seeds)} seeds of run.py --trace 0 "
            f"--seconds {spec['run_seconds']}; times are CPU seconds scaled to the "
            "reference host speed (see README); raw_wall_s is the unscaled median "
            "pass time")
        baseline["roadmap_rows"] = {
            row: baseline["workloads"][w]["wall_s"]
            for row, w in ROADMAP_ROWS.items() if w in baseline["workloads"]
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
