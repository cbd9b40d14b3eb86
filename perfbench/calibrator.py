"""Host-speed probe that shares the measured CPU with the passes.

    python3 perfbench/calibrator.py OUT_PATH

Run pinned to the CPU the passes use.  Every PERIOD_S it times a fixed
chunk of interpreted Python in CPU seconds, then sleeps.  The chunk is of
the kind the workloads spend their time in: a list comprehension over
residues mod a small prime, with set lookups.  On
waking it preempts the pass, so its samples follow the speed the pass sees
at that moment, at a cost of about 7 % of the CPU.  On SIGTERM, or when its
parent is gone, it writes the samples to OUT_PATH as a JSON list of
``[monotonic start, monotonic end, CPU seconds]`` and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

CHUNK_P = 163
CHUNK_ROUNDS = 20
PERIOD_S = 0.05
MAX_LIFE_S = 900.0  # a backstop; run.py stops it long before


def chunk() -> float:
    c0 = time.process_time()
    residues = list(range(1, CHUNK_P))
    for r in range(CHUNK_ROUNDS):
        kept = set(range(0, CHUNK_P, 1 + r % 5))
        [z for z in residues if all(z * h % CHUNK_P in kept for h in (1, 2, 4))]
    return time.process_time() - c0


def main(out_path: str) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    born = time.monotonic()
    samples = []
    while not stop and os.getppid() == parent and time.monotonic() - born < MAX_LIFE_S:
        w0 = time.monotonic()
        dt = chunk()
        w1 = time.monotonic()
        samples.append([w0, w1, dt])
        time.sleep(max(0.0, PERIOD_S - (w1 - w0)))
    with open(out_path, "w") as f:
        json.dump(samples, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
