"""The narrative demos run to completion and print what they promise."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_special_primes_demo():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "special_primes.py")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    section = proc.stdout.split("p = 163 = 2*3^4 + 1\n")[1].split("\n\n")[0]
    assert "max density 2/27 at (x, y, z) = (1, 27, 24)" in section
    assert "p = 251 = 2*5^3 + 1" in proc.stdout
