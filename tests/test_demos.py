"""The narrative demos run to completion and print what they promise."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(name, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name), *args],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_special_primes_demo():
    proc = _run_demo("special_primes.py")
    section = proc.stdout.split("p = 163 = 2*3^4 + 1\n")[1].split("\n\n")[0]
    assert "max density 2/27 at (x, y, z) = (1, 27, 24)" in section
    assert "p = 251 = 2*5^3 + 1" in proc.stdout


def test_quadratic_identities_demo():
    out = _run_demo("quadratic_identities.py").stdout
    assert "p = 23: class number h = 3, least nonresidue = 5" in out
    assert "W_47(29) = [18, 25, 28, 36]" in out


def test_height_survey_demo_with_two_workers():
    out = _run_demo("height_survey.py", "8", "2").stdout
    row = next(line for line in out.splitlines() if line.startswith("  eps = 0 "))
    assert row.split()[3:] == ["N=6:", "1/3", "N=9:", "1/3", "N=8:", "1/3"]
