"""The benchmark harness still runs against the package."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROBES_PY = ROOT / "perfbench" / "probes.py"


def _probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.PROBES


@pytest.mark.parametrize("module, attr, span", _probes())
def test_probe_target_resolves(module, attr, span):
    # a probe whose name is gone is reported missing, not failed, by the
    # harness; here it fails, so a refactor cannot drop one silently
    assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_benchmark_self_check_passes():
    # every workload at its tiny size, against its references: a rename of
    # anything a workload calls fails here, not only in a benchmark pass
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
