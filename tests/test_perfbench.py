"""The benchmark harness's probe targets still exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBES_PY = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


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
