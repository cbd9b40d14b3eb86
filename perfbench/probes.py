"""In-memory span recorder and the probes the traced run installs.

A span is (name, start, end, parent): times are ``time.perf_counter``
seconds and ``parent`` is the index of the enclosing span, or -1.  Probes
wrap public functions of ``hgdensity`` by rebinding the name in the module
that calls them, so the package itself is never edited.  A probe whose
target name no longer exists is reported as missing instead of failing the
run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module that calls the function, attribute to rebind, span name)
PROBES = [
    ("hgdensity.survey", "bounded_count", "density.bounded_count"),
    ("hgdensity.cli", "density", "density.density"),
    ("hgdensity.cli", "bounded_residues", "density.residues"),
    ("hgdensity.cli", "normalize_params", "arith.normalize_params"),
    ("hgdensity.verify", "empirical_bounded", "padic.empirical_bounded"),
    ("hgdensity.verify", "mod_order", "arith.mod_order"),
    ("hgdensity.padic", "digit_bounded", "padic.digit_bounded"),
    ("hgdensity.padic", "padic_digits", "padic.padic_digits"),
    ("hgdensity.quadratic", "class_number", "quadratic.class_number"),
    ("hgdensity.quadratic", "w_set", "quadratic.w_set"),
    ("hgdensity.quadratic", "w_intersection_nonempty", "quadratic.w_intersection"),
]


class Tracer:
    """Spans kept in parallel lists; ``span`` and probes share one stack."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.missing: dict[str, str] = {}  # span name -> unresolved target
        self.bounded_count_keys: list[tuple] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if name == "density.bounded_count":
                m, A, B, C = args
                self.bounded_count_keys.append((m, A, B, C) if A <= B else (m, B, A, C))
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return probe

    def install(self, probes=PROBES):
        for module, attr, name in probes:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing[name] = f"{module}.{attr}"
                continue
            setattr(mod, attr, self.wrap(fn, name))

    # --- aggregation -----------------------------------------------------

    def total(self, name: str) -> float:
        return sum(
            (e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name),
            0.0,
        )

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def self_time(self, name: str, children: set[str] | None = None) -> float:
        """Duration of the ``name`` spans minus their direct child spans
        (only those named in ``children`` when given)."""
        own = self.total(name)
        covered = 0.0
        for n, s, e, par in zip(self.names, self.starts, self.ends, self.parents):
            if par >= 0 and self.names[par] == name and (
                children is None or n in children
            ):
                covered += e - s
        return own - covered

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "missing": self.missing,
                },
                f,
            )
