"""Span recording around symchain's layer boundaries, from outside the library.

Each boundary function is wrapped and the wrapper is rebound wherever a
``symchain`` module namespace holds the original, since ``from .linalg
import rref`` copies the name into other modules.  Spans stay in memory
until the run ends.  A boundary missing from the library is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

BOUNDARIES = {
    "complexes": ("tensor",),
    "sym2": ("sym2", "alpha", "weak_sym2", "endo_image_complex", "endo_kernel_complex"),
    "linalg": (
        "slice_matrix",
        "qq_rank",
        "rref",
        "kernel_basis",
        "solve_field",
        "smith_normal_form",
        "kernel_pid",
        "solve_pid",
        "image_basis_pid",
    ),
    "homology": ("homology", "homology_presented", "is_quasi_iso"),
    "series": ("minimize",),
    "theorems": ("check_symm07", "check_symm07pp", "check_s2fpd02"),
    "io": ("parse", "serialize"),
    "cli": ("main",),
}


def _cells(M) -> int:
    return M.rows * M.cols


def _bits(scalar) -> int:
    v = scalar.value
    if isinstance(v, int):
        return abs(v).bit_length()
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


def _max_bits(snf) -> int:
    return max(
        (_bits(v) for M in (snf.U, snf.D, snf.V) for v in M.entries.values()),
        default=0,
    )


# boundary -> counter name -> (kind, f(args, result)); kind is "sum" or "max"
COUNTERS = {
    "linalg.slice_matrix": {
        "cells": ("sum", lambda args, res: _cells(res[0])),
        "nnz": ("sum", lambda args, res: len(res[0].entries)),
    },
    "linalg.qq_rank": {"cells": ("sum", lambda args, res: _cells(args[0]))},
    "linalg.rref": {"cells": ("sum", lambda args, res: _cells(args[0]))},
    "linalg.smith_normal_form": {
        "cells": ("sum", lambda args, res: _cells(args[0])),
        "max_bits": ("max", lambda args, res: _max_bits(res)),
    },
}


def boundary_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in BOUNDARIES.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for boundary in boundary_names():
        names += [f"{boundary}.calls", f"{boundary}.self_s"]
        names += [f"{boundary}.{c}" for c in COUNTERS.get(boundary, {})]
    return names


@dataclass(slots=True)
class Span:
    item: int  # spans of one user-facing call share this identifier
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    item: int = -1
    _next_id: int = 0
    _stack: list = field(default_factory=list)  # [span_id, child seconds]
    _rebound: list = field(default_factory=list)  # (module, attribute, original)

    def install(self) -> None:
        """Wrap every boundary function in every loaded symchain module."""
        modules = [m for n, m in sys.modules.items() if n == "symchain" or n.startswith("symchain.")]
        self.absent = []
        for module_name, fns in BOUNDARIES.items():
            owner = sys.modules.get(f"symchain.{module_name}")
            for fn in fns:
                name = f"{module_name}.{fn}"
                original = getattr(owner, fn, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original function back where install found it."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append(Span(self.item, span_id, parent, name, start, end, duration - frame[1]))
            if counters:
                for counter, (kind, measure) in counters.items():
                    key = f"{name}.{counter}"
                    value = measure(args, result)
                    old = self.counters.get(key, 0)
                    self.counters[key] = old + value if kind == "sum" else max(old, value)
                # counting is tracing overhead, not the caller's own work
                if self._stack:
                    self._stack[-1][1] += time.perf_counter() - end
            return result

        return wrapper

    def totals(self) -> dict:
        """Per-layer totals over every recorded span: calls, self_s, counters."""
        out = {name: 0 for name in metric_names()}
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
        out.update(self.counters)
        return out
