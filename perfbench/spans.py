"""Spans around fiberbeta's public functions, installed from outside.

`from .linalg import pseudoinverse` copies the function object into every
importing module, so a wrapper is installed at every binding site: each
fiberbeta module attribute that is the original function is replaced.
`fiberbeta.audit` names the function, not the module, which is why
modules are reached through sys.modules.  Spans (name, start, end,
parent) stay in memory; the parent process aggregates them.
"""

from __future__ import annotations

import functools
import sys
import time

FUNCTIONS = {
    "documents": ("parse_fiber",),
    "fiber": ("validate",),
    "linalg": ("build_laplacian", "pseudoinverse", "psd_certificate", "effective_resistance"),
    "divisors": ("solve_vertical", "gamma_u", "gamma_by_definition"),
    "invariants": ("beta_direct", "beta_closed", "semipositivity_certificate"),
    "catalog": ("fermat_fiber", "genus2_type", "x1n_model"),
    "logsum": ("global_beta", "evaluate"),
    "audit": ("audit",),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.laplacian_sizes = []  # (r, nnz) of each build_laplacian input
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sizes = self.laplacian_sizes if name == "linalg.build_laplacian" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sizes is not None:
                fiber = args[0]
                sizes.append((fiber.r, fiber.r + 2 * len(fiber.intersections)))
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fiberbeta"]
        for name in NAMES:
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"fiberbeta.{mod}"], fn)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "fiberbeta"]:
            for attr, value in list(vars(module).items()):
                original = getattr(value, "__wrapped_original__", None)
                if original is not None:
                    setattr(module, attr, original)


def aggregate(spans: list) -> dict:
    """Per function: calls, self seconds and the longest single span."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {n: {"calls": 0, "self_s": 0.0, "max_span_s": 0.0} for n in NAMES}
    for (name, start, end, _), inner in zip(spans, child_ns):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start - inner) / 1e9
        entry["max_span_s"] = max(entry["max_span_s"], (end - start) / 1e9)
    return out
