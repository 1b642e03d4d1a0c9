"""Per-layer tracing of dipc from outside the package.

:class:`Tracer` replaces chosen module-level functions of ``dipc`` with
timing wrappers and puts the originals back on :meth:`Tracer.uninstall`.
A function imported by name into another module (``spawn``,
``effective_intensity``, the pipeline functions ``harness`` calls) is a
separate binding there, so every binding that holds the original function
object is replaced.  Functions a module looks up as its own globals at call
time (``_statistics``, ``typical_test``, ...) are caught the same way, calls
from inside the module included.

A stack of open spans gives each function its self time: the wrapped time
minus the time spent in wrapped functions it called.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs traced; the metric prefix is "module.function".
TARGETS = (
    ("seeding", "spawn"),
    ("channel", "effective_intensity"),
    ("di_code", "construct_codebook"),
    ("di_code", "calibrate_threshold"),
    ("di_code", "estimate_errors"),
    ("di_code", "_statistics"),
    ("dif_protocol", "build_dif_code"),
    ("dif_protocol", "estimate_dif_errors"),
    ("dif_protocol", "estimate_inner_error"),
    ("dif_protocol", "typical_test"),
    ("dif_protocol", "hash_message"),
    ("dif_protocol", "_ml_decode"),
    ("dif_protocol", "blockize"),
    ("measures", "poisson_pmf_truncated"),
    ("harness", "validate_config"),
    ("harness", "write_outputs"),
)


def _count_candidates(counters, args, result):
    # construct_codebook draws one stream per candidate: spawn(seed, "codebook", k)
    if len(args) > 1 and args[1] == "codebook":
        counters["di_code.construct.candidates"] += 1


def _count_cells(counters, args, result):
    outputs, _intensity, n = args
    counters["di_code.statistic.cells"] += outputs.shape[0] * n


def _count_typical(counters, args, result):
    counters["dif_protocol.typical_true"] += bool(result)


# Counts taken at the same boundaries as the spans.
HOOKS = {
    "seeding.spawn": _count_candidates,
    "di_code._statistics": _count_cells,
    "dif_protocol.typical_test": _count_typical,
}


class Tracer:
    """Call counts, total and self time per traced function, plus counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list[float]] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
            if hook is not None:
                hook(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every ``dipc`` module attribute that holds a traced function."""
        if self._replaced:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dipc" or key.startswith("dipc."))]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"dipc.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def report(self) -> dict:
        """Plain-data snapshot: per function [calls, total s, self s], counters."""
        return {
            "functions": {name: [self.calls[name], self.total[name], self.self_time[name]]
                          for name in self.calls},
            "counters": dict(self.counters),
        }
