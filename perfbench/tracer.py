"""Outside-in tracing: spans around the public functions of each exprk layer.

Nothing inside exprk is edited. Problem callables are wrapped with
`dataclasses.replace`, and the module attributes that other layers look up
at call time are swapped for timing wrappers while `installed()` is active.
Spans stay in memory as lists [trace_id, span_id, parent_id, name, start,
end], in CPU seconds (see clock.py), and are written out once, when the
benchmark ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib

from clock import CLOCK

# (module, attribute, span name). The attribute is looked up in the module
# that calls it, so wrapping it there catches every call the layer makes.
PATCHES = (
    ("exprk.integrator", "step", "integrator.step"),
    ("exprk.integrator", "build_phi_cache", "phi.build_phi_cache"),
    ("exprk.integrator", "phi_combo_apply_krylov", "phi.krylov"),
    ("exprk.phi", "arnoldi", "phi.arnoldi"),
    ("exprk.conditions", "residual", "conditions.residual"),
    ("exprk.conditions", "phi_all_dense", "phi.phi_all_dense"),
)


class Tracer:
    """Spans and Krylov records of one run's traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self.krylov: list[tuple] = []  # (trace_id, m, dense_fallback)
        self.trace_id = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [self.trace_id, len(self.spans), stack[-1] if stack else None, name,
               CLOCK(), 0.0]
        self.spans.append(rec)
        stack.append(rec[1])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = CLOCK()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap_problem(self, problem):
        return dataclasses.replace(problem, g=self.wrap("problems.g", problem.g),
                                   apply_A=self.wrap("problems.apply_A", problem.apply_A))

    def _krylov(self, fn):
        def with_info(*args, return_info=False, **kwargs):
            result, info = fn(*args, return_info=True, **kwargs)
            self.krylov.append((self.trace_id, info.m, info.dense_fallback))
            return (result, info) if return_info else result

        return with_info

    @contextlib.contextmanager
    def installed(self, trace_id):
        """Swap the PATCHES attributes for traced wrappers; restore on exit."""
        self.trace_id = trace_id
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if name == "phi.krylov":
                    fn = self._krylov(fn)
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.trace_id = None

