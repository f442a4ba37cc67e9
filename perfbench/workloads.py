"""The benchmark's workloads: what one pass runs and the gates its result must pass.

A pass is one complete user task, from input construction to a verified
result, in three parts that the runner times: setup, solve and check. The
heat1d workloads build the scheme, the problem and the `StepContext`, step
to t = 1 and gate the final state; the audit builds the two sixth-order
schemes, runs three order-condition checks and gates the failing sets.
Only the public sequential API is called.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar

import numpy as np

from exprk import (
    check_scheme,
    error_at,
    integrate,
    make_exprk6s15,
    make_exprk6s16,
    make_heat1d,
    precompute,
)
from exprk.problems import discrete_l2


@dataclass(frozen=True)
class Op:
    """One operation's result: a fingerprint of its output and failed gates."""

    fingerprint: bytes
    errors: tuple[str, ...] = ()


@dataclass
class Checked:
    """A pass's verified outcome: its operations, accuracy and layer facts."""

    ops: list[Op]
    accuracy: float
    facts: dict = field(default_factory=dict)


class NoTrace:
    """Tracer stand-in for untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()

    def wrap_problem(self, problem):
        return problem


NO_TRACE = NoTrace()


@dataclass
class Heat1d:
    """exprk6s16 on heat1d over [0, 1]; no random input, so the seed is unused.

    max_error bounds the discrete L2 error at t = 1. With reference_rtol
    set, the final state must also agree with a dense run at the same n to
    that relative L2 tolerance.
    """

    n: int
    h: Fraction
    max_error: float
    krylov: bool = False
    reference_rtol: float | None = None
    reference: np.ndarray | None = field(default=None, init=False, repr=False)
    ops_per_pass: ClassVar[int] = 1

    @property
    def probe(self) -> str:
        """Host-speed probe (see clock.py): Arnoldi on small n is Python-bound,
        the dense paths stream cached matrices through BLAS."""
        return "python" if self.krylov else "matvec"

    def prepare(self) -> None:
        """Untimed warm-up; computes the dense reference when one is needed."""
        if self.reference_rtol is not None:
            dense = replace(self, krylov=False, reference_rtol=None)
            self.reference = dense.solve(dense.setup()).state
        integrate(make_exprk6s16(), make_heat1d(16), 0.0, 1.0, float(self.h),
                  krylov=self.krylov)

    def setup(self, tracer=NO_TRACE):
        """Scheme, problem and StepContext, as a user builds them."""
        scheme = make_exprk6s16()
        problem = tracer.wrap_problem(make_heat1d(self.n))
        operator = problem.apply_A if self.krylov else problem.A
        with tracer.span("integrator.precompute"):
            ctx = precompute(scheme, operator, float(self.h), krylov=self.krylov)
        return scheme, problem, ctx

    def solve(self, prepared, tracer=NO_TRACE):
        scheme, problem, ctx = prepared
        with tracer.span("integrator.integrate"):
            return integrate(scheme, problem, 0.0, 1.0, float(self.h), ctx=ctx)

    def check(self, prepared, result, fault: bool) -> Checked:
        """Gates on the final state; fault moves it one ulp first."""
        _, problem, ctx = prepared
        state = result.state
        if fault:
            state = state.copy()
            state[0] = np.nextafter(state[0], np.inf)
        error = error_at(problem, state, 1.0)
        errors = []
        if not error <= self.max_error:
            errors.append(f"error {error!r} above {self.max_error!r}")
        if self.reference_rtol is not None:
            gap = (discrete_l2(state - self.reference, problem.dx)
                   / discrete_l2(self.reference, problem.dx))
            if not gap <= self.reference_rtol:
                errors.append(f"differs from the dense run by {gap!r} (relative)")
        return Checked([Op(state.tobytes(), tuple(errors))], error,
                       _plan_facts(ctx, self.n, result))


def _plan_facts(ctx, n: int, result) -> dict:
    """Cache size, and dense matvecs computed from the step plans."""
    facts = {"cache_entries": 0, "cache_bytes": 0, "matvecs": 0, "matvec_bytes": 0}
    if ctx.cache is not None:
        mats = list(ctx.cache.entries.values())
        per_step = sum(1 + len(p.rows) for p in ctx.stage_plans.values())
        per_step += 1 + len(ctx.final_plan.rows)
        matvecs = per_step * result.steps
        facts.update(cache_entries=len(mats), cache_bytes=sum(m.nbytes for m in mats),
                     matvecs=matvecs, matvec_bytes=matvecs * n * n * 8)
    return facts


# (scheme, mode, condition numbers that must fail)
AUDIT_CASES = (
    ("exprk6s16", "strong", frozenset()),
    ("exprk6s15", "strong", frozenset({17})),
    ("exprk6s15", "weak17", frozenset()),
)
AUDIT_CONDITIONS = 36


@dataclass
class Audit:
    """check_scheme at order 6 for AUDIT_CASES; base_seed is the workload seed."""

    base_seed: int
    seeds: int = 3
    n: int = 4
    ops_per_pass: ClassVar[int] = len(AUDIT_CASES)
    probe: ClassVar[str] = "python"

    def prepare(self) -> None:
        check_scheme(make_exprk6s16(), 3, seeds=1, n=self.n, base_seed=self.base_seed)

    def setup(self, tracer=NO_TRACE):
        return {"exprk6s16": make_exprk6s16(), "exprk6s15": make_exprk6s15()}

    def solve(self, schemes, tracer=NO_TRACE):
        reports = []
        for name, mode, _ in AUDIT_CASES:
            with tracer.span("conditions.check_scheme"):
                reports.append(check_scheme(schemes[name], 6, mode=mode, seeds=self.seeds,
                                            n=self.n, base_seed=self.base_seed))
        return reports

    def check(self, schemes, reports, fault: bool) -> Checked:
        """Gates on the failing sets; fault toggles condition 17 in the first case."""
        ops = []
        for k, ((name, mode, expected), report) in enumerate(zip(AUDIT_CASES, reports)):
            failing = {r.number for r in report.failing()}
            if fault and k == 0:
                failing ^= {17}
            ops.append(Op(np.array([r.residual for r in report.results]).tobytes(),
                          audit_errors(name, mode, expected, len(report.results), failing)))
        accuracy = max(r.residual for rep in reports for r in rep.results if r.passed)
        return Checked(ops, accuracy)


def audit_errors(name: str, mode: str, expected, count: int, failing) -> tuple[str, ...]:
    """Gate of one audit case: all 36 conditions checked, exactly `expected` fail."""
    errors = []
    if count != AUDIT_CONDITIONS:
        errors.append(f"{name} {mode}: {count} conditions, expected {AUDIT_CONDITIONS}")
    if set(failing) != set(expected):
        errors.append(f"{name} {mode}: failing {sorted(failing)}, expected {sorted(expected)}")
    return tuple(errors)


WORKLOADS = {
    "heat1d-setup": lambda seed: Heat1d(n=1600, h=Fraction(1, 8), max_error=1.25e-10),
    "heat1d-steps": lambda seed: Heat1d(n=400, h=Fraction(1, 512), max_error=1e-12),
    "conditions-audit": lambda seed: Audit(base_seed=seed),
    "heat1d-matrixfree": lambda seed: Heat1d(n=64, h=Fraction(1, 8), max_error=1.25e-10,
                                             krylov=True, reference_rtol=1e-9),
}
