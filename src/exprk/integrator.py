"""Fixed-step time integration with grouped, independently evaluable stages.

One step from u at time t with step h reads

    U_i  = u + c_i h phi_1(c_i hA) F(t, u) + h sum_{j<i} a_ij(hA) D_j,
    u'   = u +     h phi_1(hA)     F(t, u) + h sum_i   b_i(hA)  D_i,

with D_j = g(t + c_j h, U_j) - g(t, u). Stages are evaluated group by
group; stages inside a group read only earlier groups' D values, so they can
run concurrently. Concurrent and sequential execution perform identical
arithmetic on identical operands in identical order per stage, which makes
the two modes bitwise reproducible - the benchmark harness treats any
mismatch as a correctness bug.

The dense path builds its phi cache once per (A, h) and then assembles
nothing per step. For symmetric A the cache holds the eigenbasis Q and
length-n tables of phi_j on the eigenvalues: F and each D_j enter basis
coordinates once, every phi coefficient is an elementwise product there, and
each stage and the update take one product with Q to come back (32 products
with one n x n matrix per exprk6s16 step). For general A the cache holds
dense phi matrices, the basis is the identity and each coefficient is a
matrix-vector product. The matrix-free path evaluates each stage with a
Krylov approximation of the phi combination instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phi import PhiCache, build_phi_cache, phi_combo_apply_krylov
from .problems import SemilinearProblem
from .tableaus import Scheme

__all__ = [
    "DivergenceError",
    "StepContext",
    "TrajectoryResult",
    "precompute",
    "step",
    "integrate",
]


class DivergenceError(RuntimeError):
    """A stage or update produced non-finite values."""

    def __init__(self, stage: int | None = None, step_index: int | None = None,
                 t: float | None = None, h: float | None = None):
        self.stage = stage
        self.step_index = step_index
        self.t = t
        self.h = h
        where = f"stage {stage}" if stage is not None else "final update"
        at = "" if step_index is None else f" at step {step_index} (t={t}, h={h})"
        super().__init__(f"non-finite values in {where}{at}")


@dataclass(frozen=True)
class _Plan:
    """One stage (node c) or the final update (c = 1) as cache entries."""

    c: float
    phi1: np.ndarray | None
    # rows: ((m, ((j, w), ...)), ...) sorted by phi index m
    rows: tuple
    phim: dict


def _compile_rows(polys: dict):
    """Group coefficient polynomials of one row/update by phi index."""
    by_m: dict[int, list] = {}
    for j in sorted(polys):
        for m, w in polys[j].terms:
            by_m.setdefault(m, []).append((j, float(w)))
    return tuple((m, tuple(by_m[m])) for m in sorted(by_m))


@dataclass
class StepContext:
    """Everything reusable across steps for one (scheme, operator, h)."""

    scheme: Scheme
    h: float
    cache: PhiCache | None
    apply_A: object
    stage_plans: dict
    final_plan: _Plan
    krylov_tol: float = 1e-10

    @property
    def dense(self) -> bool:
        return self.cache is not None

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """Coordinates the stage combinations work in: the cache's basis, if any."""
        return v if self.cache is None else self.cache.to_basis(v)


def precompute(scheme: Scheme, A, h: float, *, krylov: bool = False,
               krylov_tol: float = 1e-10, workers: int | None = None) -> StepContext:
    """Build the phi cache (dense path) and the per-stage evaluation plans.

    A may be a dense matrix or, with krylov=True, any operator action; in the
    latter case no cache is built and stages use Krylov evaluations.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    matrix_free = krylov or callable(A)
    cache = None
    if not matrix_free:
        kmax = max(scheme.max_phi_index, 1)
        cache = build_phi_cache(A, h, scheme.nodes_used, kmax, workers=workers)
    apply_A = A if callable(A) else (lambda v: A @ v)

    def plan(c: Fraction, polys: dict) -> _Plan:
        rows = _compile_rows(polys)
        if cache is None:
            return _Plan(c=float(c), phi1=None, rows=rows, phim={})
        return _Plan(c=float(c), phi1=cache.entry(c, 1), rows=rows,
                     phim={m: cache.entry(c, m) for m, _ in rows})

    stage_plans = {
        i: plan(scheme.c[i], {j: scheme.a[(i, j)] for j in range(2, i) if (i, j) in scheme.a})
        for i in range(2, scheme.s + 1)
    }
    final_plan = plan(Fraction(1), scheme.b)
    return StepContext(scheme=scheme, h=float(h), cache=cache, apply_A=apply_A,
                       stage_plans=stage_plans, final_plan=final_plan,
                       krylov_tol=krylov_tol)


def _combo_vectors(h_eff: float, h: float, F: np.ndarray, rows, D) -> list:
    """Vectors for the Krylov combo equivalent to the cached-matrix sum."""
    p = max((m for m, _ in rows), default=1)
    vs = [np.zeros_like(F), F] + [np.zeros_like(F) for _ in range(p - 1)]
    for m, terms in rows:
        v = np.zeros_like(F)
        for j, w in terms:
            v += w * D[j]
        vs[m] = (h / h_eff**m) * v
    return vs


def _increment(ctx: StepContext, plan: _Plan, F: np.ndarray, D) -> np.ndarray:
    """c h phi_1(c hA) F + h sum_j a_j(hA) D_j for one stage or the update.

    On the dense path F and the D_j are in the cache's basis coordinates and
    the result is returned in the original ones.
    """
    h = ctx.h
    if not ctx.dense:
        h_eff = plan.c * h
        vs = _combo_vectors(h_eff, h, F, plan.rows, D)
        return phi_combo_apply_krylov(ctx.apply_A, h_eff, vs, ctx.krylov_tol)
    cache = ctx.cache
    acc = (plan.c * h) * cache.apply(plan.phi1, F)
    for m, terms in plan.rows:
        v = np.zeros_like(F)
        for j, w in terms:
            v += w * D[j]
        acc += h * cache.apply(plan.phim[m], v)
    return cache.from_basis(acc)


def _eval_stage(ctx: StepContext, problem: SemilinearProblem, t, u, F, gn, D, i):
    """Stage i's D_i, in the coordinates of F and D."""
    plan = ctx.stage_plans[i]
    U = u + _increment(ctx, plan, F, D)
    if not np.all(np.isfinite(U)):
        raise DivergenceError(stage=i)
    Di = problem.g(t + plan.c * ctx.h, U) - gn
    if not np.all(np.isfinite(Di)):
        raise DivergenceError(stage=i)
    return ctx.to_basis(Di)


def step(ctx: StepContext, problem: SemilinearProblem, t: float, u: np.ndarray,
         executor: ThreadPoolExecutor | None = None) -> np.ndarray:
    """One step of the scheme from (t, u); groups run in scheme order.

    With an executor the stages of each group are evaluated concurrently;
    results are identical bit for bit either way.
    """
    u = np.asarray(u, dtype=float)
    F = ctx.to_basis(problem.f(t, u))
    gn = problem.g(t, u)
    D: list = [None] * (ctx.scheme.s + 1)
    for group in ctx.scheme.groups:
        if executor is not None and len(group) > 1:
            futures = [
                executor.submit(_eval_stage, ctx, problem, t, u, F, gn, D, i)
                for i in group
            ]
            outcomes = [f.result() for f in futures]
        else:
            outcomes = [_eval_stage(ctx, problem, t, u, F, gn, D, i) for i in group]
        for i, Di in zip(group, outcomes):
            D[i] = Di
    u_next = u + _increment(ctx, ctx.final_plan, F, D)
    if not np.all(np.isfinite(u_next)):
        raise DivergenceError(stage=None)
    return u_next


@dataclass
class TrajectoryResult:
    """Final state plus timing of a fixed-step run."""

    state: np.ndarray
    steps: int
    mode: str
    step_seconds: list[float]

    @property
    def total_seconds(self) -> float:
        return sum(self.step_seconds)


def _step_count(t0: float, t_end: float, h: float) -> int:
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    span = t_end - t0
    if span <= 0:
        raise ValueError(f"integration span must be positive, got [{t0}, {t_end}]")
    steps = span / h
    n = round(steps)
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, abs(steps)):
        raise ValueError(f"step {h} does not divide the interval [{t0}, {t_end}]")
    return n


def integrate(scheme: Scheme, problem: SemilinearProblem, t0: float, t_end: float,
              h: float, mode: str = "sequential", ctx: StepContext | None = None,
              krylov: bool = False, krylov_tol: float = 1e-10) -> TrajectoryResult:
    """Fixed-step integration of the problem over [t0, t_end].

    mode "concurrent" evaluates each stage group with a thread pool and is
    guaranteed to reproduce the sequential trajectory exactly.
    """
    if mode not in ("sequential", "concurrent"):
        raise ValueError(f"unknown execution mode {mode!r}")
    n_steps = _step_count(t0, t_end, h)
    if ctx is None:
        operator = problem.A if (problem.A is not None and not krylov) else problem.apply_A
        ctx = precompute(scheme, operator, h, krylov=krylov, krylov_tol=krylov_tol)
    u = np.array(problem.u0, dtype=float)
    times: list[float] = []
    executor = None
    try:
        if mode == "concurrent":
            width = max((len(g) for g in scheme.groups), default=1)
            executor = ThreadPoolExecutor(max_workers=max(width, 1))
        t = t0
        for k in range(n_steps):
            tic = time.perf_counter()
            try:
                u = step(ctx, problem, t, u, executor=executor)
            except DivergenceError as err:
                raise DivergenceError(stage=err.stage, step_index=k, t=t, h=h) from None
            times.append(time.perf_counter() - tic)
            t = t0 + (k + 1) * h
    finally:
        if executor is not None:
            executor.shutdown()
    return TrajectoryResult(state=u, steps=n_steps, mode=mode, step_seconds=times)
