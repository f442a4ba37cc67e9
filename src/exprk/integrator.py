"""Fixed-step time integration with grouped, independently evaluable stages.

One step from u at time t with step h reads

    U_i  = u + c_i h phi_1(c_i hA) F(t, u) + h sum_{j<i} a_ij(hA) D_j,
    u'   = u +     h phi_1(hA)     F(t, u) + h sum_i   b_i(hA)  D_i,

with D_j = g(t + c_j h, U_j) - g(t, u). Stages are evaluated group by
group; stages inside a group read only earlier groups' D values, so a
group's stage values are one combination, after which its g calls run in
stage order. A run is bitwise reproducible.

The dense path builds its phi cache once per (A, h) and then assembles
nothing per step. For symmetric A the cache holds an eigenbasis and
length-n tables of phi_j on the eigenvalues, and precompute folds each
coefficient a_ij(z) = sum_m w_m phi_m(c_i z) into one table on the
eigenvalues. F goes into basis coordinates once, each group's increments
are one contraction of its stacked tables with the stacked D_j, and one
basis change brings the group back; the group's D_j go into the basis
with one more. That is 12 basis changes per exprk6s16 step: one for F, two
per group and one for the update. Each is a product with the n x n
eigenvector matrix Q or, for a tridiagonal Toeplitz A with n at or above
phi.SINE_TRANSFORM_MIN_N, an O(n log n) sine transform that stores no Q.
For general A the cache holds dense phi matrices, the basis is the
identity and each stage sums matrix-vector products, one per phi index.
The matrix-free path evaluates each stage with a Krylov approximation of
the phi combination instead.
"""

from __future__ import annotations

import time
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

# Relative tolerance of every matrix-free phi combination.
KRYLOV_TOL = 1e-10


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


@dataclass(frozen=True)
class _Group:
    """Stages combined together, one row each, or the final update as one row.

    `stages` numbers the rows (empty for the update). The combination reads
    the rows `reads` of the step's D block, whose row 1 holds F with
    coefficient c_i phi_1(c_i hA). With an eigenbasis, tables[r, k] is row
    r's coefficient of D[reads[k]] on the eigenvalues, its phi polynomial
    folded into one table.
    """

    stages: tuple
    plans: tuple
    reads: tuple
    tables: np.ndarray | None


def _compile_rows(polys: dict):
    """Group coefficient polynomials of one row/update by phi index."""
    by_m: dict[int, list] = {}
    for j in sorted(polys):
        for m, w in polys[j].terms:
            by_m.setdefault(m, []).append((j, float(w)))
    return tuple((m, tuple(by_m[m])) for m in sorted(by_m))


def _fold(cache: PhiCache, c: Fraction, terms) -> np.ndarray:
    """sum_m w_m phi_m(c h lam) over (m, w) in terms: one coefficient as one table."""
    table = np.zeros_like(cache.entry(c, 1))
    for m, w in terms:
        table += float(w) * cache.entry(c, m)
    return table


@dataclass
class StepContext:
    """Everything reusable across steps for one (scheme, operator, h).

    `A` is the matrix the context was built from, or None when only an
    operator action was given, whose size is then not known.
    """

    scheme: Scheme
    h: float
    cache: PhiCache | None
    apply_A: object
    groups: tuple
    update: _Group
    A: np.ndarray | None = None

    @property
    def dense(self) -> bool:
        return self.cache is not None

    @property
    def stage_plans(self) -> dict:
        """Each stage's plan by stage number; the phi terms its row combines."""
        return {i: p for g in self.groups for i, p in zip(g.stages, g.plans)}

    @property
    def final_plan(self) -> _Plan:
        """The final update's plan."""
        return self.update.plans[0]

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """Coordinates the stage combinations work in: the cache's basis, if any."""
        return v if self.cache is None else self.cache.to_basis(v)


def precompute(scheme: Scheme, A, h: float, *, krylov: bool = False) -> StepContext:
    """Build the phi cache (dense path) and the per-group evaluation plans.

    A may be a dense matrix or, with krylov=True, any operator action; in the
    latter case no cache is built and stages use Krylov evaluations.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    matrix_free = krylov or callable(A)
    cache = None
    if not matrix_free:
        kmax = max(scheme.max_phi_index, 1)
        cache = build_phi_cache(A, h, scheme.nodes_used, kmax)
    matrix = None if callable(A) else A
    apply_A = A if matrix is None else (lambda v: A @ v)

    def plan(c: Fraction, polys: dict) -> _Plan:
        rows = _compile_rows(polys)
        if cache is None:
            return _Plan(c=float(c), phi1=None, rows=rows, phim={})
        return _Plan(c=float(c), phi1=cache.entry(c, 1), rows=rows,
                     phim={m: cache.entry(c, m) for m, _ in rows})

    def group(stages: tuple, nodes: list, polys: list) -> _Group:
        plans = tuple(plan(c, p) for c, p in zip(nodes, polys))
        reads = (1,) + tuple(sorted({j for p in polys for j in p}))
        tables = None
        if cache is not None and cache.eigenbasis:
            tables = np.array([
                [_fold(cache, c, [(1, c)])]
                + [_fold(cache, c, p[j].terms if j in p else ()) for j in reads[1:]]
                for c, p in zip(nodes, polys)
            ])
            tables.setflags(write=False)
        return _Group(stages=stages, plans=plans, reads=reads, tables=tables)

    groups = tuple(
        group(g, [scheme.c[i] for i in g],
              [{j: scheme.a[(i, j)] for j in range(2, i) if (i, j) in scheme.a} for i in g])
        for g in scheme.groups
    )
    update = group((), [Fraction(1)], [scheme.b])
    return StepContext(scheme=scheme, h=float(h), cache=cache, apply_A=apply_A,
                       groups=groups, update=update, A=matrix)


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


def _increments(ctx: StepContext, group: _Group, D: np.ndarray) -> np.ndarray:
    """h (c_i phi_1(c_i hA) F + sum_j a_ij(hA) D_j), one row per row of the group.

    D[1] holds F and D[j] stage j's increment, in the cache's basis
    coordinates on the dense path; the result is in the original ones. With
    an eigenbasis the whole group is one contraction of its folded tables
    and one basis change; otherwise each row sums its phi terms.
    """
    h = ctx.h
    if group.tables is not None:
        coords = np.einsum("rkn,kn->rn", group.tables, D[list(group.reads)])
        return ctx.cache.from_basis(h * coords)
    F = D[1]
    rows = []
    for plan in group.plans:
        if ctx.dense:
            acc = (plan.c * h) * ctx.cache.apply(plan.phi1, F)
            for m, terms in plan.rows:
                v = np.zeros_like(F)
                for j, w in terms:
                    v += w * D[j]
                acc += h * ctx.cache.apply(plan.phim[m], v)
        else:
            h_eff = plan.c * h
            vs = _combo_vectors(h_eff, h, F, plan.rows, D)
            acc = phi_combo_apply_krylov(ctx.apply_A, h_eff, vs, KRYLOV_TOL)
        rows.append(acc)
    return np.stack(rows)


def _check_finite(block: np.ndarray, stages: tuple) -> None:
    """Raise DivergenceError naming the first stage whose row is not finite."""
    bad = ~np.isfinite(block).all(axis=1)
    if bad.any():
        raise DivergenceError(stage=stages[int(np.argmax(bad))])


def step(ctx: StepContext, problem: SemilinearProblem, t: float,
         u: np.ndarray) -> np.ndarray:
    """One step of the scheme from (t, u); groups run in scheme order.

    Each group's stage values come from one combination, then g is called
    once per stage of the group, in stage order.
    """
    u = np.asarray(u, dtype=float)
    D = np.empty((ctx.scheme.s + 1, u.size))
    D[1] = ctx.to_basis(problem.f(t, u))
    gn = problem.g(t, u)
    for group in ctx.groups:
        U = u + _increments(ctx, group, D)
        _check_finite(U, group.stages)
        G = np.stack([problem.g(t + plan.c * ctx.h, Ur)
                      for plan, Ur in zip(group.plans, U)]) - gn
        _check_finite(G, group.stages)
        D[list(group.stages)] = ctx.to_basis(G)
    u_next = u + _increments(ctx, ctx.update, D)[0]
    if not np.all(np.isfinite(u_next)):
        raise DivergenceError(stage=None)
    return u_next


def _check_context(ctx: StepContext, scheme: Scheme, problem: SemilinearProblem,
                   h: float) -> None:
    """Raise ValueError if a reused context was built for another run."""
    if ctx.scheme != scheme:
        raise ValueError(f"step context was built for scheme {ctx.scheme.name}, "
                         f"not {scheme.name}")
    if ctx.h != float(h):
        raise ValueError(f"step context was built for step {ctx.h}, not {h}")
    if ctx.A is not None and np.shape(ctx.A)[0] != np.size(problem.u0):
        raise ValueError(f"step context was built for an operator of size "
                         f"{np.shape(ctx.A)[0]}, not {np.size(problem.u0)}")
    # the identity tests first: a context reused for its own problem costs nothing
    if ctx.A is None:
        if ctx.apply_A is not problem.apply_A:
            raise ValueError("step context was built from another operator action; "
                             "build it from this problem's apply_A")
    elif not (problem.A is ctx.A or np.array_equal(problem.A, ctx.A)):
        raise ValueError("step context was built for another matrix than problem.A")


@dataclass
class TrajectoryResult:
    """Final state plus timing of a fixed-step run."""

    state: np.ndarray
    steps: int
    mode: str  # always "sequential"; kept for callers that construct one with it
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
              h: float, *, ctx: StepContext | None = None,
              krylov: bool = False) -> TrajectoryResult:
    """Fixed-step integration of the problem over [t0, t_end].

    A reused ctx must have been built for this scheme and step size, and from
    a matrix equal to problem.A or, matrix-free, from problem.apply_A itself
    (ValueError otherwise).
    """
    n_steps = _step_count(t0, t_end, h)
    if ctx is not None:
        _check_context(ctx, scheme, problem, h)
    else:
        operator = problem.A if (problem.A is not None and not krylov) else problem.apply_A
        ctx = precompute(scheme, operator, h, krylov=krylov)
    u = np.array(problem.u0, dtype=float)
    times: list[float] = []
    t = t0
    for k in range(n_steps):
        tic = time.perf_counter()
        try:
            u = step(ctx, problem, t, u)
        except DivergenceError as err:
            raise DivergenceError(stage=err.stage, step_index=k, t=t, h=h) from None
        times.append(time.perf_counter() - tic)
        t = t0 + (k + 1) * h
    return TrajectoryResult(state=u, steps=n_steps, mode="sequential", step_seconds=times)
