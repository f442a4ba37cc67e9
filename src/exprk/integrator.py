"""Fixed-step time integration with grouped, independently evaluable stages.

One step from u at time t with step h reads

    U_i  = u + c_i h phi_1(c_i hA) F(t, u) + h sum_{j<i} a_ij(hA) D_j,
    u'   = u +     h phi_1(hA)     F(t, u) + h sum_i   b_i(hA)  D_i,

with D_j = g(t + c_j h, U_j) - g(t, u). Stages are evaluated group by
group; stages inside a group read only earlier groups' D values, so a
group's stage values are one combination, after which its g calls run in
stage order. A run is bitwise reproducible.

The dense path builds its phi cache once per (A, h) and then assembles
nothing per step. For symmetric A the cache holds a basis of eigenvectors
and length-n tables of phi_j on the eigenvalues, and precompute folds each
coefficient a_ij(z) = sum_m w_m phi_m(c_i z) into one table on the
eigenvalues. F goes into basis coordinates once, each group's increments
are one contraction of its stacked tables with the stacked D_j, and one
basis change brings the group back; the group's D_j go into the basis
with one more. That is 12 basis changes per exprk6s16 step: one for F, two
per group and one for the update. The cache's basis object makes them:
products with the eigenvector matrix Q, or for a phi.TridiagonalToeplitz A
from phi.SINE_FOLD_MIN_N up two products with halves of the sine matrix Q,
half the multiply-adds, and from phi.SINE_TRANSFORM_MIN_N up an
O(n log n) sine transform that stores no Q: a DST-I formed from one
complex FFT of length n+1.
For general A the cache holds dense phi matrices and no basis; precompute
folds each coefficient into one n x n matrix, and a group's increments are
one matrix-vector product of its folded matrices, laid side by side, with
the stacked D_j.
The matrix-free path evaluates each stage with a Krylov approximation of
the phi combination instead.

A step is six rounds for exprk6s16, five groups and the update, so the
fixed cost of a round counts as much as its arithmetic at small n. Each
group's round is: the combination and its basis change; u added in place;
a finiteness check; g once per stage, each row written into one block, and
g(t, u) subtracted in place; a second finiteness check; one basis change
scattered into D. Row gathers and scatters of D use index arrays built by
precompute, and a finiteness check reduces the block's mask once, scanning
rows only when that fails.

`step` is a module-level function that `integrate` looks up at each call,
and a step calls problem.f(t, u) once, problem.g(t, u) once more and g once
per stage. The benchmark's tracer relies on both: it patches `step` to
time each step and counts the g calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .phi import PhiCache, TridiagonalToeplitz, build_phi_cache, phi_combo_apply_krylov
from .problems import SemilinearProblem
from .tableaus import PhiPoly, Scheme

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
    """One stage (node c) or the final update (c = 1) as phi terms."""

    c: float
    # rows: ((m, ((j, w), ...)), ...) sorted by phi index m
    rows: tuple


@dataclass(frozen=True)
class _Group:
    """Stages combined together, one row each, or the final update as one row.

    `stages` numbers the rows as Scheme.rows does, the update as row s+1,
    and `index` holds the same numbers as an index array into the step's D
    block. The combination reads the rows `reads` of D, an index array built
    once, whose first entry is row 1: F, with coefficient c_i phi_1(c_i hA).
    On the dense path `tables` holds row r's coefficient of D[reads[k]], its
    phi polynomial folded into one entry: with a basis tables[r, k] is a
    table on the eigenvalues, shape (rows, k, n); without, tables[r, :, k]
    is an n x n matrix, shape (rows, n, k, n), so that each row's matrices
    lie side by side.
    """

    stages: tuple
    index: np.ndarray
    plans: tuple
    reads: np.ndarray
    tables: np.ndarray | None


def _compile_rows(polys: dict):
    """Group coefficient polynomials of one row/update by phi index."""
    by_m: dict[int, list] = {}
    for j in sorted(polys):
        for m, w in polys[j].terms:
            by_m.setdefault(m, []).append((j, float(w)))
    return tuple((m, tuple(by_m[m])) for m in sorted(by_m))


def _stack(cache: PhiCache, n: int, polys: list) -> np.ndarray:
    """The folded coefficients polys[r][k], laid out as _Group.tables.

    n x n matrices go straight into their side-by-side slots, so the group's
    matrices are never held twice; the small eigenvalue tables are stacked.
    """
    if cache.basis is not None:
        tables = np.array([[cache.coeff(poly) for poly in row] for row in polys])
    else:
        tables = np.empty((len(polys), n, len(polys[0]), n))
        for r, row in enumerate(polys):
            for q, poly in enumerate(row):
                tables[r, :, q] = cache.coeff(poly)
    tables.setflags(write=False)
    return tables


@dataclass
class StepContext:
    """Everything reusable across steps for one (scheme, operator, h).

    `A` is the record or matrix the context was built from, or None when
    only an operator action was given, whose size is then not known.
    """

    scheme: Scheme
    h: float
    cache: PhiCache | None
    apply_A: object
    groups: tuple
    update: _Group
    A: np.ndarray | None = None

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

    A is a TridiagonalToeplitz record, a dense matrix or, with krylov=True, any
    operator action; then no cache is built and stages use Krylov evaluations.
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

    def group(stages: tuple) -> _Group:
        nodes, polys = zip(*(scheme.rows[i] for i in stages))
        plans = tuple(_Plan(c=float(c), rows=_compile_rows(p)) for c, p in zip(nodes, polys))
        reads = (1,) + tuple(sorted({j for p in polys for j in p}))
        tables = None
        if cache is not None:
            tables = _stack(cache, np.shape(A)[0], [
                [PhiPoly.make(c, {1: c})] + [p.get(j, PhiPoly.make(c, {})) for j in reads[1:]]
                for c, p in zip(nodes, polys)
            ])
        return _Group(stages=stages, index=np.array(stages), plans=plans,
                      reads=np.array(reads), tables=tables)

    return StepContext(scheme=scheme, h=float(h), cache=cache, apply_A=apply_A,
                       groups=tuple(group(g) for g in scheme.groups),
                       update=group((scheme.s + 1,)), A=matrix)


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
    coordinates on the dense path; the result is in the original ones. On
    the dense path the whole group is one contraction of its folded
    coefficients (a product of tables with a basis, one matrix-vector
    product without) and one basis change; matrix-free, each row is one
    Krylov evaluation. The result is a new array, which `step` updates in place.
    """
    h = ctx.h
    if group.tables is not None:
        # the gathered rows of D are a temporary of the product alone: it is
        # freed before the basis change allocates its result
        if ctx.cache.basis is not None:
            coords = np.einsum("rkn,kn->rn", group.tables, D[group.reads])
        else:
            r, n = group.tables.shape[:2]
            coords = (group.tables.reshape(r * n, -1)
                      @ D[group.reads].reshape(-1)).reshape(r, n)
        coords *= h
        return ctx.cache.from_basis(coords)
    rows = []
    for plan in group.plans:
        h_eff = plan.c * h
        vs = _combo_vectors(h_eff, h, D[1], plan.rows, D)
        rows.append(phi_combo_apply_krylov(ctx.apply_A, h_eff, vs, KRYLOV_TOL))
    return np.stack(rows)


def _check_finite(block: np.ndarray, stages: tuple) -> None:
    """Raise DivergenceError naming the first stage whose row is not finite.

    The rows are scanned only when the whole block fails. The test is not
    whether block.sum() is finite: a finite block's sum can overflow, and
    numpy warns when it does.
    """
    finite = np.isfinite(block)
    if not finite.all():
        raise DivergenceError(stage=stages[int(np.argmin(finite.all(axis=1)))])


def step(ctx: StepContext, problem: SemilinearProblem, t: float,
         u: np.ndarray) -> np.ndarray:
    """One step of the scheme from (t, u); groups run in scheme order.

    Calls problem.f(t, u) once and problem.g(t, u) once, then, per group,
    forms the stage values from one combination and calls g once per stage
    of the group, in stage order. Neither u nor any array g returns is
    written to. Raises DivergenceError naming the first stage, or the final
    update, whose values are not finite. `integrate` looks this function up
    at each step, so a wrapper patched over it, as the benchmark's tracer
    does, times every step.
    """
    u = np.asarray(u, dtype=float)
    D = np.empty((ctx.scheme.s + 1, u.size))
    D[1] = ctx.to_basis(problem.f(t, u))
    gn = problem.g(t, u)
    for group in ctx.groups:
        U = _increments(ctx, group, D)
        U += u
        _check_finite(U, group.stages)
        G = np.empty_like(U)
        for r, plan in enumerate(group.plans):
            G[r] = problem.g(t + plan.c * ctx.h, U[r])
        G -= gn
        _check_finite(G, group.stages)
        D[group.index] = ctx.to_basis(G)
    u_next = _increments(ctx, ctx.update, D)
    u_next += u
    _check_finite(u_next, (None,))
    return u_next[0]


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
    elif not (problem.A is ctx.A or (ctx.A == problem.A if isinstance(ctx.A, TridiagonalToeplitz)
                                     else np.array_equal(problem.A, ctx.A))):
        raise ValueError("step context was built for another matrix than problem.A")


@dataclass
class TrajectoryResult:
    """Final state plus timing of a fixed-step run."""

    state: np.ndarray
    steps: int
    mode: str  # always "sequential"; kept for callers that construct one with it
    step_seconds: list[float]


def _step_count(t0: float, t_end: float, h: float) -> int:
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"integration span must be finite, got [{t0}, {t_end}]")
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
