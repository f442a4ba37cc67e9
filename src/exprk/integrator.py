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
products with the eigenvector matrix Q from `eigh`, or what an operator
record's `eigen()` picks (phi.TridiagonalToeplitz.eigen: the sine matrix Q,
its halves, or an O(n log n) sine transform that stores no Q).
For general A the cache holds dense phi matrices and no basis; precompute
folds each coefficient into one n x n matrix, and a group's increments are
one matrix-vector product of its folded matrices, laid side by side, with
the stacked D_j.
The matrix-free path, krylov=True, builds no cache: each row, a stage or
the update, is one shift-and-invert Krylov approximation of its phi
combination (phi_combo_apply_krylov) on W @ D[reads], W the coefficients
the dense path folds, as phi weights. problem.A must offer a
`shifted_solver`, as a TridiagonalToeplitz record does: a step factors
I - sigma A once, sigma = h/4, and every row runs on that one solve, with
12 to 16 basis vectors per row on heat1d from n=64 to n=20000.

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
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .phi import PhiCache, build_phi_cache, phi_combo_apply_krylov
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
# A matrix-free step factors I - sigma A once at sigma = _SHIFT * h, and
# every row's shift-and-invert basis uses that one solve. At h/4 the rows
# (nodes c from 1/5 to 1) run with gamma = sigma/(c h) from 1/4 to 5/4, and
# heat1d's rows stop at 12 to 16 basis vectors from n=64 to n=20000.
_SHIFT = 0.25


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
class _Group:
    """Stages combined together, one row each, or the final update as one row.

    `stages` numbers the rows as Scheme.rows does, the update as row s+1,
    and `index` holds the same numbers as an index array into the step's D
    block; `nodes` holds each row's node c as a float. The combination reads
    the rows `reads` of D, an index array built once, whose first entry is
    row 1: F, with coefficient c_i phi_1(c_i hA).
    On the dense path `tables` holds row r's coefficient of D[reads[k]], its
    phi polynomial folded into one entry: with a basis tables[r, k] is a
    table on the eigenvalues, shape (rows, k, n); without, tables[r, :, k]
    is an n x n matrix, shape (rows, n, k, n), so that each row's matrices
    lie side by side. Matrix-free, `weights` holds per row the read-only
    W[m, k]: the weight of phi_m in that coefficient times h/(c h)^m, so
    that W @ D[reads] lists phi_combo_apply_krylov's vectors at step c h.
    Each path leaves the other path's field None.
    """

    stages: tuple
    index: np.ndarray
    nodes: tuple
    reads: np.ndarray
    tables: np.ndarray | None
    weights: tuple | None


def _stack(cache: PhiCache, n: int, polys: list) -> np.ndarray:
    """The folded coefficients polys[r][k], laid out as _Group.tables.

    Each is folded straight into its slot, so the group's tables are never
    held twice.
    """
    rows, cols = len(polys), len(polys[0])
    if cache.basis is not None:
        tables = np.empty((rows, cols, n))
        slots = tables
    else:
        tables = np.empty((rows, n, cols, n))
        slots = tables.swapaxes(1, 2)  # slots[r, k] is tables[r, :, k]
    for r, row in enumerate(polys):
        for k, poly in enumerate(row):
            slots[r, k] = cache.coeff(poly)
    tables.setflags(write=False)
    return tables


def _weights(c: float, h: float, row: dict, reads: tuple) -> np.ndarray:
    """Row {j: a_ij} at node c, F's c phi_1 first, as a _Group.weights entry.
    No PhiPoly per cell, as this is most of the matrix-free set-up; a cell's
    last term has its highest phi index (PhiPoly.terms ascend)."""
    h_eff = c * h
    cells = [(k, row[j].float_terms) for k, j in enumerate(reads) if j in row]
    W = np.zeros((1 + max([1] + [terms[-1][0] for _, terms in cells]), len(reads)))
    W[1, 0] = 1.0  # F's c phi_1 times h/(c h)
    for k, terms in cells:
        for m, w in terms:
            W[m, k] = w * (h / h_eff**m)
    W.setflags(write=False)
    return W


@dataclass
class StepContext:
    """Everything reusable across steps for one (scheme, operator, h).

    `A` is what precompute was given: a record or a matrix, or on the
    matrix-free path (no cache) possibly an operator action.
    """

    scheme: Scheme
    h: float
    cache: PhiCache | None
    A: object
    groups: tuple
    update: _Group

    @property
    def stage_plans(self) -> dict:
        """Stage i's row of scheme.rows by i, as a view whose `rows` holds the
        phi indices it uses. This and `final_plan` exist only for the
        benchmark's matvec count, and go with it (ROADMAP item 1b)."""
        return {i: SimpleNamespace(rows={m for p in row.values() for m, _ in p.terms})
                for i, (_, row) in self.scheme.rows.items() if i <= self.scheme.s}

    @property
    def final_plan(self) -> SimpleNamespace:
        """The update's row, s+1, viewed as `stage_plans` views a stage's."""
        return SimpleNamespace(rows={m for p in self.scheme.b.values() for m, _ in p.terms})

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """Coordinates the stage combinations work in: the cache's basis, if any."""
        return v if self.cache is None else self.cache.to_basis(v)


def precompute(scheme: Scheme, A, h: float, *, krylov: bool = False) -> StepContext:
    """Build the phi cache (dense path) and each group's grid of coefficients
    by read columns: folded as _Group.tables, or matrix-free as _Group.weights.

    A is an operator record with `eigen()`, such as TridiagonalToeplitz, or
    a dense matrix. krylov=True picks the matrix-free path, where A may also
    be the operator action itself: no cache is built, and each step applies
    problem.apply_A and takes its shifted solve from problem.A (see `step`).
    An action without krylov=True is a TypeError, raised before any build.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    cache = None
    if not krylov:
        if callable(A):
            raise TypeError("the dense path needs a record or a matrix, not an operator "
                            "action; pass krylov=True for the matrix-free path")
        kmax = max(scheme.max_phi_index, 1)
        cache = build_phi_cache(A, h, scheme.nodes_used, kmax)

    def group(stages: tuple) -> _Group:
        nodes, polys = zip(*(scheme.rows[i] for i in stages))
        reads = (1,) + tuple(sorted({j for p in polys for j in p}))
        floats = tuple(map(float, nodes))
        tables = weights = None
        if cache is not None:
            tables = _stack(cache, np.shape(A)[0], [
                [PhiPoly.make(c, {1: c})] + [p[j] if j in p else PhiPoly.make(c, {})
                                             for j in reads[1:]]
                for c, p in zip(nodes, polys)
            ])
        else:
            weights = tuple(_weights(c, float(h), p, reads) for c, p in zip(floats, polys))
        return _Group(stages=stages, index=np.array(stages), nodes=floats,
                      reads=np.array(reads), tables=tables, weights=weights)

    return StepContext(scheme=scheme, h=float(h), cache=cache, A=A,
                       groups=tuple(group(g) for g in scheme.groups),
                       update=group((scheme.s + 1,)))


def _increments(ctx: StepContext, group: _Group, D: np.ndarray, apply_A, solve) -> np.ndarray:
    """h (c_i phi_1(c_i hA) F + sum_j a_ij(hA) D_j), one row per row of the group.

    D[1] holds F and D[j] stage j's increment, in the cache's basis
    coordinates on the dense path; the result is in the original ones. On
    the dense path the whole group is one contraction of its folded
    coefficients (a product of tables with a basis, one matrix-vector
    product without) and one basis change; matrix-free, each row is one
    shift-and-invert Krylov action on W @ D[reads], on `apply_A` and `solve`.
    The result is a new array, which `step` updates in place.
    """
    if group.tables is not None:
        # the gathered rows of D are a temporary of the product alone: it is
        # freed before the basis change allocates its result
        if ctx.cache.basis is not None:
            coords = np.einsum("rkn,kn->rn", group.tables, D[group.reads])
        else:
            r, n = group.tables.shape[:2]
            coords = (group.tables.reshape(r * n, -1)
                      @ D[group.reads].reshape(-1)).reshape(r, n)
        coords *= ctx.h
        return ctx.cache.from_basis(coords)
    read = D[group.reads]
    return np.stack([phi_combo_apply_krylov(apply_A, c * ctx.h, list(W @ read), KRYLOV_TOL,
                                            solve=solve)
                     for c, W in zip(group.nodes, group.weights)])


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

    On the matrix-free path it first asks problem.A's `shifted_solver` for
    the solve with I - (h/4)A, once, and passes it with problem.apply_A to
    every row's Krylov call; where problem.A has none, it raises ValueError
    before any. Calls problem.f(t, u) once and problem.g(t, u) once, then,
    per group, forms the stage values from one combination of the rows
    `reads` of D, on either path by the grid precompute laid out, and calls
    g once per stage, at its node, in stage order. Neither u nor any array
    g returns is written to. Raises DivergenceError naming the first stage,
    or the final update, whose values are not finite. `integrate` looks
    this function up at each step, so a wrapper patched over it, as the
    benchmark's tracer does, times every step.
    """
    u = np.asarray(u, dtype=float)
    solve = None
    if ctx.cache is None:
        shifted_solver = getattr(problem.A, "shifted_solver", None)
        if shifted_solver is None:
            raise ValueError("the matrix-free path needs a problem.A with a shifted_solver, "
                             f"got {type(problem.A).__name__}")
        solve = shifted_solver(_SHIFT * ctx.h)
    D = np.empty((ctx.scheme.s + 1, u.size))
    D[1] = ctx.to_basis(problem.f(t, u))
    gn = problem.g(t, u)
    for group in ctx.groups:
        U = _increments(ctx, group, D, problem.apply_A, solve)
        U += u
        _check_finite(U, group.stages)
        G = np.empty_like(U)
        for r, c in enumerate(group.nodes):
            G[r] = problem.g(t + c * ctx.h, U[r])
        G -= gn
        _check_finite(G, group.stages)
        D[group.index] = ctx.to_basis(G)
    u_next = _increments(ctx, ctx.update, D, problem.apply_A, solve)
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
    if callable(ctx.A):  # an action, whose size is not known
        if ctx.A is not problem.apply_A:
            raise ValueError("step context was built from another operator action; "
                             "build it from this problem's apply_A")
    elif np.shape(ctx.A)[0] != np.size(problem.u0):
        raise ValueError(f"step context was built for an operator of size "
                         f"{np.shape(ctx.A)[0]}, not {np.size(problem.u0)}")
    # the identity test first: a context reused for its own problem costs nothing;
    # a matrix on either side is compared as an array, two records by their ==
    elif problem.A is not ctx.A and not (
            np.array_equal(problem.A, ctx.A) if isinstance(ctx.A, np.ndarray)
            or isinstance(problem.A, np.ndarray) else ctx.A == problem.A):
        raise ValueError("step context was built for another matrix than problem.A")


@dataclass
class TrajectoryResult:
    """Final state and step count of a fixed-step run.

    `mode` and `step_seconds` are never set by `integrate`: they remain, with
    defaults, only because the benchmark's tests construct a result with
    them, and go when that benchmark changes.
    """

    state: np.ndarray
    steps: int
    mode: str = "sequential"
    step_seconds: list[float] = field(default_factory=list)


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
              krylov: bool | None = None) -> TrajectoryResult:
    """Fixed-step integration of the problem over [t0, t_end].

    A reused ctx must have been built for this scheme and step size, and from
    a matrix equal to problem.A or, matrix-free, from problem.apply_A itself
    (ValueError otherwise). krylov=True takes the matrix-free path, which
    needs a problem.A with a shifted_solver (see `step`). krylov=None takes
    ctx's path, or the dense one without a ctx; a krylov that contradicts
    ctx's path is a ValueError, raised before any step.
    """
    n_steps = _step_count(t0, t_end, h)
    if ctx is not None:
        _check_context(ctx, scheme, problem, h)
        if krylov is not None and krylov != (ctx.cache is None):
            raise ValueError(f"krylov={krylov}, but the step context was built with "
                             f"krylov={ctx.cache is None}")
    else:
        operator = problem.apply_A if krylov else problem.A
        ctx = precompute(scheme, operator, h, krylov=bool(krylov))
    u = np.array(problem.u0, dtype=float)
    t = t0
    for k in range(n_steps):
        try:
            u = step(ctx, problem, t, u)
        except DivergenceError as err:
            raise DivergenceError(stage=err.stage, step_index=k, t=t, h=h) from None
        t = t0 + (k + 1) * h
    return TrajectoryResult(state=u, steps=n_steps)
