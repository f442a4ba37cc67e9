"""Numerical verification of the stiff order conditions.

Each condition tree compiles to a residual that must vanish identically in
the matrix argument Z (standing for the scaled stiff operator):

  * quadrature trees of order q:
        sum_i b_i(Z) c_i^(q-1)/(q-1)!  -  phi_q(Z)  =  0,
  * nested trees [t_1, ..., t_m]:
        sum_i b_i(Z) G( S_i(t_1), ..., S_i(t_m) )  =  0,

where G is an arbitrary m-linear map and the stage vectors S_i follow the
recursion below. Because the identities are multilinear in G and entire in
Z, checking them at a random Z of unit norm with independent random tensors
per interior node exposes any violation (up to roundoff); residuals of
satisfied conditions sit at ~1e-13 while violated ones are O(1e-4) or larger.

check_scheme evaluates each condition once over all of its random models
(one model alone goes unstacked): Z, w and every node's map are stacked on
a leading seed axis, each product is a matmul per seed over a trailing
vector axis, and each seed's norm is taken over its own slice, so every
seed's residual is bitwise the one it has alone. Inside one residual call
each tree is evaluated once per (node, stage): a node's map at its
children's stage-j vectors is formed once and read by every parent stage
i > j. The arithmetic and its order are the recursion's, so the residuals
are those of the plain recursion bit for bit.

"strong" mode draws Z at random for every condition; "weak17" additionally
evaluates the order-6 quadrature condition at Z = 0, which is the regime the
15-stage scheme is built for.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phi import PhiCache, phi_all_dense
from .tableaus import PhiPoly, Scheme
from .trees import Tree, enumerate_trees

__all__ = [
    "Condition",
    "condition_table",
    "RandomModel",
    "PhiAtMatrix",
    "psi",
    "residual",
    "ConditionResult",
    "ConditionReport",
    "check_scheme",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SEED",
]

DEFAULT_TOLERANCE = 1e-10
DEFAULT_SEED = 20240601


@dataclass(frozen=True)
class Condition:
    """One stiff order condition: a numbered tree with its kind."""

    number: int
    tree: Tree
    order: int
    kind: str  # "b" for quadrature trees, "nested" otherwise

    def __post_init__(self):
        assert self.kind in ("b", "nested")


def condition_table(p: int) -> list[Condition]:
    """The numbered conditions for order p, from the canonical tree table."""
    out = []
    for num, t in enumerate(enumerate_trees(p), start=1):
        kind = "b" if t.is_quadrature() else "nested"
        out.append(Condition(number=num, tree=t, order=t.order, kind=kind))
    return out


class PhiAtMatrix(PhiCache):
    """The dense PhiCache of phi_j(cZ) at a fixed matrix Z (h = 1), filled on use.

    Z is one n x n matrix or a stack of them, shape (S, n, n), one per
    random model. Everything returned then carries Z's leading seed axis,
    and each seed's slice is bitwise what an evaluator at that seed's Z
    alone returns. One evaluator serves one model or one stack, so
    everything it returns is memoized and read-only:

      * node(c), and so entry(c, j): phi_all_dense runs once per (seed, node c),
        on first use;
      * coeff(poly): PhiCache.coeff, formed once per polynomial
        (key: id(poly));
      * psi(q, i, scheme, self): each stage defect is formed once
        (key: id(scheme), q, i).

    An id key is cheap where hashing a PhiPoly or Scheme would hash all of
    its Fractions. Each entry keeps the keyed object beside the matrix, so
    its id cannot be reused while the entry lives, and a hit must be that
    very object.
    """

    def __init__(self, Z: np.ndarray, kmax: int):
        super().__init__(kmax=kmax)
        self.Z = np.asarray(Z, dtype=float)
        self._coeffs: dict[int, tuple[PhiPoly, np.ndarray]] = {}
        self._psi: dict[tuple[int, int, int], tuple[Scheme, np.ndarray]] = {}

    def node(self, c) -> np.ndarray:
        stack = self.stacks.get(c)
        if stack is None:
            n = self.Z.shape[-1]
            phis = np.stack([phi_all_dense(float(c) * Z, self.kmax)
                             for Z in self.Z.reshape(-1, n, n)], axis=1)
            stack = phis.reshape(self.kmax + 1, *self.Z.shape)
            stack.setflags(write=False)
            self.stacks[Fraction(c)] = stack
        return stack

    def coeff(self, poly: PhiPoly) -> np.ndarray:
        hit = self._coeffs.get(id(poly))
        if hit is not None and hit[0] is poly:
            return hit[1]
        out = super().coeff(poly)
        self._coeffs[id(poly)] = (poly, out)
        return out


def psi(q: int, i: int, scheme: Scheme, ev: PhiAtMatrix) -> np.ndarray:
    """Defect sum_k a_ik(Z) c_k^(q-1)/(q-1)! - c_i^q phi_q(c_i Z) of row i.

    Row i of scheme.rows: a stage defect for i <= s, and for i = s+1 (node
    1, weights b) the quadrature defect sum_k b_k(Z) c_k^(q-1)/(q-1)! -
    phi_q(Z). Of ev's shape, one defect per seed of a stacked Z. Memoized
    on ev per (id(scheme), q, i), read-only; see PhiAtMatrix.
    """
    key = (id(scheme), q, i)
    hit = ev._psi.get(key)
    if hit is not None and hit[0] is scheme:
        return hit[1]
    ci, row = scheme.rows[i]
    acc = np.zeros(ev.Z.shape)
    for k, poly in row.items():
        acc += ev.coeff(poly) * (float(scheme.c[k]) ** (q - 1) / math.factorial(q - 1))
    out = acc - float(ci) ** q * ev.entry(ci, q)
    out.setflags(write=False)
    ev._psi[key] = (scheme, out)
    return out


class RandomModel:
    """Random instance data for condition checks: Z, w and per-node tensors.

    Z is dense with unit spectral norm, w a standard normal vector. Each
    interior node of a condition tree receives its own (l+1)-way tensor as
    the arbitrary l-linear map; tensors are drawn deterministically from
    (seed, condition number, node path), so repeated evaluations of the same
    condition see identical maps. Instances are immutable after construction.
    The seed is an integer or a tuple or list of integers; anything else
    raises TypeError.
    """

    def __init__(self, seed, n: int = 4):
        self.seed = seed
        self.n = n
        rng = np.random.default_rng(self._key())
        Z = rng.standard_normal((n, n))
        Z /= np.linalg.norm(Z, 2)
        Z.setflags(write=False)
        self.Z = Z
        w = rng.standard_normal(n)
        w.setflags(write=False)
        self.w = w

    def _key(self, *extra):
        base = self.seed if isinstance(self.seed, (tuple, list)) else (self.seed,)
        # operator.index, not int: a float seed such as 1.7 is refused, not truncated
        return tuple(operator.index(x) for x in (*base, *extra))

    def maps_for(self, cond: Condition) -> dict[tuple, np.ndarray]:
        """Tensors for every interior node of the condition's tree."""
        rng = np.random.default_rng(self._key(7919, cond.number))
        maps: dict[tuple, np.ndarray] = {}

        def walk(t: Tree, path: tuple):
            if t.kind != "node":
                return
            maps[path] = rng.standard_normal((self.n,) * (len(t.children) + 1))
            for idx, child in enumerate(t.children):
                walk(child, path + (idx,))

        walk(cond.tree, ())
        return maps


def _apply_map(tensor: np.ndarray, args: list[np.ndarray]) -> np.ndarray:
    """The tensor's map at columns, each broadcast over seeds and further indices."""
    out = tensor
    for v in reversed(args[1:]):
        col = v.reshape(v.shape[:-2] + (1,) * (out.ndim - v.ndim) + v.shape[-2:])
        out = (out @ col)[..., 0]
    return out @ args[0]


class _StageVectors:
    """The stage vectors of one condition's subtrees, within one residual call.

    scheme, ev, maps and w are fixed for one condition, and the node paths
    index the subtrees of its tree. `mapped(tree, path, j)`, the node's map
    applied to its children's stage-j vectors, is formed once per (path, j);
    for a quadrature node, whose arguments are all w, j is None and it is
    formed once per path. A subtree's stage-j vector is read only by its
    parent's mapped(j), so it is formed once as well, where the plain
    recursion formed it again for every parent stage reading stage j. The
    arithmetic and its order are the recursion's, so the values are bitwise
    the same. With a stacked ev, w and maps carry its leading seed axis, and
    so does every vector returned. Inside, vectors are (..., n, 1) columns,
    so that every product is a plain matmul batched over the seeds.
    """

    def __init__(self, scheme: Scheme, ev: PhiAtMatrix, maps: dict, w: np.ndarray):
        self.scheme = scheme
        self.ev = ev
        self.maps = maps
        self.w = w[..., None]
        self._mapped: dict[tuple, np.ndarray] = {}
        self._prefs: dict[tuple, float] = {}

    def vector(self, tree: Tree, path: tuple, i: int) -> np.ndarray:
        """Stage-i vector attached to the subtree at path in the nested conditions.

        White leaf: c_i * w. Quadrature subtree with l leaves: the stage
        defect of index l+1 applied to the node's map at (w, ..., w). Nested
        subtree: the symmetry prefactor times sum_j a_ij(Z) applied to the
        node's map at its children's stage-j vectors. Of w's shape.
        """
        return self._column(tree, path, i)[..., 0]

    def _column(self, tree: Tree, path: tuple, i: int) -> np.ndarray:
        if tree.kind == "white":
            return float(self.scheme.c[i]) * self.w
        if tree.is_quadrature():
            return (psi(len(tree.children) + 1, i, self.scheme, self.ev)
                    @ self.mapped(tree, path, None))
        return self._pref(tree, path) * self.row_sum(tree, path, i)

    def row_sum(self, tree: Tree, path: tuple, i: int) -> np.ndarray:
        """sum_j coefficient(Z) @ mapped(tree, path, j) over row i of scheme.rows.

        Over a stage row the coefficients are the a_ij; over row s+1 they are
        the b_j, and at the root that sum is the nested residual. A column.
        """
        acc = np.zeros(self.w.shape)
        for j, poly in self.scheme.rows[i][1].items():
            acc += self.ev.coeff(poly) @ self.mapped(tree, path, j)
        return acc

    def mapped(self, tree: Tree, path: tuple, j: int | None) -> np.ndarray:
        """The map of the node at path applied to its children's stage-j vectors."""
        key = (path, j)
        out = self._mapped.get(key)
        if out is None:
            if j is None:
                args = [self.w] * len(tree.children)
            else:
                args = [self._column(child, path + (idx,), j)
                        for idx, child in enumerate(tree.children)]
            out = self._mapped[key] = _apply_map(self.maps[path], args)
        return out

    def _pref(self, tree: Tree, path: tuple) -> float:
        pref = self._prefs.get(path)
        if pref is None:
            pref = self._prefs[path] = float(
                Fraction(math.prod(c.symmetry for c in tree.children), tree.symmetry))
        return pref


def residual(cond: Condition, scheme: Scheme, model: RandomModel | list[RandomModel],
             mode: str = "strong", ev: PhiAtMatrix | None = None,
             ev0: PhiAtMatrix | None = None) -> float:
    """Largest residual norm of one condition over the models' random instances.

    model is one RandomModel or a list of them. A list is evaluated in one
    pass, stacked on a leading seed axis (see PhiAtMatrix): ev and ev0 are
    then at the stacked Z and at its zeros, and the result is bitwise the
    largest of the per-model residuals. In "weak17" mode the order-6
    quadrature condition (number 17) is evaluated at Z = 0 instead of the
    random Z. Raises ValueError, before any work, for an empty list, an ev
    whose Z is not the model's, an ev0 whose Z is not the model's shape of
    zeros, or either with kmax below max(scheme.max_phi_index, cond.order).
    """
    if mode not in ("strong", "weak17"):
        raise ValueError(f"unknown mode {mode!r}")
    single = isinstance(model, RandomModel)
    models = [model] if single else model
    if not models:
        raise ValueError("residual needs at least one model")
    stacked = operator.itemgetter(0) if single else np.array  # one array per model
    Z = stacked([m.Z for m in models])
    kmax = max(scheme.max_phi_index, cond.order)
    if ev is None:
        ev = PhiAtMatrix(Z, kmax)
    elif ev.Z is not Z and not np.array_equal(ev.Z, Z):
        raise ValueError("ev is evaluated at a Z other than the model's")
    if ev0 is not None and (ev0.Z.shape != Z.shape or np.any(ev0.Z)):
        raise ValueError("ev0 must be evaluated at a zero matrix of the model's shape")
    for name, evaluator in (("ev", ev), ("ev0", ev0)):
        if evaluator is not None and evaluator.kmax < kmax:
            raise ValueError(f"{name}.kmax is {evaluator.kmax}, condition "
                             f"{cond.number} of {scheme.name} needs {kmax}")
    # quadrature residuals are reported in moment form, (q-1)! times the
    # update row's defect psi(q, s+1), so that defects of different orders
    # sit on one scale; otherwise the 1/q! decay of phi_q would shrink a
    # genuinely violated order-6 condition to within a few decades of the
    # pass tolerance
    if cond.kind == "b":
        if mode == "weak17" and cond.order == 6:
            ev = ev0 if ev0 is not None else PhiAtMatrix(np.zeros_like(Z), kmax)
        x, scale = psi(cond.order, scheme.s + 1, scheme, ev), math.factorial(cond.order - 1)
    else:
        per_model = [m.maps_for(cond) for m in models]
        maps = {path: stacked([mp[path] for mp in per_model]) for path in per_model[0]}
        stages = _StageVectors(scheme, ev, maps, stacked([m.w for m in models]))
        x, scale = stages.row_sum(cond.tree, (), scheme.s + 1), 1
    # each seed's norm is one dot of its own entries, as np.linalg.norm takes
    # it; sqrt is monotone, so the root of the largest square is the largest root
    flat = x.reshape(*Z.shape[:-2], 1, -1)
    return math.sqrt((flat @ flat.swapaxes(-1, -2)).max()) * scale


@dataclass(frozen=True)
class ConditionResult:
    number: int
    order: int
    kind: str
    tree: str
    residual: float
    passed: bool


@dataclass
class ConditionReport:
    """Per-condition residuals of a scheme check, serializable to CSV."""

    scheme: str
    mode: str
    tolerance: float
    seed: object
    seeds: int
    results: list[ConditionResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failing(self) -> list[ConditionResult]:
        return [r for r in self.results if not r.passed]

    CSV_FIELDS = ("number", "order", "kind", "tree", "residual", "pass")

    def to_csv(self) -> str:
        return _csv(self.CSV_FIELDS, ([r.number, r.order, r.kind, r.tree,
                                       repr(r.residual), str(r.passed).lower()]
                                      for r in self.results))


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def check_scheme(scheme: Scheme, p: int, mode: str = "strong", seeds: int = 3,
                 n: int = 4, tol: float = DEFAULT_TOLERANCE,
                 base_seed=DEFAULT_SEED) -> ConditionReport:
    """Evaluate every condition of order <= p over several random models.

    Each condition is evaluated once, by one residual call over all the
    models stacked on a seed axis, with one evaluator at the stacked Z and
    one at its zeros; with seeds=1 the lone model and its evaluators carry
    no seed axis. Reports the maximum residual per condition across the
    seeds; a condition passes when that maximum stays within tol. Raises
    ValueError for p outside 2..6 and, before any work, for seeds < 1 or
    n < 1, which would check nothing, and for a tol that is not finite and
    >= 0, under which every condition would pass or every one fail.
    """
    if not 2 <= p <= 6:
        raise ValueError(f"condition checks support orders 2..6, got {p}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if n < 1:
        raise ValueError(f"model dimension n must be >= 1, got {n}")
    conds = condition_table(p)
    kmax = max(scheme.max_phi_index, p)
    models = [RandomModel((base_seed, rep), n=n) for rep in range(seeds)]
    # a lone model goes unstacked: a seed axis of length 1 shares nothing
    # and costs each product its broadcast
    if seeds == 1:
        model, Z = models[0], models[0].Z
    else:
        model, Z = models, np.stack([m.Z for m in models])
    ev, ev0 = PhiAtMatrix(Z, kmax), PhiAtMatrix(np.zeros_like(Z), kmax)
    worst = {c.number: residual(c, scheme, model, mode=mode, ev=ev, ev0=ev0)
             for c in conds}
    results = [
        ConditionResult(
            number=c.number, order=c.order, kind=c.kind, tree=c.tree.bracket(),
            residual=worst[c.number], passed=worst[c.number] <= tol,
        )
        for c in conds
    ]
    return ConditionReport(scheme=scheme.name, mode=mode, tolerance=tol,
                           seed=base_seed, seeds=seeds, results=results)
