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

"strong" mode draws Z at random for every condition; "weak17" additionally
evaluates the order-6 quadrature condition at Z = 0, which is the regime the
15-stage scheme is built for.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phi import PhiCache, phi_all_dense
from .tableaus import PhiPoly, Scheme
from .trees import Tree, TreeTable, enumerate_trees

__all__ = [
    "Condition",
    "condition_table",
    "RandomModel",
    "PhiAtMatrix",
    "psi",
    "psi_b",
    "elementary_differential",
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
    table: TreeTable = enumerate_trees(p)
    out = []
    for num, t in enumerate(table, start=1):
        kind = "b" if t.is_quadrature() else "nested"
        out.append(Condition(number=num, tree=t, order=t.order, kind=kind))
    return out


class PhiAtMatrix(PhiCache):
    """The dense PhiCache of phi_j(cZ) at a fixed matrix Z (h = 1), filled on use.

    One evaluator serves one random model, so everything it returns is
    memoized and read-only:

      * entry(c, j): phi_all_dense runs once per node c, on first use;
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
        super().__init__(h=1.0, kmax=kmax)
        self.Z = np.asarray(Z, dtype=float)
        self._coeffs: dict[int, tuple[PhiPoly, np.ndarray]] = {}
        self._psi: dict[tuple[int, int, int], tuple[Scheme, np.ndarray]] = {}

    def entry(self, c, j: int) -> np.ndarray:
        # look up first: a hit then hashes the Fraction node once, not twice
        try:
            return self.entries[(c, j)]
        except KeyError:
            if (c, 0) not in self.entries:
                for m, mat in enumerate(phi_all_dense(float(c) * self.Z, self.kmax)):
                    mat.setflags(write=False)
                    self.entries[(Fraction(c), m)] = mat
            return super().entry(c, j)

    def coeff(self, poly: PhiPoly) -> np.ndarray:
        hit = self._coeffs.get(id(poly))
        if hit is not None and hit[0] is poly:
            return hit[1]
        out = super().coeff(poly)
        self._coeffs[id(poly)] = (poly, out)
        return out


def psi(q: int, i: int, scheme: Scheme, ev: PhiAtMatrix) -> np.ndarray:
    """Stage defect sum_k a_ik(Z) c_k^(q-1)/(q-1)! - c_i^q phi_q(c_i Z).

    Memoized on ev per (id(scheme), q, i), read-only; see PhiAtMatrix.
    """
    key = (id(scheme), q, i)
    hit = ev._psi.get(key)
    if hit is not None and hit[0] is scheme:
        return hit[1]
    n = ev.Z.shape[0]
    acc = np.zeros((n, n))
    for k in range(2, i):
        poly = scheme.a.get((i, k))
        if poly is not None:
            acc += ev.coeff(poly) * (float(scheme.c[k]) ** (q - 1) / math.factorial(q - 1))
    out = acc - float(scheme.c[i]) ** q * ev.entry(scheme.c[i], q)
    out.setflags(write=False)
    ev._psi[key] = (scheme, out)
    return out


def psi_b(q: int, scheme: Scheme, ev: PhiAtMatrix) -> np.ndarray:
    """Quadrature defect sum_i b_i(Z) c_i^(q-1)/(q-1)! - phi_q(Z)."""
    n = ev.Z.shape[0]
    acc = np.zeros((n, n))
    for i, poly in scheme.b.items():
        acc += ev.coeff(poly) * (float(scheme.c[i]) ** (q - 1) / math.factorial(q - 1))
    return acc - ev.entry(Fraction(1), q)


class RandomModel:
    """Random instance data for condition checks: Z, w and per-node tensors.

    Z is dense with unit spectral norm, w a standard normal vector. Each
    interior node of a condition tree receives its own (l+1)-way tensor as
    the arbitrary l-linear map; tensors are drawn deterministically from
    (seed, condition number, node path), so repeated evaluations of the same
    condition see identical maps. Instances are immutable after construction.
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
        return tuple(int(x) for x in base) + tuple(int(x) for x in extra)

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
    out = tensor
    for v in reversed(args):
        out = out @ v
    return out


def elementary_differential(tree: Tree, i: int, scheme: Scheme, ev: PhiAtMatrix,
                            maps: dict, w: np.ndarray, path: tuple = (),
                            sigma_prefactor: bool = True) -> np.ndarray:
    """Stage-i vector attached to a child tree in the nested conditions.

    White leaf: c_i * w. Quadrature child with l leaves: the stage defect of
    index l+1 applied to the node's map at (w, ..., w). Nested child: the
    symmetry prefactor times sum_j a_ij(Z) applied to the node's map at the
    recursively evaluated grandchildren.
    """
    if tree.kind == "white":
        return float(scheme.c[i]) * w
    tensor = maps[path]
    if tree.is_quadrature():
        ell = len(tree.children)
        vec = _apply_map(tensor, [w] * ell)
        return psi(ell + 1, i, scheme, ev) @ vec
    # nested child
    pref = 1.0
    if sigma_prefactor:
        pref = float(
            Fraction(math.prod(c.symmetry for c in tree.children), tree.symmetry)
        )
    n = ev.Z.shape[0]
    acc = np.zeros(n)
    for j in range(2, i):
        poly = scheme.a.get((i, j))
        if poly is None:
            continue
        args = [
            elementary_differential(child, j, scheme, ev, maps, w,
                                    path + (idx,), sigma_prefactor)
            for idx, child in enumerate(tree.children)
        ]
        acc += ev.coeff(poly) @ _apply_map(tensor, args)
    return pref * acc


def residual(cond: Condition, scheme: Scheme, model: RandomModel,
             mode: str = "strong", ev: PhiAtMatrix | None = None,
             ev0: PhiAtMatrix | None = None,
             sigma_prefactor: bool = True) -> float:
    """Residual norm of one condition under the model's random instance.

    In "weak17" mode the order-6 quadrature condition (number 17) is
    evaluated at Z = 0 instead of the random Z.
    """
    if mode not in ("strong", "weak17"):
        raise ValueError(f"unknown mode {mode!r}")
    kmax = max(scheme.max_phi_index, cond.order)
    if ev is None:
        ev = PhiAtMatrix(model.Z, kmax)
    # quadrature residuals are reported in moment form, (q-1)! * psi_b, so
    # that defects of different orders sit on one scale; otherwise the 1/q!
    # decay of phi_q would shrink a genuinely violated order-6 condition to
    # within a few decades of the pass tolerance
    if mode == "weak17" and cond.kind == "b" and cond.order == 6:
        if ev0 is None:
            ev0 = PhiAtMatrix(np.zeros_like(model.Z), kmax)
        return float(np.linalg.norm(psi_b(cond.order, scheme, ev0))) * math.factorial(cond.order - 1)
    if cond.kind == "b":
        return float(np.linalg.norm(psi_b(cond.order, scheme, ev))) * math.factorial(cond.order - 1)
    maps = model.maps_for(cond)
    tensor = maps[()]
    n = model.n
    acc = np.zeros(n)
    for i, poly in scheme.b.items():
        args = [
            elementary_differential(child, i, scheme, ev, maps, model.w,
                                    (idx,), sigma_prefactor)
            for idx, child in enumerate(cond.tree.children)
        ]
        acc += ev.coeff(poly) @ _apply_map(tensor, args)
    return float(np.linalg.norm(acc))


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_FIELDS)
        for r in self.results:
            writer.writerow([r.number, r.order, r.kind, r.tree,
                             repr(r.residual), str(r.passed).lower()])
        return buf.getvalue()

    @staticmethod
    def rows_from_csv(text: str) -> list[ConditionResult]:
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != ConditionReport.CSV_FIELDS:
            raise ValueError(f"unexpected header {header}")
        out = []
        for row in reader:
            out.append(ConditionResult(
                number=int(row[0]), order=int(row[1]), kind=row[2], tree=row[3],
                residual=float(row[4]), passed=row[5] == "true",
            ))
        return out


def check_scheme(scheme: Scheme, p: int, mode: str = "strong", seeds: int = 3,
                 n: int = 4, tol: float = DEFAULT_TOLERANCE,
                 base_seed=DEFAULT_SEED) -> ConditionReport:
    """Evaluate every condition of order <= p over several random models.

    Reports the maximum residual per condition across the seeds; a condition
    passes when that maximum stays within tol. Raises ValueError for p > 6
    and, before any work, for seeds < 1 or n < 1, which would check nothing.
    """
    if p > 6:
        raise ValueError("condition checks are provided up to order 6")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if n < 1:
        raise ValueError(f"model dimension n must be >= 1, got {n}")
    conds = condition_table(p)
    kmax = max(scheme.max_phi_index, p)
    worst = {c.number: 0.0 for c in conds}
    for rep in range(seeds):
        model = RandomModel((base_seed, rep), n=n)
        ev = PhiAtMatrix(model.Z, kmax)
        ev0 = PhiAtMatrix(np.zeros_like(model.Z), kmax)
        for cond in conds:
            r = residual(cond, scheme, model, mode=mode, ev=ev, ev0=ev0)
            worst[cond.number] = max(worst[cond.number], r)
    results = [
        ConditionResult(
            number=c.number, order=c.order, kind=c.kind, tree=c.tree.bracket(),
            residual=worst[c.number], passed=worst[c.number] <= tol,
        )
        for c in conds
    ]
    return ConditionReport(scheme=scheme.name, mode=mode, tolerance=tol,
                           seed=base_seed, seeds=seeds, results=results)
