"""Scheme definitions: coefficients as exact rational weights on phi functions.

Every coefficient of the integrators here is z -> sum_j w_j phi_j(c z) for a
node c and rational weights w_j (PhiPoly). A scheme is a table of rows:
row i = 2..s is stage i at node c_i with {j: a_ij}, row s+1 the update at
node 1 with {j: b_j}. The two sixth-order schemes are built block by block:
each block of parallel stages, and the update after the last one, gets its
rows from a small moment system over the previous block's nodes,

    sum_col  w[j][col] * c_col^(q-1)  =  (q-1)! * delta_{qj},

whose unique solution is read off a Lagrange-type basis polynomial
x * prod_{m != col} (x - c_m) / (c_col * prod (c_col - c_m)). For the
update this makes the quadrature conditions hold for every matrix argument.
All of this is done in exact rational arithmetic; floating error enters only
when phi matrices are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import factorial

from .phi import phi_scalar

__all__ = [
    "PhiPoly",
    "Scheme",
    "block_weights",
    "make_exprk6s15",
    "make_exprk6s16",
    "make_exponential_euler",
    "make_expk2",
    "scheme_by_name",
    "SCHEME_NAMES",
]


@dataclass(frozen=True)
class PhiPoly:
    """z -> sum_j w_j phi_j(c z) with rational node c and weights w_j (j >= 1)."""

    c: Fraction
    terms: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def make(c, weights: dict) -> "PhiPoly":
        c = Fraction(c)
        items = tuple(sorted((int(j), Fraction(w)) for j, w in weights.items() if w != 0))
        for j, _ in items:
            if j < 1:
                raise ValueError("phi indices in coefficients start at 1")
        return PhiPoly(c=c, terms=items)

    @property
    def weights(self) -> dict[int, Fraction]:
        return dict(self.terms)

    @property
    def max_index(self) -> int:
        return max((j for j, _ in self.terms), default=0)

    def at_zero(self) -> Fraction:
        """Exact value at z = 0, using phi_j(0) = 1/j!."""
        return sum((w / factorial(j) for j, w in self.terms), Fraction(0))

    def eval_scalar(self, z: float) -> float:
        return float(sum(float(w) * phi_scalar(j, float(self.c) * z) for j, w in self.terms))


def block_weights(nodes: list[Fraction]) -> dict[tuple[int, int], Fraction]:
    """Solve the moment system over a node block, exactly.

    Returns w[(j, col)] for j = 2..len(nodes)+1 such that
    sum_col w[(j, col)] * nodes[col]^(q-1) = (q-1)! * delta_{qj}.
    Requires the nodes to be distinct and nonzero (denominators).
    """
    nodes = [Fraction(c) for c in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"block nodes must be distinct, got {nodes}")
    if any(c == 0 for c in nodes):
        raise ValueError("block nodes must be nonzero")
    out: dict[tuple[int, int], Fraction] = {}
    for col, cc in enumerate(nodes):
        others = [c for k, c in enumerate(nodes) if k != col]
        # coefficients (ascending) of x * prod (x - c_m)
        poly = [Fraction(0), Fraction(1)]
        for cm in others:
            nxt = [Fraction(0)] * (len(poly) + 1)
            for d, a in enumerate(poly):
                nxt[d + 1] += a
                nxt[d] -= cm * a
            poly = nxt
        den = cc
        for cm in others:
            den *= cc - cm
        for j in range(2, len(nodes) + 2):
            out[(j, col)] = factorial(j - 1) * poly[j - 1] / den
    return out


@dataclass(frozen=True)
class Scheme:
    """Nodes, stage coefficients and weights of an exponential integrator.

    Stages are numbered 2..s (the first stage is the step's base point).
    `a[(i, j)]` weights stage j's nonlinear increment inside stage i,
    `b[i]` weights it in the final update; absent entries are zero.
    `groups` partitions {2..s} into blocks of mutually independent stages.
    `rows` reads a and b as one table: row i = 2..s is (c_i, {j: a_ij}), row
    s+1 is (1, b). Each coefficient must be a PhiPoly at its row's node.
    """

    name: str
    s: int
    c: dict[int, Fraction]
    a: dict[tuple[int, int], PhiPoly]
    b: dict[int, PhiPoly]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        stages = set(range(2, self.s + 1))
        listed = [i for g in self.groups for i in g]
        if sorted(listed) != sorted(stages):
            raise ValueError(f"{self.name}: groups must partition stages 2..{self.s}")
        if set(self.c) != stages:
            raise ValueError(f"{self.name}: nodes c must be given for stages 2..{self.s}")
        rank = {i: gi for gi, g in enumerate(self.groups) for i in g}
        for (i, j) in self.a:
            if not (2 <= j < i <= self.s):
                raise ValueError(f"{self.name}: coefficient a[{i},{j}] is not strictly lower")
            if rank[j] >= rank[i]:
                raise ValueError(
                    f"{self.name}: stage {i} reads stage {j} of a non-earlier group"
                )
        if set(self.b) - stages:
            raise ValueError(f"{self.name}: weights b{sorted(set(self.b) - stages)} "
                             f"are not on stages 2..{self.s}")
        for i, (c, row) in self.rows.items():
            for j, poly in row.items():
                if poly.c != c:
                    raise ValueError(f"{self.name}: coefficient {j} of row {i} is at "
                                     f"node {poly.c}, not its row's node {c}")

    @cached_property
    def rows(self) -> dict[int, tuple[Fraction, dict[int, PhiPoly]]]:
        """Row i = 2..s+1 as (node, {j: coefficient}): a_ij by ascending j, then (1, b)."""
        out = {i: (self.c[i], {j: self.a[(i, j)] for j in range(2, i) if (i, j) in self.a})
               for i in range(2, self.s + 1)}
        out[self.s + 1] = (Fraction(1), dict(self.b))
        return out

    @property
    def nodes_used(self) -> set[Fraction]:
        """Every node value any phi evaluation needs, including 1 for the update."""
        return {c for c, _ in self.rows.values()}

    @cached_property
    def max_phi_index(self) -> int:
        # at least 1: the structural phi_1 terms
        return max([1] + [p.max_index for _, row in self.rows.values() for p in row.values()])


def _stage_rows(rows: list[int], cols: list[int],
                c: dict[int, Fraction]) -> dict[tuple[int, int], PhiPoly]:
    """Rows of coefficients making the stage defects vanish.

    For each row i the returned a[(i, col)] are phi polynomials at node c_i
    with weights c_i^j * w[j][col], j = 2..len(cols)+1, where w solves the
    moment system over the column nodes.
    """
    w = block_weights([c[j] for j in cols])
    out = {}
    for i in rows:
        ci = c[i]
        for k, col in enumerate(cols):
            out[(i, col)] = PhiPoly.make(
                ci, {j: ci**j * w[(j, k)] for j in range(2, len(cols) + 2)}
            )
    return out


def _parallel_stages(name: str, c: dict[int, Fraction],
                     groups: tuple[tuple[int, ...], ...]) -> Scheme:
    """The scheme whose groups after the first, and then the update (row s+1
    at node 1), take their rows from _stage_rows over the group before.
    """
    s = len(c) + 1
    coeffs = {}
    for prev, group in zip(groups, groups[1:] + ((s + 1,),)):
        coeffs.update(_stage_rows(list(group), list(prev), {**c, s + 1: Fraction(1)}))
    a = {(i, j): poly for (i, j), poly in coeffs.items() if i <= s}
    b = {j: poly for (i, j), poly in coeffs.items() if i == s + 1}
    return Scheme(name=name, s=s, c=c, a=a, b=b, groups=groups)


def make_exprk6s15() -> Scheme:
    """15-stage sixth-order scheme (final quadrature condition holds at 0)."""
    half, third, fifth, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 4)
    c = {
        2: half, 3: half, 4: third, 5: half, 6: fifth, 7: quarter,
        8: Fraction(18, 25), 9: third, 10: Fraction(3, 10), 11: Fraction(1, 6),
        12: Fraction(90, 103), 13: third, 14: Fraction(3, 10), 15: fifth,
    }
    scheme = _parallel_stages("exprk6s15", c,
                              ((2,), (3, 4), (5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15)))
    # the nodes of the final block must satisfy the order-6 quadrature
    # condition at zero; this pins down why c12 = 90/103
    target = sum(poly.at_zero() * c[i] ** 5 for i, poly in scheme.b.items())
    if target != Fraction(1, 6):
        raise AssertionError(f"final-block node constraint violated: {target} != 1/6")
    return scheme


def make_exprk6s16() -> Scheme:
    """16-stage sixth-order scheme satisfying every condition for any matrix."""
    half, third, fifth, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 4)
    c = {
        2: half, 3: half, 4: third, 5: half, 6: fifth, 7: quarter,
        8: half, 9: fifth, 10: quarter, 11: third,
        12: half, 13: fifth, 14: quarter, 15: third, 16: Fraction(1),
    }
    return _parallel_stages("exprk6s16", c,
                            ((2,), (3, 4), (5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15, 16)))


def make_exponential_euler() -> Scheme:
    """Order-1 baseline: u_{n+1} = u_n + h phi_1(hA) F(t_n, u_n)."""
    return Scheme(name="expeuler", s=1, c={}, a={}, b={}, groups=())


def make_expk2(c2=Fraction(1)) -> Scheme:
    """Order-2 baseline with one internal stage at c2 and b_2 = phi_2 / c2.

    The default c2 = 1 keeps the h^2 error term sign-definite on the heat
    benchmark; interior nodes can make consecutive error terms cancel near
    h ~ 1/8, which muddies observed-order readings mid-study.
    """
    c2 = Fraction(c2)
    if not 0 < c2 <= 1:
        raise ValueError("expk2 needs 0 < c2 <= 1")
    return Scheme(
        name="expk2", s=2, c={2: c2}, a={},
        b={2: PhiPoly.make(1, {2: 1 / c2})}, groups=((2,),),
    )


SCHEME_NAMES = ("exprk6s15", "exprk6s16", "expeuler", "expk2")


def scheme_by_name(name: str) -> Scheme:
    factories = {
        "exprk6s15": make_exprk6s15,
        "exprk6s16": make_exprk6s16,
        "expeuler": make_exponential_euler,
        "expk2": make_expk2,
    }
    try:
        return factories[name]()
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}") from None
