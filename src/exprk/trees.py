"""Rooted trees indexing the stiff order conditions.

Two node flavours appear:

  * a white leaf standing for the first derivative of the solution, and
  * black interior nodes combining child trees.

Two families matter for the condition table: trees whose children are all
white leaves ("quadrature" trees, one per order) and trees with at least one
non-leaf child ("nested" trees). Enumeration up to order 6 yields 36 trees,
and 16 up to order 5; these counts are asserted hard in the test suite.

Trees are immutable and canonical: children are stored sorted under a fixed
total order, so structurally equal trees compare and hash equal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import factorial

__all__ = [
    "Tree",
    "LEAF",
    "node",
    "quadrature_tree",
    "enumerate_trees",
]


@dataclass(frozen=True)
class Tree:
    """A rooted tree in canonical form.

    kind is "white" (leaf) or "node" (black interior vertex with a sorted
    tuple of children).
    """

    kind: str
    children: tuple["Tree", ...] = field(default=())

    def __post_init__(self):
        if self.kind == "white":
            if self.children:
                raise ValueError("white leaf carries no data")
        elif self.kind == "node":
            if not self.children:
                raise ValueError("interior node needs at least one child")
        else:
            raise ValueError(f"unknown tree kind {self.kind!r}")

    # -- structural queries ------------------------------------------------

    @property
    def order(self) -> int:
        return _order(self)

    @property
    def symmetry(self) -> int:
        return _symmetry(self)

    def is_quadrature(self) -> bool:
        """All children are white leaves (the single b-weight tree per order)."""
        return self.kind == "node" and all(c.kind == "white" for c in self.children)

    def bracket(self) -> str:
        """Serialized form, e.g. "[•,•]" or "[[•],•]"."""
        if self.kind == "white":
            return "•"
        return "[" + ",".join(c.bracket() for c in self.children) + "]"

    def __repr__(self):
        return f"Tree({self.bracket()})"


@functools.cache
def _order(t: Tree) -> int:
    if t.kind == "white":
        return 1
    return 1 + sum(_order(c) for c in t.children)


@functools.cache
def _symmetry(t: Tree) -> int:
    if t.kind == "white":
        return 1
    sym = 1
    for child, count in _child_classes(t):
        sym *= factorial(count) * _symmetry(child) ** count
    return sym


def _child_classes(t: Tree):
    classes: list[tuple[Tree, int]] = []
    for c in t.children:
        if classes and classes[-1][0] == c:
            classes[-1] = (c, classes[-1][1] + 1)
        else:
            classes.append((c, 1))
    return classes


@functools.cache
def _sort_key(t: Tree):
    if t.kind == "white":
        return (0, 0, ())
    return (1, _order(t), tuple(_sort_key(c) for c in t.children))


LEAF = Tree("white")


def node(*children: Tree) -> Tree:
    """Interior node; children are canonicalized, larger subtrees first."""
    return Tree("node", children=tuple(sorted(children, key=_sort_key, reverse=True)))


def quadrature_tree(q: int) -> Tree:
    """The order-q tree whose q-1 children are all white leaves."""
    if q < 2:
        raise ValueError("quadrature trees start at order 2")
    return node(*([LEAF] * (q - 1)))


def _nested_trees_of_order(q: int, universe: dict[int, list[Tree]]) -> list[Tree]:
    """All nested trees of order q given child candidates per order < q."""
    found = set()
    target = q - 1

    def compositions(remaining: int, max_part: int):
        # weakly decreasing child-order lists summing to `remaining`
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in compositions(remaining - part, part):
                yield (part,) + rest

    for orders in compositions(target, target):
        if all(o == 1 for o in orders):
            continue  # all-leaf children form the quadrature tree
        pools = {}
        for o in set(orders):
            pools[o] = universe[o]
        # choose a multiset of children per repeated order block
        def expand(i, chosen):
            if i == len(orders):
                found.add(node(*chosen))
                return
            o = orders[i]
            run = 1
            while i + run < len(orders) and orders[i + run] == o:
                run += 1
            for combo in combinations_with_replacement(pools[o], run):
                expand(i + run, chosen + list(combo))

        expand(0, [])
    return sorted(found, key=_sort_key)


def enumerate_trees(p: int) -> tuple[Tree, ...]:
    """Duplicate-free table of all condition trees with order <= p.

    Sorted by order; within each order the quadrature tree comes first,
    then nested trees in canonical key order.
    """
    if not 2 <= p <= 8:
        raise ValueError("tree enumeration supports orders 2..8")
    universe: dict[int, list[Tree]] = {1: [LEAF]}
    for q in range(2, p + 1):
        universe[q] = [quadrature_tree(q)] + _nested_trees_of_order(q, universe)
    return tuple(t for q in range(2, p + 1) for t in universe[q])
