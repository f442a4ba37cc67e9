import random
from collections import Counter

import pytest

from exprk.conditions import condition_table
from exprk.trees import LEAF, Tree, enumerate_trees, node, quadrature_tree
from oracles import order_bruteforce, symmetry_bruteforce


class TestOrderAndSymmetry:
    def test_leaf_order_one(self):
        assert LEAF.order == 1

    def test_two_leaf_cherry_order_three(self):
        assert node(LEAF, LEAF).order == 3

    def test_mixed_tree_order_four(self):
        # [[•],•]: 1 + (2 + 1), by hand from the recursion
        assert node(node(LEAF), LEAF).order == 4

    def test_leaf_symmetry_one(self):
        assert LEAF.symmetry == 1

    def test_cherry_symmetry_two(self):
        # two identical leaf children: 2! * 1^2
        assert node(LEAF, LEAF).symmetry == 2

    def test_double_branch_symmetry_two(self):
        assert node(node(LEAF), node(LEAF)).symmetry == 2

    def test_symmetry_and_order_against_bruteforce(self):
        for t in enumerate_trees(5):
            assert t.symmetry == symmetry_bruteforce(t)
            assert t.order == order_bruteforce(t)

    def test_mixed_larger_symmetry(self):
        # [[•,•],[•,•],•]: 2! * sigma([•,•])^2 = 2 * 4 = 8
        t = node(node(LEAF, LEAF), node(LEAF, LEAF), LEAF)
        assert t.symmetry == 8
        assert t.symmetry == symmetry_bruteforce(t)


class TestCanonicalForm:
    def test_child_permutations_canonicalize_identically(self):
        children = [node(LEAF), LEAF, node(LEAF, LEAF), LEAF, node(node(LEAF))]
        rng = random.Random(99)
        reference = node(*children)
        for _ in range(20):
            shuffled = children[:]
            rng.shuffle(shuffled)
            assert node(*shuffled) == reference
            assert hash(node(*shuffled)) == hash(reference)

    def test_idempotent(self):
        t = node(node(LEAF, LEAF), LEAF)
        again = node(*t.children)
        assert again == t

    def test_validation(self):
        with pytest.raises(ValueError):
            Tree("node", children=())
        with pytest.raises(ValueError):
            Tree("white", children=(LEAF,))
        with pytest.raises(ValueError):
            Tree("purple")


class TestMembership:
    def test_quadrature_trees(self):
        assert node(LEAF).is_quadrature()
        assert node(LEAF, LEAF, LEAF).is_quadrature()
        assert not node(node(LEAF)).is_quadrature()

    def test_nested_trees(self):
        kinds = {c.tree: c.kind for c in condition_table(6)}
        assert kinds[node(node(LEAF))] == "nested"
        assert kinds[node(node(LEAF), LEAF)] == "nested"
        assert kinds[node(LEAF, LEAF)] == "b"
        assert LEAF not in kinds

    def test_families_disjoint_on_enumeration(self):
        # each condition tree is an interior node, of kind "b" exactly when
        # all its children are leaves and "nested" otherwise
        for cond in condition_table(6):
            assert cond.tree.kind == "node"
            assert (cond.kind == "b") == all(c.kind == "white" for c in cond.tree.children)

    def test_derivative_leaves_never_enumerated(self):
        for t in enumerate_trees(6):
            def no_bullets(x):
                return x.kind != "bullet" and all(no_bullets(c) for c in x.children)
            assert no_bullets(t)


class TestEnumeration:
    def test_order_three_table(self):
        table = enumerate_trees(3)
        assert [t.bracket() for t in table] == ["[•]", "[•,•]", "[[•]]"]

    def test_count_sixteen_at_order_five(self):
        assert len(enumerate_trees(5)) == 16

    def test_count_thirty_six_at_order_six(self):
        assert len(enumerate_trees(6)) == 36

    def test_counts_per_order(self):
        counts = Counter(t.order for t in enumerate_trees(6))
        assert counts == {2: 1, 3: 2, 4: 4, 5: 9, 6: 20}

    def test_no_duplicates(self):
        table = enumerate_trees(6)
        assert len(set(table)) == len(table)

    def test_orders_nondecreasing_quadrature_first(self):
        table = enumerate_trees(6)
        orders = [t.order for t in table]
        assert orders == sorted(orders)
        seen = set()
        for t in table:
            if t.order not in seen:
                assert t.is_quadrature()
                seen.add(t.order)

    def test_numbering_anchors(self):
        # the quadrature trees of orders 2..6 must sit at 1, 2, 4, 8, 17
        table = enumerate_trees(6)
        for q, num in zip(range(2, 7), (1, 2, 4, 8, 17)):
            assert table.index(quadrature_tree(q)) + 1 == num

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_trees(1)
        with pytest.raises(ValueError):
            enumerate_trees(9)

    def test_order_eight_runs(self):
        table = enumerate_trees(8)
        counts = Counter(t.order for t in table)
        assert counts[6] == 20  # unchanged below the new orders
        assert len(table) > 36


class TestSerialization:
    def test_golden_brackets(self):
        assert node(LEAF, LEAF).bracket() == "[•,•]"
        assert node(node(LEAF), LEAF).bracket() == "[[•],•]"
        assert node(node(node(LEAF))).bracket() == "[[[•]]]"
        assert LEAF.bracket() == "•"

    def test_repr_uses_bracket(self):
        assert repr(node(LEAF)) == "Tree([•])"
