import math
from fractions import Fraction as F

import numpy as np
import pytest

from exprk.conditions import (
    DEFAULT_SEED,
    Condition,
    ConditionReport,
    PhiAtMatrix,
    RandomModel,
    check_scheme,
    condition_table,
    elementary_differential,
    psi,
    psi_b,
    residual,
)
from exprk.phi import build_phi_cache
from exprk.tableaus import (
    make_exponential_euler,
    make_expk2,
    make_exprk6s15,
    make_exprk6s16,
)
from exprk.trees import LEAF, node, quadrature_tree

TOL = 1e-10


@pytest.fixture(scope="module")
def s15():
    return make_exprk6s15()


@pytest.fixture(scope="module")
def s16():
    return make_exprk6s16()


@pytest.fixture(scope="module")
def model():
    return RandomModel(DEFAULT_SEED, n=4)


@pytest.fixture(scope="module")
def ev(model):
    return PhiAtMatrix(model.Z, 6)


class TestConditionTable:
    def test_sizes(self):
        assert len(condition_table(5)) == 16
        assert len(condition_table(6)) == 36

    def test_kinds_and_anchor_numbers(self):
        table = condition_table(6)
        by_num = {c.number: c for c in table}
        for q, num in zip(range(2, 7), (1, 2, 4, 8, 17)):
            assert by_num[num].kind == "b"
            assert by_num[num].order == q
            assert by_num[num].tree == quadrature_tree(q)
        assert sum(1 for c in table if c.kind == "nested") == 31


class TestPsi:
    def test_stage_two_is_pure_phi_term(self, s15, ev):
        # empty coefficient sum leaves -c_2^q phi_q(c_2 Z)
        for q in (2, 3, 4, 5):
            got = psi(q, 2, s15, ev)
            want = -float(s15.c[2]) ** q * ev.entry(s15.c[2], q)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_enforced_defects_vanish_for_s15(self, s15, ev):
        # the construction zeroes these stage defects for arbitrary Z
        facts = (
            [(q, j) for q in (2, 3, 4, 5) for j in (12, 13, 14, 15)]
            + [(q, j) for q in (2, 3, 4) for j in (8, 9, 10, 11)]
            + [(q, j) for q in (2, 3) for j in (5, 6, 7)]
            + [(2, 3), (2, 4)]
        )
        for q, j in facts:
            assert np.linalg.norm(psi(q, j, s15, ev)) <= TOL, (q, j)

    def test_enforced_defects_vanish_for_s16(self, s16, ev):
        facts = (
            [(q, j) for q in (2, 3, 4, 5) for j in (12, 13, 14, 15, 16)]
            + [(q, j) for q in (2, 3, 4) for j in (8, 9, 10, 11)]
            + [(q, j) for q in (2, 3) for j in (5, 6, 7)]
            + [(2, 3), (2, 4)]
        )
        for q, j in facts:
            assert np.linalg.norm(psi(q, j, s16, ev)) <= TOL, (q, j)

    def test_specialization_at_zero(self, s15):
        ev0 = PhiAtMatrix(np.zeros((4, 4)), 6)
        for j in (12, 15):
            assert np.linalg.norm(psi(3, j, s15, ev0)) <= 1e-13


class TestPsiB:
    def test_s16_quadrature_defects_vanish(self, s16, ev):
        for q in range(2, 7):
            assert np.linalg.norm(psi_b(q, s16, ev)) <= TOL

    def test_s15_order6_vanishes_at_zero(self, s15):
        ev0 = PhiAtMatrix(np.zeros((4, 4)), 6)
        assert np.linalg.norm(psi_b(6, s15, ev0)) <= 1e-12

    def test_s15_order6_nonzero_at_random_argument(self, s15, model, ev):
        # negative control: the relaxed condition really is violated
        assert np.linalg.norm(psi_b(6, s15, ev)) > 1e-6
        cond17 = condition_table(6)[16]
        assert cond17.number == 17
        assert residual(cond17, s15, model, mode="strong") > 1e-4


class TestElementaryDifferential:
    def test_white_leaf(self, s15, ev, model):
        got = elementary_differential(LEAF, 5, s15, ev, {}, model.w)
        assert np.allclose(got, 0.5 * model.w)

    def test_quadrature_child_at_stage_two(self, s15, ev, model):
        rng = np.random.default_rng(1)
        T = rng.standard_normal((4, 4))
        got = elementary_differential(quadrature_tree(2), 2, s15, ev,
                                      {(): T}, model.w)
        want = psi(2, 2, s15, ev) @ (T @ model.w)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_nested_child_hand_expansion(self, s15, ev, model):
        # [[•]] at stage 8: sum_j a_8j(Z) T_out (psi_2j(Z) T_in w)
        rng = np.random.default_rng(2)
        T_out = rng.standard_normal((4, 4))
        T_in = rng.standard_normal((4, 4))
        maps = {(): T_out, (0,): T_in}
        tree = node(node(LEAF))
        got = elementary_differential(tree, 8, s15, ev, maps, model.w)
        want = np.zeros(4)
        for j in (5, 6, 7):
            want += ev.coeff(s15.a[(8, j)]) @ (
                T_out @ (psi(2, j, s15, ev) @ (T_in @ model.w))
            )
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_sigma_prefactor_scales_nested_values(self, s15, ev, model):
        # [[•],[•]] carries prefactor sigma([•])^2 / sigma([[•],[•]]) = 1/2
        tree = node(node(LEAF), node(LEAF))
        rng = np.random.default_rng(3)
        maps = {(): rng.standard_normal((4, 4, 4)),
                (0,): rng.standard_normal((4, 4)),
                (1,): rng.standard_normal((4, 4))}
        with_pref = elementary_differential(tree, 12, s15, ev, maps, model.w,
                                            sigma_prefactor=True)
        without = elementary_differential(tree, 12, s15, ev, maps, model.w,
                                          sigma_prefactor=False)
        assert np.allclose(with_pref, 0.5 * without, rtol=1e-12, atol=1e-14)


class TestResidual:
    def test_s16_all_conditions_pass(self, s16):
        report = check_scheme(s16, p=6, mode="strong", seeds=3)
        assert report.all_passed
        assert max(r.residual for r in report.results) <= TOL

    def test_s15_strong_fails_exactly_condition_17(self, s15):
        report = check_scheme(s15, p=6, mode="strong", seeds=3)
        failing = report.failing()
        assert [r.number for r in failing] == [17]
        assert failing[0].residual > 1e-4
        assert max(r.residual for r in report.results if r.number != 17) <= TOL

    def test_s15_weak17_passes_all(self, s15):
        report = check_scheme(s15, p=6, mode="weak17", seeds=3)
        assert report.all_passed

    def test_euler_fails_order2_with_phi2_norm(self, model):
        euler = make_exponential_euler()
        cond1 = condition_table(2)[0]
        r = residual(cond1, euler, model, mode="strong")
        assert r > 1e-2
        ev = PhiAtMatrix(model.Z, 2)
        assert r == pytest.approx(np.linalg.norm(ev.entry(F(1), 2)), rel=1e-12)

    def test_expk2_passes_order2_fails_order3(self):
        s = make_expk2()
        rep2 = check_scheme(s, p=2, mode="strong", seeds=2)
        assert rep2.all_passed
        rep3 = check_scheme(s, p=3, mode="strong", seeds=2)
        failing = {r.number for r in rep3.failing()}
        assert 2 in failing

    def test_scale_invariance_in_w(self, s16):
        # multilinearity: rescaling w (moderately, the tolerance is stated
        # for unit-norm inputs) leaves zero residuals at zero
        rng = np.random.default_rng(77)
        conds = [c for c in condition_table(6) if c.kind == "nested"][:8]
        for cond in conds:
            scale = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            scaled = RandomModel((DEFAULT_SEED, 5), n=4)
            scaled.w = scale * scaled.w
            assert residual(cond, s16, scaled, mode="strong") <= TOL, cond.number

    def test_sigma_prefactor_does_not_change_classification(self, s15, s16):
        model = RandomModel((DEFAULT_SEED, 9), n=4)
        for scheme in (s15, s16):
            for cond in condition_table(6):
                on = residual(cond, scheme, model, mode="strong",
                              sigma_prefactor=True)
                off = residual(cond, scheme, model, mode="strong",
                               sigma_prefactor=False)
                assert (on <= TOL) == (off <= TOL), (scheme.name, cond.number)

    def test_seed_robustness(self, s15):
        flags = []
        for rep in range(3):
            report = check_scheme(s15, p=6, mode="strong", seeds=1,
                                  base_seed=1000 + rep)
            flags.append(tuple(r.passed for r in report.results))
        assert flags[0] == flags[1] == flags[2]

    def test_dimension_robustness(self, s15):
        flags = []
        for n in (3, 4, 5):
            report = check_scheme(s15, p=6, mode="strong", seeds=1, n=n)
            flags.append(tuple(r.passed for r in report.results))
        assert flags[0] == flags[1] == flags[2]

    def test_weak17_only_changes_condition_17(self, s15):
        strong = check_scheme(s15, p=6, mode="strong", seeds=1)
        weak = check_scheme(s15, p=6, mode="weak17", seeds=1)
        for rs, rw in zip(strong.results, weak.results):
            if rs.number == 17:
                assert not rs.passed and rw.passed
            else:
                assert rs.residual == rw.residual

    def test_rejects_unknown_mode(self, s15, model):
        with pytest.raises(ValueError):
            residual(condition_table(2)[0], s15, model, mode="weak")

    def test_rejects_order_above_six(self, s15):
        with pytest.raises(ValueError):
            check_scheme(s15, p=7)

    @pytest.mark.parametrize("seeds, n, match", [
        (0, 4, "seeds must be >= 1"), (-2, 4, "seeds must be >= 1"),
        (3, 0, "n must be >= 1")])
    def test_rejects_a_check_of_nothing_before_any_work(self, s15, monkeypatch,
                                                        seeds, n, match):
        import exprk.conditions as conditions

        def unreachable(*args):
            raise AssertionError("check_scheme did work before validating")

        monkeypatch.setattr(conditions, "phi_all_dense", unreachable)
        with pytest.raises(ValueError, match=match):
            check_scheme(s15, p=6, seeds=seeds, n=n)


class TestMemo:
    """The evaluator memoizes per model; results must not depend on it."""

    @pytest.mark.parametrize("scheme_name, mode", [
        ("s16", "strong"), ("s15", "strong"), ("s15", "weak17")])
    def test_check_scheme_equals_fresh_evaluator_per_condition(
            self, scheme_name, mode, request):
        scheme = request.getfixturevalue(scheme_name)
        report = check_scheme(scheme, p=6, mode=mode, seeds=1)
        model = RandomModel((DEFAULT_SEED, 0), n=4)
        kmax = max(scheme.max_phi_index, 6)
        for cond, got in zip(condition_table(6), report.results):
            want = residual(cond, scheme, model, mode=mode,
                            ev=PhiAtMatrix(model.Z, kmax),
                            ev0=PhiAtMatrix(np.zeros_like(model.Z), kmax))
            assert got.residual == want, cond.number

    def test_psi_is_keyed_on_the_scheme(self, s15, s16, model):
        shared = PhiAtMatrix(model.Z, 6)
        fresh = PhiAtMatrix(model.Z, 6)
        for q in range(2, 6):
            for i in sorted(s16.c):
                if i in s15.c:
                    psi(q, i, s15, shared)
                assert np.array_equal(psi(q, i, s16, shared),
                                      psi(q, i, s16, fresh)), (q, i)

    def test_returned_arrays_are_read_only_and_reused(self, s16, model):
        ev = PhiAtMatrix(model.Z, 6)
        poly = s16.a[(12, 8)]
        assert ev.coeff(poly) is ev.coeff(poly)
        assert psi(3, 12, s16, ev) is psi(3, 12, s16, ev)
        for arr in (ev.coeff(poly), ev.entry(F(1, 2), 2), psi(3, 12, s16, ev)):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


class TestSharedEvaluator:
    """The checker's coefficients and the integrator's come from one fold."""

    @pytest.mark.parametrize("scheme_name", ["s16", "s15"])
    def test_checker_and_cache_coefficients_are_bitwise_equal(self, scheme_name, request):
        scheme = request.getfixturevalue(scheme_name)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5))
        # a power-of-two h makes c*(h*A) and (c*h)*A the same floats
        h, kmax = 0.25, scheme.max_phi_index
        ev = PhiAtMatrix(h * A, kmax)
        cache = build_phi_cache(A, h, scheme.nodes_used, kmax)
        assert not cache.eigenbasis
        for poly in list(scheme.a.values()) + list(scheme.b.values()):
            got, want = ev.coeff(poly), cache.coeff(poly)
            assert got.shape == (5, 5) and got.tobytes() == want.tobytes(), poly


class TestRandomModel:
    def test_deterministic_and_unit_norm(self):
        a = RandomModel((1, 2), n=4)
        b = RandomModel((1, 2), n=4)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.w, b.w)
        assert np.linalg.norm(a.Z, 2) == pytest.approx(1.0, rel=1e-12)

    def test_maps_deterministic_and_per_node(self):
        m = RandomModel(3, n=3)
        cond = [c for c in condition_table(5) if c.kind == "nested"][-1]
        maps1 = m.maps_for(cond)
        maps2 = m.maps_for(cond)
        assert set(maps1) == set(maps2)
        for key in maps1:
            assert np.array_equal(maps1[key], maps2[key])
        # one tensor per interior node, arity matches child count
        def interior_paths(t, path=()):
            if t.kind != "node":
                return
            yield path, len(t.children)
            for idx, ch in enumerate(t.children):
                yield from interior_paths(ch, path + (idx,))
        expected = dict(interior_paths(cond.tree))
        assert set(maps1) == set(expected)
        for path, arity in expected.items():
            assert maps1[path].shape == (3,) * (arity + 1)

    def test_immutable_arrays(self):
        m = RandomModel(4, n=3)
        with pytest.raises(ValueError):
            m.Z[0, 0] = 1.0


class TestConditionReportCsv:
    def test_round_trip(self, s15):
        report = check_scheme(s15, p=4, mode="strong", seeds=1)
        text = report.to_csv()
        assert text.startswith("number,order,kind,tree,residual,pass\n")
        rows = ConditionReport.rows_from_csv(text)
        assert [r.number for r in rows] == [r.number for r in report.results]
        for got, want in zip(rows, report.results):
            assert got == want

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            ConditionReport.rows_from_csv("a,b\n1,2\n")
