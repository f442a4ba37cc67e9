import csv
import io
from fractions import Fraction as F

import numpy as np
import pytest

from exprk.conditions import (
    DEFAULT_SEED,
    PhiAtMatrix,
    RandomModel,
    check_scheme,
    _StageVectors,
    condition_table,
    residual,
)
from exprk.phi import build_phi_cache
from exprk.tableaus import (
    SCHEME_NAMES,
    make_exponential_euler,
    make_expk2,
    make_exprk6s15,
    make_exprk6s16,
    scheme_by_name,
)
from exprk.trees import LEAF, node, quadrature_tree
from oracles import elementary_differential_ref, residual_ref

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
def ev15(s15, model):
    return PhiAtMatrix(s15, model.Z[None])


@pytest.fixture(scope="module")
def ev16(s16, model):
    return PhiAtMatrix(s16, model.Z[None])


@pytest.fixture
def no_work(monkeypatch):
    """phi_all_dense fails if reached: arguments must be checked before any work."""
    import exprk.conditions as conditions

    def unreachable(*args):
        raise AssertionError("work was done before the arguments were checked")

    monkeypatch.setattr(conditions, "phi_all_dense", unreachable)


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
    def test_stage_two_is_pure_phi_term(self, s15, ev15):
        # empty coefficient sum leaves -c_2^q phi_q(c_2 Z)
        for q in (2, 3, 4, 5):
            got = ev15.psi(q, 2)
            want = -float(s15.c[2]) ** q * ev15.entry(s15.c[2], q)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_enforced_defects_vanish_for_s15(self, ev15):
        # the construction zeroes these stage defects for arbitrary Z
        facts = (
            [(q, j) for q in (2, 3, 4, 5) for j in (12, 13, 14, 15)]
            + [(q, j) for q in (2, 3, 4) for j in (8, 9, 10, 11)]
            + [(q, j) for q in (2, 3) for j in (5, 6, 7)]
            + [(2, 3), (2, 4)]
        )
        for q, j in facts:
            assert np.linalg.norm(ev15.psi(q, j)) <= TOL, (q, j)

    def test_enforced_defects_vanish_for_s16(self, ev16):
        facts = (
            [(q, j) for q in (2, 3, 4, 5) for j in (12, 13, 14, 15, 16)]
            + [(q, j) for q in (2, 3, 4) for j in (8, 9, 10, 11)]
            + [(q, j) for q in (2, 3) for j in (5, 6, 7)]
            + [(2, 3), (2, 4)]
        )
        for q, j in facts:
            assert np.linalg.norm(ev16.psi(q, j)) <= TOL, (q, j)

    def test_specialization_at_zero(self, s15):
        ev0 = PhiAtMatrix(s15, np.zeros((1, 4, 4)))
        for j in (12, 15):
            assert np.linalg.norm(ev0.psi(3, j)) <= 1e-13


class TestPsiB:
    def test_s16_quadrature_defects_vanish(self, s16, ev16):
        for q in range(2, 7):
            assert np.linalg.norm(ev16.psi(q, s16.s + 1)) <= TOL

    def test_s15_order6_vanishes_at_zero(self, s15):
        ev0 = PhiAtMatrix(s15, np.zeros((1, 4, 4)))
        assert np.linalg.norm(ev0.psi(6, s15.s + 1)) <= 1e-12

    def test_s15_order6_nonzero_at_random_argument(self, s15, model, ev15):
        # negative control: the relaxed condition really is violated
        assert np.linalg.norm(ev15.psi(6, s15.s + 1)) > 1e-6
        cond17 = condition_table(6)[16]
        assert cond17.number == 17
        assert residual(cond17, s15, model, mode="strong") > 1e-4


class TestElementaryDifferential:
    """Stage vectors of a stack of one model, read at its one seed."""

    def test_white_leaf(self, ev15, model):
        got = _StageVectors(ev15, {}, model.w[None]).vector(LEAF, (), 5)
        assert np.allclose(got[0], 0.5 * model.w)

    def test_quadrature_child_at_stage_two(self, ev15, model):
        rng = np.random.default_rng(1)
        T = rng.standard_normal((4, 4))
        got = _StageVectors(ev15, {(): T[None]}, model.w[None]).vector(quadrature_tree(2), (), 2)
        want = ev15.psi(2, 2)[0] @ (T @ model.w)
        assert np.allclose(got[0], want, rtol=1e-13, atol=1e-14)

    def test_nested_child_hand_expansion(self, s15, ev15, model):
        # [[•]] at stage 8: sum_j a_8j(Z) T_out (psi_2j(Z) T_in w)
        rng = np.random.default_rng(2)
        T_out = rng.standard_normal((4, 4))
        T_in = rng.standard_normal((4, 4))
        maps = {(): T_out[None], (0,): T_in[None]}
        tree = node(node(LEAF))
        got = _StageVectors(ev15, maps, model.w[None]).vector(tree, (), 8)
        want = np.zeros(4)
        for j in (5, 6, 7):
            want += ev15.coeff(s15.a[(8, j)])[0] @ (
                T_out @ (ev15.psi(2, j)[0] @ (T_in @ model.w))
            )
        assert np.allclose(got[0], want, rtol=1e-12, atol=1e-13)



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
        ev = PhiAtMatrix(euler, model.Z[None])
        assert r == pytest.approx(np.linalg.norm(ev.entry(F(1), 2)[0]), rel=1e-12)

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
    def test_rejects_a_check_of_nothing_before_any_work(self, s15, no_work,
                                                        seeds, n, match):
        with pytest.raises(ValueError, match=match):
            check_scheme(s15, p=6, seeds=seeds, n=n)


class TestArgumentChecks:
    """Inputs under which a residual or a verdict would mean nothing are refused."""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_check_scheme_rejects_a_meaningless_tolerance_before_any_work(
            self, s16, no_work, tol):
        # under nan or a negative tol every condition fails, under inf every one passes
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_scheme(s16, p=6, tol=tol)

    @pytest.mark.parametrize("seed", [1.7, (DEFAULT_SEED, 0.5), "3"])
    def test_random_model_rejects_a_non_integer_seed(self, seed):
        # int() would truncate 1.7 to seed 1 and check another model than asked for
        with pytest.raises(TypeError):
            RandomModel(seed, n=4)

    def test_random_model_accepts_numpy_integer_seeds(self):
        want = RandomModel((DEFAULT_SEED, 1), n=4)
        for seed in ((np.int64(DEFAULT_SEED), np.int32(1)), [DEFAULT_SEED, 1]):
            got = RandomModel(seed, n=4)
            assert np.array_equal(got.Z, want.Z) and np.array_equal(got.w, want.w)

    @pytest.mark.parametrize("number", [17, 36])
    def test_residual_rejects_an_evaluator_at_another_matrix(self, s16, model,
                                                             no_work, number):
        cond = condition_table(6)[number - 1]
        with pytest.raises(ValueError, match="Z other than the model's"):
            residual(cond, s16, model, ev=PhiAtMatrix(s16, np.eye(4)[None]))

    def test_residual_rejects_an_empty_list_of_models(self, s16, no_work):
        with pytest.raises(ValueError, match="at least one model"):
            residual(condition_table(6)[35], s16, [])

    def test_residual_accepts_evaluators_at_equal_copies_of_z_and_scheme(self, s16, model,
                                                                          ev16):
        cond = condition_table(6)[35]
        copy = PhiAtMatrix(make_exprk6s16(), model.Z[None].copy())
        assert residual(cond, s16, model, ev=copy) == residual(cond, s16, model, ev=ev16)

    @pytest.mark.parametrize("Z0", [np.eye(4), np.zeros((3, 3))], ids=["nonzero", "shape"])
    def test_residual_rejects_an_ev0_off_the_zero_matrix(self, s15, model, ev15, Z0):
        cond17 = condition_table(6)[16]
        with pytest.raises(ValueError, match="ev0 must be evaluated at a zero matrix"):
            residual(cond17, s15, model, mode="weak17", ev=ev15,
                     ev0=PhiAtMatrix(s15, Z0[None]))

    @pytest.mark.parametrize("which", ["ev", "ev0"])
    @pytest.mark.parametrize("number", [17, 36])
    def test_residual_rejects_an_evaluator_built_for_another_scheme(
            self, s15, s16, model, no_work, which, number):
        # exprk6s15 has no row 17, and its rows 2..16 are not exprk6s16's
        cond = condition_table(6)[number - 1]
        evaluators = {"ev": PhiAtMatrix(s16, model.Z[None]),
                      "ev0": PhiAtMatrix(s16, np.zeros((1, 4, 4)))}
        evaluators[which] = PhiAtMatrix(s15, evaluators[which].Z)
        with pytest.raises(ValueError, match=f"^{which} is built for exprk6s15, not exprk6s16"):
            residual(cond, s16, model, mode="weak17", **evaluators)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 3), (1, 1, 4, 4)])
    def test_evaluator_rejects_a_z_that_is_not_a_stack_of_square_matrices(self, s16, shape):
        with pytest.raises(ValueError, match="stack of square matrices"):
            PhiAtMatrix(s16, np.zeros(shape))


class TestStageVectors:
    """Each tree is evaluated once per (node, stage), with the recursion's numbers."""

    @pytest.mark.parametrize("base_seed", [DEFAULT_SEED, 2])
    @pytest.mark.parametrize("scheme_name, mode", [
        ("s16", "strong"), ("s16", "weak17"), ("s15", "strong"), ("s15", "weak17")])
    def test_residual_is_bitwise_the_recursive_reference(self, scheme_name, mode,
                                                         base_seed, request):
        scheme = request.getfixturevalue(scheme_name)
        model = RandomModel((base_seed, 0), n=4)

        def evaluators():
            return PhiAtMatrix(scheme, model.Z[None]), PhiAtMatrix(scheme, np.zeros((1, 4, 4)))

        ev, ev0 = evaluators()
        ref_ev, ref_ev0 = evaluators()
        for cond in condition_table(6):
            got = residual(cond, scheme, model, mode, ev, ev0)
            want = residual_ref(cond, scheme, model, mode, ref_ev, ref_ev0)
            assert got == want, cond.number

    def test_elementary_differential_is_bitwise_the_recursive_reference(self, s16, model,
                                                                        ev16):
        for cond in condition_table(6):
            maps = model.maps_for(cond)
            stacked = {path: tensor[None] for path, tensor in maps.items()}
            for i in (3, 9, 16):
                got = _StageVectors(ev16, stacked, model.w[None]).vector(cond.tree, (), i)
                want = elementary_differential_ref(cond.tree, i, s16, ev16, maps, model.w)
                assert got[0].tobytes() == want.tobytes(), (cond.number, i)

    def test_each_node_maps_at_most_once_per_stage(self, s16, model, ev16, monkeypatch):
        # the plain recursion makes 325 calls for condition 36, [[[[[•]]]]], against 85
        import exprk.conditions as conditions

        calls = []
        apply_map = conditions._apply_map

        def counted(tensor, args):
            calls.append(1)
            return apply_map(tensor, args)

        monkeypatch.setattr(conditions, "_apply_map", counted)
        for cond in condition_table(6):
            if cond.kind != "nested":
                continue
            calls.clear()
            residual(cond, s16, model, ev=ev16)
            interior = len(model.maps_for(cond))
            assert len(calls) <= interior * (s16.s + 1), cond.number


class TestMemo:
    """The evaluator memoizes per (scheme, model stack); results must not depend on it."""

    @pytest.mark.parametrize("seeds, n", [(1, 4), (3, 4), (1, 6), (3, 6)])
    @pytest.mark.parametrize("scheme_name, mode", [
        ("s16", "strong"), ("s15", "strong"), ("s15", "weak17")])
    def test_check_scheme_equals_fresh_evaluator_per_condition(
            self, scheme_name, mode, seeds, n, request):
        # the stacked pass reports bitwise the largest of the per-model
        # residuals, each from the evaluators residual builds for it alone
        scheme = request.getfixturevalue(scheme_name)
        report = check_scheme(scheme, p=6, mode=mode, seeds=seeds, n=n)
        models = [RandomModel((DEFAULT_SEED, rep), n=n) for rep in range(seeds)]
        for cond, got in zip(condition_table(6), report.results):
            want = max(residual(cond, scheme, model, mode=mode) for model in models)
            assert got.residual == want, cond.number

    @pytest.mark.parametrize("mode", ["strong", "weak17"])
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_lower_orders_report_the_first_conditions_of_order_six(self, name, mode):
        # the evaluator's kmax does not depend on p, so neither do the residuals
        scheme = scheme_by_name(name)
        full = check_scheme(scheme, p=6, mode=mode).results
        for p in range(2, 6):
            results = check_scheme(scheme, p=p, mode=mode).results
            assert results == full[:len(results)], p

    def test_returned_arrays_are_read_only_and_reused(self, s16, model):
        ev = PhiAtMatrix(s16, model.Z[None])
        assert ev.row(12) is ev.row(12)
        assert ev.psi(3, 12) is ev.psi(3, 12)
        for arr in (ev.row(12)[8], ev.entry(F(1, 2), 2), ev.psi(3, 12)):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0


class TestStackedPass:
    """check_scheme evaluates each condition once over all of its models."""

    @pytest.mark.parametrize("scheme_name, mode, zero_nodes", [
        ("s16", "strong", 0), ("s15", "strong", 0), ("s15", "weak17", 1)])
    def test_one_residual_per_condition_one_phi_per_seed_and_node(
            self, scheme_name, mode, zero_nodes, request, monkeypatch):
        import exprk.conditions as conditions

        scheme = request.getfixturevalue(scheme_name)
        residual_calls, phi_args = [], []
        real_residual, real_phi = conditions.residual, conditions.phi_all_dense

        def counted_residual(*args, **kwargs):
            residual_calls.append(args[0].number)
            return real_residual(*args, **kwargs)

        def counted_phi(M, kmax):
            phi_args.append(np.asarray(M).tobytes())
            return real_phi(M, kmax)

        monkeypatch.setattr(conditions, "residual", counted_residual)
        monkeypatch.setattr(conditions, "phi_all_dense", counted_phi)
        check_scheme(scheme, p=6, mode=mode, seeds=3)
        assert residual_calls == list(range(1, 37))
        # weak17 adds node 1 at Z = 0 for each seed, three equal arguments
        assert len(phi_args) == 3 * (len(scheme.nodes_used) + zero_nodes)
        assert len(set(phi_args)) == 3 * len(scheme.nodes_used) + zero_nodes

    def test_a_list_of_models_without_evaluators_reports_the_largest(self, s15):
        # the evaluators residual builds itself are at the stacked Z and its zeros
        models = [RandomModel((DEFAULT_SEED, rep), n=4) for rep in range(2)]
        for cond in condition_table(6):
            want = max(residual(cond, s15, model, mode="weak17") for model in models)
            assert residual(cond, s15, models, mode="weak17") == want, cond.number


class TestSharedEvaluator:
    """The checker's coefficients and the integrator's come from one fold."""

    @pytest.mark.parametrize("scheme_name", ["s16", "s15"])
    def test_checker_and_cache_coefficients_are_bitwise_equal(self, scheme_name, request):
        scheme = request.getfixturevalue(scheme_name)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5))
        # a power-of-two h makes c*(h*A) and (c*h)*A the same floats
        h = 0.25
        ev = PhiAtMatrix(scheme, (h * A)[None])
        cache = build_phi_cache(A, h, scheme.nodes_used, scheme.max_phi_index)
        assert cache.basis is None
        for i, (_, row) in scheme.rows.items():
            for j, poly in row.items():
                got, want = ev.row(i)[j], cache.coeff(poly)
                assert got.shape == (1, 5, 5) and got.tobytes() == want.tobytes(), (i, j)


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
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["number", "order", "kind", "tree", "residual", "pass"]
        assert len(rows) == len(report.results)
        for row, want in zip(rows, report.results):
            assert row == [str(want.number), str(want.order), want.kind, want.tree,
                           repr(want.residual), str(want.passed).lower()]
            assert float(row[4]) == want.residual
