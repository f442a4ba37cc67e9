import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from exprk.phi import build_phi_cache, phi_scalar
from exprk.tableaus import (
    PhiPoly,
    Scheme,
    block_weights,
    make_exponential_euler,
    make_expk2,
    make_exprk6s15,
    make_exprk6s16,
    scheme_by_name,
)


@pytest.fixture(scope="module")
def s15():
    return make_exprk6s15()


@pytest.fixture(scope="module")
def s16():
    return make_exprk6s16()


class TestPhiPoly:
    def test_weights_exact_rationals(self, s15):
        for poly in list(s15.a.values()) + list(s15.b.values()):
            for j, w in poly.terms:
                assert isinstance(w, F)
                assert j >= 1

    def test_at_zero_uses_inverse_factorials(self):
        p = PhiPoly.make(F(1, 2), {1: F(3), 4: F(5)})
        assert p.at_zero() == F(3) / 1 + F(5, 24)

    def test_zero_weights_dropped(self):
        p = PhiPoly.make(1, {1: 0, 2: F(1, 3)})
        assert p.terms == ((2, F(1, 3)),)

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            PhiPoly.make(1, {0: 1})

    def test_scalar_evaluation(self):
        p = PhiPoly.make(F(1, 2), {2: F(3)})
        z = 0.8
        assert p.eval_scalar(z) == pytest.approx(3.0 * phi_scalar(2, 0.5 * z), rel=1e-14)


class TestBlockWeights:
    def test_moment_system_exact(self):
        # sum_col w[j,col] c_col^(q-1) = (q-1)! delta_qj, in exact arithmetic
        for nodes in ([F(1, 2), F(1, 3)],
                      [F(1, 2), F(1, 5), F(1, 4)],
                      [F(18, 25), F(1, 3), F(3, 10), F(1, 6)],
                      [F(1, 2), F(1, 5), F(1, 4), F(1, 3), F(1)]):
            w = block_weights(nodes)
            jmax = len(nodes) + 1
            for q in range(2, jmax + 1):
                for j in range(2, jmax + 1):
                    lhs = sum(w[(j, col)] * nodes[col] ** (q - 1)
                              for col in range(len(nodes)))
                    want = math.factorial(q - 1) if q == j else 0
                    assert lhs == want

    def test_rejects_duplicate_or_zero_nodes(self):
        with pytest.raises(ValueError):
            block_weights([F(1, 2), F(1, 2)])
        with pytest.raises(ValueError):
            block_weights([F(0), F(1, 2)])


# -- closed forms as printed, hand-transcribed ------------------------------


def _rho(j, ci, ck, cl):
    den = ci * (ci - cl) * (ci - ck)
    return {2: ck * cl, 3: -2 * (ck + cl), 4: F(6)}[j] / den


def _mu(j, ci, cd, ck, cl):
    den = ci * (ci - cd) * (ci - ck) * (ci - cl)
    return {2: -cd * ck * cl, 3: 2 * (cd * ck + cd * cl + ck * cl),
            4: -6 * (cd + ck + cl), 5: F(24)}[j] / den


def _b_final4(j, ci, cj, ck, cl):
    den = ci * (ci - cj) * (ci - ck) * (ci - cl)
    return {2: -cj * ck * cl, 3: 2 * (cj * ck + cj * cl + ck * cl),
            4: -6 * (cj + ck + cl), 5: F(24)}[j] / den


def _theta(j, ci, others):
    # final weights over five nodes; the signs follow the same derivation
    # that reproduces the four-node table (coefficient extraction from
    # x * prod(x - c_m)), alternating opposite to the four-node pattern
    e1 = sum(others)
    e2 = sum(others[a] * others[b] for a in range(4) for b in range(a + 1, 4))
    e3 = sum(others[a] * others[b] * others[c]
             for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4))
    e4 = others[0] * others[1] * others[2] * others[3]
    den = ci
    for cm in others:
        den *= ci - cm
    return {2: e4, 3: -2 * e3, 4: 6 * e2, 5: -24 * e1, 6: F(120)}[j] / den


class TestExpRK6s15:
    def test_nodes(self, s15):
        c = s15.c
        assert c[2] == c[3] == c[5] == F(1, 2)
        assert c[4] == c[9] == c[13] == F(1, 3)
        assert c[6] == c[15] == F(1, 5)
        assert c[7] == F(1, 4)
        assert c[8] == F(18, 25)
        assert c[10] == c[14] == F(3, 10)
        assert c[11] == F(1, 6)
        assert c[12] == F(90, 103)

    def test_groups(self, s15):
        assert s15.groups == ((2,), (3, 4), (5, 6, 7), (8, 9, 10, 11),
                              (12, 13, 14, 15))

    def test_first_block_rows(self, s15):
        for i in (3, 4):
            poly = s15.a[(i, 2)]
            assert poly.c == s15.c[i]
            assert poly.weights == {2: s15.c[i] ** 2 / s15.c[2]}

    def test_second_block_rows_match_printed_form(self, s15):
        # a_ij = (-c_i^2 c_k phi_{2,i} + 2 c_i^3 phi_{3,i}) / (c_j (c_j - c_k))
        for i in (5, 6, 7):
            for jcol, kcol in ((3, 4), (4, 3)):
                ci, cj, ck = s15.c[i], s15.c[jcol], s15.c[kcol]
                den = cj * (cj - ck)
                poly = s15.a[(i, jcol)]
                assert poly.c == ci
                assert poly.weights == {2: -(ci**2) * ck / den, 3: 2 * ci**3 / den}

    def test_rho_block_matches_printed_form(self, s15):
        cols = (5, 6, 7)
        for i in (8, 9, 10, 11):
            for col in cols:
                others = [s15.c[x] for x in cols if x != col]
                poly = s15.a[(i, col)]
                want = {j: s15.c[i] ** j * _rho(j, s15.c[col], *others)
                        for j in (2, 3, 4)}
                assert poly.weights == want

    def test_mu_block_matches_printed_form(self, s15):
        cols = (8, 9, 10, 11)
        for i in (12, 13, 14, 15):
            for col in cols:
                others = [s15.c[x] for x in cols if x != col]
                poly = s15.a[(i, col)]
                want = {j: s15.c[i] ** j * _mu(j, s15.c[col], *others)
                        for j in (2, 3, 4, 5)}
                assert poly.weights == want

    def test_final_weights_match_printed_form(self, s15):
        cols = (12, 13, 14, 15)
        for col in cols:
            others = [s15.c[x] for x in cols if x != col]
            poly = s15.b[col]
            assert poly.c == 1
            want = {j: _b_final4(j, s15.c[col], *others) for j in (2, 3, 4, 5)}
            assert poly.weights == want

    def test_scalar_identity_sampled(self, s15):
        # the stored polynomials equal the printed closed forms pointwise
        rng = np.random.default_rng(2024)
        cols = (8, 9, 10, 11)
        for z in rng.uniform(-3.0, 3.0, 20):
            for i in (12, 14):
                for col in cols:
                    others = [float(s15.c[x]) for x in cols if x != col]
                    ci = float(s15.c[i])
                    closed = sum(
                        ci**j * float(_mu(j, s15.c[col],
                                          *[s15.c[x] for x in cols if x != col]))
                        * phi_scalar(j, ci * z)
                        for j in (2, 3, 4, 5)
                    )
                    got = s15.a[(i, col)].eval_scalar(z)
                    assert abs(got - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_row12_sparsity(self, s15):
        referenced = {j for (i, j) in s15.a if i == 12}
        assert referenced == {8, 9, 10, 11}
        for i in (13, 14, 15):
            assert {j for (r, j) in s15.a if r == i} == {8, 9, 10, 11}
        # and b weights only on the last block
        assert set(s15.b) == {12, 13, 14, 15}

    def test_weak_order6_node_identity_exact(self, s15):
        total = sum(s15.b[i].at_zero() * s15.c[i] ** 5 for i in s15.b)
        assert total == F(1, 6)

    def test_weak_order6_node_identity_float_oracle(self, s15):
        total = math.fsum(float(s15.b[i].at_zero()) * float(s15.c[i]) ** 5
                          for i in s15.b)
        assert abs(total - 0.16666666666666666) <= 1e-12

    def test_b_at_zero_frozen_value(self, s15):
        assert s15.b[12].at_zero() == F(11592740743, 36987687720)
        assert float(s15.b[12].at_zero()) == pytest.approx(0.31342, abs=5e-6)

    def test_quadrature_conditions_at_zero_exact(self, s15):
        for q in range(2, 6):
            lhs = sum(s15.b[i].at_zero() * s15.c[i] ** (q - 1) for i in s15.b)
            assert lhs / math.factorial(q - 1) == F(1, math.factorial(q))


class TestExpRK6s16:
    def test_nodes(self, s16):
        c = s16.c
        assert c[2] == c[3] == c[5] == c[8] == c[12] == F(1, 2)
        assert c[4] == c[11] == c[15] == F(1, 3)
        assert c[6] == c[9] == c[13] == F(1, 5)
        assert c[7] == c[10] == c[14] == F(1, 4)
        assert c[16] == F(1)

    def test_groups_max_size_five(self, s16):
        assert s16.groups[-1] == (12, 13, 14, 15, 16)
        assert max(len(g) for g in s16.groups) == 5

    def test_final_weights_match_theta_table(self, s16):
        cols = (12, 13, 14, 15, 16)
        for col in cols:
            others = [s16.c[x] for x in cols if x != col]
            want = {j: _theta(j, s16.c[col], others) for j in (2, 3, 4, 5, 6)}
            assert s16.b[col].weights == want

    def test_quadrature_conditions_at_zero_exact(self, s16):
        # order 2..6 all hold exactly, no weakened condition here
        for q in range(2, 7):
            lhs = sum(s16.b[i].at_zero() * s16.c[i] ** (q - 1) for i in s16.b)
            assert lhs / math.factorial(q - 1) == F(1, math.factorial(q))

    def test_internal_blocks_shared_with_s15_structure(self, s15, s16):
        # rows 5..7 solve the same two-node system in both schemes
        for i in (5, 6, 7):
            for col in (3, 4):
                assert s16.a[(i, col)].weights == s15.a[(i, col)].weights


class TestSchemaValidation:
    def test_group_topology_enforced(self):
        with pytest.raises(ValueError):
            Scheme(name="bad", s=3, c={2: F(1, 2), 3: F(1, 3)},
                   a={(3, 2): PhiPoly.make(F(1, 3), {2: 1})},
                   b={}, groups=((2, 3),))

    def test_groups_must_partition(self):
        with pytest.raises(ValueError):
            Scheme(name="bad", s=3, c={2: F(1, 2), 3: F(1, 3)}, a={}, b={},
                   groups=((2,),))

    def test_lower_triangular_enforced(self):
        with pytest.raises(ValueError):
            Scheme(name="bad", s=3, c={2: F(1, 2), 3: F(1, 3)},
                   a={(2, 3): PhiPoly.make(F(1, 2), {2: 1})},
                   b={}, groups=((2,), (3,)))


    def test_nodes_must_cover_stages(self):
        for c in ({2: F(1, 2)}, {2: F(1, 2), 3: F(1, 3), 4: F(1)}):
            with pytest.raises(ValueError, match="nodes c"):
                Scheme(name="bad", s=3, c=c, a={}, b={}, groups=((2,), (3,)))

    def test_weights_must_be_on_stages(self):
        for j in (1, 3):
            with pytest.raises(ValueError, match=rf"b\[{j}\]"):
                Scheme(name="bad", s=2, c={2: F(1, 2)}, a={},
                       b={j: PhiPoly.make(1, {2: 1})}, groups=((2,),))

    def test_coefficients_must_sit_at_their_row_node(self, s16):
        # a[3,2] belongs at c_3 = 1/2, b[16] at the update's node 1
        moved = {"a": {**s16.a, (3, 2): PhiPoly.make(F(1, 3), s16.a[(3, 2)].weights)},
                 "b": {**s16.b, 16: PhiPoly.make(F(1, 2), s16.b[16].weights)}}
        for field, coeffs in moved.items():
            with pytest.raises(ValueError, match="not its row's node"):
                replace(s16, **{field: coeffs})

    def test_rows_read_a_then_b(self, s16):
        assert list(s16.rows) == list(range(2, 18))
        assert s16.rows[3] == (F(1, 2), {2: s16.a[(3, 2)]})
        assert s16.rows[17] == (F(1), s16.b)
        assert list(s16.rows[17][1]) == list(s16.b)
        e = make_exponential_euler()
        assert e.rows == {2: (F(1), {})}


class TestBaselines:
    def test_exponential_euler_shape(self):
        e = make_exponential_euler()
        assert e.s == 1 and not e.a and not e.b and e.groups == ()
        assert e.max_phi_index == 1
        assert e.nodes_used == {F(1)}

    def test_expk2_weights(self):
        s = make_expk2(F(1, 2))
        assert s.b[2].weights == {2: F(2)}
        assert s.b[2].c == 1
        s1 = make_expk2()
        assert s1.c[2] == F(1)
        assert s1.b[2].weights == {2: F(1)}

    def test_expk2_rejects_bad_node(self):
        with pytest.raises(ValueError):
            make_expk2(0)
        with pytest.raises(ValueError):
            make_expk2(F(3, 2))

    def test_scheme_registry(self):
        for name in ("exprk6s15", "exprk6s16", "expeuler", "expk2"):
            assert scheme_by_name(name).name == name
        with pytest.raises(KeyError):
            scheme_by_name("rk4")


def _coeff_matrix(cache, poly):
    """PhiCache.coeff of an eigenbasis cache as the n x n matrix Q diag(coeff) Q^T."""
    coeff = cache.coeff(poly)
    assert coeff.ndim == 1 and not coeff.flags.writeable
    return cache.from_basis(coeff * cache.to_basis(np.eye(coeff.size)))


class TestEvalCoeff:
    """Scheme coefficients evaluated by PhiCache.coeff."""

    def test_identity_on_zero_operator(self):
        cache = build_phi_cache(np.zeros((3, 3)), 1.0, [F(1)], 1)
        poly = PhiPoly.make(1, {1: 1})
        assert np.allclose(_coeff_matrix(cache, poly), np.eye(3), atol=1e-15)

    def test_rho_row_at_zero_matches_rationals(self, s15):
        # phi_j(0) = 1/j! turns each row into its exact rational value
        cache = build_phi_cache(np.zeros((2, 2)), 1.0, s15.nodes_used, 5)
        for col in (5, 6, 7):
            poly = s15.a[(8, col)]
            got = _coeff_matrix(cache, poly)
            assert np.allclose(got, float(poly.at_zero()) * np.eye(2), atol=1e-15)

    def test_mu_row_spectral_oracle_on_diagonal_matrix(self, s15):
        diag = np.diag([-2.0, -0.5, 1.0])
        h = 0.8
        cache = build_phi_cache(diag, h, s15.nodes_used, 5)
        poly = s15.a[(12, 9)]
        got = _coeff_matrix(cache, poly)
        want = np.diag([poly.eval_scalar(h * d) for d in np.diag(diag)])
        assert np.allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_missing_cache_entry(self):
        cache = build_phi_cache(np.zeros((3, 3)), 1.0, [F(1)], 1)
        with pytest.raises(KeyError):
            cache.coeff(PhiPoly.make(F(1, 2), {1: 1}))
