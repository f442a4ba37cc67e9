import math

import numpy as np
import pytest

from exprk.problems import (
    SemilinearProblem,
    discrete_l2,
    error_at,
    heat_source,
    make_heat1d,
    make_linear_decay,
    problem_by_name,
)


class TestHeat1d:
    def test_operator_norm_at_default_size(self):
        p = make_heat1d(200)
        assert np.linalg.norm(p.A, np.inf) == 4 * 201**2 == 161604

    def test_source_at_midpoint_start(self):
        # frozen: 1/4 + 2 - 1/(1 + 1/16) = 2.25 - 16/17
        want = 2.25 - 16.0 / 17.0
        assert heat_source(0.5, 0.0) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(1.3088235294117647, rel=1e-15)

    def test_source_matches_finite_difference_oracle(self):
        # S must equal u_t - u_xx - 1/(1+u^2) for u = x(1-x)e^t
        rng = np.random.default_rng(31)
        u = lambda x, t: x * (1 - x) * math.exp(t)
        eps_t = 1e-5
        eps_x = 1e-4  # second difference: eps ~ ulp^(1/4) keeps noise ~1e-8
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.0, 1.0)
            ut = (u(x, t + eps_t) - u(x, t - eps_t)) / (2 * eps_t)
            uxx = (u(x + eps_x, t) - 2 * u(x, t) + u(x - eps_x, t)) / eps_x**2
            want = ut - uxx - 1.0 / (1.0 + u(x, t) ** 2)
            assert heat_source(x, t) == pytest.approx(want, abs=1e-6)

    def test_nonlinearity_is_reaction_plus_source(self):
        # g forms the source from a stored x(1-x) and math.exp; heat_source
        # from x and np.exp, so the two agree to roundoff
        n = 64
        p = make_heat1d(n)
        x = np.arange(1, n + 1) / (n + 1)
        u = np.random.default_rng(33).normal(size=n)
        for t in (0.0, 1 / 512, 0.37, 0.5, 1.0, 2.5):
            want = 1.0 / (1.0 + u**2) + heat_source(x, t)
            assert np.allclose(p.g(t, u), want, rtol=1e-14, atol=0)

    def test_operator_action_is_the_matrix_product(self):
        # apply_A applies A's stencil, so it matches A @ v to roundoff; the
        # columns of V are strided views, as the Krylov path passes them
        p = make_heat1d(64)
        V = np.random.default_rng(34).normal(size=(64, 3))
        for v in V.T:
            scale = np.linalg.norm(p.A, np.inf) * np.abs(v).max()
            assert np.allclose(p.apply_A(v), p.A @ v, rtol=0, atol=1e-15 * scale)

    def test_exact_peak_at_final_time(self):
        # n odd puts x = 1/2 on the grid
        p = make_heat1d(199)
        final = p.exact(1.0)
        k = np.argmax(final)
        x = (k + 1) / 200
        assert x == 0.5
        assert final[k] == pytest.approx(math.e / 4, rel=1e-15)
        assert final[k] == pytest.approx(0.6795705, abs=1e-7)

    def test_exact_solves_semidiscrete_system(self):
        # quadratic-in-x profile: the central difference is exact, so the
        # residual u_t - A u - g is pure roundoff (scaled by ||A||)
        p = make_heat1d(100)
        for t in (0.0, 0.37, 1.0):
            u = p.exact(t)
            resid = u - (p.A @ u + p.g(t, u))  # du/dt = u for this profile
            assert np.max(np.abs(resid)) <= 1e-8

    def test_initial_state_matches_exact(self):
        p = make_heat1d(64)
        assert np.allclose(p.u0, p.exact(0.0), atol=0)

    def test_discretization_second_order_on_generic_function(self):
        # a non-polynomial profile shows the O(dx^2) consistency slope
        f = lambda x: np.sin(3 * x) * np.exp(x)
        fxx = lambda x: (np.cos(3*x)*6 - 8*np.sin(3*x)) * np.exp(x)
        errs = []
        for n in (100, 200, 400):
            p = make_heat1d(n)
            x = np.arange(1, n + 1) / (n + 1)
            # boundary rows see f(0), f(1); subtract their contribution
            v = p.A @ f(x)
            v[0] += f(0.0) * (n + 1) ** 2
            v[-1] += f(1.0) * (n + 1) ** 2
            errs.append(np.max(np.abs(v - fxx(x))))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert s == pytest.approx(2.0, abs=0.1)

    def test_lipschitz_bound_holds_empirically(self):
        p = make_heat1d(64)
        rng = np.random.default_rng(32)
        for _ in range(50):
            t = rng.uniform(0, 1)
            u1 = p.exact(t) + rng.normal(scale=0.2, size=64)
            u2 = u1 + rng.normal(scale=1e-3, size=64)
            diff = np.abs(p.g(t, u1) - p.g(t, u2))
            bound = p.lipschitz_bound * np.abs(u1 - u2)
            assert np.all(diff <= bound * (1 + 1e-9) + 1e-15)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_heat1d(4)


class TestLinearDecay:
    def test_initial_mode_is_eigenvector(self):
        p = make_linear_decay(128)
        lam1 = -4 * 129**2 * math.sin(math.pi / 258) ** 2
        assert np.allclose(p.A @ p.u0, lam1 * p.u0, rtol=1e-10, atol=1e-8)

    def test_exact_decay_formula(self):
        p = make_linear_decay(64)
        lam1 = -4 * 65**2 * math.sin(math.pi / 130) ** 2
        t = 0.3
        assert np.allclose(p.exact(t), math.exp(lam1 * t) * p.u0, rtol=1e-14)

    def test_nonlinearity_identically_zero(self):
        p = make_linear_decay(16)
        assert np.array_equal(p.g(0.5, p.u0), np.zeros(16))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            make_linear_decay(0)

    def test_norm_decay_monotone(self):
        p = make_linear_decay(32)
        norms = [discrete_l2(p.exact(t), p.dx) for t in (0.0, 0.2, 0.5, 1.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestErrorMeasure:
    def test_zero_for_exact_state(self):
        p = make_heat1d(32)
        assert error_at(p, p.exact(0.7), 0.7) == 0.0

    def test_single_entry_perturbation(self):
        p = make_heat1d(32)
        eps = 1e-3
        state = p.exact(0.2).copy()
        state[0] += eps
        assert error_at(p, state, 0.2) == pytest.approx(math.sqrt(p.dx) * eps,
                                                        rel=1e-12)

    def test_homogeneity(self):
        v = np.array([3.0, -4.0])
        assert discrete_l2(2 * v, 0.5) == pytest.approx(2 * discrete_l2(v, 0.5))
        assert discrete_l2(np.zeros(5), 0.1) == 0.0

    def test_missing_exact_solution(self):
        p = make_heat1d(16)
        bare = SemilinearProblem(name="bare", n=16, A=p.A, apply_A=p.apply_A,
                                 g=p.g, u0=p.u0, dx=p.dx, exact=None)
        with pytest.raises(ValueError):
            error_at(bare, p.u0, 0.0)


class TestRegistry:
    def test_lookup(self):
        assert problem_by_name("heat1d", 32).name == "heat1d"
        assert problem_by_name("lindecay", 32).name == "lindecay"
        with pytest.raises(KeyError):
            problem_by_name("burgers", 32)
