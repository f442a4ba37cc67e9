import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from exprk.phi import (
    SERIES_RADIUS,
    SINE_FOLD_MIN_N,
    SINE_TRANSFORM_MIN_N,
    TridiagonalToeplitz,
    _MatrixBasis,
    _SineFold,
    _SineTransform,
    arnoldi,
    build_phi_cache,
    phi_all_dense,
    phi_combo_apply_krylov,
    phi_scalar,
    phi_scalar_all,
)
from oracles import (
    dense_matrix,
    expm_ref,
    phi_augmented_ref,
    phi_matrix_from_cache,
    phi_matrix_series_ref,
    phi_ref,
    phi_scalar_all_series_ref,
    phi_spectral_ref,
    toeplitz_phi_ref,
)


class TestPhiScalar:
    def test_phi6_at_zero_is_inverse_factorial(self):
        assert phi_scalar(6, 0.0) == 1 / math.factorial(6)

    def test_phi0_is_exponential(self):
        assert phi_scalar(0, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_phi1_at_one(self):
        assert phi_scalar(1, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_phi2_at_minus_one(self):
        # frozen from the 50-term high-precision series oracle; equals 1/e
        expected = 0.36787944117144233
        assert phi_ref(2, -1.0) == pytest.approx(expected, rel=1e-15)
        assert phi_scalar(2, -1.0) == pytest.approx(expected, rel=1e-14)

    def test_zero_argument_exact_for_all_indices(self):
        for k in range(11):
            assert phi_scalar(k, 0.0) == 1 / math.factorial(k)

    @pytest.mark.parametrize("k", range(11))
    def test_matches_high_precision_oracle(self, k):
        rng = np.random.default_rng(123 + k)
        for z in rng.uniform(-10.0, 10.0, size=12):
            ref = phi_ref(k, float(z))
            assert phi_scalar(k, float(z)) == pytest.approx(ref, rel=1e-14)

    def test_recurrence_identity_quotient_form(self):
        # well-conditioned on the recurrence side of the threshold
        rng = np.random.default_rng(42)
        zs = np.concatenate([rng.uniform(0.5, 10.0, 40), rng.uniform(-10.0, -0.5, 40)])
        for z in zs:
            for k in range(7):
                lhs = phi_scalar(k + 1, z)
                rhs = (phi_scalar(k, z) - 1 / math.factorial(k)) / z
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_recurrence_identity_product_form_small_arguments(self):
        # the quotient form amplifies rounding by 1/|z| below the series
        # threshold, so the identity is checked as phi_k = 1/k! + z phi_{k+1}
        rng = np.random.default_rng(43)
        zs = np.concatenate([
            10.0 ** rng.uniform(-8, math.log10(0.5), 60),
            -(10.0 ** rng.uniform(-8, math.log10(0.5), 60)),
        ])
        for z in zs:
            for k in range(7):
                lhs = phi_scalar(k, z)
                rhs = 1 / math.factorial(k) + z * phi_scalar(k + 1, z)
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            phi_scalar(-1, 0.0)
        with pytest.raises(ValueError):
            phi_scalar(0, math.inf)
        with pytest.raises(ValueError):
            phi_scalar(2, math.nan)

    def test_array_evaluator_matches_oracle_on_all_bands(self):
        rng = np.random.default_rng(7)
        z = np.concatenate([
            rng.uniform(-0.5, 0.5, 20),            # series band
            rng.uniform(0.5, 20.0, 20),            # scaling and squaring band
            rng.uniform(-20.0, -0.5, 20),
            [0.5, -0.5, 1.0, 19.99, -19.99],
            [20.0, -20.0, -1e4],                   # double recurrence band
            -(10.0 ** rng.uniform(math.log10(20.0), 4.0, 20)),
        ])
        vals = phi_scalar_all(6, z)
        for i, zi in enumerate(z):
            for k in range(7):
                # phi_0 underflows below z = -708: no relative accuracy there
                want = pytest.approx(phi_ref(k, float(zi)), rel=1e-14,
                                     abs=np.finfo(float).tiny)
                assert vals[k, i] == want, (k, zi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_evaluator_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            phi_scalar_all(3, np.array([0.1, bad, -30.0]))

    def test_series_threshold_documented(self):
        assert SERIES_RADIUS == 0.5

    @pytest.mark.parametrize("kmax", [0, 1, 6, 8])
    def test_bitwise_the_series_on_every_argument(self, kmax):
        # only arguments below the recurrence radius take the series and the
        # squarings; every element must equal the kernel that gave them to all
        edge = max(20.0, kmax)
        marks = [edge, SERIES_RADIUS, 2.0**-30, 1e-300]
        around = [np.nextafter(m, d) for m in marks for d in (0.0, np.inf)]
        rng = np.random.default_rng(kmax)
        z = np.concatenate([
            [0.0], marks, around, np.negative(marks), np.negative(around),
            np.linspace(-3 * edge, 3 * edge, 601),
            -(10.0 ** rng.uniform(-3.0, 7.0, 200)),  # a stiff spectrum
            rng.uniform(-edge, edge, 200),
        ])
        rng.shuffle(z)
        for part in (z, z[:1], z[np.abs(z) < edge], z[np.abs(z) >= edge]):
            got = phi_scalar_all(kmax, part)
            assert got.tobytes() == phi_scalar_all_series_ref(kmax, part).tobytes()


class TestExpm:
    """exp(M) is phi_all_dense(M, 0)[0]."""

    def test_zero_matrix(self):
        assert np.allclose(phi_all_dense(np.zeros((4, 4)), 0)[0], np.eye(4), atol=1e-15)

    def test_diagonal(self):
        E = phi_all_dense(np.diag([1.0, -1.0]), 0)[0]
        assert np.allclose(E, np.diag([math.e, 1.0 / math.e]), rtol=1e-14)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            M = rng.standard_normal((5, 5))
            M /= np.linalg.norm(M, 2)
            ref = expm_ref(M)
            got = phi_all_dense(M, 0)[0]
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            phi_all_dense(np.zeros((2, 3)), 0)

    def test_rejects_nonfinite(self):
        M = np.zeros((2, 2))
        M[0, 0] = math.nan
        with pytest.raises(ValueError):
            phi_all_dense(M, 0)


class TestPhiAllDense:
    def test_zero_matrix(self):
        mats = phi_all_dense(np.zeros((3, 3)), 3)
        expected = [np.eye(3), np.eye(3), np.eye(3) / 2, np.eye(3) / 6]
        for got, ref in zip(mats, expected):
            assert np.allclose(got, ref, atol=1e-15)

    def test_scalar_matrix(self):
        mats = phi_all_dense(np.array([[1.0]]), 1)
        assert mats[0][0, 0] == pytest.approx(math.e, rel=1e-14)
        assert mats[1][0, 0] == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_rejects_nonfinite(self):
        M = np.zeros((3, 3))
        M[1, 2] = -math.inf
        with pytest.raises(ValueError, match="non-finite"):
            phi_all_dense(M, 2)

    @pytest.mark.parametrize("kmax", [0, 6])
    @pytest.mark.parametrize("n", [40, 120])
    def test_advection_diffusion_matches_augmented_oracle(self, n, kmax):
        # upwinded u_t = u_xx - 20 u_x on (0, 1), Dirichlet, at h = 1/8:
        # non-normal, with ||hA||_1 = 1.0e3 (n=40) and 7.9e3 (n=120)
        M = _advection_diffusion(n) / 8
        for got, want in zip(phi_all_dense(M, kmax), phi_augmented_ref(M, kmax)):
            gap = np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)
            assert gap <= 1e-11

    def test_stiff_heat1d_matches_augmented_oracle(self):
        # heat1d at n=64 and h = 1/8, the matrix-free benchmark's argument:
        # symmetric, with ||hA||_1 = 2.1e3
        from exprk.problems import make_heat1d

        M = dense_matrix(make_heat1d(64).A) / 8
        for got, want in zip(phi_all_dense(M, 4), phi_augmented_ref(M, 4)):
            gap = np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)
            assert gap <= 1e-11

    def test_refuses_a_tridiagonal_toeplitz_record(self):
        from exprk.problems import make_heat1d

        with pytest.raises(ValueError, match="TridiagonalToeplitz.*dense"):
            phi_all_dense(make_heat1d(16).A, 1)

    def test_against_spectral_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            # well-conditioned diagonalizable matrix
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            lam = rng.uniform(-2.0, 2.0, 4)
            M = Q @ np.diag(lam) @ Q.T
            mats = phi_all_dense(M, 6)
            ref = phi_spectral_ref(M, 6)
            for got, want in zip(mats, ref):
                assert np.linalg.norm(got - want) <= 1e-11 * max(1.0, np.linalg.norm(want))


class TestArnoldi:
    def test_orthonormal_basis_and_residual_structure(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((30, 30))
        v = rng.standard_normal(30)
        V, H = arnoldi(lambda x: A @ x, v, 12)
        k = V.shape[1]
        assert np.linalg.norm(V.T @ V - np.eye(k)) <= 1e-10
        R = A @ V - V @ H[:k, :]
        # residual lives in the last column only, with norm H[k, k-1]
        assert np.linalg.norm(R[:, :-1]) <= 1e-10 * np.linalg.norm(A)
        assert np.linalg.norm(R[:, -1]) == pytest.approx(H[k, k - 1], rel=1e-10)
        assert np.linalg.norm(V.T @ R[:, -1]) <= 1e-10 * np.linalg.norm(A)

    def test_diagonal_with_unit_vector_breaks_down_immediately(self):
        D = np.diag(np.arange(1.0, 9.0))
        e1 = np.eye(8)[:, 0]
        V, H = arnoldi(lambda x: D @ x, e1, 4)
        assert V.shape == (8, 1)
        assert H.shape == (2, 1)
        assert H[0, 0] == pytest.approx(1.0)
        assert H[1, 0] == 0.0

    def test_full_space_is_invariant(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((10, 10))
        v = rng.standard_normal(10)
        V, H = arnoldi(lambda x: A @ x, v, 10)
        assert V.shape == (10, 10)
        assert np.linalg.norm(V.T @ V - np.eye(10)) <= 1e-10
        assert abs(H[-1, -1]) <= 1e-10 * np.linalg.norm(A)

    def test_symmetric_operator_gives_tridiagonal(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((20, 20))
        A = A + A.T
        v = rng.standard_normal(20)
        V, H = arnoldi(lambda x: A @ x, v, 15)
        k = V.shape[1]
        Hk = H[:k, :]
        above = np.triu(Hk, 2)
        assert np.max(np.abs(above)) <= 1e-10 * np.linalg.norm(A)
        # sub/super symmetry
        for j in range(k - 1):
            assert Hk[j, j + 1] == pytest.approx(Hk[j + 1, j], abs=1e-10 * np.linalg.norm(A))

    def test_zero_start_vector_rejected(self):
        with pytest.raises(ValueError):
            arnoldi(lambda x: x, np.zeros(5), 3)

    def test_smaller_basis_is_bitwise_prefix_of_larger(self):
        A = _laplacian(64) / 8
        v = np.random.default_rng(11).standard_normal(64)
        V16, H16 = arnoldi(lambda x: A @ x, v, 16)
        V32, H32 = arnoldi(lambda x: A @ x, v, 32)
        assert np.array_equal(V16, V32[:, :16])
        assert np.array_equal(H16, H32[:17, :16])

    def test_orthonormal_at_full_dimension_on_stiff_laplacian(self):
        A = _laplacian(64) / 8
        v = np.random.default_rng(12).standard_normal(64)
        V, _ = arnoldi(lambda x: A @ x, v, 64)
        assert V.shape == (64, 64)
        assert np.linalg.norm(V.T @ V - np.eye(64)) <= 1e-13


def _laplacian(n):
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    return ((n + 1) ** 2) * (np.diag(main) + np.diag(off, 1) + np.diag(off, -1))


def _combo_ref(A, h, V):
    """sum_j h^j phi_j(hA) v_j, each phi_j(hA) from the augmented oracle."""
    phis = phi_augmented_ref(h * A, len(V) - 1)
    return sum(h**j * (phis[j] @ v) for j, v in enumerate(V))


def _dense_solve(M, sigma, calls=None):
    """x = (I - sigma M)^-1 y by a dense solve, with its shift as `sigma`;
    each call is appended to `calls` where one is given."""
    shifted = np.eye(len(M)) - sigma * M

    def solve(y):
        if calls is not None:
            calls.append(1)
        return np.linalg.solve(shifted, y)

    solve.sigma = sigma
    return solve


class TestPhiComboApplyKrylov:
    """phi_combo_apply_krylov on general operators, each with a dense shifted solve."""

    def test_single_vector_is_exponential_action(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 5))
        u, h = rng.standard_normal(5), 0.3
        got = phi_combo_apply_krylov(lambda v: M @ v, h, [u, np.zeros(5), np.zeros(5)], 1e-12,
                                     solve=_dense_solve(M, h / 4))
        assert np.allclose(got, scipy.linalg.expm(h * M) @ u, rtol=1e-12, atol=1e-13)

    def test_zero_operator_gives_taylor_sum(self):
        # A = 0 leaves the augmented space invariant after p + 1 columns,
        # well short of the full n + p: the answer is exact, not a fallback
        n, p, h = 20, 3, 0.7
        rng = np.random.default_rng(4)
        V = [rng.standard_normal(n) for _ in range(p + 1)]
        got, info = phi_combo_apply_krylov(lambda v: np.zeros(n), h, V, 1e-12, return_info=True,
                                           solve=_dense_solve(np.zeros((n, n)), h / 4))
        assert info.m <= p + 1 and not info.dense_fallback
        want = sum(h**j * V[j] / math.factorial(j) for j in range(p + 1))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_against_augmented_oracle_nonsymmetric(self):
        # the other Krylov tests use the symmetric Laplacian; a general
        # operator gives a full Hessenberg H
        n, h, p = 40, 0.9, 3
        rng = np.random.default_rng(6)
        M = rng.standard_normal((n, n))
        M /= np.linalg.norm(M, 2)
        V = [rng.standard_normal(n) for _ in range(p + 1)]
        got, info = phi_combo_apply_krylov(lambda v: M @ v, h, V, 1e-10,
                                           return_info=True, solve=_dense_solve(M, h / 4))
        assert info.m < n + p and not info.dense_fallback
        want = _combo_ref(M, h, V)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_zero_vectors_give_zero(self):
        A = _laplacian(16)
        out = phi_combo_apply_krylov(lambda v: A @ v, 0.5, [np.zeros(16)] * 3, 1e-9,
                                     solve=_dense_solve(A, 0.5 / 4))
        assert np.array_equal(out, np.zeros(16))

    def test_rejects_nonpositive_tolerance(self):
        # a NaN tol compares False with 0 too; taken, it grew the basis to the full space
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                phi_combo_apply_krylov(lambda v: v, 1.0, [np.ones(4)], tol,
                                       solve=_dense_solve(np.eye(4), 0.25))

    def test_names_an_empty_vector_list_before_any_work(self):
        calls = []

        def apply_A(v):
            calls.append(1)
            return v

        with pytest.raises(ValueError, match="empty list"):
            phi_combo_apply_krylov(apply_A, 1.0, [], 1e-9,
                                   solve=_dense_solve(np.eye(4), 0.25, calls))
        assert calls == []

    def test_basis_grows_without_restarting(self):
        n, h = 64, 2e-3
        A = _laplacian(n)
        rng = np.random.default_rng(16)
        V = [rng.standard_normal(n) for _ in range(3)]
        calls = []
        out, info = phi_combo_apply_krylov(lambda v: A @ v, h, V, 1e-9, return_info=True,
                                           solve=_dense_solve(A, h / 4, calls))
        assert not info.dense_fallback and info.m > 8  # grown past the first block
        # one solve per basis column, plus one: arnoldi keeps no column for
        # its next vector, so the first extension recomputes its last column
        assert len(calls) == info.m + 1
        dense = _combo_ref(A, h, V)
        assert np.linalg.norm(out - dense) <= 1e-9 * np.linalg.norm(dense)

    def test_small_call_answers_from_the_full_space(self):
        # n + p below the first block's 8 columns: the first basis fills the
        # augmented space, flagged, and the projection onto it is the operator
        n, h, p = 4, 1 / 8, 3
        A = _laplacian(n)
        rng = np.random.default_rng(15)
        V = [rng.standard_normal(n) for _ in range(p + 1)]
        out, info = phi_combo_apply_krylov(lambda v: A @ v, h, V, 1e-9, return_info=True,
                                           solve=_dense_solve(A, h / 4))
        assert info.dense_fallback and info.m == n + p
        want = _combo_ref(A, h, V)
        assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("j, bad", [(0, math.nan), (2, math.inf)])
    def test_non_finite_input_is_nan_from_no_arnoldi_step(self, j, bad):
        calls = []

        def apply_A(v):
            calls.append(1)
            return v

        V = [np.ones(8) for _ in range(3)]
        V[j][3] = bad
        out, info = phi_combo_apply_krylov(apply_A, 0.5, V, 1e-9, return_info=True,
                                           solve=_dense_solve(np.eye(8), 0.1, calls))
        assert out.shape == (8,) and np.isnan(out).all()
        assert (info.m, info.dense_fallback, calls) == (0, False, [])

    @pytest.mark.parametrize("lengths", [(8, 7), (7, 8)])
    def test_names_a_length_mismatch_before_any_arnoldi_step(self, lengths):
        calls = []

        def apply_A(v):
            calls.append(1)
            return np.eye(8) @ v

        V = [np.ones(k) for k in lengths]
        with pytest.raises(ValueError, match=f"got {lengths[0]} and {lengths[1]}"):
            phi_combo_apply_krylov(apply_A, 0.1, V, 1e-9,
                                   solve=_dense_solve(np.eye(8), 0.1, calls))
        assert calls == []

    def test_requires_a_shifted_solve(self):
        with pytest.raises(TypeError, match="solve"):
            phi_combo_apply_krylov(lambda v: v, 0.1, [np.ones(8)], 1e-9)


def _heat_record(n):
    """heat1d's operator: the Dirichlet Laplacian on n interior points."""
    return TridiagonalToeplitz(n, -2.0 * (n + 1) ** 2, float((n + 1) ** 2))


class TestShiftedSolver:
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 400])
    @pytest.mark.parametrize("rows", [None, 5], ids=["vector", "block"])
    def test_matches_a_dense_solve(self, n, rows):
        A, sigma = _heat_record(n), 1 / 32
        y = np.random.default_rng(38).standard_normal(n if rows is None else (rows, n))
        y.setflags(write=False)
        x = A.shifted_solver(sigma)(y)
        M = np.eye(n) - sigma * dense_matrix(A)
        want = np.linalg.solve(M, y.T).T
        assert x.shape == y.shape
        # 1e-14 while I - sigma A is well conditioned (up to n=64, cond 530);
        # past that both solves err by about cond * eps (n=400: cond 2e4, 2e-14)
        tol = max(1e-14, 1e-17 * np.linalg.cond(M))
        assert np.linalg.norm(x - want) <= tol * np.linalg.norm(want)
        assert np.linalg.norm(x @ M - y) <= 1e-15 * np.linalg.norm(M, 2) * np.linalg.norm(x)

    def test_keeps_its_shift(self):
        assert _heat_record(16).shifted_solver(0.25).sigma == 0.25

    @pytest.mark.parametrize("sigma", [1.0, math.nan])
    def test_raises_where_not_positive_definite(self, sigma):
        # I - A has -1 on its diagonal; a NaN shift factors without a LAPACK error
        with pytest.raises(ValueError, match="not positive definite"):
            TridiagonalToeplitz(8, 2.0, 1.0).shifted_solver(sigma)


class TestShiftInvertKrylov:
    """phi_combo_apply_krylov given heat1d's shifted solve at sigma = tau/4."""

    @staticmethod
    def _combos(n, tau, vectors):
        """(p, got, info, want) for p = 0..6, vectors(p) giving the p + 1 vectors."""
        A = _heat_record(n)
        phis = toeplitz_phi_ref(A, tau, 6)
        solve = A.shifted_solver(tau / 4)
        for p in range(7):
            V = vectors(p)
            got, info = phi_combo_apply_krylov(A.__matmul__, tau, V, 1e-10, return_info=True,
                                               solve=solve)
            yield p, got, info, sum(tau**j * (phis[j] @ v) for j, v in enumerate(V))

    @pytest.mark.parametrize("n", [16, 64, 400])
    @pytest.mark.parametrize("tau", [1 / 40, 1 / 8, 1])
    def test_smooth_vectors_match_the_closed_form(self, n, tau):
        x = np.arange(1, n + 1) / (n + 1)

        def smooth(p):  # vectors like those a heat1d step passes
            return [np.cos(j * x) + x * (1 - x) for j in range(p + 1)]

        for _, got, info, want in self._combos(n, tau, smooth):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            assert info.m <= 32 and not info.dense_fallback

    @pytest.mark.parametrize("n", [16, 64, 400])
    @pytest.mark.parametrize("tau", [1 / 40, 1 / 8, 1])
    def test_random_vectors_match_the_closed_form(self, n, tau):
        # rough vectors converge more slowly: at n=16 and tau=1/40 the basis
        # can fill the augmented space, and only that counts as a fallback
        rng = np.random.default_rng(39)
        for p, got, info, want in self._combos(n, tau, lambda p: rng.standard_normal((p + 1, n))):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            assert info.m <= 32
            assert not info.dense_fallback or info.m == n + p

    def test_one_apply_A_per_basis_vector(self):
        n, tau = 64, 1 / 8
        A, calls = _heat_record(n), []

        def apply_A(v):
            calls.append(1)
            return A @ v

        x = np.arange(1, n + 1) / (n + 1)
        V = [x * (1 - x), np.ones(n), x]
        _, info = phi_combo_apply_krylov(apply_A, tau, V, 1e-10, return_info=True,
                                         solve=A.shifted_solver(tau / 4))
        assert len(calls) == info.m

    def test_stops_where_the_answers_stop_closing_in(self):
        # a solve with a relative error of 1e-8 puts a floor under the gap
        # between sizes; the basis stops there, flagged, not at n + p
        n, tau = 400, 1 / 8
        A = _heat_record(n)
        exact, rng = A.shifted_solver(tau / 4), np.random.default_rng(40)

        def noisy(y):
            x = exact(y)
            return x + 1e-8 * np.linalg.norm(x) / math.sqrt(n) * rng.standard_normal(x.shape)

        noisy.sigma = exact.sigma
        x = np.arange(1, n + 1) / (n + 1)
        _, info = phi_combo_apply_krylov(A.__matmul__, tau, [x * (1 - x), np.ones(n)], 1e-10,
                                         return_info=True, solve=noisy)
        assert info.dense_fallback and info.m <= 32

    @pytest.mark.parametrize("sigma, h", [(0.0, 0.1), (0.1, 0.0), (0.1, -0.1)])
    def test_refuses_a_shift_or_step_that_is_not_positive(self, sigma, h):
        calls = []
        solve = _dense_solve(np.eye(8), sigma, calls)
        with pytest.raises(ValueError, match="positive shift and step"):
            phi_combo_apply_krylov(lambda v: v, h, [np.ones(8)], 1e-9, solve=solve)
        assert calls == []


class TestPhiCache:
    def test_single_node_contents(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((6, 6))
        h = 0.05
        cache = build_phi_cache(A, h, [Fraction(1)], 1)
        assert len(cache.entries) == 2
        assert np.allclose(phi_matrix_from_cache(cache, 1, 0), scipy.linalg.expm(h * A),
                           rtol=1e-12, atol=1e-13)

    def test_exponential_invariant_at_index_zero(self):
        # symmetric operator exercises the spectral path
        rng = np.random.default_rng(17)
        A = rng.standard_normal((8, 8))
        A = A + A.T
        cache = build_phi_cache(A, 0.1, [Fraction(1, 2), Fraction(1)], 2)
        for c in (Fraction(1, 2), Fraction(1)):
            want = scipy.linalg.expm(float(c) * 0.1 * A)
            got = phi_matrix_from_cache(cache, c, 0)
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_spectral_path_matches_augmented_path(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((7, 7))
        A = A + A.T
        h = 0.2
        cache = build_phi_cache(A, h, [Fraction(1, 3)], 4)
        ref = phi_augmented_ref(float(Fraction(1, 3)) * h * A, 4)
        for j in range(5):
            got = phi_matrix_from_cache(cache, Fraction(1, 3), j)
            assert np.linalg.norm(got - ref[j]) <= 1e-11

    def test_zero_operator(self):
        cache = build_phi_cache(np.zeros((4, 4)), 0.7, [Fraction(1, 2), Fraction(1)], 3)
        for c in (Fraction(1, 2), Fraction(1)):
            for j in range(4):
                assert np.allclose(phi_matrix_from_cache(cache, c, j),
                                   np.eye(4) / math.factorial(j), atol=1e-15)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((9, 9))
        nodes = [Fraction(1, 2), Fraction(1, 3), Fraction(1)]
        c1 = build_phi_cache(A, 0.3, nodes, 3)
        c2 = build_phi_cache(A, 0.3, nodes, 3)
        for key in c1.entries:
            assert c1.entries[key].tobytes() == c2.entries[key].tobytes()

    def test_entries_are_readonly(self):
        cache = build_phi_cache(np.zeros((3, 3)), 1.0, [Fraction(1)], 1)
        with pytest.raises(ValueError):
            cache.entry(1, 0)[0, 0] = 99.0

    def test_validation(self):
        A = np.zeros((3, 3))
        with pytest.raises(ValueError):
            build_phi_cache(A, 1.0, [Fraction(1, 2), Fraction(1, 2)], 1)
        with pytest.raises(ValueError):
            build_phi_cache(A, 1.0, [Fraction(-1, 2)], 1)
        with pytest.raises(KeyError):
            build_phi_cache(A, 1.0, [Fraction(1)], 1).entry(Fraction(1, 2), 0)

    def test_sixth_order_scheme_node_counts(self):
        from exprk.tableaus import make_exprk6s15, make_exprk6s16

        assert len(make_exprk6s15().nodes_used) == 9
        assert len(make_exprk6s16().nodes_used) == 5

    def test_symmetric_path_stores_readonly_tables_and_basis(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        cache = build_phi_cache(A, 0.3, [Fraction(1, 2), Fraction(1)], 3)
        Q = cache.basis.matrix
        assert np.allclose(Q.T @ Q, np.eye(6), atol=1e-14)
        assert len(cache.entries) == 8
        for table in cache.entries.values():
            assert table.shape == (6,)
            with pytest.raises(ValueError):
                table[0] = 99.0
        v = rng.standard_normal(6)
        applied = cache.from_basis(cache.entry(Fraction(1, 2), 2) * cache.to_basis(v))
        want = phi_matrix_from_cache(cache, Fraction(1, 2), 2) @ v
        assert np.allclose(applied, want, rtol=1e-13, atol=1e-15)

    def test_budget_refuses_oversized_build(self, monkeypatch):
        import exprk.phi as phimod

        n, nodes = 16, [Fraction(1, 2), Fraction(1)]
        symmetric = np.diag(np.arange(1.0, n + 1))
        general = symmetric + np.triu(np.ones((n, n)), 1)
        monkeypatch.setattr(phimod, "CACHE_BUDGET_BYTES", 3 * n * n * 8)
        assert build_phi_cache(symmetric, 0.1, nodes, 5).basis is not None
        with pytest.raises(ValueError, match=r"n=16 with 12 entries needs about \d+ bytes"):
            build_phi_cache(general, 0.1, nodes, 5)
        monkeypatch.setattr(phimod, "CACHE_BUDGET_BYTES", 3 * n * n * 8 - 1)
        with pytest.raises(ValueError, match=r"n=16 with 12 entries"):
            build_phi_cache(symmetric, 0.1, nodes, 5)

    @pytest.mark.parametrize("kind", ["symmetric", "general"])
    def test_negative_kmax_is_refused_up_front(self, monkeypatch, kind):
        import exprk.phi as phimod

        def unreachable(*args):
            raise AssertionError("the build started before kmax was validated")

        monkeypatch.setattr(phimod, "phi_scalar_all", unreachable)
        monkeypatch.setattr(phimod, "phi_all_dense", unreachable)
        A = np.diag([-2.0, -1.0, 0.5])
        if kind == "general":
            A[0, 2] = 1.0
        with pytest.raises(ValueError, match="kmax must be >= 0"):
            build_phi_cache(A, 0.1, [Fraction(1)], -1)

    @pytest.mark.parametrize("n", [8, SINE_FOLD_MIN_N, SINE_TRANSFORM_MIN_N])
    def test_non_finite_eigenvalues_are_refused(self, n):
        # -inf on the diagonal is still tridiagonal Toeplitz, so the tables
        # see eigenvalues -inf; they used to come out as phi values of zero
        with pytest.raises(ValueError, match="must be finite"):
            build_phi_cache(TridiagonalToeplitz(n, -math.inf, 1.0), 0.1, [Fraction(1)], 3)


def _tridiagonal(n, a, b):
    return np.diag(np.full(n, a)) + b * (np.eye(n, k=1) + np.eye(n, k=-1))


def _advection_diffusion(n, velocity=20.0):
    """u_xx - velocity u_x on n interior points of (0, 1), upwinded."""
    dx = 1.0 / (n + 1)
    A = _tridiagonal(n, -2.0, 1.0) / dx**2
    return A + velocity / dx * (np.eye(n, k=-1) - np.eye(n))


def _phi_all_dense_gap(cache, A, h, c, kmax):
    ref = phi_all_dense(float(c) * h * A, kmax)
    return max(np.linalg.norm(phi_matrix_from_cache(cache, c, j) - ref[j])
               / max(1.0, np.linalg.norm(ref[j]))
               for j in range(kmax + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_tridiagonal_toeplitz_product_is_the_dense_product(n):
    # n = 1 and 2 are shorter than the stencil
    A = TridiagonalToeplitz(n, -3.0, 1.5)
    v = np.random.default_rng(36).standard_normal(n)
    assert A.shape == (n, n)
    assert np.allclose(A @ v, dense_matrix(A) @ v, rtol=0, atol=1e-14 * np.abs(v).max())


class TestClosedFormBasis:
    """A TridiagonalToeplitz record takes the sine eigenvectors; a symmetric
    ndarray takes eigh."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def counting_eigh(A):
            calls.append(A.shape)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        return calls

    @pytest.mark.parametrize("n", [16, 64])
    def test_heat1d_eigenpairs_match_eigh(self, n):
        from exprk.problems import make_heat1d

        record = make_heat1d(n).A
        lam, basis = record.eigen()
        Q = basis.matrix
        A = dense_matrix(record)
        norm = np.linalg.norm(A, 2)
        assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(A))) <= 1e-12 * norm
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-14
        assert np.linalg.norm(A @ Q - Q * lam) <= 1e-14 * norm

    @pytest.mark.parametrize("a, b", [(-2.0, 1.0), (-3.0, 1.0), (0.5, -0.25), (0.0, 0.0)])
    def test_toeplitz_builds_take_the_closed_form(self, eigh_calls, a, b):
        n, h = 16, 0.1
        A = TridiagonalToeplitz(n, a, b)
        cache = build_phi_cache(A, h, [Fraction(1, 3), Fraction(1)], 3)
        assert eigh_calls == [] and type(cache.basis) is _MatrixBasis
        for c in (Fraction(1, 3), Fraction(1)):
            assert _phi_all_dense_gap(cache, dense_matrix(A), h, c, 3) <= 1e-12

    def test_near_misses_take_eigh(self, eigh_calls):
        n, h = 16, 0.1
        diagonal = _tridiagonal(n, -3.0, 1.0)
        diagonal[5, 5] += 1e-3
        corner = _tridiagonal(n, -3.0, 1.0)
        corner[0, n - 1] = corner[n - 1, 0] = 1.0
        for A in (diagonal, corner):
            cache = build_phi_cache(A, h, [Fraction(1, 3), Fraction(1)], 3)
            for c in (Fraction(1, 3), Fraction(1)):
                assert _phi_all_dense_gap(cache, A, h, c, 3) <= 1e-12
        assert eigh_calls == [(n, n), (n, n)]

    def test_nonsymmetric_toeplitz_takes_the_general_path(self, eigh_calls):
        n, h, nodes = 16, 0.1, [Fraction(1, 3), Fraction(1)]
        A = _tridiagonal(n, -3.0, 1.0)
        A += 0.5 * np.eye(n, k=-1)  # 1 above the diagonal, 1.5 below
        cache = build_phi_cache(A, h, nodes, 3)
        assert cache.basis is None and eigh_calls == []
        for c in nodes:
            for j, ref in enumerate(phi_all_dense(float(c) * h * A, 3)):
                assert np.array_equal(phi_matrix_from_cache(cache, c, j), ref)


class TestSineTransformPath:
    """From SINE_TRANSFORM_MIN_N up, a TridiagonalToeplitz A stores no basis
    matrix and changes basis by DST-I."""

    N = SINE_TRANSFORM_MIN_N + 8

    def _cache(self, n=N):
        A = TridiagonalToeplitz(n, -2.0, 1.0)
        return build_phi_cache(A, 0.1, [Fraction(1, 3), Fraction(1)], 3)

    def test_stores_tables_and_no_basis(self, monkeypatch):
        import exprk.phi as phimod

        cache = self._cache()
        assert type(cache.basis) is _SineTransform
        assert all(table.shape == (self.N,) for table in cache.entries.values())
        monkeypatch.setattr(phimod, "SINE_FOLD_MIN_N", SINE_TRANSFORM_MIN_N)
        below = self._cache(SINE_TRANSFORM_MIN_N - 1)
        assert type(below.basis) is _MatrixBasis

    @pytest.mark.parametrize("shape", [(N,), (5, N)], ids=["vector", "block"])
    def test_round_trip_and_agreement_with_the_sine_matrix(self, shape):
        from exprk.phi import _sine_basis

        cache = self._cache()
        v = np.random.default_rng(23).standard_normal(shape)
        coords = cache.to_basis(v)
        assert coords.shape == v.shape
        assert np.linalg.norm(cache.from_basis(coords) - v) <= 1e-15 * np.linalg.norm(v)
        want = v @ _sine_basis(self.N)
        assert np.linalg.norm(coords - want) <= 1e-14 * np.linalg.norm(want)

    def test_tables_match_phi_all_dense(self):
        n, h = SINE_TRANSFORM_MIN_N + 1, 0.1
        A = TridiagonalToeplitz(n, -2.0, 1.0)
        cache = build_phi_cache(A, h, [Fraction(1, 3), Fraction(1)], 1)
        assert type(cache.basis) is _SineTransform
        for c in (Fraction(1, 3), Fraction(1)):
            assert _phi_all_dense_gap(cache, dense_matrix(A), h, c, 1) <= 1e-12
        with pytest.raises(ValueError):
            cache.entry(Fraction(1), 0)[0] = 99.0

    def test_budget_follows_the_path(self, monkeypatch):
        import exprk.phi as phimod

        n, nodes = self.N, [Fraction(1, 2), Fraction(1)]
        monkeypatch.setattr(phimod, "CACHE_BUDGET_BYTES", 3 * n * n * 8 - 1)
        cache = build_phi_cache(TridiagonalToeplitz(n, -2.0, 1.0), 0.1, nodes, 5)
        assert type(cache.basis) is _SineTransform
        with pytest.raises(ValueError, match=rf"n={n} with 12 entries"):
            build_phi_cache(np.diag(np.arange(1.0, n + 1)), 0.1, nodes, 5)


class TestSineTransformByComplexFFT:
    """A _SineTransform forms its DST-I from one complex FFT of length n+1 and
    three read-only weights, at prime and at smooth n+1 alike."""

    def test_weights_are_read_only_and_kept_per_n(self):
        basis = _SineTransform(1600)
        assert [w.shape for w in basis.weights] == [(1600,)] * 3
        for w in basis.weights:
            with pytest.raises(ValueError):
                w[0] = 99.0
        assert _SineTransform(1600).weights is basis.weights

    # 521 is prime, 540 = 2^2 3^3 5 and 801 = 3^2 89
    @pytest.mark.parametrize("n", [520, 539, 800], ids=["even-prime", "odd-smooth", "even-smooth"])
    @pytest.mark.parametrize("rows", [None, 5], ids=["vector", "block"])
    def test_matches_the_sine_matrix_and_undoes_itself(self, n, rows):
        from exprk.phi import _sine_basis

        basis = _SineTransform(n)
        v = np.random.default_rng(37).standard_normal(n if rows is None else (rows, n))
        v.setflags(write=False)
        kept = v.copy()
        want = v @ _sine_basis(n)
        for change in (basis.to_basis, basis.from_basis):
            coords = change(v)
            assert coords.shape == v.shape and not np.shares_memory(coords, v)
            assert np.linalg.norm(coords - want) <= 1e-14 * np.linalg.norm(want)
            assert np.linalg.norm(change(coords) - v) <= 1e-15 * np.linalg.norm(v)
        assert np.array_equal(v, kept)


class TestSineFoldPath:
    """From SINE_FOLD_MIN_N to below SINE_TRANSFORM_MIN_N, a TridiagonalToeplitz
    A keeps two halves of the sine matrix and changes basis by folding."""

    SIZES = [SINE_FOLD_MIN_N, SINE_FOLD_MIN_N + 1, SINE_TRANSFORM_MIN_N - 1]
    NODES = [Fraction(1, 3), Fraction(1)]

    def _cache(self, n):
        return build_phi_cache(TridiagonalToeplitz(n, -2.0, 1.0), 0.1, self.NODES, 1)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("rows", [None, 5], ids=["vector", "block"])
    def test_changes_match_the_sine_matrix_and_undo_each_other(self, n, rows):
        from exprk.phi import _sine_basis

        cache = self._cache(n)
        assert type(cache.basis) is _SineFold
        v = np.random.default_rng(29).standard_normal(n if rows is None else (rows, n))
        v.setflags(write=False)
        kept = v.copy()
        scale = np.max(np.abs(v))
        want = v @ _sine_basis(n)
        for change in (cache.to_basis, cache.from_basis):
            coords = change(v)
            assert coords.shape == v.shape
            assert np.max(np.abs(coords - want)) <= 1e-14 * scale
            assert np.max(np.abs(change(coords) - v)) <= 1e-14 * scale
        assert np.array_equal(v, kept)

    @pytest.mark.parametrize("n", SIZES)
    def test_halves_are_read_only_columns_of_the_sine_matrix(self, n):
        from exprk.phi import _sine_basis

        A = TridiagonalToeplitz(n, -2.0, 1.0)
        tracemalloc.start()
        try:
            Qo, Qe = build_phi_cache(A, 0.1, self.NODES, 1).basis.halves
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole sine matrix is n*n doubles; the halves and one index array are 3/4 of that
        assert peak < n * n * 8
        Q = _sine_basis(n)
        m, p = (n + 1) // 2, n // 2
        assert np.array_equal(Qo, Q[:m, 0::2]) and np.array_equal(Qe, Q[:p, 1::2])
        for half in (Qo, Qe):
            with pytest.raises(ValueError):
                half[0, 0] = 99.0

    @pytest.mark.parametrize("n", SIZES)
    def test_tables_match_the_matrix_basis(self, monkeypatch, n):
        import exprk.phi as phimod

        cache = self._cache(n)
        monkeypatch.setattr(phimod, "SINE_FOLD_MIN_N", n + 1)
        plain = self._cache(n)
        assert type(plain.basis) is _MatrixBasis
        for c in self.NODES:
            for j in (0, 1):
                gap = phi_matrix_from_cache(cache, c, j) - phi_matrix_from_cache(plain, c, j)
                assert np.max(np.abs(gap)) <= 1e-14


class TestPhiSeriesOracleSuite:
    def test_phi_all_dense_vs_extended_precision_series(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            M = rng.standard_normal((5, 5))
            M /= np.linalg.norm(M, 2)
            got = phi_all_dense(M, 6)
            ref = phi_matrix_series_ref(M, 6)
            for g, r in zip(got, ref):
                assert np.linalg.norm(g - r) <= 1e-12 * max(1.0, np.linalg.norm(r))


def test_runs_without_mpmath():
    """mpmath is a test dependency only: the package builds a heat1d context
    and checks a scheme with every import of it failing."""
    code = textwrap.dedent("""
        import sys
        sys.modules["mpmath"] = None
        from exprk import check_scheme, make_exprk6s16, make_heat1d, precompute
        precompute(make_exprk6s16(), make_heat1d(32).A, 0.125)
        assert check_scheme(make_exprk6s16(), 3, seeds=1).all_passed
    """)
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
