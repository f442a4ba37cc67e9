import math
from fractions import Fraction

import numpy as np
import pytest

from exprk.phi import (
    SERIES_RADIUS,
    SINE_TRANSFORM_MIN_N,
    arnoldi,
    build_phi_cache,
    expm,
    phi_all_dense,
    phi_combo_apply,
    phi_combo_apply_krylov,
    phi_scalar,
    phi_scalar_all,
)
from oracles import expm_ref, phi_matrix_series_ref, phi_ref, phi_spectral_ref


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

    def test_array_evaluator_matches_scalar(self):
        rng = np.random.default_rng(7)
        z = np.concatenate([
            rng.uniform(-0.49, 0.49, 10),          # series band
            rng.uniform(0.5, 19.0, 10),            # extended-precision band
            rng.uniform(-19.0, -0.5, 10),
            rng.uniform(20.0, 200.0, 5),           # double recurrence band
            rng.uniform(-200.0, -20.0, 5),
        ])
        vals = phi_scalar_all(6, z)
        for i, zi in enumerate(z):
            for k in range(7):
                assert vals[k, i] == pytest.approx(phi_scalar(k, float(zi)), rel=1e-13)

    def test_series_threshold_documented(self):
        assert SERIES_RADIUS == 0.5


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_diagonal(self):
        E = expm(np.diag([1.0, -1.0]))
        assert np.allclose(E, np.diag([math.e, 1.0 / math.e]), rtol=1e-14)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            M = rng.standard_normal((5, 5))
            M /= np.linalg.norm(M, 2)
            ref = expm_ref(M)
            got = expm(M)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        M = np.zeros((2, 2))
        M[0, 0] = math.nan
        with pytest.raises(ValueError):
            expm(M)


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


class TestPhiComboApply:
    def test_single_vector_is_exponential_action(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 5))
        u = rng.standard_normal(5)
        got = phi_combo_apply(M, 0.3, [u, np.zeros(5), np.zeros(5)])
        assert np.allclose(got, expm(0.3 * M) @ u, rtol=1e-12, atol=1e-13)

    def test_zero_operator_gives_taylor_sum(self):
        rng = np.random.default_rng(4)
        V = [rng.standard_normal(4) for _ in range(4)]
        h = 0.7
        got = phi_combo_apply(np.zeros((4, 4)), h, V)
        want = sum(h**j * V[j] / math.factorial(j) for j in range(4))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_against_dense_phi_sum(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 5))
        M /= np.linalg.norm(M, 2)
        h = 0.9
        V = [rng.standard_normal(5) for _ in range(4)]
        phis = phi_all_dense(h * M, 3)
        want = sum(h**j * (phis[j] @ V[j]) for j in range(4))
        got = phi_combo_apply(M, h, V)
        assert np.linalg.norm(got - want) <= 1e-11 * max(1.0, np.linalg.norm(want))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phi_combo_apply(np.zeros((3, 3)), 1.0, [np.zeros(3), np.zeros(4)])


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


class TestPhiComboApplyKrylov:
    def test_matches_dense_on_laplacian(self):
        n = 64
        A = _laplacian(n)
        rng = np.random.default_rng(12)
        V = [rng.standard_normal(n) for _ in range(4)]
        h = 1e-3  # ||hA|| ~ 17
        dense = phi_combo_apply(A, h, V)
        kry = phi_combo_apply_krylov(lambda v: A @ v, h, V, 1e-9)
        assert np.linalg.norm(kry - dense) <= 1e-9 * max(1.0, np.linalg.norm(dense))

    def test_stiff_step_still_correct(self):
        n = 64
        A = _laplacian(n)
        rng = np.random.default_rng(13)
        V = [rng.standard_normal(n) for _ in range(3)]
        h = 2e-2  # ||hA|| ~ 340; Krylov may saturate, result must stay correct
        dense = phi_combo_apply(A, h, V)
        kry = phi_combo_apply_krylov(lambda v: A @ v, h, V, 1e-9)
        assert np.linalg.norm(kry - dense) <= 1e-9 * max(1.0, np.linalg.norm(dense))

    def test_zero_vectors_give_zero(self):
        A = _laplacian(16)
        out = phi_combo_apply_krylov(lambda v: A @ v, 0.5, [np.zeros(16)] * 3, 1e-9)
        assert np.array_equal(out, np.zeros(16))

    def test_zero_step_returns_first_vector(self):
        A = _laplacian(16)
        rng = np.random.default_rng(14)
        V = [rng.standard_normal(16) for _ in range(3)]
        out = phi_combo_apply_krylov(lambda v: A @ v, 0.0, V, 1e-9)
        assert np.allclose(out, V[0], rtol=1e-12, atol=1e-13)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            phi_combo_apply_krylov(lambda v: v, 1.0, [np.ones(4)], 0.0)

    def test_basis_grows_without_restarting(self):
        n = 64
        A = _laplacian(n)
        rng = np.random.default_rng(16)
        V = [rng.standard_normal(n) for _ in range(3)]
        calls = []

        def apply_A(v):
            calls.append(1)
            return A @ v

        out, info = phi_combo_apply_krylov(apply_A, 2e-3, V, 1e-9, return_info=True)
        assert info.converged and info.m == 32  # two doublings: 8, 16, 32
        # one product per basis column, plus one: arnoldi keeps no column for
        # its next vector, so the first extension recomputes its last column
        assert len(calls) == info.m + 1
        dense = phi_combo_apply(A, 2e-3, V)
        assert np.linalg.norm(out - dense) <= 1e-9 * np.linalg.norm(dense)

    def test_dense_fallback_flagged(self, monkeypatch):
        # force non-convergence by breaking the error estimate; the result
        # must then come from the materialized dense path and say so
        import exprk.phi as phimod

        monkeypatch.setattr(phimod, "_combo_error_estimate",
                            lambda beta, H, F, k: math.inf)
        A = _laplacian(12)
        rng = np.random.default_rng(15)
        V = [rng.standard_normal(12) for _ in range(2)]
        out, info = phimod.phi_combo_apply_krylov(
            lambda v: A @ v, 1e-4, V, 1e-9, return_info=True
        )
        assert info.dense_fallback and not info.converged
        dense = phi_combo_apply(A, 1e-4, V)
        assert np.allclose(out, dense, rtol=1e-12, atol=1e-13)


class TestPhiCache:
    def test_single_node_contents(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((6, 6))
        h = 0.05
        cache = build_phi_cache(A, h, [Fraction(1)], 1)
        assert len(cache.entries) == 2
        assert np.allclose(cache.get(1, 0), expm(h * A), rtol=1e-12, atol=1e-13)

    def test_exponential_invariant_at_index_zero(self):
        # symmetric operator exercises the spectral path
        rng = np.random.default_rng(17)
        A = rng.standard_normal((8, 8))
        A = A + A.T
        cache = build_phi_cache(A, 0.1, [Fraction(1, 2), Fraction(1)], 2)
        for c in (Fraction(1, 2), Fraction(1)):
            want = expm(float(c) * 0.1 * A)
            assert np.linalg.norm(cache.get(c, 0) - want) <= 1e-11 * np.linalg.norm(want)

    def test_spectral_path_matches_augmented_path(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((7, 7))
        A = A + A.T
        h = 0.2
        cache = build_phi_cache(A, h, [Fraction(1, 3)], 4)
        ref = phi_all_dense(float(Fraction(1, 3)) * h * A, 4)
        for j in range(5):
            assert np.linalg.norm(cache.get(Fraction(1, 3), j) - ref[j]) <= 1e-11

    def test_zero_operator(self):
        cache = build_phi_cache(np.zeros((4, 4)), 0.7, [Fraction(1, 2), Fraction(1)], 3)
        for c in (Fraction(1, 2), Fraction(1)):
            for j in range(4):
                assert np.allclose(cache.get(c, j), np.eye(4) / math.factorial(j),
                                   atol=1e-15)

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
            cache.get(1, 0)[0, 0] = 99.0

    def test_validation(self):
        A = np.zeros((3, 3))
        with pytest.raises(ValueError):
            build_phi_cache(A, 1.0, [Fraction(1, 2), Fraction(1, 2)], 1)
        with pytest.raises(ValueError):
            build_phi_cache(A, 1.0, [Fraction(-1, 2)], 1)
        with pytest.raises(KeyError):
            build_phi_cache(A, 1.0, [Fraction(1)], 1).get(Fraction(1, 2), 0)

    def test_sixth_order_scheme_node_counts(self):
        from exprk.tableaus import make_exprk6s15, make_exprk6s16

        assert len(make_exprk6s15().nodes_used) == 9
        assert len(make_exprk6s16().nodes_used) == 5

    def test_symmetric_path_stores_readonly_tables_and_basis(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        cache = build_phi_cache(A, 0.3, [Fraction(1, 2), Fraction(1)], 3)
        Q = cache.basis
        assert np.allclose(Q.T @ Q, np.eye(6), atol=1e-14)
        assert len(cache.entries) == 8
        for table in cache.entries.values():
            assert table.shape == (6,)
            with pytest.raises(ValueError):
                table[0] = 99.0
        v = rng.standard_normal(6)
        applied = cache.from_basis(cache.entry(Fraction(1, 2), 2) * cache.to_basis(v))
        assert np.allclose(applied, cache.get(Fraction(1, 2), 2) @ v, rtol=1e-13, atol=1e-15)

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


def _tridiagonal(n, a, b):
    return a * np.eye(n) + b * (np.eye(n, k=1) + np.eye(n, k=-1))


def _phi_all_dense_gap(cache, A, h, c, kmax):
    ref = phi_all_dense(float(c) * h * A, kmax)
    return max(np.linalg.norm(cache.get(c, j) - ref[j]) / max(1.0, np.linalg.norm(ref[j]))
               for j in range(kmax + 1))


class TestClosedFormBasis:
    """Tridiagonal Toeplitz A takes the sine eigenbasis; anything else takes eigh."""

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
        from exprk.phi import _sine_eigenpairs, _tridiagonal_toeplitz
        from exprk.problems import make_heat1d

        A = make_heat1d(n).A
        a, b = _tridiagonal_toeplitz(A)
        lam, Q = _sine_eigenpairs(n, a, b)
        norm = np.linalg.norm(A, 2)
        assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(A))) <= 1e-12 * norm
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-14
        assert np.linalg.norm(A @ Q - Q * lam) <= 1e-14 * norm

    @pytest.mark.parametrize("a, b", [(-2.0, 1.0), (-3.0, 1.0), (0.5, -0.25), (0.0, 0.0)])
    def test_toeplitz_builds_take_the_closed_form(self, eigh_calls, a, b):
        n, h = 16, 0.1
        A = _tridiagonal(n, a, b)
        cache = build_phi_cache(A, h, [Fraction(1, 3), Fraction(1)], 3)
        assert eigh_calls == []
        for c in (Fraction(1, 3), Fraction(1)):
            assert _phi_all_dense_gap(cache, A, h, c, 3) <= 1e-12

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
        assert not cache.eigenbasis and eigh_calls == []
        for c in nodes:
            for j, ref in enumerate(phi_all_dense(float(c) * h * A, 3)):
                assert np.array_equal(cache.get(c, j), ref)


class TestSineTransformPath:
    """From SINE_TRANSFORM_MIN_N up, tridiagonal Toeplitz A stores no basis and
    changes basis by DST-I."""

    N = SINE_TRANSFORM_MIN_N + 8

    def _cache(self, n=N):
        return build_phi_cache(_tridiagonal(n, -2.0, 1.0), 0.1, [Fraction(1, 3), Fraction(1)], 3)

    def test_stores_tables_and_no_basis(self):
        cache = self._cache()
        assert cache.sine_transform and cache.eigenbasis and cache.basis is None
        assert all(table.shape == (self.N,) for table in cache.entries.values())
        below = self._cache(SINE_TRANSFORM_MIN_N - 1)
        assert not below.sine_transform and below.basis is not None

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

    def test_get_matches_phi_all_dense(self):
        # kmax=1 keeps the reference's augmented exponential at 2n x 2n
        n, h = SINE_TRANSFORM_MIN_N + 1, 0.1
        A = _tridiagonal(n, -2.0, 1.0)
        cache = build_phi_cache(A, h, [Fraction(1, 3), Fraction(1)], 1)
        assert cache.sine_transform
        for c in (Fraction(1, 3), Fraction(1)):
            assert _phi_all_dense_gap(cache, A, h, c, 1) <= 1e-12
        with pytest.raises(ValueError):
            cache.get(Fraction(1), 0)[0, 0] = 99.0

    def test_budget_follows_the_path(self, monkeypatch):
        import exprk.phi as phimod

        n, nodes = self.N, [Fraction(1, 2), Fraction(1)]
        monkeypatch.setattr(phimod, "CACHE_BUDGET_BYTES", 3 * n * n * 8 - 1)
        assert build_phi_cache(_tridiagonal(n, -2.0, 1.0), 0.1, nodes, 5).sine_transform
        with pytest.raises(ValueError, match=rf"n={n} with 12 entries"):
            build_phi_cache(np.diag(np.arange(1.0, n + 1)), 0.1, nodes, 5)


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
