"""Kernels for the entire functions phi_k and their matrix versions.

phi_0(z) = exp(z) and phi_{k+1}(z) = (phi_k(z) - 1/k!)/z, so phi_k(0) = 1/k!.
All coefficients of an exponential integrator are linear combinations of
phi_j evaluated at node-scaled copies of the stiff operator, so everything
here revolves around three tasks:

  * scalar phi_k(z) to near machine accuracy on the whole real line,
  * dense matrices phi_0(M)..phi_k(M) in one shot, and
  * the action sum_j h^j phi_j(hM) v_j on vectors, dense or matrix-free.

Matrix phi values are obtained from a single matrix exponential of an
augmented block matrix; the matrix-free path runs Arnoldi on the augmented
operator and falls back to the dense route if the subspace saturates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

__all__ = [
    "SERIES_RADIUS",
    "CACHE_BUDGET_BYTES",
    "phi_scalar",
    "phi_scalar_all",
    "expm",
    "phi_all_dense",
    "phi_combo_apply",
    "arnoldi",
    "KrylovInfo",
    "phi_combo_apply_krylov",
    "PhiCache",
    "build_phi_cache",
]

# |z| below this: Taylor series. The upward recurrence subtracts nearly equal
# quantities for small |z| and must not be used there.
SERIES_RADIUS = 0.5
_SERIES_TERMS = 25
# |z| at or above this the upward recurrence is benign in double precision
# (per-step error growth factor k/|z| < 1 for all k handled here).
_DOUBLE_RECURRENCE_RADIUS = 20.0
# Working precision for the recurrence in the awkward middle band; the
# recurrence can shed ~11 digits near the series threshold, 40 leaves slack.
_MP_DPS = 40


def _phi_series(k: int, z: float) -> float:
    # sum_{j>=0} z^j / (j+k)!; successive term ratio |z|/(j+k+1) <= 1/2,
    # so no cancellation and fsum keeps the result correctly rounded.
    terms = [z**j / math.factorial(j + k) for j in range(_SERIES_TERMS)]
    return math.fsum(terms)


def _phi_recurrence_mp(k: int, z: float) -> float:
    with mpmath.workdps(_MP_DPS):
        zm = mpmath.mpf(z)
        val = mpmath.exp(zm)
        for i in range(k):
            val = (val - mpmath.mpf(1) / mpmath.factorial(i)) / zm
        return float(val)


def phi_scalar(k: int, z: float) -> float:
    """phi_k(z) for real z, relative error below 1e-14.

    Uses the Taylor series for |z| < SERIES_RADIUS and the upward recurrence
    starting from exp(z) otherwise (carried in extended precision, since the
    recurrence alone loses roughly a digit per index near the threshold).
    """
    if k < 0:
        raise ValueError(f"phi index must be >= 0, got {k}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"phi argument must be finite, got {z}")
    if abs(z) < SERIES_RADIUS:
        return _phi_series(k, z)
    return _phi_recurrence_mp(k, z)


def phi_scalar_all(kmax: int, z: np.ndarray) -> np.ndarray:
    """phi_0..phi_kmax on an array of real arguments, shape (kmax+1, len(z)).

    Same branch structure as phi_scalar, with one extra vectorized band:
    for |z| >= _DOUBLE_RECURRENCE_RADIUS the upward recurrence is stable in
    double precision, so only the middle band pays for extended precision.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty((kmax + 1, z.size))
    flat = z.ravel()

    small = np.abs(flat) < SERIES_RADIUS
    large = np.abs(flat) >= _DOUBLE_RECURRENCE_RADIUS
    mid = ~(small | large)

    if np.any(small):
        zs = flat[small]
        for k in range(kmax + 1):
            acc = np.full_like(zs, 1.0 / math.factorial(_SERIES_TERMS - 1 + k))
            for j in range(_SERIES_TERMS - 2, -1, -1):
                acc = acc * zs + 1.0 / math.factorial(j + k)
            out[k, small] = acc
    if np.any(large):
        zl = flat[large]
        row = np.exp(zl)
        out[0, large] = row
        for k in range(kmax):
            row = (row - 1.0 / math.factorial(k)) / zl
            out[k + 1, large] = row
    if np.any(mid):
        idx = np.nonzero(mid)[0]
        with mpmath.workdps(_MP_DPS):
            for i in idx:
                zm = mpmath.mpf(float(flat[i]))
                val = mpmath.exp(zm)
                out[0, i] = float(val)
                for k in range(kmax):
                    val = (val - mpmath.mpf(1) / mpmath.factorial(k)) / zm
                    out[k + 1, i] = float(val)
    return out


def _as_square_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def expm(M) -> np.ndarray:
    """Matrix exponential (scaling and squaring with Pade approximation)."""
    M = _as_square_matrix(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite input")
    return scipy.linalg.expm(M)


def phi_all_dense(M, kmax: int) -> list[np.ndarray]:
    """[phi_0(M), ..., phi_kmax(M)] from one exponential of a block matrix.

    The (kmax+1)n x (kmax+1)n matrix with M in the top-left block and
    identities on the block superdiagonal has exp(.) whose top block row is
    exactly phi_0(M), phi_1(M), ..., phi_kmax(M).
    """
    M = _as_square_matrix(M)
    n = M.shape[0]
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if kmax == 0:
        return [expm(M)]
    N = (kmax + 1) * n
    aug = np.zeros((N, N))
    aug[:n, :n] = M
    for k in range(kmax):
        aug[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = np.eye(n)
    E = expm(aug)
    return [E[:n, (k * n) : ((k + 1) * n)].copy() for k in range(kmax + 1)]


def _materialize(apply_A, n: int) -> np.ndarray:
    A = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = apply_A(e)
        e[j] = 0.0
    return A


def _augmented_dense(M: np.ndarray, h: float, V: list[np.ndarray]) -> np.ndarray:
    """Augmented (n+p) x (n+p) matrix whose exponential yields the combo."""
    n = M.shape[0]
    p = len(V) - 1
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = h * M
    for i in range(p):
        # column i carries h^(p-i) v_{p-i}
        aug[:n, n + i] = float(h) ** (p - i) * V[p - i]
    for i in range(p - 1):
        aug[n + i, n + i + 1] = 1.0
    return aug


def phi_combo_apply(M, h: float, V: list[np.ndarray]) -> np.ndarray:
    """sum_{j=0}^{p} h^j phi_j(hM) v_j via one (n+p)x(n+p) exponential.

    V is [v_0, v_1, ..., v_p]; all vectors must share the operator dimension.
    """
    if callable(M):
        first = np.asarray(V[0], dtype=float)
        M = _materialize(M, first.size)
    M = _as_square_matrix(M)
    n = M.shape[0]
    V = [np.asarray(v, dtype=float) for v in V]
    for v in V:
        if v.shape != (n,):
            raise ValueError(f"vector shape {v.shape} does not match operator dimension {n}")
    p = len(V) - 1
    if p == 0:
        return expm(h * M) @ V[0]
    aug = _augmented_dense(M, h, V)
    w0 = np.zeros(n + p)
    w0[:n] = V[0]
    w0[n + p - 1] = 1.0
    return (expm(aug) @ w0)[:n]


def arnoldi(apply_A, v: np.ndarray, m: int):
    """m-step Arnoldi: returns (V, H) with V n-by-k orthonormal, H (k+1)-by-k.

    k == m unless the Krylov space becomes invariant first, in which case the
    basis of the invariant subspace is returned and the trailing
    subdiagonal entry of H is zero. Modified Gram-Schmidt with one full
    reorthogonalization pass keeps the basis orthonormal to ~1e-14.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    beta = np.linalg.norm(v)
    if beta == 0.0:
        raise ValueError("Arnoldi start vector must be nonzero")
    if not 1 <= m <= n:
        raise ValueError(f"subspace dimension must be in [1, {n}], got {m}")
    V = np.zeros((n, m))
    H = np.zeros((m + 1, m))
    V[:, 0] = v / beta
    for j in range(m):
        w = np.asarray(apply_A(V[:, j]), dtype=float)
        wnorm0 = np.linalg.norm(w)
        for _ in range(2):
            for i in range(j + 1):
                hij = V[:, i] @ w
                H[i, j] += hij
                w -= hij * V[:, i]
        hnext = np.linalg.norm(w)
        if hnext <= 1e-12 * max(wnorm0, 1e-300):
            # invariant subspace; H[j+1, j] stays zero
            return V[:, : j + 1].copy(), H[: j + 2, : j + 1].copy()
        H[j + 1, j] = hnext
        if j + 1 < m:
            V[:, j + 1] = w / hnext
    return V, H


@dataclass
class KrylovInfo:
    """How the matrix-free combo was obtained."""

    m: int
    converged: bool
    dense_fallback: bool
    error_estimate: float


def _combo_error_estimate(beta: float, H: np.ndarray, F: np.ndarray, k: int) -> float:
    """Standard a-posteriori estimate from the first neglected Krylov term."""
    return float(beta * H[k, k - 1] * abs(F[k - 1, 0]))


def phi_combo_apply_krylov(apply_A, h: float, V: list[np.ndarray], tol: float,
                           m0: int = 8, return_info: bool = False):
    """Matrix-free version of phi_combo_apply with error below tol (relative).

    Runs Arnoldi on the augmented operator with subspace sizes m0, 2*m0, ...
    until the standard Hessenberg residual estimate drops below tol. If the
    subspace reaches the full augmented dimension without converging, the
    operator is materialized and the dense path is used (reported in the
    info record when requested).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    V = [np.asarray(v, dtype=float) for v in V]
    n = V[0].size
    p = len(V) - 1

    def _done(result, info):
        return (result, info) if return_info else result

    w0 = np.zeros(n + p)
    w0[:n] = V[0]
    if p > 0:
        w0[n + p - 1] = 1.0
    beta = np.linalg.norm(w0)
    if beta == 0.0:
        return _done(np.zeros(n), KrylovInfo(0, True, False, 0.0))

    B = np.zeros((n, p))
    for i in range(p):
        B[:, i] = float(h) ** (p - i) * V[p - i]
    J = np.zeros((p, p))
    for i in range(p - 1):
        J[i, i + 1] = 1.0

    def aug_apply(x):
        top = float(h) * np.asarray(apply_A(x[:n]), dtype=float)
        if p > 0:
            top = top + B @ x[n:]
            return np.concatenate([top, J @ x[n:]])
        return top

    naug = n + p
    m = min(m0, naug)
    while True:
        Vm, Hm = arnoldi(aug_apply, w0, m)
        k = Vm.shape[1]
        F = scipy.linalg.expm(Hm[:k, :k])
        u = beta * (Vm @ F[:, 0])
        est = _combo_error_estimate(beta, Hm, F, k)
        scale = max(np.linalg.norm(u), 1e-30)
        if est <= 0.25 * tol * scale:
            return _done(u[:n], KrylovInfo(k, True, False, est))
        if m >= naug:
            break
        m = min(2 * m, naug)

    A = _materialize(apply_A, n)
    result = phi_combo_apply(A, h, V)
    return _done(result, KrylovInfo(naug, False, True, float("nan")))


# Largest working set build_phi_cache may allocate, in bytes. Above it the
# build is refused with a ValueError instead of running the host out of memory.
CACHE_BUDGET_BYTES = 4 * 2**30
# Peak number of (kmax+1)n x (kmax+1)n arrays live during one augmented
# exponential (scipy's scaling-and-squaring Pade; measured 8 to 9).
_EXPM_ARRAYS = 9


@dataclass
class PhiCache:
    """Immutable store of phi_j(c*h*A) keyed by (node c, index j).

    With a `basis` Q, A = Q diag(lam) Q^T is symmetric and each entry is the
    read-only length-n table phi_j(c*h*lam): phi_j(c*h*A) acts on basis
    coordinates Q^T v elementwise. Q comes in closed form (a sine basis) when
    A is tridiagonal Toeplitz and from `eigh` otherwise; see build_phi_cache.
    Without a basis, each entry is the read-only n x n matrix phi_j(c*h*A).
    `get` returns the matrix either way. `to_basis` and `from_basis` map a
    vector, or each row of a block of vectors, between the two coordinates.
    """

    operator_id: object
    h: float
    kmax: int
    entries: dict = field(default_factory=dict)
    basis: np.ndarray | None = None

    def entry(self, c: Fraction, j: int) -> np.ndarray:
        """The stored table (with a basis) or matrix (without) for (c, j)."""
        key = (Fraction(c), j)
        if key not in self.entries:
            raise KeyError(f"phi cache has no entry for node {c}, index {j}")
        return self.entries[key]

    def get(self, c: Fraction, j: int) -> np.ndarray:
        """phi_j(c*h*A) as a read-only n x n matrix, formed on demand with a basis."""
        entry = self.entry(c, j)
        if self.basis is None:
            return entry
        Q = self.basis
        mat = (Q * entry) @ Q.T
        mat.setflags(write=False)
        return mat

    def apply(self, entry: np.ndarray, v: np.ndarray) -> np.ndarray:
        """An entry acting on v, with v in basis coordinates when there is a basis."""
        return entry @ v if self.basis is None else entry * v

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else v @ self.basis

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else v @ self._basis_t

    @cached_property
    def _basis_t(self) -> np.ndarray:
        # A block of 4 or more rows times the transposed view Q.T takes OpenBLAS
        # 2-4x as long as times a contiguous array; a symmetric Q is its own Q^T.
        Q = self.basis
        return Q if np.array_equal(Q, Q.T) else np.ascontiguousarray(Q.T)

    @property
    def nodes(self):
        return sorted({c for (c, _) in self.entries})


def _estimate_cache_bytes(n: int, nodes: int, kmax: int, symmetric: bool,
                          workers: int | None) -> int:
    """Bytes the build holds at its peak, roughly."""
    if symmetric:
        # A, the eigenbasis, and the eigh workspace or the sine index array
        return 3 * n * n * 8
    concurrent = min(max(workers or 1, 1), nodes)
    augmented = concurrent * _EXPM_ARRAYS * ((kmax + 1) * n) ** 2 * 8
    return nodes * (kmax + 1) * n * n * 8 + augmented


def _tridiagonal_toeplitz(A: np.ndarray) -> tuple[float, float] | None:
    """(a, b) if symmetric A has a on its diagonal, b beside it and no other nonzeros."""
    n = A.shape[0]
    if n < 2:
        return None
    diag, off = np.diagonal(A), np.diagonal(A, 1)
    a, b = float(diag[0]), float(off[0])
    if not (np.all(diag == a) and np.all(off == b)):
        return None
    band = n * (a != 0) + 2 * (n - 1) * (b != 0)
    return (a, b) if np.count_nonzero(A) == band else None


def _sine_eigenpairs(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of tridiagonal Toeplitz (a, b).

    lam_k = a + 2b cos(k pi/(n+1)) is evaluated as
    (a + 2b) - 4b sin^2(k pi/(2(n+1))), which does not cancel where |lam_k| is
    small next to |b|, as for the smooth modes of a Laplacian.
    Q[j, k] = sqrt(2/(n+1)) sin(jk pi/(n+1)) for j, k = 1..n; jk is reduced
    mod 2(n+1) in integers, so every sine argument lies in [0, 2 pi).
    """
    k = np.arange(1, n + 1)
    lam = (a + 2.0 * b) - 4.0 * b * np.sin(k * (np.pi / (2 * (n + 1)))) ** 2
    period = 2 * (n + 1)
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (np.pi / (n + 1)))
    jk = np.outer(k, k)
    jk %= period
    return lam, sines[jk]


def build_phi_cache(A, h: float, nodes, kmax: int, *, operator_id=None,
                    workers: int | None = None) -> PhiCache:
    """phi_0..phi_kmax(c*h*A) for every node c, computed once per (A, h).

    Exactly symmetric A goes through one eigendecomposition A = Q diag(lam) Q^T:
    the cache keeps Q as its basis and stores phi_j(c*h*lam) as a length-n
    table per (c, j), which is O(n) per entry and more accurate for the stiff
    discrete Laplacians this cache exists for. When A is also tridiagonal
    Toeplitz (one constant a on the diagonal, one constant b beside it and no
    other nonzeros, as for the Dirichlet Laplacian), its eigenpairs are known
    in closed form and no `eigh` runs; see _sine_eigenpairs. General matrices
    store one dense matrix per (c, j) from the augmented block exponential
    per node; distinct nodes may be computed concurrently via `workers`.

    Raises ValueError, before allocating, if the estimated peak memory of
    the build exceeds CACHE_BUDGET_BYTES.
    """
    A = _as_square_matrix(A)
    if not math.isfinite(float(h)):
        raise ValueError("step size must be finite")
    nodes = [Fraction(c) for c in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError("cache nodes must be distinct")
    if any(c <= 0 for c in nodes):
        raise ValueError("cache nodes must be positive")

    n = A.shape[0]
    symmetric = np.array_equal(A, A.T)
    estimate = _estimate_cache_bytes(n, len(nodes), kmax, symmetric, workers)
    if estimate > CACHE_BUDGET_BYTES:
        raise ValueError(
            f"phi cache for n={n} with {len(nodes) * (kmax + 1)} entries needs about "
            f"{estimate} bytes ({estimate / 2**20:.1f} MiB), above the budget of "
            f"{CACHE_BUDGET_BYTES} bytes"
        )

    cache = PhiCache(operator_id=operator_id, h=float(h), kmax=kmax)
    if symmetric:
        toeplitz = _tridiagonal_toeplitz(A)
        lam, Q = np.linalg.eigh(A) if toeplitz is None else _sine_eigenpairs(n, *toeplitz)
        Q.setflags(write=False)
        cache.basis = Q
        for c in nodes:
            tables = phi_scalar_all(kmax, float(c) * float(h) * lam)
            tables.setflags(write=False)
            for j in range(kmax + 1):
                cache.entries[(c, j)] = tables[j]
        return cache

    def build(c):
        return c, phi_all_dense(float(c) * float(h) * A, kmax)

    if workers is not None and workers > 1 and len(nodes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(build, nodes))
    else:
        results = [build(c) for c in nodes]
    for c, mats in results:
        for j, mat in enumerate(mats):
            mat.setflags(write=False)
            cache.entries[(c, j)] = mat
    return cache
