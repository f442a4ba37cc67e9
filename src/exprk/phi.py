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
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

__all__ = [
    "SERIES_RADIUS",
    "CACHE_BUDGET_BYTES",
    "SINE_TRANSFORM_MIN_N",
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


def _arnoldi_columns(apply_A, V: np.ndarray, H: np.ndarray, j0: int, m: int) -> int:
    """Fill Arnoldi columns j0..m-1 of V and H in place; return the basis size.

    V[:, :j0+1] must hold orthonormal basis vectors and H[:j0+1, :j0] their
    Hessenberg entries. Column j applies the operator to V[:, j] and
    orthogonalises the product against V[:, :j+1] by classical Gram-Schmidt
    run twice (CGS2), each pass two matrix-vector products. The coefficients
    go to H[:j+1, j], the remaining norm to H[j+1, j] and, when V has a column
    for it, the normalised remainder to V[:, j+1]. Returns m, or j+1 if the
    Krylov space is invariant at column j, where H[j+1, j] is left zero.
    """
    for j in range(j0, m):
        w = np.asarray(apply_A(V[:, j]), dtype=float)
        wnorm0 = np.linalg.norm(w)
        Vj = V[:, : j + 1]
        h = Vj.T @ w
        w = w - Vj @ h
        again = Vj.T @ w
        w -= Vj @ again
        H[: j + 1, j] = h + again
        hnext = np.linalg.norm(w)
        if hnext <= 1e-12 * max(wnorm0, 1e-300):
            return j + 1
        H[j + 1, j] = hnext
        if j + 1 < V.shape[1]:
            V[:, j + 1] = w / hnext
    return m


def arnoldi(apply_A, v: np.ndarray, m: int):
    """m-step Arnoldi: returns (V, H) with V n-by-k orthonormal, H (k+1)-by-k.

    k == m unless the Krylov space becomes invariant first, in which case the
    basis of the invariant subspace is returned and the trailing
    subdiagonal entry of H is zero. Each new column is orthogonalised by
    classical Gram-Schmidt applied twice (CGS2), which keeps the basis
    orthonormal to ~1e-14. Column j depends only on columns 0..j, so the
    first k columns of a larger basis are bitwise those of the k-column one;
    phi_combo_apply_krylov relies on this to grow one basis in place of
    rebuilding it.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    beta = np.linalg.norm(v)
    if beta == 0.0:
        raise ValueError("Arnoldi start vector must be nonzero")
    if not 1 <= m <= n:
        raise ValueError(f"subspace dimension must be in [1, {n}], got {m}")
    # column-major, so that every leading block V[:, :j+1] is contiguous
    V = np.zeros((n, m), order="F")
    H = np.zeros((m + 1, m))
    V[:, 0] = v / beta
    k = _arnoldi_columns(apply_A, V, H, 0, m)
    if k < m:
        return V[:, :k].copy(), H[: k + 1, :k].copy()
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


# Krylov subspace size at which phi_combo_apply_krylov first tests convergence.
_KRYLOV_M0 = 8


def phi_combo_apply_krylov(apply_A, h: float, V: list[np.ndarray], tol: float,
                           return_info: bool = False):
    """Matrix-free version of phi_combo_apply with error below tol (relative).

    Runs Arnoldi on the augmented operator and checks the standard Hessenberg
    residual estimate at subspace sizes _KRYLOV_M0, 2*_KRYLOV_M0, ... until it
    drops below tol. One basis is built per call: each doubling extends the
    columns already computed rather than rebuilding them, and the basis and H
    grow with it, so memory stays proportional to the size reached. If the
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
    m = min(_KRYLOV_M0, naug)
    Vm, Hm = arnoldi(aug_apply, w0, m)
    k = Vm.shape[1]
    while True:
        F = scipy.linalg.expm(Hm[:k, :k])
        u = beta * (Vm[:, :k] @ F[:, 0])
        est = _combo_error_estimate(beta, Hm, F, k)
        scale = max(np.linalg.norm(u), 1e-30)
        if est <= 0.25 * tol * scale:
            return _done(u[:n], KrylovInfo(k, True, False, est))
        if m >= naug or k < m:  # full, or invariant and unable to grow
            break
        m = min(2 * m, naug)
        # Grow V and H and continue the same basis. The first block comes from
        # the public arnoldi (which the benchmark's tracer times and counts);
        # it returns no column for the next basis vector, so the first
        # extension recomputes column k-1. Grown V keeps that spare column.
        j0 = k if Vm.shape[1] > k else k - 1
        V_grown = np.zeros((naug, min(m + 1, naug)), order="F")
        V_grown[:, : j0 + 1] = Vm[:, : j0 + 1]
        H_grown = np.zeros((m + 1, m))
        H_grown[: j0 + 1, :j0] = Hm[: j0 + 1, :j0]
        Vm, Hm = V_grown, H_grown
        k = _arnoldi_columns(aug_apply, Vm, Hm, j0, m)

    A = _materialize(apply_A, n)
    result = phi_combo_apply(A, h, V)
    return _done(result, KrylovInfo(naug, False, True, float("nan")))


# Largest working set build_phi_cache may allocate, in bytes. Above it the
# build is refused with a ValueError instead of running the host out of memory.
CACHE_BUDGET_BYTES = 4 * 2**30
# Peak number of (kmax+1)n x (kmax+1)n arrays live during one augmented
# exponential (scipy's scaling-and-squaring Pade; measured 8 to 9).
_EXPM_ARRAYS = 9
# Smallest n at which a tridiagonal Toeplitz A changes basis by the sine
# transform (DST-I) instead of products with the stored n x n sine matrix.
# Measured per exprk6s16 step (12 basis changes of 1,1,1,2,2,3,3,4,4,5,5,1
# rows) on one core with one BLAS thread, matrix product against DST-I:
#   n=400:  590 vs 1331 us   n=502: 1949 vs 2224 us   n=520:  1765 vs 1602 us
#   n=600: 2769 vs 2104 us   n=1008: 8411 vs 3685 us  n=1600: 20187 vs 5996 us
# Each n+1 there is prime, DST-I's slowest case; at n=404 (n+1 = 405) the
# transform takes 330 us against 729 us.
SINE_TRANSFORM_MIN_N = 512


def _sine_transform(v: np.ndarray) -> np.ndarray:
    """v times the orthonormal sine matrix of _sine_basis, each row: a DST-I.

    The transform is its own inverse. scipy.fft is imported here, and so only
    by processes that take this path: it adds about 4.6 MB to a process.
    """
    import scipy.fft

    return scipy.fft.dst(v, type=1, norm="ortho", axis=-1)


@dataclass
class PhiCache:
    """Immutable store of phi_j(c*h*A) keyed by (node c, index j), of two kinds.

    With an eigenbasis, A = Q diag(lam) Q^T is symmetric and each entry is the
    read-only length-n table phi_j(c*h*lam): phi_j(c*h*A) acts on basis
    coordinates Q^T v elementwise. The basis is kept in one of two ways (see
    build_phi_cache). As the n x n matrix `basis`, from `eigh` or, when A is
    tridiagonal Toeplitz with n below SINE_TRANSFORM_MIN_N, in closed form as a
    sine matrix. Or, with `sine_transform` set, not at all: A is tridiagonal
    Toeplitz with n at or above SINE_TRANSFORM_MIN_N, and the basis changes
    are O(n log n) sine transforms. Without an eigenbasis, the dense kind,
    each entry is the read-only n x n matrix phi_j(c*h*A). `coeff` folds a
    phi polynomial into one entry of the same kind: it is the one evaluator
    of scheme coefficients, for the integrator and, through PhiAtMatrix, for
    the order-condition checker. `get` returns a phi matrix in every case.
    `to_basis` and `from_basis` map a vector, or each row of a block of
    vectors, between the two coordinates.
    """

    h: float
    kmax: int
    entries: dict = field(default_factory=dict)
    basis: np.ndarray | None = None
    sine_transform: bool = False

    @property
    def eigenbasis(self) -> bool:
        """Whether the entries are tables on the eigenvalues, not matrices."""
        return self.basis is not None or self.sine_transform

    def entry(self, c: Fraction, j: int) -> np.ndarray:
        """The stored table (with an eigenbasis) or matrix (without) for (c, j)."""
        # a number hashes and compares equal to the Fraction of its value
        try:
            return self.entries[(c, j)]
        except KeyError:
            raise KeyError(f"phi cache has no entry for node {c}, index {j}") from None

    def get(self, c: Fraction, j: int) -> np.ndarray:
        """phi_j(c*h*A) as a read-only n x n matrix, formed on demand with an eigenbasis."""
        entry = self.entry(c, j)
        if not self.eigenbasis:
            return entry
        Q = _sine_basis(entry.size) if self.sine_transform else self.basis
        mat = (Q * entry) @ Q.T
        mat.setflags(write=False)
        return mat

    def coeff(self, poly) -> np.ndarray:
        """sum_j w_j phi_j(c*h*A) over the (j, w) terms of a PhiPoly at node c.

        Read-only, and of the entries' kind: a table on the eigenvalues with
        an eigenbasis, an n x n matrix without. Not memoized: each call folds
        the entries in term order, from zeros.
        """
        out = np.zeros_like(self.entry(poly.c, 0))
        for j, w in poly.terms:
            out += float(w) * self.entry(poly.c, j)
        out.setflags(write=False)
        return out

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        if self.sine_transform:
            return _sine_transform(v)
        return v if self.basis is None else v @ self.basis

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        if self.sine_transform:
            return _sine_transform(v)
        return v if self.basis is None else v @ self._basis_t

    @cached_property
    def _basis_t(self) -> np.ndarray:
        # A block of 4 or more rows times the transposed view Q.T takes OpenBLAS
        # 2-4x as long as times a contiguous array; a symmetric Q is its own Q^T.
        Q = self.basis
        return Q if np.array_equal(Q, Q.T) else np.ascontiguousarray(Q.T)


def _estimate_cache_bytes(n: int, nodes: int, kmax: int, symmetric: bool,
                          transform: bool) -> int:
    """Bytes the build holds at its peak, roughly."""
    if transform:
        # the tables alone: the basis is never formed
        return nodes * (kmax + 1) * n * 8
    if symmetric:
        # A, the eigenbasis, and the eigh workspace or the sine index array
        return 3 * n * n * 8
    # one node's augmented exponential at a time
    augmented = _EXPM_ARRAYS * ((kmax + 1) * n) ** 2 * 8
    return nodes * (kmax + 1) * n * n * 8 + augmented


def _tridiagonal_toeplitz(A: np.ndarray) -> tuple[float, float] | None:
    """(a, b) if A has a on its diagonal, b on both diagonals beside it and no
    other nonzeros; such an A is symmetric."""
    n = A.shape[0]
    if n < 2:
        return None
    diag, sup, sub = np.diagonal(A), np.diagonal(A, 1), np.diagonal(A, -1)
    a, b = float(diag[0]), float(sup[0])
    if not (np.all(diag == a) and np.all(sup == b) and np.all(sub == b)):
        return None
    band = n * (a != 0) + 2 * (n - 1) * (b != 0)
    return (a, b) if np.count_nonzero(A) == band else None


def _sine_eigenvalues(n: int, a: float, b: float) -> np.ndarray:
    """Eigenvalues of tridiagonal Toeplitz (a, b), in the order of _sine_basis.

    lam_k = a + 2b cos(k pi/(n+1)) is evaluated as
    (a + 2b) - 4b sin^2(k pi/(2(n+1))), which does not cancel where |lam_k| is
    small next to |b|, as for the smooth modes of a Laplacian.
    """
    k = np.arange(1, n + 1)
    return (a + 2.0 * b) - 4.0 * b * np.sin(k * (np.pi / (2 * (n + 1)))) ** 2


def _sine_basis(n: int) -> np.ndarray:
    """Orthonormal eigenvectors of every tridiagonal Toeplitz n x n matrix.

    Q[j, k] = sqrt(2/(n+1)) sin(jk pi/(n+1)) for j, k = 1..n; jk is reduced
    mod 2(n+1) in integers, so every sine argument lies in [0, 2 pi).
    """
    k = np.arange(1, n + 1)
    period = 2 * (n + 1)
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (np.pi / (n + 1)))
    jk = np.outer(k, k)
    jk %= period
    return sines[jk]


def _sine_eigenpairs(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of tridiagonal Toeplitz (a, b)."""
    return _sine_eigenvalues(n, a, b), _sine_basis(n)


def build_phi_cache(A, h: float, nodes, kmax: int) -> PhiCache:
    """phi_0..phi_kmax(c*h*A) for every node c, computed once per (A, h).

    Exactly symmetric A goes through one eigendecomposition A = Q diag(lam) Q^T
    and stores phi_j(c*h*lam) as a length-n table per (c, j), which is O(n)
    per entry and more accurate for the stiff discrete Laplacians this cache
    exists for. When A is tridiagonal Toeplitz (one constant a on the
    diagonal, one constant b on both diagonals beside it and no other
    nonzeros, as for the Dirichlet Laplacian), its eigenpairs are known in
    closed form and no `eigh` runs: see _sine_eigenvalues and _sine_basis.
    Below SINE_TRANSFORM_MIN_N the cache keeps Q as its basis; from there up
    it keeps no Q and changes basis by the sine transform. Other symmetric A
    keep the Q from `eigh`. General matrices store one dense matrix per (c, j)
    from one augmented block exponential per node, built one node at a time.

    Raises ValueError, before allocating, if kmax < 0 or if the estimated
    peak memory of the build exceeds CACHE_BUDGET_BYTES.
    """
    A = _as_square_matrix(A)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if not math.isfinite(float(h)):
        raise ValueError("step size must be finite")
    nodes = [Fraction(c) for c in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError("cache nodes must be distinct")
    if any(c <= 0 for c in nodes):
        raise ValueError("cache nodes must be positive")

    n = A.shape[0]
    toeplitz = _tridiagonal_toeplitz(A)
    # a tridiagonal Toeplitz A is symmetric; the O(n^2) compare runs only without one
    symmetric = toeplitz is not None or np.array_equal(A, A.T)
    transform = toeplitz is not None and n >= SINE_TRANSFORM_MIN_N
    estimate = _estimate_cache_bytes(n, len(nodes), kmax, symmetric, transform)
    if estimate > CACHE_BUDGET_BYTES:
        raise ValueError(
            f"phi cache for n={n} with {len(nodes) * (kmax + 1)} entries needs about "
            f"{estimate} bytes ({estimate / 2**20:.1f} MiB), above the budget of "
            f"{CACHE_BUDGET_BYTES} bytes"
        )

    cache = PhiCache(h=float(h), kmax=kmax)
    if symmetric:
        if transform:
            lam = _sine_eigenvalues(n, *toeplitz)
            cache.sine_transform = True
        else:
            lam, Q = np.linalg.eigh(A) if toeplitz is None else _sine_eigenpairs(n, *toeplitz)
            Q.setflags(write=False)
            cache.basis = Q
        for c in nodes:
            tables = phi_scalar_all(kmax, float(c) * float(h) * lam)
            tables.setflags(write=False)
            for j in range(kmax + 1):
                cache.entries[(c, j)] = tables[j]
        return cache

    for c in nodes:
        for j, mat in enumerate(phi_all_dense(float(c) * float(h) * A, kmax)):
            mat.setflags(write=False)
            cache.entries[(c, j)] = mat
    return cache
