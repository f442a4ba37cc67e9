"""Kernels for the entire functions phi_k and their matrix versions.

phi_0(z) = exp(z) and phi_{k+1}(z) = (phi_k(z) - 1/k!)/z, so phi_k(0) = 1/k!.
All coefficients of an exponential integrator are linear combinations of
phi_j evaluated at node-scaled copies of the stiff operator, so everything
here revolves around three tasks:

  * scalar phi_k(z) to near machine accuracy on the whole real line,
  * dense matrices phi_0(M)..phi_k(M) in one shot, and
  * the matrix-free action sum_j h^j phi_j(hM) v_j on vectors.

Scalar phi values and dense phi matrices come from one double-precision
kernel, scaling and modified squaring (Skaflestad & Wright 2009). Scalars
take it only below the radius where the upward recurrence from exp(z)
becomes stable; a stiff spectrum's larger arguments, nearly all of them,
take the recurrence alone. The matrix-free action takes a solve with
I - sigma A and runs shift-and-invert Arnoldi on the inverse of the shifted
augmented operator, whose basis size does not grow with the stiffness. It
grows one basis until the answer meets the tolerance or the basis spans an
invariant subspace, at most the whole augmented space, where the
projection is the operator itself. The first basis is accepted on its own
residual estimate; later ones where two sizes agree.

An operator record owns its diagonalisation: eigen() gives its eigenvalues
and a basis object. TridiagonalToeplitz's basis is the sine matrix below
SINE_FOLD_MIN_N; from there to SINE_TRANSFORM_MIN_N it is _SineFold, which
keeps only the halves of the sine matrix that a vector's folded sum and
difference multiply; from SINE_TRANSFORM_MIN_N up it is a DST-I formed from
one complex FFT of length n+1. Its shifted_solver factors I - sigma A once
for the matrix-free action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from fractions import Fraction

import numpy as np
import scipy.linalg

__all__ = [
    "SERIES_RADIUS",
    "CACHE_BUDGET_BYTES",
    "SINE_FOLD_MIN_N",
    "SINE_TRANSFORM_MIN_N",
    "phi_scalar",
    "phi_scalar_all",
    "phi_all_dense",
    "arnoldi",
    "KrylovInfo",
    "phi_combo_apply_krylov",
    "TridiagonalToeplitz",
    "PhiCache",
    "build_phi_cache",
]

# Arguments below SERIES_RADIUS in absolute value (matrices: 1-norm) take the
# Taylor series; larger ones are halved to below it and squared back up. Real
# scalars from _DOUBLE_RECURRENCE_RADIUS (and kmax) up take the upward
# recurrence from exp(z): its per-step error growth factor k/|z| is below 1.
SERIES_RADIUS = 0.5
_SERIES_TERMS = 25
_DOUBLE_RECURRENCE_RADIUS = 20.0


@cache
def _weights(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights for k = 0..kmax: the series' [1/(j+k)!] over
    j < _SERIES_TERMS, and a squaring's [1/(k-j)! if 1 <= j <= k, else 0]."""
    k = np.arange(kmax + 1)
    inverse = np.array([1.0 / math.factorial(i) for i in range(kmax + _SERIES_TERMS)])
    series = inverse[np.add.outer(k, np.arange(_SERIES_TERMS))]
    lower = np.tril(inverse[np.subtract.outer(k, k)])
    lower[:, 0] = 0.0
    series.setflags(write=False)
    lower.setflags(write=False)
    return series, lower


def _halvings(norm):
    """Least s >= 0 with norm/2^s < SERIES_RADIUS, elementwise."""
    return np.maximum(np.frexp(norm / SERIES_RADIUS)[1], 0)


def _square(phis: np.ndarray, product) -> np.ndarray:
    """phi_0..phi_kmax at 2X from their values at X, stacked on axis 0:
    phi_k(2X) = 2^-k [phi_0(X) phi_k(X) + sum_{j=1..k} phi_j(X)/(k-j)!].
    product is np.multiply for tables of real scalars, where every term is
    positive and nothing cancels, and np.matmul for matrices."""
    _, lower = _weights(len(phis) - 1)
    out = product(phis[0], phis)
    rows = out.reshape(len(out), -1)
    rows += lower @ phis.reshape(len(phis), -1)
    rows *= np.ldexp(1.0, -np.arange(len(rows)))[:, None]
    return out


def phi_scalar(k: int, z: float) -> float:
    """phi_k(z) for real z, relative error below 1e-14: phi_scalar_all at one point."""
    return float(phi_scalar_all(k, np.array([float(z)]))[k, 0])


def phi_scalar_all(kmax: int, z: np.ndarray) -> np.ndarray:
    """phi_0..phi_kmax on an array of real arguments, shape (kmax+1, len(z)).

    In double precision. Only the elements below
    max(_DOUBLE_RECURRENCE_RADIUS, kmax) in absolute value take the series:
    each takes its own s = _halvings(|z|), one Horner pass at x = z/2^s
    evaluates the Taylor series of every phi_k at once, with the [1/(j+k)!]
    weights of _weights(kmax), and s squarings follow, with phi_0 at level i
    recomputed as exp(2^i x) rather than squared. The others, most of a
    stiff operator's spectrum, take only the upward recurrence from exp(z).
    Raises ValueError on kmax < 0 or a non-finite z.
    """
    if kmax < 0:
        raise ValueError(f"phi index must be >= 0, got {kmax}")
    flat = np.asarray(z, dtype=float).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("phi arguments must be finite")
    out = np.empty((kmax + 1, flat.size))

    large = np.abs(flat) >= max(_DOUBLE_RECURRENCE_RADIUS, kmax)
    small = ~large
    zs = flat[small]
    s = _halvings(np.abs(zs))
    x = np.ldexp(zs, -s)
    series = _weights(kmax)[0]
    phis = np.repeat(series[:, -1:], x.size, axis=1)
    for j in range(_SERIES_TERMS - 2, -1, -1):
        phis *= x
        phis += series[:, j : j + 1]
    # each squaring takes the live columns in their order in z, so that its
    # product is formed as for the whole array
    for i in range(1, int(s.max(initial=0)) + 1):
        live = s >= i
        squared = _square(phis[:, live], np.multiply)
        squared[0] = np.exp(np.ldexp(x[live], i))
        phis[:, live] = squared
    out[:, small] = phis
    zl = flat[large]
    rows = np.empty((kmax + 1, zl.size))
    np.exp(zl, out=rows[0])
    for k in range(kmax):  # phi_{k+1} = (phi_k - 1/k!)/z
        np.subtract(rows[k], series[k, 0], out=rows[k + 1])
        rows[k + 1] /= zl
    out[:, large] = rows
    return out


def _as_square_matrix(M) -> np.ndarray:
    if hasattr(M, "eigen") and not isinstance(M, np.ndarray):
        raise ValueError(f"expected a dense matrix, got a {type(M).__name__} record; "
                         "pass its dense n x n ndarray instead")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def phi_all_dense(M, kmax: int) -> np.ndarray:
    """phi_0(M)..phi_kmax(M) stacked in shape (kmax+1, n, n).

    X = M/2^s has 1-norm below SERIES_RADIUS. Its _SERIES_TERMS powers from
    X^0 are formed once, phi_0(X)..phi_kmax(X) are one product of the
    [1/(j+k)!] weights with them, and each of the s squarings (_square) is
    one batched matrix product. Raises ValueError on kmax < 0 or a
    non-finite M.
    """
    M = _as_square_matrix(M)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if not np.isfinite(M).all():
        raise ValueError("phi of a non-finite matrix")
    n = M.shape[0]
    s = int(_halvings(np.abs(M).sum(axis=0).max(initial=0.0)))  # 1-norm
    powers = np.empty((_SERIES_TERMS, n, n))
    powers[0], powers[1] = np.eye(n), np.ldexp(M, -s)
    q = 1
    while q < _SERIES_TERMS - 1:  # X^(q+1)..X^(2q) = (X^1..X^q) X^q
        top = min(2 * q, _SERIES_TERMS - 1)
        np.matmul(powers[1 : top - q + 1], powers[q], out=powers[q + 1 : top + 1])
        q = top
    phis = (_weights(kmax)[0] @ powers.reshape(_SERIES_TERMS, -1)).reshape(kmax + 1, n, n)
    del powers
    for _ in range(s):
        phis = _square(phis, np.matmul)
    return phis


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
    """m-step Arnoldi: returns (V, H) with H (k+1)-by-k and V's columns orthonormal.

    k == m unless the Krylov space becomes invariant first, in which case V
    is the n-by-k basis of the invariant subspace and the trailing
    subdiagonal entry of H is zero. Otherwise, below k == n, V also keeps
    the next basis vector as column k, n-by-(k+1), so that A V[:, :k] = V H
    and a basis can grow from column k. Each new column is orthogonalised by
    classical Gram-Schmidt applied twice (CGS2), which keeps the basis
    orthonormal to ~1e-14. Column j depends only on columns 0..j, so the
    first k columns of a larger basis are bitwise those of the k-column one;
    phi_combo_apply_krylov builds its first block with it and grows that
    basis in place of rebuilding it.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    beta = np.linalg.norm(v)
    if beta == 0.0:
        raise ValueError("Arnoldi start vector must be nonzero")
    if not 1 <= m <= n:
        raise ValueError(f"subspace dimension must be in [1, {n}], got {m}")
    # column-major, so that every leading block V[:, :j+1] is contiguous
    V = np.zeros((n, min(m + 1, n)), order="F")
    H = np.zeros((m + 1, m))
    V[:, 0] = v / beta
    k = _arnoldi_columns(apply_A, V, H, 0, m)
    if k < m:
        return V[:, :k].copy(), H[: k + 1, :k].copy()
    return V, H


@dataclass
class KrylovInfo:
    """How phi_combo_apply_krylov obtained its result: from a basis of m
    columns, 0 where no Arnoldi step ran. An unflagged m == _KRYLOV_M0 is a
    first basis whose own residual estimate met the tolerance; a larger m,
    two successive sizes that agreed. dense_fallback is True where the basis
    stopped before the result met the tolerance: at the full augmented
    dimension, or where successive sizes stopped closing in (stagnated). The
    answer is then the projection onto the basis reached, and no dense
    evaluation runs. A basis that becomes invariant short of the full
    dimension gives the exact answer and is not flagged. The field keeps its
    name for the benchmark's tracer, which counts such calls."""

    m: int
    dense_fallback: bool


# Krylov subspace size at which phi_combo_apply_krylov first tests
# convergence, by the basis's own residual estimate. On heat1d every row at
# n=64, h=1/8 stops here, and at h=1/32 384 of 512 rows at n=400, 320 of
# 512 at n=4000 and 24 of 64 at n=20000 do.
_KRYLOV_M0 = 8
# Columns phi_combo_apply_krylov adds between two of its answers.
_SHIFT_INVERT_STEP = 4


def phi_combo_apply_krylov(apply_A, h: float, V: list[np.ndarray], tol: float,
                           return_info: bool = False, *, solve):
    """sum_{j=0}^{p} h^j phi_j(hA) v_j for V = [v_0, ..., v_p], with error
    below tol (relative), as the top of expm(A~) w0 for the augmented
    operator A~ = [[hA, B], [0, J]] (B's columns h^(p-i) v_(p-i), J the
    p x p shift) and w0 = [v_0; e_p].

    `solve` is a callable x = (I - sigma A)^-1 y whose shift is its attribute
    `sigma` (TridiagonalToeplitz.shifted_solver makes one). The action is
    shift-and-invert Arnoldi (van den Eshof & Hochbruck 2006) on
    (I - gamma A~)^-1 with gamma h = sigma, each application a p x p
    back-substitution and one solve. A~ is projected onto the basis V_m as
    the Rayleigh quotient A_m = V_m^T A~ V_m, one apply_A per basis vector,
    and the answer is beta V_m expm(A_m) e_1 at sizes _KRYLOV_M0,
    _KRYLOV_M0 + _SHIFT_INVERT_STEP, ... Its size does not grow with the
    stiffness. tol, sigma and h must be positive, which a NaN is not, and V
    must not be empty (ValueError, before any Arnoldi step).

    The first size is certified by its own residual: the answer returns
    there when beta times _first_size's generalized residual
    ||(A~ V_m - V_m A_m) phi_1(A_m) e_1|| (Hochbruck, Lubich & Selhofer
    1998) meets tol relative to the answer. The Arnoldi relation makes that
    defect rank one, so the estimate costs one apply_A on the next basis
    vector, which a larger basis then reuses, and one expm of order m + 1.
    Past the first size the answer returns once two successive answers
    agree within tol; where they stop closing in, as under a noisy solve,
    the call stops flagged.

    One basis is built per call and extended in place rather than rebuilt,
    so memory stays proportional to the size reached. The basis stops at the
    full augmented dimension n + p, or where it becomes invariant: the
    projection onto it is then the augmented operator itself (Saad 1992),
    and its answer is returned whatever the gap reads. If any v_j is not
    finite, the result is all NaN at once, from no Arnoldi step. Vectors of
    different lengths raise ValueError, also before any step. With
    return_info, returns (result, KrylovInfo).
    """
    if not tol > 0:  # also refuses a NaN tol, under which no size would converge
        raise ValueError(f"tol must be positive, got {tol}")
    if len(V) == 0:
        raise ValueError("V must hold at least v_0, got an empty list")
    V = [np.asarray(v, dtype=float) for v in V]
    n = V[0].size
    p = len(V) - 1
    other = next((v.size for v in V if v.size != n), n)
    if other != n:
        raise ValueError(f"vectors must share one length, got {n} and {other}")

    def _done(result, info):
        return (result, info) if return_info else result

    if not all(np.isfinite(v).all() for v in V):
        return _done(np.full(n, np.nan), KrylovInfo(0, False))
    h = float(h)
    if not (solve.sigma > 0 and h > 0):
        raise ValueError(f"a shifted solve needs a positive shift and step, "
                         f"got sigma={solve.sigma} and h={h}")
    naug = n + p
    w0 = np.zeros(naug)
    w0[:n] = V[0]
    if p > 0:
        w0[naug - 1] = 1.0
    beta = np.linalg.norm(w0)
    if beta == 0.0:
        return _done(np.zeros(n), KrylovInfo(0, False))

    B = np.zeros((n, p))
    for i in range(p):
        B[:, i] = h ** (p - i) * V[p - i]
    J = np.zeros((p, p))
    for i in range(p - 1):
        J[i, i + 1] = 1.0

    def aug_apply(x):
        top = h * np.asarray(apply_A(x[:n]), dtype=float)
        if p > 0:
            top = top + B @ x[n:]
            return np.concatenate([top, J @ x[n:]])
        return top

    gamma = float(solve.sigma) / h
    # (I - gamma J)^-1 is upper triangular with gamma^(j-i) from the diagonal up
    idx = np.arange(p)
    shift_inverse = np.triu(gamma ** np.maximum(idx - idx[:, None], 0))
    gamma_B = gamma * B

    def shifted(x):
        if p == 0:
            return solve(x)
        bottom = shift_inverse @ x[n:]
        return np.concatenate([solve(x[:n] + gamma_B @ bottom), bottom])

    # The first _KRYLOV_M0 columns come from the public arnoldi, which the
    # benchmark's tracer times and counts; each later size grows the same
    # basis by _arnoldi_columns.
    m = min(_KRYLOV_M0, naug)
    Vm, Hm = arnoldi(shifted, w0, m)
    k = Hm.shape[1]
    # A~ times each basis column so far, and the next one once the first size is tested
    applied = []
    previous, previous_gap = None, math.inf  # the last answer, and its gap to the one before
    while True:
        applied.extend(aug_apply(Vm[:, j]) for j in range(len(applied), k))
        converged = stalled = False
        if previous is None and k == m < naug:  # the first size, with a next vector
            applied.append(aug_apply(Vm[:, k]))
            first, residual = _first_size(Vm, Hm, applied, gamma)
            u = beta * (Vm[:n, :k] @ first)
            converged = beta * residual <= tol * max(np.linalg.norm(u), 1e-30)
        else:
            Vk = Vm[:, :k]
            F = scipy.linalg.expm(Vk.T @ np.column_stack(applied[:k]))
            u = beta * (Vk[:n] @ F[:, 0])
            if previous is not None:
                gap = float(np.linalg.norm(u - previous))
                converged = gap <= tol * max(np.linalg.norm(u), 1e-30)
                stalled = gap >= previous_gap
                previous_gap = gap
        if converged or k < m:  # met tol, or invariant: exact
            return _done(u, KrylovInfo(k, False))
        if stalled or m >= naug:
            return _done(u, KrylovInfo(k, True))
        previous = u
        m = min(m + _SHIFT_INVERT_STEP, naug)
        # the basis so far keeps its next vector, column k: grow from there
        V_grown = np.zeros((naug, min(m + 1, naug)), order="F")
        V_grown[:, : k + 1] = Vm
        H_grown = np.zeros((m + 1, m))
        H_grown[: k + 1, :k] = Hm
        Vm, Hm = V_grown, H_grown
        k = _arnoldi_columns(shifted, Vm, Hm, k, m)


def _first_size(Vm: np.ndarray, Hm: np.ndarray, applied: list, gamma: float):
    """(expm(A_k) e_1, rho) for the k = Hm.shape[1] column basis V_k of
    shift-and-invert Arnoldi on (I - gamma A~)^-1, given its next vector as
    Vm[:, k] and applied[j] = A~ Vm[:, j] for j = 0..k.

    A_k = V_k^T A~ V_k, and rho = ||(A~ V_k - V_k A_k) phi_1(A_k) e_1|| is
    the generalized residual of the answer V_k expm(A_k) e_1 of a unit start
    vector: its derivative's defect integrated over the step (Hochbruck,
    Lubich & Selhofer 1998). The Arnoldi relation
    (I - gamma A~)^-1 V_k = V_k H_k + h_{k+1,k} v_{k+1} e_k^T makes the
    defect rank one, exactly
    (h_{k+1,k}/gamma) (I - V_k V_k^T)(I - gamma A~) v_{k+1} e_k^T H_k^-1,
    so rho is a norm of one vector times |e_k^T H_k^-1 phi_1(A_k) e_1|,
    without the cancellation of forming A~ V_k - V_k A_k. Projected, the
    same relation gives e_k^T H_k^-1 = e_k^T (I - gamma A_k) / (1 + gamma
    h_{k+1,k} v_k^T A~ v_{k+1}), and A_k phi_1(A_k) = expm(A_k) - I, so one
    expm of [[A_k, e_1], [0, 0]], which holds expm(A_k) e_1 and
    phi_1(A_k) e_1, gives rho without a solve with H_k.
    """
    k = Hm.shape[1]
    Vk = Vm[:, :k]
    E = np.zeros((k + 1, k + 1))
    E[:k, :k] = Vk.T @ np.column_stack(applied[:k])
    E[0, k] = 1.0
    F = scipy.linalg.expm(E)  # [[expm(A_k), phi_1(A_k) e_1], [0, 1]]
    w = applied[k]
    Vw = Vk.T @ w
    defect = Vm[:, k] - gamma * (w - Vk @ Vw)
    hnext = Hm[k, k - 1]
    weight = (F[k - 1, k] - gamma * (F[k - 1, 0] - (k == 1))) / (1 + gamma * hnext * Vw[-1])
    return F[:k, 0], hnext / gamma * np.linalg.norm(defect) * abs(weight)


# Largest working set build_phi_cache may allocate, in bytes. Above it the
# build is refused with a ValueError instead of running the host out of memory.
CACHE_BUDGET_BYTES = 4 * 2**30
# Smallest n at which a TridiagonalToeplitz A changes basis by the sine
# transform (DST-I) instead of products with the stored n x n sine matrix.
# Measured per exprk6s16 step (12 basis changes of 1,1,1,2,2,3,3,4,4,5,5,1
# rows) on one core with one BLAS thread, matrix product against DST-I:
#   n=400:  590 vs 1331 us   n=502: 1949 vs 2224 us   n=520:  1765 vs 1602 us
#   n=600: 2769 vs 2104 us   n=1008: 8411 vs 3685 us  n=1600: 20187 vs 5996 us
# Each n+1 there is prime, DST-I's slowest case; at n=404 (n+1 = 405) the
# transform takes 330 us against 729 us.
# The same steps, sine fold / scipy.fft.dst / complex FFT (_SineTransform):
#   n=520:   698 / 1733 / 1168 us   n=600:  992 / 2184 / 1429 us
#   n=700:  1541 / 2086 / 1388 us   n=1008: 3955 / 3643 / 2068 us
#   n=1600: 10133 / 6145 / 3483 us
# Both constants were set at prime n+1. At smooth n+1 the transform beats
# the fold: n=511 (n+1 = 2^9) 584 / 347 / 478 us, n=539 (540) 660 / 391 / 508 us.
SINE_TRANSFORM_MIN_N = 512
# From this n up, and below SINE_TRANSFORM_MIN_N, a TridiagonalToeplitz A
# changes basis by _SineFold: half the multiply-adds, five more numpy calls.
# Per exprk6s16 step as above, matrix product against fold (medians of 15):
#   n=64:   23 vs  85 us   n=200: 106 vs 119 us   n=256:  167 vs 163 us
#   n=300: 237 vs 180 us   n=400: 447 vs 284 us   n=510: 1375 vs 610 us
# Whole solves, fold over matrix time: 1.20 at n=200, 0.98-1.03 at n=256.
SINE_FOLD_MIN_N = 256


@lru_cache(maxsize=4)
def _sine_fft_weights(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_SineTransform's three read-only length-n weights. Kept for the last
    few n, so a set-up repeated at one n forms them once."""
    theta = np.arange(1, n + 1) * (np.pi / (n + 1))
    sin, c = np.sin(theta), math.sqrt(2.0 / (n + 1)) / 2
    weights = (c * np.cos(theta), c * (sin - 1.0), c * (sin + 1.0))
    for w in weights:
        w.setflags(write=False)
    return weights


@dataclass(frozen=True)
class TridiagonalToeplitz:
    """The n x n matrix with a on its diagonal, b on both diagonals beside it
    and zeros elsewhere, kept as those three numbers. `A @ v` is the
    three-point stencil; eigen() gives its eigenpairs in closed form."""

    n: int
    a: float
    b: float
    __array_ufunc__ = None  # ndarray operators defer: ndarray == record is False

    def __post_init__(self):  # formed once: converting a list costs each product 0.3 us
        object.__setattr__(self, "_stencil", np.array([self.b, self.a, self.b]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def eigen(self) -> tuple[np.ndarray, _MatrixBasis | _SineFold | _SineTransform]:
        """(lam, basis): the eigenvalues a + 2b cos(k pi/(n+1)), k = 1..n, and the
        sine eigenvectors Q (_sine_basis) in the same order, as a basis object.
        lam is evaluated as (a + 2b) - 4b sin^2(k pi/(2(n+1))), which does not
        cancel where |lam_k| is small next to |b|, as for a Laplacian's smooth
        modes. The basis keeps Q below SINE_FOLD_MIN_N, from there only the
        halves of Q that _SineFold multiplies by, and from SINE_TRANSFORM_MIN_N
        up no Q, changing basis by the sine transform."""
        n, a, b = self.n, self.a, self.b
        k = np.arange(1, n + 1)
        lam = (a + 2.0 * b) - 4.0 * b * np.sin(k * (np.pi / (2 * (n + 1)))) ** 2
        return lam, (_SineTransform(n) if n >= SINE_TRANSFORM_MIN_N else _SineFold(n)
                     if n >= SINE_FOLD_MIN_N else _MatrixBasis(_sine_basis(n)))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self.n < 3:  # "same" would pad the result to length 3
            return np.correlate(v, self._stencil, "full")[1:-1]
        return np.correlate(v, self._stencil, "same")

    def shifted_solver(self, sigma: float) -> _TridiagonalSolve:
        """The solve x = (I - sigma A)^-1 y, for a vector y or each row of a
        block, from one factorisation L D L^T of the symmetric tridiagonal
        I - sigma A (LAPACK dpttrf). Raises ValueError where I - sigma A is
        not positive definite; on the shipped problems A is negative
        definite, so it is for every sigma >= 0."""
        sigma = float(sigma)
        # f2py refuses an empty off-diagonal: at n = 1 one unread entry goes in
        d, e, info = scipy.linalg.lapack.dpttrf(np.full(self.n, 1.0 - sigma * self.a),
                                                np.full(max(self.n - 1, 1), -sigma * self.b))
        if info != 0 or not np.all(d > 0):  # a NaN shift factors with info 0
            raise ValueError(f"I - sigma A is not positive definite at sigma={sigma}")
        return _TridiagonalSolve(sigma, d, e)


@dataclass(frozen=True, eq=False)
class _TridiagonalSolve:
    """x = (I - sigma A)^-1 y from the factors d, e that
    TridiagonalToeplitz.shifted_solver formed; y is a vector or a block of rows."""

    sigma: float
    d: np.ndarray
    e: np.ndarray

    def __call__(self, y: np.ndarray) -> np.ndarray:
        # a row block's transpose is the column-major right-hand side LAPACK takes
        x, _ = scipy.linalg.lapack.dpttrs(self.d, self.e, np.asarray(y, dtype=float).T)
        return x.T


class _MatrixBasis:
    """Eigenvectors of a symmetric A kept as the n x n matrix Q, from `eigh`
    or _sine_basis; each change of basis is a product with Q or Q^T."""

    def __init__(self, Q: np.ndarray):
        Q.setflags(write=False)
        self.matrix = Q
        # A block of 4 or more rows times the transposed view Q.T takes OpenBLAS
        # 2-4x as long as times a contiguous array; a symmetric Q is its own Q^T.
        self.transpose = Q if np.array_equal(Q, Q.T) else np.ascontiguousarray(Q.T)

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        return v @ self.matrix

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        return v @ self.transpose


# _SineTransform's complex FFT against scipy.fft.dst, whose real FFT of
# length 2(n+1) costs as much as a complex one where n+1 has a large prime
# factor (Bluestein 1970). Per exprk6s16 step as for SINE_TRANSFORM_MIN_N:
#   n=520 (521):       1733 vs 1168 us   n=1600 (1601):      6145 vs 3483 us
#   n=4000 (4001):    20923 vs 9891 us   n=596 (3*199):      1713 vs 1237 us
#   n=542 (3*181):     1472 vs 1271 us   n=904 (5*181):      2090 vs 1991 us
#   n=800 (9*89):      1125 vs 1339 us   n=4400 (9*163):     8047 vs 8430 us
#   n=19999 (2^5 5^4): 12656 vs 16172 us  n=20000 (3*59*113): 36287 vs 40805 us
#   n=40000 (13*17*181): 83896 vs 88800 us
# It loses 8-28% where all of n+1's prime factors are small, and wins by
# up to half where one is large.
class _SineTransform:
    """The sine matrix Q of _sine_basis, its own inverse, never kept: each
    change of basis is a DST-I formed from one complex FFT of length n+1 and
    the three read-only length-n `weights` (Cooley, Lewis & Welch 1970).
    scipy.fft is imported in to_basis, and so only by processes that take
    this kind: it adds about 4.6 MB to a process."""

    def __init__(self, n: int):
        self.n = n
        self.weights = _sine_fft_weights(n)

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """v @ Q, each row. With N = n+1 and x = [0, v, 0 ... 0] of length 2N,
        the DST-I is -sqrt(2/N) Im(rfft(x))[1:N]. The FFT Z of length N of
        x viewed as complex gives it, with theta_k = k pi/N, as
        c [cos theta_k (Re Z_k - Re Z_{N-k}) + (sin theta_k - 1) Im Z_k
           + (sin theta_k + 1) Im Z_{N-k}],  c = sqrt(2/N)/2,
        with no recurrence between the k."""
        import scipy.fft

        n = self.n
        x = np.zeros(v.shape[:-1] + (2 * (n + 1),))
        x[..., 1 : n + 1] = v
        Z = scipy.fft.fft(x.view(complex), axis=-1, overwrite_x=True)
        Zk, Zr = Z[..., 1:], Z[..., :0:-1]  # Z_k and Z_{N-k}, k = 1..n
        cos, sin_minus, sin_plus = self.weights
        out = np.subtract(Zk.real, Zr.real)
        out *= cos
        term = np.multiply(Zk.imag, sin_minus)
        out += term
        np.multiply(Zr.imag, sin_plus, out=term)
        out += term
        return out

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        return self.to_basis(v)


class _SineFold:
    """The sine matrix Q kept as the read-only halves Q[:m, 0::2] and
    Q[:p, 1::2], m = ceil(n/2) and p = floor(n/2): n*n/2 doubles. Q is
    symmetric and orthogonal, so to_basis also serves as from_basis."""

    def __init__(self, n: int):
        self.n = n
        m = (n + 1) // 2
        self.halves = (_sine_basis(n, slice(m), slice(0, n, 2)),
                       _sine_basis(n, slice(n - m), slice(1, n, 2)))
        for half in self.halves:
            half.setflags(write=False)

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        """v @ Q, each row: row n+1-j of Q is row j with its even columns
        negated (1-based), so the odd columns are (v[:m] + v's last m
        reversed, an odd n's middle entry alone) @ Qo and the even ones
        (v[:p] - v's last p reversed) @ Qe."""
        Qo, Qe = self.halves
        m, p = len(Qo), len(Qe)
        s = v[..., :m] + v[..., :p - 1:-1]
        if m > p:
            s[..., p] = v[..., p]
        out = np.empty(v.shape)
        np.matmul(s, Qo, out=out[..., 0::2])
        np.matmul(v[..., :p] - v[..., :m - 1:-1], Qe, out=out[..., 1::2])
        return out

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        return self.to_basis(v)


@dataclass
class PhiCache:
    """Immutable store of phi_j(c*h*A) keyed by (node c, index j), of two kinds.

    With a `basis`, A = Q diag(lam) Q^T is symmetric and each entry is the
    read-only length-n table phi_j(c*h*lam): phi_j(c*h*A) acts on basis
    coordinates Q^T v elementwise. The basis object, from `eigh` or a
    record's `eigen()`, changes coordinates; only a _MatrixBasis keeps Q
    itself, as its `matrix`. Without a basis, the dense kind, each entry is
    the read-only n x n matrix phi_j(c*h*A).
    `stacks` holds each node's entries for j = 0..kmax stacked on axis 0, one
    read-only array per node; `entries` reads them by (c, j).
    `coeff` folds a phi polynomial into one entry of the same kind: it is the
    one evaluator of scheme coefficients, for the integrator and, through
    PhiAtMatrix, for the order-condition checker. `to_basis` and
    `from_basis` map a vector, or each row of a block of vectors, between the
    two coordinates (the identity without a basis).
    """

    kmax: int
    stacks: dict = field(default_factory=dict)
    basis: object | None = None

    @property
    def entries(self) -> dict:
        """Every entry, keyed by (node c, index j)."""
        return {(c, j): stack[j] for c, stack in self.stacks.items() for j in range(len(stack))}

    def node(self, c: Fraction) -> np.ndarray:
        """The entries for (c, 0..kmax), stacked on axis 0."""
        # a number hashes and compares equal to the Fraction of its value
        try:
            return self.stacks[c]
        except KeyError:
            raise KeyError(f"phi cache has no entries for node {c}") from None

    def entry(self, c: Fraction, j: int) -> np.ndarray:
        """The stored table (with a basis) or matrix (without) for (c, j)."""
        if not 0 <= j <= self.kmax:
            raise KeyError(f"phi cache has no entry for node {c}, index {j}")
        return self.node(c)[j]

    def coeff(self, poly) -> np.ndarray:
        """sum_j w_j phi_j(c*h*A) over the (j, w) terms of a PhiPoly at node c.

        Read-only, and of the entries' kind: a table on the eigenvalues with
        a basis, an n x n matrix without. Not memoized: each call folds the
        entries in term order, from zeros, with the weights as floats.
        """
        stack = self.node(poly.c)
        out = np.zeros(stack.shape[1:])
        try:
            for j, w in poly.float_terms:
                out += w * stack[j]
        except IndexError:
            raise KeyError(f"phi cache has no entry for node {poly.c}, index {j}") from None
        out.setflags(write=False)
        return out

    def to_basis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis.to_basis(v)

    def from_basis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis.from_basis(v)


def _estimate_cache_bytes(n: int, nodes: int, kmax: int, kind: str) -> int:
    """Bytes the build holds at its peak, roughly; kind: record, symmetric or general."""
    if kind == "record":
        # the tables: a record's basis build is at most about 4 MiB (the sine
        # matrix and its index array below SINE_TRANSFORM_MIN_N)
        return nodes * (kmax + 1) * n * 8
    if kind == "symmetric":
        # A, the eigenvectors and the eigh workspace
        return 3 * n * n * 8
    # every node's entries, and one phi_all_dense: its argument c*h*A, one
    # temporary, and the _SERIES_TERMS powers or 2(kmax+1) squaring arrays
    # (tracemalloc, 5 nodes at n=200: 61.03 n*n*8 bytes at kmax 6)
    return (nodes * (kmax + 1) + 2 + max(_SERIES_TERMS, 2 * (kmax + 1))) * n * n * 8


def _sine_basis(n: int, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """Orthonormal eigenvectors of every tridiagonal Toeplitz n x n matrix, or
    their block Q[rows, cols] without the rest.

    Q[j, k] = sqrt(2/(n+1)) sin(jk pi/(n+1)) for j, k = 1..n; jk is reduced
    mod 2(n+1) in integers, so every sine argument lies in [0, 2 pi).
    """
    k = np.arange(1, n + 1)
    period = 2 * (n + 1)
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (np.pi / (n + 1)))
    jk = np.outer(k[rows], k[cols])
    jk %= period
    return sines[jk]


def build_phi_cache(A, h: float, nodes, kmax: int) -> PhiCache:
    """phi_0..phi_kmax(c*h*A) for every node c, computed once per (A, h).

    A's kind picks the kind of cache. A symmetric A = Q diag(lam) Q^T stores
    phi_j(c*h*lam) as a length-n table per (c, j), O(n) per entry and more
    accurate for the stiff discrete Laplacians this cache exists for, and
    one basis object. An operator record with an `eigen()` method, such as
    TridiagonalToeplitz, gives (lam, basis) itself. An exactly symmetric
    ndarray keeps the Q from `eigh`. Any other ndarray stores one dense
    matrix per (c, j) from phi_all_dense, one node at a time, and no basis.

    Raises ValueError, before allocating, if kmax < 0 or if the estimated
    peak memory of the build exceeds CACHE_BUDGET_BYTES; later, if an entry
    of c*h*A (general A) or of c*h*lam is not finite.
    """
    eigen = getattr(A, "eigen", None)
    A = A if eigen else _as_square_matrix(A)
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
    kind = "record" if eigen else "symmetric" if np.array_equal(A, A.T) else "general"
    estimate = _estimate_cache_bytes(n, len(nodes), kmax, kind)
    if estimate > CACHE_BUDGET_BYTES:
        raise ValueError(
            f"phi cache for n={n} with {len(nodes) * (kmax + 1)} entries needs about "
            f"{estimate} bytes ({estimate / 2**20:.1f} MiB), above the budget of "
            f"{CACHE_BUDGET_BYTES} bytes"
        )

    cache = PhiCache(kmax=kmax)
    if eigen:
        lam, cache.basis = eigen()
    elif kind == "symmetric":
        lam, Q = np.linalg.eigh(A)
        cache.basis = _MatrixBasis(Q)
    for c in nodes:
        stack = (phi_all_dense(float(c) * float(h) * A, kmax) if kind == "general"
                 else phi_scalar_all(kmax, float(c) * float(h) * lam))
        stack.setflags(write=False)
        cache.stacks[c] = stack
    return cache
