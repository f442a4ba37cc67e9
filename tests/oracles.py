"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own evaluation paths:
phi values come from extended-precision series or closed forms, operator
matrices entry by entry from their defining numbers, a tridiagonal Toeplitz
operator's phi matrices from its closed-form eigenpairs, matrix
exponentials from a long plain series in software arbitrary precision, dense
phi matrices also from one scipy exponential of an augmented block matrix,
and tree invariants from explicit enumeration of labeled representatives.
phi_matrix_from_cache turns a phi cache's stored entry into its n x n
matrix, so that tests can hold the library's entries against these.
The exceptions are residual_ref, the checker's recursion in its first form,
and two of the library's set-up kernels in their first form, which its
faster ones must match bit for bit: phi_scalar_all_series_ref, the scalar
phi kernel running the series on every argument, and
block_weights_fraction_ref, the moment solve in Fraction arithmetic.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import mpmath
import numpy as np
import scipy.linalg

from exprk.conditions import psi


def phi_ref(k: int, z: float, dps: int = 60) -> float:
    """phi_k(z) in extended precision, for k <= 30 and any real z.

    |z| < 1 takes the 60-term Taylor series. Elsewhere the closed form
    (e^z - sum_{j<k} z^j/j!)/z^k cancels at most log10(e k!) digits (at
    |z| = 1), which 60 digits leave room for.
    """
    with mpmath.workdps(dps):
        zm = mpmath.mpf(z)
        if abs(zm) < 1:
            return float(mpmath.fsum(zm**j / mpmath.factorial(j + k) for j in range(60)))
        head = mpmath.fsum(zm**j / mpmath.factorial(j) for j in range(k))
        return float((mpmath.exp(zm) - head) / zm**k)


def expm_ref(M: np.ndarray, terms: int = 200, dps: int = 60) -> np.ndarray:
    """exp(M) by a 200-term series in extended precision (use for ||M|| <~ 3)."""
    with mpmath.workdps(dps):
        A = mpmath.matrix(M.tolist())
        n = A.rows
        acc = mpmath.eye(n)
        term = mpmath.eye(n)
        for j in range(1, terms):
            term = term * A / j
            acc = acc + term
        return np.array([[float(acc[i, j]) for j in range(n)] for i in range(n)])


def phi_matrix_series_ref(M: np.ndarray, kmax: int, terms: int = 120,
                          dps: int = 60) -> list[np.ndarray]:
    """[phi_0(M)..phi_kmax(M)] by extended-precision series (||M|| <~ 3)."""
    with mpmath.workdps(dps):
        A = mpmath.matrix(M.tolist())
        n = A.rows
        out = []
        for k in range(kmax + 1):
            acc = mpmath.zeros(n)
            term = mpmath.eye(n) / mpmath.factorial(k)
            acc += term
            power = mpmath.eye(n)
            for j in range(1, terms):
                power = power * A
                acc += power / mpmath.factorial(j + k)
            out.append(np.array([[float(acc[i, jj]) for jj in range(n)]
                                 for i in range(n)]))
        return out


def dense_matrix(A) -> np.ndarray:
    """The n x n array of a TridiagonalToeplitz record: a on the diagonal, b
    on both diagonals beside it, zeros elsewhere."""
    return np.diag(np.full(A.n, A.a)) + A.b * (np.eye(A.n, k=1) + np.eye(A.n, k=-1))


def sine_matrix_ref(n: int) -> np.ndarray:
    """The orthonormal eigenvectors of every n x n tridiagonal Toeplitz matrix,
    Q[j, k] = sqrt(2/(n+1)) sin(jk pi/(n+1)) for j, k = 1..n, each jk reduced
    mod 2(n+1) in integers before the sine."""
    k = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) % (2 * (n + 1)) * (np.pi / (n + 1)))


def toeplitz_phi_ref(A, h: float, kmax: int) -> list[np.ndarray]:
    """[phi_0(hA)..phi_kmax(hA)] of a TridiagonalToeplitz record from its
    closed-form eigenpairs: Q diag(phi_j(h lam)) Q with Q = sine_matrix_ref(n),
    lam_k = a + 2b cos(k pi/(n+1)) in 60 digits and phi_j from phi_ref."""
    with mpmath.workdps(60):
        z = [float(h * (A.a + 2 * A.b * mpmath.cos(k * mpmath.pi / (A.n + 1))))
             for k in range(1, A.n + 1)]
    Q = sine_matrix_ref(A.n)
    return [(Q * [phi_ref(j, zk) for zk in z]) @ Q for j in range(kmax + 1)]


def phi_matrix_from_cache(cache, c, j: int) -> np.ndarray:
    """phi_j(c h A) as an n x n matrix from a PhiCache entry: the entry itself
    without a basis, else Q diag(entry) Q^T, with Q the basis's own `matrix`
    where it keeps one and sine_matrix_ref(n) for the sine kinds that do not."""
    entry = cache.entry(c, j)
    if cache.basis is None:
        return entry
    Q = getattr(cache.basis, "matrix", None)
    if Q is None:
        Q = sine_matrix_ref(entry.size)
    return (Q * entry) @ Q.T


def phi_augmented_ref(M: np.ndarray, kmax: int) -> list[np.ndarray]:
    """[phi_0(M)..phi_kmax(M)], the top block row of exp of the (kmax+1)n square
    matrix with M in its top-left block and identities on its block
    superdiagonal (scipy's scaling and squaring Pade exponential)."""
    n = M.shape[0]
    aug = np.zeros(((kmax + 1) * n, (kmax + 1) * n))
    aug[:n, :n] = M
    for k in range(kmax):
        aug[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = np.eye(n)
    E = scipy.linalg.expm(aug)
    return [E[:n, k * n : (k + 1) * n] for k in range(kmax + 1)]


def phi_spectral_ref(M: np.ndarray, kmax: int) -> list[np.ndarray]:
    """phi matrices of a diagonalizable M through its eigendecomposition."""
    lam, Q = np.linalg.eig(M)
    Qinv = np.linalg.inv(Q)
    out = []
    for k in range(kmax + 1):
        vals = np.array([complex(phi_ref(k, lv.real)) if abs(lv.imag) < 1e-14
                         else _phi_ref_complex(k, lv) for lv in lam])
        out.append(np.real(Q @ np.diag(vals) @ Qinv))
    return out


def _phi_ref_complex(k: int, z: complex, terms: int = 60):
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        acc = mpmath.mpc(0)
        for j in range(terms):
            acc += zm**j / mpmath.factorial(j + k)
        return complex(acc)


# -- set-up kernels in their first form ---------------------------------------


def phi_scalar_all_series_ref(kmax: int, z: np.ndarray) -> np.ndarray:
    """phi_0..phi_kmax on real z, shape (kmax+1, len(z)), as the library's
    phi_scalar_all first computed them: every element takes the Taylor
    series at x = z/2^s, with s the least halving count below 0.5, and s
    squarings (phi_0 at level i recomputed as exp(2^i x)); then the elements
    from max(20, kmax) up are overwritten by the upward recurrence from exp(z).
    """
    terms = 25
    flat = np.asarray(z, dtype=float).ravel()
    out = np.empty((kmax + 1, flat.size))
    k = np.arange(kmax + 1)
    inverse = np.array([1.0 / math.factorial(i) for i in range(kmax + terms)])
    lower = np.tril(inverse[np.subtract.outer(k, k)])
    lower[:, 0] = 0.0

    large = np.abs(flat) >= max(20.0, kmax)
    s = np.maximum(np.frexp(np.abs(flat) / 0.5)[1], 0)
    x = np.ldexp(flat, -s)
    s[large] = 0
    for m in range(kmax + 1):
        acc = np.full_like(x, 1.0 / math.factorial(terms - 1 + m))
        for j in range(terms - 2, -1, -1):
            acc = acc * x + 1.0 / math.factorial(j + m)
        out[m] = acc
    for i in range(1, int(s.max(initial=0)) + 1):
        live = s >= i
        phis = out[:, live]
        # phi_m(2X) = 2^-m [phi_0(X) phi_m(X) + sum_{j=1..m} phi_j(X)/(m-j)!]
        squared = phis[0] * phis
        squared += lower @ phis
        squared *= np.ldexp(1.0, -k)[:, None]
        squared[0] = np.exp(np.ldexp(x[live], i))
        out[:, live] = squared
    zl = flat[large]
    row = np.exp(zl)
    out[0, large] = row
    for m in range(kmax):
        row = (row - 1.0 / math.factorial(m)) / zl
        out[m + 1, large] = row
    return out


def block_weights_fraction_ref(nodes) -> dict:
    """The moment solve of tableaus.block_weights in Fraction arithmetic:
    w[(j, col)] = (j-1)! [x^(j-1)] (x prod_{m != col} (x - c_m))
    / (c_col prod_{m != col} (c_col - c_m)) for j = 2..len(nodes)+1."""
    nodes = [Fraction(c) for c in nodes]
    out = {}
    for col, cc in enumerate(nodes):
        others = [c for k, c in enumerate(nodes) if k != col]
        poly = [Fraction(0), Fraction(1)]
        for cm in others:
            nxt = [Fraction(0)] * (len(poly) + 1)
            for d, a in enumerate(poly):
                nxt[d + 1] += a
                nxt[d] -= cm * a
            poly = nxt
        den = cc
        for cm in others:
            den *= cc - cm
        for j in range(2, len(nodes) + 2):
            out[(j, col)] = math.factorial(j - 1) * poly[j - 1] / den
    return out


# -- rooted tree oracles ----------------------------------------------------


def _ordered_forms(t) -> set:
    """Distinct ordered (plane) representatives of an unordered rooted tree."""
    if t.kind == "white":
        return {"w"}
    forms = set()
    child_forms = [sorted(_ordered_forms(c), key=repr) for c in t.children]
    for perm in permutations(range(len(t.children))):
        for combo in product(*(child_forms[i] for i in perm)):
            forms.add(("n", combo))
    return forms


def _total_orderings(t) -> int:
    if t.kind != "node":
        return 1
    return math.factorial(len(t.children)) * math.prod(
        _total_orderings(c) for c in t.children
    )


def symmetry_bruteforce(t) -> int:
    """Automorphism count: all child orderings divided by the distinct ones."""
    total = _total_orderings(t)
    distinct = len(_ordered_forms(t))
    assert total % distinct == 0
    return total // distinct


def order_bruteforce(t) -> int:
    """Order from the serialized form: leaves plus interior vertices."""
    s = t.bracket()
    return s.count("•") + s.count("[")


# -- order-condition residual by plain recursion ----------------------------
#
# The checker's stage-vector recursion in its first form: each child subtree's
# stage-j vector is recomputed for every parent stage that reads it. It reuses
# the library's coefficient matrices and row defects (ev.coeff, psi),
# so its residuals must equal the checker's bit for bit.


def _apply_map_ref(tensor, args):
    out = tensor
    for v in reversed(args):
        out = out @ v
    return out


def elementary_differential_ref(tree, i, scheme, ev, maps, w, path=()):
    """Stage-i vector of the subtree at path, recomputed from scratch."""
    if tree.kind == "white":
        return float(scheme.c[i]) * w
    tensor = maps[path]
    if tree.is_quadrature():
        ell = len(tree.children)
        vec = _apply_map_ref(tensor, [w] * ell)
        return psi(ell + 1, i, scheme, ev) @ vec
    pref = float(Fraction(math.prod(c.symmetry for c in tree.children), tree.symmetry))
    n = ev.Z.shape[0]
    acc = np.zeros(n)
    for j in range(2, i):
        poly = scheme.a.get((i, j))
        if poly is None:
            continue
        args = [
            elementary_differential_ref(child, j, scheme, ev, maps, w, path + (idx,))
            for idx, child in enumerate(tree.children)
        ]
        acc += ev.coeff(poly) @ _apply_map_ref(tensor, args)
    return pref * acc


def residual_ref(cond, scheme, model, mode, ev, ev0):
    """Residual norm of one condition, nested trees by the plain recursion."""
    if mode == "weak17" and cond.kind == "b" and cond.order == 6:
        return float(np.linalg.norm(psi(cond.order, scheme.s + 1, scheme, ev0))) * math.factorial(cond.order - 1)
    if cond.kind == "b":
        return float(np.linalg.norm(psi(cond.order, scheme.s + 1, scheme, ev))) * math.factorial(cond.order - 1)
    maps = model.maps_for(cond)
    tensor = maps[()]
    acc = np.zeros(model.n)
    for i, poly in scheme.b.items():
        args = [
            elementary_differential_ref(child, i, scheme, ev, maps, model.w, (idx,))
            for idx, child in enumerate(cond.tree.children)
        ]
        acc += ev.coeff(poly) @ _apply_map_ref(tensor, args)
    return float(np.linalg.norm(acc))
