"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own evaluation paths:
phi values come from extended-precision series or closed forms, operator
matrices entry by entry from their defining numbers, matrix
exponentials from a long plain series in software arbitrary precision, dense
phi matrices also from one scipy exponential of an augmented block matrix,
and tree invariants from explicit enumeration of labeled representatives.
The one exception is residual_ref, the checker's recursion in its first form.
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
