"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own evaluation paths:
phi values come from high-precision truncated series, matrix exponentials
from a long plain series in software arbitrary precision, and tree
invariants from explicit enumeration of labeled representatives.
"""

import math
from itertools import permutations, product

import mpmath
import numpy as np


def phi_ref(k: int, z: float, terms: int = 50, dps: int = 50) -> float:
    """phi_k(z) by a high-precision truncated Taylor series."""
    with mpmath.workdps(dps):
        zm = mpmath.mpf(z)
        acc = mpmath.mpf(0)
        for j in range(terms):
            acc += zm**j / mpmath.factorial(j + k)
        return float(acc)


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
