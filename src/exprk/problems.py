"""Benchmark problems: semilinear heat equation and a linear control case.

The main benchmark is the 1D heat equation with a bounded reaction term on
[0, 1] with homogeneous Dirichlet boundaries,

    u_t - u_xx = 1/(1 + u^2) + S(x, t),

discretized by second-order central differences on n interior points
(dx = 1/(n+1)). The source S is chosen so that u(x, t) = x(1-x) e^t solves
the PDE; since that profile is quadratic in x, the central difference of its
second derivative is exact and the grid samples solve the semidiscrete
system exactly as well, leaving time integration as the only error source.
Stiffness comes from the Laplacian: the infinity norm of A is 4(n+1)^2,
about 1.6e5 at the default n = 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .phi import TridiagonalToeplitz

__all__ = [
    "SemilinearProblem",
    "discrete_l2",
    "make_heat1d",
    "make_linear_decay",
    "error_at",
    "heat_source",
]


@dataclass(frozen=True)
class SemilinearProblem:
    """u' = A u + g(t, u) with optional exact solution on a 1D grid. A is an
    operator record such as TridiagonalToeplitz, or an n x n ndarray, the
    matrix of apply_A: the dense path builds its phi cache from it (from a
    record's eigen()), and the matrix-free path takes its shifted solve from
    it (A.shifted_solver, which a TridiagonalToeplitz has and an ndarray has not)."""

    name: str
    n: int
    A: TridiagonalToeplitz | np.ndarray
    apply_A: Callable[[np.ndarray], np.ndarray]
    g: Callable[[float, np.ndarray], np.ndarray]
    u0: np.ndarray
    dx: float
    exact: Optional[Callable[[float], np.ndarray]] = None

    def f(self, t: float, u: np.ndarray) -> np.ndarray:
        """Full right-hand side A u + g(t, u)."""
        return self.apply_A(u) + self.g(t, u)


def discrete_l2(v: np.ndarray, dx: float) -> float:
    """sqrt(dx * sum v_k^2), the grid analogue of the L2 norm."""
    return math.sqrt(dx * float(np.dot(v, v)))


def heat_source(x, t):
    """Source making x(1-x)e^t solve the reaction-diffusion equation.

    S = u_t - u_xx - 1/(1+u^2) evaluated at the target profile:
    x(1-x)e^t + 2e^t - 1/(1 + x^2 (1-x)^2 e^(2t)).
    """
    return _source(x * (1.0 - x), np.exp(t))


def _source(shape, et):
    """heat_source from the profile's shape x(1-x) and et = e^t."""
    prof = shape * et
    return prof + 2.0 * et - 1.0 / (1.0 + prof**2)


def make_heat1d(n: int = 200) -> SemilinearProblem:
    """Semilinear heat benchmark on n interior grid points."""
    if n < 8:
        raise ValueError("heat benchmark needs at least 8 interior points")
    A = TridiagonalToeplitz(n, -2.0 * (n + 1) ** 2, float((n + 1) ** 2))
    x = np.arange(1, n + 1) / (n + 1)
    # g runs 17 times per exprk6s16 step: the shape is formed once, e^t once per call
    shape = x * (1.0 - x)
    shape.setflags(write=False)

    def g(t, u):
        return 1.0 / (1.0 + u**2) + _source(shape, math.exp(t))

    def exact(t):
        return shape * math.exp(t)

    u0 = exact(0.0)
    u0.setflags(write=False)
    return SemilinearProblem(
        name="heat1d", n=n, A=A, apply_A=A.__matmul__,
        g=g, u0=u0, dx=1.0 / (n + 1), exact=exact,
    )


def make_linear_decay(n: int = 128) -> SemilinearProblem:
    """Pure diffusion of the lowest Fourier mode; exact for any step size.

    sin(pi x) is an eigenvector of the discrete Laplacian with eigenvalue
    -4(n+1)^2 sin^2(pi / (2(n+1))), so the semidiscrete solution is known in
    closed form and any exponential scheme must reproduce it to roundoff.
    """
    if n < 1:
        raise ValueError(f"linear decay needs at least 1 interior point, got {n}")
    A = TridiagonalToeplitz(n, -2.0 * (n + 1) ** 2, float((n + 1) ** 2))
    x = np.arange(1, n + 1) / (n + 1)
    u0 = np.sin(np.pi * x)
    u0.setflags(write=False)
    lam1 = -4.0 * (n + 1) ** 2 * math.sin(math.pi / (2 * (n + 1))) ** 2

    def g(t, u):
        return np.zeros_like(u)

    def exact(t):
        return math.exp(lam1 * t) * u0

    return SemilinearProblem(
        name="lindecay", n=n, A=A, apply_A=A.__matmul__, g=g, u0=u0,
        dx=1.0 / (n + 1), exact=exact,
    )


def error_at(problem: SemilinearProblem, state: np.ndarray, t: float) -> float:
    """Discrete L2 distance from the exact solution at time t."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    return discrete_l2(np.asarray(state) - problem.exact(t), problem.dx)


PROBLEM_FACTORIES = {
    "heat1d": make_heat1d,
    "lindecay": make_linear_decay,
}


def problem_by_name(name: str, n: int) -> SemilinearProblem:
    try:
        factory = PROBLEM_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; choose from {tuple(PROBLEM_FACTORIES)}"
        ) from None
    return factory(n)
