"""Sixth-order exponential Runge-Kutta integrators for stiff semilinear
systems, with a rooted-tree order-condition verifier, phi-function kernels
and a fixed-step benchmark harness."""

from .conditions import ConditionReport, check_scheme
from .integrator import TrajectoryResult, integrate, precompute, step
from .phi import (
    TridiagonalToeplitz,
    build_phi_cache,
    phi_all_dense,
    phi_combo_apply_krylov,
    phi_scalar,
)
from .problems import error_at, make_heat1d, make_linear_decay
from .tableaus import (
    PhiPoly,
    Scheme,
    make_exponential_euler,
    make_expk2,
    make_exprk6s15,
    make_exprk6s16,
    scheme_by_name,
)
from .trees import Tree, enumerate_trees

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "check_scheme",
    "TrajectoryResult",
    "integrate",
    "precompute",
    "step",
    "TridiagonalToeplitz",
    "build_phi_cache",
    "phi_all_dense",
    "phi_combo_apply_krylov",
    "phi_scalar",
    "error_at",
    "make_heat1d",
    "make_linear_decay",
    "PhiPoly",
    "Scheme",
    "make_exponential_euler",
    "make_expk2",
    "make_exprk6s15",
    "make_exprk6s16",
    "scheme_by_name",
    "Tree",
    "enumerate_trees",
    "__version__",
]
