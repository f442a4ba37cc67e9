"""Fixed-step integrator: agreement with a stage-by-stage reference, order,
reproducibility, exactness on linear decay and the error paths."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exprk
from exprk.cli import run_convergence
from exprk.integrator import DivergenceError, _check_finite, integrate, precompute, step
from exprk.phi import (
    SINE_FOLD_MIN_N,
    SINE_TRANSFORM_MIN_N,
    TridiagonalToeplitz,
    _MatrixBasis,
    _sine_basis,
    _SineFold,
    _SineTransform,
    build_phi_cache,
    phi_all_dense,
)
from exprk.problems import SemilinearProblem, error_at, make_heat1d, make_linear_decay
from exprk.tableaus import SCHEME_NAMES, PhiPoly, Scheme, scheme_by_name
from oracles import EighRecord, dense_matrix, phi_matrix_from_cache


def _coeff_matrix(poly, cache):
    """sum_j w_j phi_j(c hA) for a PhiPoly at node c, summed from the cache's phi matrices."""
    return sum(float(w) * phi_matrix_from_cache(cache, poly.c, j) for j, w in poly.terms)


def reference_integrate(scheme, problem, t0, t_end, h):
    """The scheme one stage at a time, every coefficient a matrix from the cache.

    U_i = u + c_i h phi_1(c_i hA) F + h sum_j a_ij(hA) D_j and
    u'  = u + h phi_1(hA) F + h sum_i b_i(hA) D_i, with D_j = g(t + c_j h, U_j) - g(t, u).
    """
    cache = build_phi_cache(problem.A, h, scheme.nodes_used, max(scheme.max_phi_index, 1))
    phi1 = {c: phi_matrix_from_cache(cache, c, 1) for c in scheme.nodes_used}
    a = {key: _coeff_matrix(poly, cache) for key, poly in scheme.a.items()}
    b = {i: _coeff_matrix(poly, cache) for i, poly in scheme.b.items()}
    u = np.array(problem.u0, dtype=float)
    for k in range(round((t_end - t0) / h)):
        t = t0 + k * h
        F = problem.f(t, u)
        gn = problem.g(t, u)
        D = {}
        for i in range(2, scheme.s + 1):
            c = scheme.c[i]
            U = u + float(c) * h * (phi1[c] @ F)
            for (row, j), coeff in a.items():
                if row == i:
                    U = U + h * (coeff @ D[j])
            D[i] = problem.g(t + float(c) * h, U) - gn
        u_next = u + h * (phi1[Fraction(1)] @ F)
        for i, coeff in b.items():
            u_next = u_next + h * (coeff @ D[i])
        u = u_next
    return u


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _nonsymmetric_problem(n=8):
    """Random non-symmetric, diagonally damped A with a smooth nonlinearity."""
    rng = np.random.default_rng(41)
    A = -6.0 * np.eye(n) + rng.standard_normal((n, n))
    A.setflags(write=False)

    def g(t, u):
        return np.sin(u) + np.cos(t)

    return SemilinearProblem(name="nonsym", n=n, A=A, apply_A=lambda v: A @ v, g=g,
                             u0=rng.standard_normal(n), dx=1.0 / (n + 1))


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_eigenbasis_path_matches_reference_on_heat1d(name):
    scheme, problem = scheme_by_name(name), make_heat1d(64)
    assert precompute(scheme, problem.A, 0.125).cache.basis is not None
    got = integrate(scheme, problem, 0.0, 1.0, 0.125).state
    want = reference_integrate(scheme, problem, 0.0, 1.0, 0.125)
    assert _relative_gap(got, want) <= 1e-12


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_general_path_matches_reference_on_nonsymmetric_operator(name):
    scheme, problem = scheme_by_name(name), _nonsymmetric_problem()
    assert precompute(scheme, problem.A, 0.25).cache.basis is None
    got = integrate(scheme, problem, 0.0, 1.0, 0.25).state
    want = reference_integrate(scheme, problem, 0.0, 1.0, 0.25)
    assert np.all(np.isfinite(got))
    assert _relative_gap(got, want) <= 1e-12


# (n, the operator, the basis kind): the closed-form Q, the sine fold, the
# sine transform, a test-defined record's eigh basis, and dense phi matrices
# on an ndarray
_ROUTES = {
    "Q": (64, lambda A: A, _MatrixBasis),
    "fold": (400, lambda A: A, _SineFold),
    "transform": (1600, lambda A: A, _SineTransform),
    "eigh": (48, lambda A: EighRecord(dense_matrix(A)), _MatrixBasis),
    "general": (24, lambda A: dense_matrix(A) + np.triu(np.full((A.n, A.n), 0.3), 2),
                type(None)),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("name", ["exprk6s15", "exprk6s16"])
def test_group_tables_are_folds_of_the_cache_entries(name, route):
    # each table is sum_m w_m phi_m(c hA) over its terms in order, from
    # zeros, with each Fraction weight rounded to a float: bitwise
    n, operator, kind = _ROUTES[route]
    scheme = scheme_by_name(name)
    ctx = precompute(scheme, operator(make_heat1d(n).A), 0.125)
    assert type(ctx.cache.basis) is kind
    entries = ctx.cache.entries
    for group in ctx.groups + (ctx.update,):
        for r, i in enumerate(group.stages):
            c, row = scheme.rows[i]
            terms = [((1, c),)] + [row[j].terms if j in row else () for j in group.reads[1:]]
            for k, polynomial in enumerate(terms):
                want = np.zeros_like(entries[(c, 0)])
                for m, w in polynomial:
                    want += float(w) * entries[(c, m)]
                got = group.tables[r, k] if ctx.cache.basis is not None else group.tables[r, :, k]
                assert got.tobytes() == want.tobytes(), (i, k)


# n+1 = 521 is prime, DST-I's slowest case; n+1 = 540 = 2^2 3^3 5 is smooth.
# n = 400 and 401, below SINE_TRANSFORM_MIN_N, take the sine fold.
@pytest.mark.parametrize("n", [521 - 1, 540 - 1, 400, 401])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_sine_transform_path_matches_the_matrix_basis(monkeypatch, name, n):
    import exprk.phi as phimod

    assert n >= SINE_FOLD_MIN_N
    transform = n >= SINE_TRANSFORM_MIN_N
    scheme = scheme_by_name(name)
    for problem in (make_heat1d(n), make_linear_decay(n)):
        cache = precompute(scheme, problem.A, 0.125).cache
        assert type(cache.basis) is (_SineTransform if transform else _SineFold)
        got = integrate(scheme, problem, 0.0, 1.0, 0.125).state
        with monkeypatch.context() as patch:
            patch.setattr(phimod, "SINE_TRANSFORM_MIN_N", n + 1)
            patch.setattr(phimod, "SINE_FOLD_MIN_N", n + 1)
            assert type(precompute(scheme, problem.A, 0.125).cache.basis) is _MatrixBasis
            want = integrate(scheme, problem, 0.0, 1.0, 0.125).state
        assert _relative_gap(got, want) <= 1e-11
        if problem.name == "lindecay":
            assert error_at(problem, got, 1.0) <= 1e-12


def test_below_the_constant_keeps_the_closed_form_matrix(monkeypatch):
    import exprk.phi as phimod

    n = SINE_FOLD_MIN_N - 1
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(n)
    cache = precompute(scheme, problem.A, 0.125).cache
    assert type(cache.basis) is _MatrixBasis
    assert np.array_equal(cache.basis.matrix, _sine_basis(n))
    got = integrate(scheme, problem, 0.0, 1.0, 0.125).state
    monkeypatch.setattr(phimod, "SINE_FOLD_MIN_N", 10**9)
    monkeypatch.setattr(phimod, "SINE_TRANSFORM_MIN_N", 10**9)
    assert got.tobytes() == integrate(scheme, problem, 0.0, 1.0, 0.125).state.tobytes()


def test_heat1d_allocates_no_n_by_n_array():
    # heat1d declares its A as a record, so neither the problem nor the cache
    # holds n x n doubles: the whole run peaks below an eighth of one such array
    n = 4096
    tracemalloc.start()
    try:
        integrate(scheme_by_name("exprk6s16"), make_heat1d(n), 0.0, 1.0, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 8


@pytest.mark.parametrize("n, loaded", [(64, False), (400, False), (SINE_TRANSFORM_MIN_N, True)])
def test_scipy_fft_is_imported_only_on_the_transform_path(n, loaded):
    # scipy.fft adds about 4.6 MB to a process; runs that never transform,
    # the sine fold's at n=400 among them, skip it
    code = ("import sys\n"
            "from exprk import integrate, make_exprk6s16, make_heat1d\n"
            f"integrate(make_exprk6s16(), make_heat1d({n}), 0.0, 1.0, 0.5)\n"
            "print('scipy.fft' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(exprk.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip() == str(loaded)


@pytest.mark.parametrize("problem", [make_heat1d(64), _nonsymmetric_problem()],
                         ids=["eigenbasis", "general"])
def test_runs_are_bitwise_reproducible(problem):
    scheme = scheme_by_name("exprk6s16")
    first = integrate(scheme, problem, 0.0, 1.0, 0.125).state
    again = integrate(scheme, problem, 0.0, 1.0, 0.125).state
    assert first.tobytes() == again.tobytes()


@pytest.mark.parametrize("option", ["mode", "executor", "workers"])
def test_entry_points_take_no_concurrency_options(option):
    scheme, problem = scheme_by_name("expk2"), make_heat1d(16)
    with pytest.raises(TypeError):
        exprk.integrate(scheme, problem, 0.0, 1.0, 0.25, **{option: None})
    with pytest.raises(TypeError):
        exprk.precompute(scheme, problem.A, 0.25, **{option: None})
    ctx = exprk.precompute(scheme, problem.A, 0.25)
    with pytest.raises(TypeError):
        exprk.step(ctx, problem, 0.0, problem.u0, **{option: None})
    with pytest.raises(TypeError):
        exprk.build_phi_cache(problem.A, 0.25, scheme.nodes_used, 1, **{option: None})


@pytest.mark.parametrize("krylov", [False, True], ids=["dense", "krylov"])
@pytest.mark.parametrize("h", [1.0, 0.25])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_linear_decay_is_exact_to_roundoff(name, h, krylov):
    problem = make_linear_decay()
    result = integrate(scheme_by_name(name), problem, 0.0, 1.0, h, krylov=krylov)
    assert error_at(problem, result.state, 1.0) <= 1e-12


# Lower bounds on every pairwise observed order over h = 1/2 .. 1/16 on heat1d
# at n = 200. At h = 1/32 the sixth-order errors (~2e-14) reach roundoff and
# the last slope moves with rounding, so the study stops at 1/16.
ORDER_FLOORS = {"exprk6s16": 5.4, "exprk6s15": 5.4, "expk2": 1.4, "expeuler": 1.0}


@pytest.mark.parametrize("name", sorted(ORDER_FLOORS))
def test_observed_order_on_heat1d(name):
    steps = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    report = run_convergence(name, "heat1d", steps=steps, n=200)
    orders = [row.observed_order for row in report.rows[1:]]
    assert len(orders) == 3
    assert min(orders) >= ORDER_FLOORS[name], orders


def _nan_after_half(problem):
    def g(t, u):
        return problem.g(t, u) if t <= 0.5 else np.full_like(u, np.nan)

    return replace(problem, g=g)


@pytest.mark.parametrize("krylov", [False, True], ids=["dense", "krylov"])
@pytest.mark.parametrize("name, stage, step_index", [
    # stage 2 of the step from t = 0.5 is the first g call past 0.5
    ("exprk6s16", 2, 4),
    # no stages: F itself goes non-finite in the step from t = 0.625
    ("expeuler", None, 5),
])
def test_divergence_error_reports_where(monkeypatch, name, stage, step_index, krylov):
    problem = _nan_after_half(make_heat1d(32))
    apply_A, real_step = problem.apply_A, exprk.integrator.step
    finite_inputs, step_starts = [], []

    def counting_apply_A(v):
        finite_inputs.append(bool(np.isfinite(v).all()))
        return apply_A(v)

    def marked_step(*args):
        step_starts.append(len(finite_inputs))
        return real_step(*args)

    monkeypatch.setattr(exprk.integrator, "step", marked_step)
    with pytest.raises(DivergenceError) as caught:
        integrate(scheme_by_name(name), replace(problem, apply_A=counting_apply_A),
                  0.0, 1.0, 0.125, krylov=krylov)
    err = caught.value
    assert (err.stage, err.step_index, err.t, err.h) == (stage, step_index,
                                                        step_index * 0.125, 0.125)
    # no operator product is spent on a non-finite vector; where F itself is
    # non-finite, the failing step's one product is the one that forms F
    assert all(finite_inputs)
    if stage is None:
        assert len(finite_inputs) - step_starts[-1] == 1


def test_rejects_step_that_does_not_divide_the_interval():
    with pytest.raises(ValueError, match="does not divide"):
        integrate(scheme_by_name("expeuler"), make_heat1d(16), 0.0, 1.0, 0.3)


@pytest.mark.parametrize("h", [0.0, -0.25, float("nan")])
def test_rejects_nonpositive_step(h):
    with pytest.raises(ValueError, match="must be positive"):
        integrate(scheme_by_name("expeuler"), make_heat1d(16), 0.0, 1.0, h)


@pytest.mark.parametrize("t0, t_end", [(0.0, float("inf")), (0.0, float("nan")),
                                       (float("-inf"), 1.0), (float("nan"), 1.0)])
def test_rejects_non_finite_span(monkeypatch, t0, t_end):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the span was checked")

    monkeypatch.setattr(exprk.integrator, "precompute", no_work)
    with pytest.raises(ValueError, match="must be finite"):
        integrate(scheme_by_name("expeuler"), make_heat1d(16), t0, t_end, 0.25)


def test_error_in_a_batched_group_names_its_stage():
    # c_16 = 1, so t == h is stage 16's node in the first step: the last row
    # of the group 12..16, whose other rows stay finite
    problem = make_heat1d(32)
    h = 0.125

    def g(t, u):
        return np.full_like(u, np.nan) if t == h else problem.g(t, u)

    with pytest.raises(DivergenceError) as caught:
        integrate(scheme_by_name("exprk6s16"), replace(problem, g=g), 0.0, 1.0, h)
    assert (caught.value.stage, caught.value.step_index) == (16, 0)


def test_finite_block_whose_sum_overflows_passes():
    block = np.full((3, 4), 1e308)
    with np.errstate(over="ignore"):
        assert np.isinf(block.sum())
    _check_finite(block, (5, 6, 7))


# rows of 1e308 make the sum overflow whatever the bad entry is
@pytest.mark.parametrize("base", [0.0, 1e308])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_non_finite_entry_names_its_rows_stage(base, bad, row):
    block = np.full((3, 4), base)
    block[row, 2] = bad
    with pytest.raises(DivergenceError) as caught:
        _check_finite(block, (5, 6, 7))
    assert caught.value.stage == (5, 6, 7)[row]


def _still_problem(n, u0, g):
    """u' = 0 u + g(t, u), so that every stage value is u while D stays 0."""
    A = np.zeros((n, n))
    A.setflags(write=False)
    return SemilinearProblem(name="still", n=n, A=A, apply_A=lambda v: A @ v, g=g,
                             u0=u0, dx=1.0 / (n + 1))


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_finite_states_whose_sums_overflow_pass(name):
    u0 = np.full(8, 1e308)
    problem = _still_problem(8, u0, lambda t, u: np.zeros_like(u))
    state = integrate(scheme_by_name(name), problem, 0.0, 1.0, 0.5).state
    assert np.array_equal(state, u0)


# an infinity in F meets zeros in the basis change, which numpy reports
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_update_names_no_stage(bad):
    def g(t, u):
        out = np.zeros_like(u)
        out[3] = bad
        return out

    problem = _still_problem(8, np.ones(8), g)
    with pytest.raises(DivergenceError) as caught:
        integrate(scheme_by_name("expeuler"), problem, 0.0, 1.0, 0.5)
    assert (caught.value.stage, caught.value.step_index) == (None, 0)


@pytest.mark.parametrize("path", ["eigenbasis", "eigh record", "sine fold", "sine transform",
                                  "general", "krylov"])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_step_writes_neither_u_nor_what_g_returns(monkeypatch, path, name):
    import exprk.phi as phimod

    monkeypatch.setattr(phimod, "SINE_FOLD_MIN_N", 8 if path == "sine fold" else SINE_FOLD_MIN_N)
    monkeypatch.setattr(phimod, "SINE_TRANSFORM_MIN_N",
                        8 if path == "sine transform" else SINE_TRANSFORM_MIN_N)
    problem = _nonsymmetric_problem() if path == "general" else make_heat1d(16)
    if path == "eigh record":
        problem = replace(problem, A=EighRecord(dense_matrix(problem.A)))
    # g hands out the same array on every call, as a g with a cached result would
    cached = np.linspace(0.5, 1.5, problem.n)
    kept = cached.copy()
    problem = replace(problem, g=lambda t, u: cached)
    u = np.linspace(-1.0, 1.0, problem.n)
    u.setflags(write=False)
    scheme = scheme_by_name(name)
    if path == "krylov":
        ctx = precompute(scheme, problem.apply_A, 0.25, krylov=True)
    else:
        ctx = precompute(scheme, problem.A, 0.25)
        kinds = {"eigenbasis": _MatrixBasis, "eigh record": _MatrixBasis,
                 "sine fold": _SineFold, "sine transform": _SineTransform,
                 "general": type(None)}
        assert type(ctx.cache.basis) is kinds[path]
    u_next = step(ctx, problem, 0.0, u)
    assert np.array_equal(u, np.linspace(-1.0, 1.0, problem.n))
    assert np.array_equal(cached, kept)
    assert not np.shares_memory(u_next, u) and not np.shares_memory(u_next, cached)


def test_rejects_context_built_for_another_step_size():
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(32)
    ctx = precompute(scheme, problem.A, 0.125)
    with pytest.raises(ValueError, match=r"step 0\.125, not 0\.0625"):
        integrate(scheme, problem, 0.0, 1.0, 0.0625, ctx=ctx)


def test_rejects_context_built_for_another_scheme():
    problem = make_heat1d(32)
    ctx = precompute(scheme_by_name("exprk6s16"), problem.A, 0.125)
    with pytest.raises(ValueError, match="scheme exprk6s16, not expk2"):
        integrate(scheme_by_name("expk2"), problem, 0.0, 1.0, 0.125, ctx=ctx)


def test_rejects_context_built_for_another_operator_size():
    scheme = scheme_by_name("exprk6s16")
    ctx = precompute(scheme, make_heat1d(16).A, 0.125)
    with pytest.raises(ValueError, match="operator of size 16, not 32"):
        integrate(scheme, make_heat1d(32), 0.0, 1.0, 0.125, ctx=ctx)


def test_rejects_context_built_for_another_matrix():
    # records and dense matrices, against each other and themselves
    scheme, heat, nonsym = scheme_by_name("exprk6s16"), make_heat1d(32), _nonsymmetric_problem()
    A = heat.A
    for problem, other in ((heat, TridiagonalToeplitz(A.n, 2 * A.a, 2 * A.b)),
                           (heat, 2 * dense_matrix(A)), (nonsym, 2 * nonsym.A),
                           (nonsym, TridiagonalToeplitz(nonsym.n, -6.0, 1.0))):
        ctx = precompute(scheme, other, 0.125)
        with pytest.raises(ValueError, match="another matrix than problem.A"):
            integrate(scheme, problem, 0.0, 1.0, 0.125, ctx=ctx)


# what a matrix-free context is built from: nothing in it depends on the
# operator, whose product and shifted solve each step takes from the problem
_MATRIX_FREE_BUILDS = {
    "apply_A": lambda problem: problem.apply_A,
    "another record": lambda problem: TridiagonalToeplitz(32, -1.0, 0.5),
    "a dense matrix": lambda problem: 2 * dense_matrix(problem.A),
    "a bare action": lambda problem: (lambda v: 2 * (problem.A @ v)),
    "n=16": lambda problem: make_heat1d(16).A,
}


@pytest.mark.parametrize("built_from", sorted(_MATRIX_FREE_BUILDS))
def test_matrix_free_context_serves_any_operator(built_from):
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(32)
    ctx = precompute(scheme, _MATRIX_FREE_BUILDS[built_from](problem), 0.125, krylov=True)
    assert ctx.A is None and ctx.cache is None
    reused = integrate(scheme, problem, 0.0, 1.0, 0.125, ctx=ctx).state
    fresh = integrate(scheme, problem, 0.0, 1.0, 0.125, krylov=True).state
    assert reused.tobytes() == fresh.tobytes()


def test_accepts_context_built_for_an_equal_matrix():
    # an equal record, and an equal dense matrix, each a separate object
    scheme = scheme_by_name("exprk6s16")
    for make in (lambda: make_heat1d(32), _nonsymmetric_problem):
        ctx = precompute(scheme, make().A, 0.125)
        problem = make()
        assert problem.A is not ctx.A
        reused = integrate(scheme, problem, 0.0, 1.0, 0.125, ctx=ctx).state
        assert np.array_equal(reused, integrate(scheme, problem, 0.0, 1.0, 0.125).state)


# Test-only schemes with a phi_1 term in a coefficient, which no shipped scheme
# has: in b_2, and in a_32. Each row's phi_1 vector on the matrix-free path
# also carries F's c phi_1 term.
_PHI1_SCHEMES = {
    "phi1-in-b": Scheme(name="phi1-in-b", s=2, c={2: Fraction(1)}, a={},
                        b={2: PhiPoly.make(1, {1: Fraction(1, 10), 2: 1})}, groups=((2,),)),
    "phi1-in-a": Scheme(name="phi1-in-a", s=3, c={2: Fraction(1, 2), 3: Fraction(1)},
                        a={(3, 2): PhiPoly.make(1, {1: Fraction(1, 10), 2: 4})},
                        b={3: PhiPoly.make(1, {2: 1})}, groups=((2,), (3,))),
}


@pytest.mark.parametrize("name", SCHEME_NAMES + tuple(_PHI1_SCHEMES))
def test_krylov_path_matches_dense_path(name):
    scheme = _PHI1_SCHEMES[name] if name in _PHI1_SCHEMES else scheme_by_name(name)
    problem = make_heat1d(16)
    dense = integrate(scheme, problem, 0.0, 1.0, 0.125).state
    krylov = integrate(scheme, problem, 0.0, 1.0, 0.125, krylov=True).state
    assert _relative_gap(krylov, dense) <= 1e-12


def test_heat1d_rows_stop_at_the_first_basis_size(monkeypatch):
    # exprk6s16 on heat1d at n=64, h=1/8: each of the 8 steps' 16 rows is
    # certified by its first basis's own residual, at 8 vectors
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(64)
    real_combo = exprk.integrator.phi_combo_apply_krylov
    infos = []

    def reading_combo(*args, **kwargs):
        out, info = real_combo(*args, return_info=True, **kwargs)
        infos.append(info)
        return out

    monkeypatch.setattr(exprk.integrator, "phi_combo_apply_krylov", reading_combo)
    krylov = integrate(scheme, problem, 0.0, 1.0, 0.125, krylov=True).state
    assert [(i.m, i.dense_fallback) for i in infos] == [(8, False)] * 128
    dense = integrate(scheme, problem, 0.0, 1.0, 0.125).state
    assert _relative_gap(krylov, dense) <= 1e-13


def test_matrix_free_step_passes_one_shifted_solve_to_every_row(monkeypatch):
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(16)
    real_solver = TridiagonalToeplitz.shifted_solver
    real_combo = exprk.integrator.phi_combo_apply_krylov
    factored, solves = [], []

    def counting_solver(A, sigma):
        factored.append(sigma)
        return real_solver(A, sigma)

    def recording_combo(*args, solve=None, **kwargs):
        solves.append(solve)
        return real_combo(*args, solve=solve, **kwargs)

    monkeypatch.setattr(TridiagonalToeplitz, "shifted_solver", counting_solver)
    monkeypatch.setattr(exprk.integrator, "phi_combo_apply_krylov", recording_combo)
    state = integrate(scheme, problem, 0.0, 1.0, 0.25, krylov=True).state
    # one factorisation per step, at sigma = h/4, shared by the step's 16 rows
    assert factored == [0.0625] * 4
    assert len(solves) == 4 * 16 and all(s is not None for s in solves)
    assert [len({id(s) for s in solves[16 * k : 16 * (k + 1)]}) for k in range(4)] == [1] * 4
    # a direct step takes the same route as integrate
    ctx = precompute(scheme, problem.apply_A, 0.25, krylov=True)
    u = problem.u0
    for k in range(4):
        u = step(ctx, problem, 0.25 * k, u)
    assert np.array_equal(u, state) and len(factored) == 8


@pytest.mark.parametrize("operator", ["none", "ndarray"])
def test_matrix_free_path_refuses_an_operator_without_a_shifted_solve(monkeypatch, operator):
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(16)

    def no_krylov_call(*args, **kwargs):
        raise AssertionError("a Krylov call ran")

    monkeypatch.setattr(exprk.integrator, "phi_combo_apply_krylov", no_krylov_call)
    A = None if operator == "none" else dense_matrix(problem.A)
    with pytest.raises(ValueError, match="needs a problem.A with a shifted_solver"):
        integrate(scheme, replace(problem, A=A), 0.0, 1.0, 0.25, krylov=True)


def test_dense_path_takes_no_operator_action():
    # only krylov=True picks the matrix-free path, where an action may stand for A
    problem = make_heat1d(16)
    with pytest.raises(TypeError, match="krylov=True"):
        precompute(scheme_by_name("exprk6s16"), problem.apply_A, 0.25)


@pytest.mark.parametrize("built_krylov", [False, True], ids=["dense-ctx", "krylov-ctx"])
def test_integrate_takes_the_contexts_path(monkeypatch, built_krylov):
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(16)
    ctx = precompute(scheme, problem.apply_A if built_krylov else problem.A, 0.25,
                     krylov=built_krylov)

    def no_step(*args):
        raise AssertionError("a step ran")

    with monkeypatch.context() as patch:
        patch.setattr(exprk.integrator, "step", no_step)
        with pytest.raises(ValueError, match=f"krylov={not built_krylov}, but the step "
                                             f"context was built with krylov={built_krylov}"):
            integrate(scheme, problem, 0.0, 1.0, 0.25, ctx=ctx, krylov=not built_krylov)
    # no krylov, as the benchmark calls it, or the matching one: the context's path
    fresh = integrate(scheme, problem, 0.0, 1.0, 0.25, krylov=built_krylov).state
    for krylov in (None, built_krylov):
        reused = integrate(scheme, problem, 0.0, 1.0, 0.25, ctx=ctx, krylov=krylov).state
        assert np.array_equal(reused, fresh)


@dataclass(frozen=True)
class ScaledIdentity:
    """a times the n x n identity: an operator record kind that only this
    test module defines, with the shape, product and eigen() of a record."""

    n: int
    a: float

    @property
    def shape(self):
        return (self.n, self.n)

    def __matmul__(self, v):
        return self.a * v

    def eigen(self):
        return np.full(self.n, self.a), _MatrixBasis(np.eye(self.n))


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_a_record_kind_defined_outside_the_package_runs(name):
    n, a, h = 6, -5.0, 0.25
    scheme, A = scheme_by_name(name), ScaledIdentity(n, a)
    u0 = np.linspace(0.1, 0.6, n)
    problem = SemilinearProblem(name="scaled", n=n, A=A, apply_A=A.__matmul__,
                                g=lambda t, u: np.zeros_like(u), u0=u0, dx=1.0 / (n + 1))
    cache = build_phi_cache(A, h, [Fraction(1)], 2)
    assert type(cache.basis) is _MatrixBasis
    assert np.allclose(phi_matrix_from_cache(cache, Fraction(1), 2),
                       phi_all_dense(h * a * np.eye(n), 2)[2], rtol=1e-14, atol=0)
    state = integrate(scheme, problem, 0.0, 1.0, h, ctx=precompute(scheme, A, h)).state
    assert _relative_gap(state, math.exp(a) * u0) <= 1e-13
    # an equal but separate record is accepted, bitwise; another is refused
    equal = precompute(scheme, ScaledIdentity(n, a), h)
    assert np.array_equal(integrate(scheme, problem, 0.0, 1.0, h, ctx=equal).state, state)
    other = precompute(scheme, ScaledIdentity(n, -4.0), h)
    with pytest.raises(ValueError, match="another matrix than problem.A"):
        integrate(scheme, problem, 0.0, 1.0, h, ctx=other)
    # and a record is not its dense matrix, on either side
    dense = replace(problem, A=a * np.eye(n))
    for ctx, run in ((equal, dense), (precompute(scheme, dense.A, h), problem)):
        with pytest.raises(ValueError, match="another matrix than problem.A"):
            integrate(scheme, run, 0.0, 1.0, h, ctx=ctx)


def test_shift_and_invert_route_matches_dense_path_at_n400(monkeypatch):
    real_combo, sizes = exprk.integrator.phi_combo_apply_krylov, []

    def recording_combo(*args, **kwargs):
        out, info = real_combo(*args, return_info=True, **kwargs)
        sizes.append(info.m)
        return out

    monkeypatch.setattr(exprk.integrator, "phi_combo_apply_krylov", recording_combo)
    scheme, problem = scheme_by_name("exprk6s16"), make_heat1d(400)
    krylov = integrate(scheme, problem, 0.0, 1.0, 1 / 32, krylov=True).state
    dense = integrate(scheme, problem, 0.0, 1.0, 1 / 32).state
    assert _relative_gap(krylov, dense) <= 1e-12
    assert len(sizes) == 32 * 16 and max(sizes) <= 32
