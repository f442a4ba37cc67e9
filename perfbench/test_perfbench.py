"""The benchmark's own checks: injected faults are counted, traces are complete.

Run with `python -m pytest perfbench` from the repository root. Workloads
here are shrunk versions of the real ones so that the file runs in seconds.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
from exprk import TrajectoryResult  # noqa: E402
from run import run  # noqa: E402
from workloads import AUDIT_CASES, Audit, Heat1d, audit_errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_heat1d(**kw):
    return Heat1d(n=16, h=Fraction(1, 4), max_error=1e-6, **kw)


def test_clean_run_has_no_failures():
    _, result, _ = run(_tiny_heat1d(), seconds=0.01, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_ulp_state_counts_as_failed():
    for trace in (False, True):
        _, result, _ = run(_tiny_heat1d(), seconds=0.01, trace=trace, inject_fault=True)
        assert result["failed"] == 1
        assert not result["correct"]


def test_wrong_condition_set_counts_as_failed():
    _, result, _ = run(Audit(base_seed=5, seeds=1), seconds=0.01, trace=False,
                       inject_fault=True)
    assert result["attempted"] == 2 * len(AUDIT_CASES)
    assert result["failed"] == 1


def test_audit_gate_rejects_wrong_sets():
    assert audit_errors("exprk6s15", "strong", {17}, 36, {17}) == ()
    assert audit_errors("exprk6s15", "strong", {17}, 36, set())
    assert audit_errors("exprk6s16", "strong", set(), 36, {17})
    assert audit_errors("exprk6s16", "strong", set(), 35, set())


def test_failed_gate_and_exception_count_as_failed():
    # every state misses an error bound of 1e-20; n=4 makes make_heat1d raise
    for workload in (Heat1d(n=16, h=Fraction(1, 4), max_error=1e-20),
                     Heat1d(n=4, h=Fraction(1, 4), max_error=1.0)):
        _, result, _ = run(workload, seconds=0.01, trace=False)
        assert result["attempted"] >= 2
        assert result["failed"] == result["attempted"]


def test_traced_run_reports_every_layer_metric():
    _, result, tracer = run(_tiny_heat1d(), seconds=0.01, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert metrics["integrator.steps"]["value"] == 4
    assert metrics["integrator.matvecs"]["value"] == 4 * 61
    assert metrics["phi.cache_entries"]["value"] == 35
    assert metrics["problems.g_calls"]["value"] == 4 * 17
    assert metrics["problems.apply_A_calls"]["value"] == 4
    assert {s[3] for s in tracer.spans} == {"integrator.precompute", "integrator.integrate",
                                             "integrator.step", "phi.build_phi_cache",
                                             "problems.g", "problems.apply_A"}
    assert metrics["phi.krylov_calls"]["value"] == 0


def test_traced_krylov_run_reports_krylov_layer():
    _, result, tracer = run(_tiny_heat1d(krylov=True, reference_rtol=1e-9), seconds=0.01,
                            trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    assert metrics["phi.krylov_calls"]["value"] == 4 * 16
    assert metrics["phi.arnoldi_calls"]["value"] >= metrics["phi.krylov_calls"]["value"]
    assert metrics["phi.krylov_matvecs"]["value"] > 0
    assert metrics["phi.krylov_fallbacks"]["value"] == 0
    assert metrics["integrator.matvecs"]["value"] == 0
    assert {"phi.krylov", "phi.arnoldi"} <= {s[3] for s in tracer.spans}


def test_dense_reference_gate():
    workload = _tiny_heat1d(krylov=True, reference_rtol=1e-9)
    workload.prepare()
    for scale, passes in ((1.0, True), (1.0 + 1e-6, False)):
        result = TrajectoryResult(state=scale * workload.reference, steps=4,
                                  mode="sequential", step_seconds=[])
        errors = workload.check(workload.setup(), result, fault=False).ops[0].errors
        assert (errors == ()) == passes, errors


def test_traced_audit_reports_condition_layer():
    _, result, _ = run(Audit(base_seed=5, seeds=1), seconds=0.01, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    assert metrics["conditions.residual_calls"]["value"] == 36 * len(AUDIT_CASES)
    assert metrics["phi.phi_all_dense_calls"]["value"] > 0
    assert metrics["integrator.steps"]["value"] == 0


def test_sliced_stopwatch_probes_between_calls_and_restores(monkeypatch):
    monkeypatch.setattr(clock, "SLICE_S", 0.0)  # a slice after every checkpoint
    originals = [getattr(importlib.import_module(m), a) for m, a in clock.CHECKPOINTS]
    workload = _tiny_heat1d(krylov=True)
    prepared = workload.setup()
    watch = clock.Stopwatch(workload.probe)
    with watch.sliced():
        workload.solve(prepared)
        region = watch.lap()
    # the first probe, one after each of 4 steps and 4 * 16 Krylov calls, the lap's
    assert len(watch.probes) == 1 + 4 + 4 * 16 + 1
    assert region > 0 and watch.raw_s > 0
    assert [getattr(importlib.import_module(m), a) for m, a in clock.CHECKPOINTS] == originals


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat1d-steps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
