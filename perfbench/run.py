#!/usr/bin/env python3
"""Layered work-precision benchmark for exprk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py) for about S seconds, at least
two, in this process, against the exprk sources in ../src. Every pass is
gated: a failed gate, an exception, or a final result that is not bitwise
equal to the first pass's counts as a failed operation. The last stdout
line is one JSON object with keys correct, attempted, failed and metrics;
the line before it records the environment and the sample counts.

Times are CPU seconds of this process, which runs on one core with one
BLAS thread, scaled to a reference host speed by a probe run between slices
of the timed regions (see clock.py). The info line also gives the run's
wall time, the unscaled CPU time of a pass and the host speed the probes saw.

--trace 0 reports the end-to-end metrics, as medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians), and writes the spans to
.perfbench/trace-<workload>-seed<seed>.json under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from clock import PROBES, Stopwatch
from tracer import Tracer

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# After an untraced pass, short solves and set-ups are repeated until their
# samples add up to these shares of the run length, so that solve_s and
# setup_s are medians of enough readings. Solves repeat first, on the pass's
# own set-up.
SOLVE_SAMPLE_SHARE = 1 / 16
SETUP_SAMPLE_SHARE = 1 / 100


@dataclass
class Pass:
    setup_s: list[float]
    solve_s: list[float]
    tts_s: float
    raw_tts_s: float
    checked: object
    probes: list[float]


def _timed_pass(workload, tracer, watch, fault: bool, repeat_s: float) -> Pass:
    """One pass, timed from set-up to a checked result; then the repeats.

    repeat_s is the run length the repeat shares apply to, 0 for none.
    """
    prepared = workload.setup(tracer)
    setup = watch.lap()
    result = workload.solve(prepared, tracer)
    solve = watch.lap()
    checked = workload.check(prepared, result, fault)
    p = Pass([setup], [solve], setup + solve + watch.lap(), watch.raw_s, checked,
             watch.probes)
    del result
    watch.reset()
    while sum(p.solve_s) < SOLVE_SAMPLE_SHARE * repeat_s:
        workload.solve(prepared)
        p.solve_s.append(watch.lap())
    del prepared  # at most one set-up alive at a time
    watch.reset()
    while sum(p.setup_s) < SETUP_SAMPLE_SHARE * repeat_s:
        workload.setup()
        p.setup_s.append(watch.lap())
    return p


def run(workload, seconds: float, trace: bool, inject_fault: bool = False):
    """Run passes for about `seconds` and tally them.

    At least two passes run; with tracing they alternate untraced and
    traced, in pairs. A new pass starts only if a typical pass still fits.
    With inject_fault the second pass's result is corrupted: a heat1d state
    moves one ulp, an audit reports a wrong failing-condition set.
    Returns (sample counts, the result object, the tracer or None).
    """
    from workloads import NO_TRACE

    workload.prepare()
    tracer = Tracer() if trace else None
    untraced, traced, walls = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    i = 0
    pair = 2 if trace else 1  # traced runs go in pairs
    while (i < 2 or i % pair
           or time.perf_counter() - start + pair * statistics.median(walls) <= seconds):
        is_traced = trace and i % 2 == 1
        fault = inject_fault and i == 1
        tic = time.perf_counter()
        try:
            watch = Stopwatch(workload.probe)
            if is_traced:  # no probes inside the spans: regions are not sliced
                with tracer.installed(i):
                    p = _timed_pass(workload, tracer, watch, fault, repeat_s=0.0)
            else:
                with watch.sliced():
                    p = _timed_pass(workload, NO_TRACE, watch, fault, repeat_s=seconds)
        except Exception:
            print(f"pass {i} raised:", file=sys.stderr)
            traceback.print_exc()
            attempted += workload.ops_per_pass
            failed += workload.ops_per_pass
        else:
            if first is None:
                first = [op.fingerprint for op in p.checked.ops]
            attempted += len(p.checked.ops)
            failed += _failed_ops(p.checked.ops, first, i)
            if is_traced:
                traced.append((i, p))
            else:
                untraced.append(p)
        walls.append(time.perf_counter() - tic)
        i += 1

    if trace:
        metrics = with_units(_layer_metrics(tracer, traced, untraced), "per_layer")
    else:
        metrics = with_units(_end_to_end(untraced), "end_to_end")
    probes = [t for p in untraced for t in p.probes]
    info = {"passes": len(untraced), "traced_passes": len(traced),
            "setup_samples": sum(len(p.setup_s) for p in untraced),
            "solve_samples": sum(len(p.solve_s) for p in untraced),
            "raw_tts_s": _median([p.raw_tts_s for p in untraced]),
            "host_speed": (PROBES[workload.probe][1] / statistics.median(probes)
                           if probes else None),
            "wall_seconds": time.perf_counter() - start}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result, tracer


def _failed_ops(ops, first, i: int) -> int:
    """Operations that failed a gate or differ from the first pass's result."""
    failed = 0
    for k, op in enumerate(ops):
        errors = list(op.errors)
        if op.fingerprint != first[k]:
            errors.append("result is not bitwise equal to the first pass's")
        if errors:
            failed += 1
            print(f"pass {i} op {k} failed: {'; '.join(errors)}", file=sys.stderr)
    return failed


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _end_to_end(passes) -> dict:
    return {
        "time_to_solution_s": _median([p.tts_s for p in passes]),
        "setup_s": _median([t for p in passes for t in p.setup_s]),
        "solve_s": _median([t for p in passes for t in p.solve_s]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def with_units(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json gives; the two name sets must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise ValueError(f"metrics not both computed and listed under {section}: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _pass_layers(tracer, trace_id, checked) -> dict:
    """Per-layer numbers of one traced pass, from its spans and checked result."""
    spans = [s for s in tracer.spans if s[0] == trace_id]
    by_id = {s[1]: s for s in spans}
    dur, calls = defaultdict(float), Counter()
    for s in spans:
        dur[s[3]] += s[5] - s[4]
        calls[s[3]] += 1

    def under(s, name):
        parent = s[2]
        while parent is not None:
            if by_id[parent][3] == name:
                return True
            parent = by_id[parent][2]
        return False

    # step self time: what the steps spent outside g, apply_A and Krylov,
    # which are the direct children of the step spans
    step_ids = {s[1] for s in spans if s[3] == "integrator.step"}
    lincomb_s = dur["integrator.step"] - sum(s[5] - s[4] for s in spans if s[2] in step_ids)
    step_ms = [1e3 * (s[5] - s[4]) for s in spans if s[3] == "integrator.step"]
    facts = checked.facts
    matvec_gb = facts.get("matvec_bytes", 0) / 1e9
    ms = [m for t, m, _ in tracer.krylov if t == trace_id]
    return {
        "phi.build_phi_cache_s": dur["phi.build_phi_cache"],
        "phi.cache_mb": facts.get("cache_bytes", 0) / 1e6,
        "phi.cache_entries": facts.get("cache_entries", 0),
        "phi.krylov_s": dur["phi.krylov"],
        "phi.krylov_calls": calls["phi.krylov"],
        "phi.krylov_m_mean": statistics.fmean(ms) if ms else 0.0,
        "phi.krylov_m_max": max(ms, default=0),
        "phi.arnoldi_calls": calls["phi.arnoldi"],
        "phi.krylov_fallbacks": sum(fb for t, _, fb in tracer.krylov if t == trace_id),
        "phi.krylov_matvecs": sum(1 for s in spans
                                  if s[3] == "problems.apply_A" and under(s, "phi.krylov")),
        "phi.phi_all_dense_s": dur["phi.phi_all_dense"],
        "phi.phi_all_dense_calls": calls["phi.phi_all_dense"],
        "conditions.residual_s": dur["conditions.residual"],
        "conditions.residual_calls": calls["conditions.residual"],
        "integrator.plan_s": dur["integrator.precompute"] - dur["phi.build_phi_cache"],
        "integrator.step_ms_p50": _percentile(step_ms, 50),
        "integrator.step_ms_p90": _percentile(step_ms, 90),
        "integrator.steps": calls["integrator.step"],
        "integrator.lincomb_s": lincomb_s,
        "integrator.matvecs": facts.get("matvecs", 0),
        "integrator.matvec_gb": matvec_gb,
        "integrator.lincomb_gbps": matvec_gb / lincomb_s if lincomb_s > 0 else 0.0,
        "problems.g_s": dur["problems.g"],
        "problems.g_calls": calls["problems.g"],
        "problems.apply_A_s": dur["problems.apply_A"],
        "problems.apply_A_calls": calls["problems.apply_A"],
        "error_l2": checked.accuracy,
    }


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    import numpy as np  # not at the top: main() sets the BLAS threads first

    return float(np.percentile(values, q))


def _layer_metrics(tracer, traced, untraced) -> dict:
    """Medians over the traced passes; all zero if none succeeded."""
    from workloads import Checked

    rows = ([_pass_layers(tracer, i, p.checked) for i, p in traced]
            or [_pass_layers(tracer, None, Checked([], 0.0))])
    values = {name: _median([r[name] for r in rows]) for name in rows[0]}
    values["trace.overhead_s"] = (_median([p.tts_s for _, p in traced])
                                  - _median([p.tts_s for p in untraced]))
    return values


def environment() -> dict:
    """Machine and library facts that change the numbers."""
    import numpy
    import scipy

    import exprk

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "exprk": exprk.__version__,
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy links, or None if it is not found."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _write_trace(tracer, name: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(),
                   "span_fields": ["trace_id", "span_id", "parent_id", "name", "start", "end"],
                   "spans": tracer.spans,
                   "krylov_fields": ["trace_id", "m", "dense_fallback"],
                   "krylov": tracer.krylov}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # one BLAS thread, set before numpy loads, on one core, so that the
    # probes run on the core the work runs on: see clock.py
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    try:
        import exprk
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"perfbench: cannot import exprk from {SRC}: {err}", file=sys.stderr)
        return 2
    if not Path(exprk.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: exprk was imported from {exprk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload](args.seed)
    info, result, tracer = run(workload, args.seconds, bool(args.trace))
    if tracer is not None:
        _write_trace(tracer, f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
