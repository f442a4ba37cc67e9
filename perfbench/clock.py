"""Benchmark clocks: CPU time, and CPU time corrected for the host's speed.

Every time is CPU time of this process. The benchmark runs one BLAS thread,
so that is the time of the one thread doing the work; unlike wall time it
leaves out the time a virtual machine's host lends the core to others.

CPU time still follows the speed the host gives the core, which on a shared
virtual machine moves by up to 1.7x within seconds (other guests contend for
the core's caches and memory bandwidth). A Stopwatch therefore runs a fixed
probe between the slices of work it times, and scales each slice by how fast
the probes on either side of it ran.
"""

from __future__ import annotations

import contextlib
import importlib
import time

CLOCK = time.process_time

# A probe is fixed work like the workload's own: small-array numpy from a
# Python loop for the Python-bound workloads, dense matrix-vector products
# on a matrix that lives in the shared last-level cache for the BLAS-bound
# ones. Each has its median CPU time on the host the baseline in README.md
# was measured on; that only scales the figures.


def python_probe(np):
    a = np.random.default_rng(0).standard_normal((8, 8))
    norm = np.linalg.norm

    def run():
        v = a[0].copy()
        for _ in range(2000):
            v = a @ v
            v = v / norm(v)

    return run


def matvec_probe(np):
    a = np.random.default_rng(0).standard_normal((1600, 1600)) / 40
    v = np.ones(1600)

    def run():
        for _ in range(10):
            a @ v

    return run


# name: (probe factory, reference CPU seconds of one probe)
PROBES = {"python": (python_probe, 0.0134), "matvec": (matvec_probe, 0.016)}


# Inside sliced(), a region is cut into slices of at least SLICE_S CPU
# seconds, each closed when one of these public functions returns; they are
# called many times within a solve. (module, attribute), as in tracer.PATCHES.
SLICE_S = 0.25
CHECKPOINTS = (
    ("exprk.integrator", "step"),
    ("exprk.integrator", "phi_combo_apply_krylov"),
    ("exprk.conditions", "residual"),
    ("exprk.phi", "phi_scalar_all"),
)


class Stopwatch:
    """Times consecutive regions in reference seconds.

    A region is the interval between two laps. Each slice of it (the whole
    region, unless sliced() is active) counts its CPU seconds scaled by the
    probe's reference time over the mean of the probes run just before and
    just after it; the probes themselves are outside every region.
    """

    def __init__(self, probe: str):
        import numpy as np  # not at the top: run.main() sets the BLAS threads first

        factory, self.ref_s = PROBES[probe]
        self._run_probe = factory(np)
        self.probes: list[float] = []
        self.raw_s = 0.0
        self._region = 0.0
        self._probe()
        self._tic = CLOCK()

    def _probe(self) -> float:
        tic = CLOCK()
        self._run_probe()
        probe = CLOCK() - tic
        self.probes.append(probe)
        return probe

    def _slice(self) -> None:
        raw = CLOCK() - self._tic
        before = self.probes[-1]
        after = self._probe()
        self.raw_s += raw
        self._region += raw * self.ref_s / ((before + after) / 2)
        self._tic = CLOCK()

    def checkpoint(self) -> None:
        """Close the current slice if it has run for SLICE_S."""
        if CLOCK() - self._tic >= SLICE_S:
            self._slice()

    def reset(self) -> None:
        """Start the next region now, leaving out what ran since the last lap."""
        self._tic = CLOCK()

    def lap(self) -> float:
        """Reference seconds of the region since the last lap or reset."""
        self._slice()
        region, self._region = self._region, 0.0
        return region

    @contextlib.contextmanager
    def sliced(self):
        """Call checkpoint() after every CHECKPOINTS call; restore on exit."""
        saved = []
        try:
            for module_name, attr in CHECKPOINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._checkpointed(fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _checkpointed(self, fn):
        def checkpointed(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.checkpoint()
            return result

        return checkpointed
