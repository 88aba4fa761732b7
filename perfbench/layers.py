"""Outside-in layer probes for the traced benchmark run.

The benchmark never edits the library: for the duration of one traced
sweep it wraps each layer's public functions from outside and counts the
calls and the work they carry.  A call not nested inside another probed
call is also timed and recorded as a span on a :class:`repro.obs.Tracer`
(so the run opens in chrome://tracing or ui.perfetto.dev).  Nested calls
are only counted: their time belongs to the outer layer (the bathtub
``cdf`` calls Eq. 8 makes are Eq. 8 time), so layer times never overlap
and the tens of thousands of nested calls add little tracing overhead.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class LayerStat:
    calls: int = 0
    cells: int = 0          # elements the calls evaluated (Eq. 8 only)
    seconds: float = 0.0    # time in calls not nested in another probe


def _eq8_cells(policy, job_lengths, vm_ages) -> int:
    """Broadcast size of a ``policy.decide_pairs(job_lengths, vm_ages)`` call
    (the probe replaces the method on the class, so the policy comes first)."""
    return math.prod(np.broadcast_shapes(np.shape(job_lengths), np.shape(vm_ages)))


class LayerProbes:
    """Wraps library entry points, accumulating one :class:`LayerStat`
    per probe name in ``stats``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.stats: dict[str, LayerStat] = {}
        self._depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, cells=None):
        stat = self.stats.setdefault(name, LayerStat())
        tracer = self.tracer

        def probed(*args, **kwargs):
            stat.calls += 1
            if cells is not None:
                stat.cells += cells(*args, **kwargs)
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                with tracer.span(name, "layer"):
                    return fn(*args, **kwargs)
            finally:
                stat.seconds += time.perf_counter() - t0
                self._depth -= 1

        return probed

    def _patch(self, owner, attr: str, name: str, cells=None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, cells))

    @contextmanager
    def installed(self):
        """Probe every layer below the entry points for the duration of the block."""
        from repro.distributions.bathtub import BathtubDistribution
        from repro.policies.scheduling import ModelReusePolicy
        from repro.sim import checkpoint_vectorized
        from repro.sim.checkpoint_vectorized import DPPlanWalker
        from repro.traces import swf

        self._patch(ModelReusePolicy, "decide_pairs", "eq8", cells=_eq8_cells)
        self._patch(BathtubDistribution, "cdf", "dist.cdf")
        self._patch(BathtubDistribution, "ppf", "dist.ppf")
        # The kernels import walker_from_config when they are built, so
        # patching the module attribute reaches them; it solves the DP
        # table once per sweep.
        self._patch(checkpoint_vectorized, "walker_from_config", "dp.table")
        self._patch(DPPlanWalker, "begin", "dp.begin")
        self._patch(DPPlanWalker, "next_take", "dp.next_take")
        # swf_traffic parses through the module attribute.
        self._patch(swf, "parse_swf", "traces.parse")
        try:
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def get(self, name: str) -> LayerStat:
        return self.stats.get(name, LayerStat())

    @contextmanager
    def timed(self, name: str):
        """A span around a call the benchmark itself makes (set-up work)."""
        stat = self.stats.setdefault(name, LayerStat())
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, "layer"):
                yield
        finally:
            stat.calls += 1
            stat.seconds += time.perf_counter() - t0
