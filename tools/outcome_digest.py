#!/usr/bin/env python3
"""Outcome digests of the lockstep kernels over a fixed case grid.

Run from the repository root::

    PYTHONPATH=src python tools/outcome_digest.py > digests.txt

Prints one line per case, ``<sha256>  <case>``: a digest over every raw
outcome array of the vectorized sweep (name, dtype, shape and bytes)
plus the run's obs counters and gauges.  A case that raises is recorded
by its exception type and message instead, appended to its line.

The grid is fixed — kernel x pools x allocator x backfill x hot spare
x interval/DP checkpointing x boot latency x the tenancy elastic /
admission / affinity knobs, plus the raising cases (provisioning
livelock, max attempts, event budget) — so two checkouts can be
compared with a plain ``diff`` of their output: a refactor that claims
byte-identical outcomes must print the same file.  The whole grid runs
in well under a minute on one core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys

import numpy as np

from repro.distributions.exponential import ExponentialDistribution
from repro.distributions.uniform import UniformLifetimeDistribution
from repro.obs import Instrumentation
from repro.sim.backend import (
    run_cluster_replications,
    run_service_replications,
    run_tenant_replications,
)
from repro.sim.placement import PoolSpec

N_REPLICATIONS = 24
SEED = 7

#: Single-pool law: a 40-minute MTTF keeps gang aborts frequent.
DIST = ExponentialDistribution(1.5)
#: Three pools so that every allocator ranks them differently.
POOLS = (
    PoolSpec("mid", 1, dist=UniformLifetimeDistribution(8.0), price=0.5),
    PoolSpec("cheap-flaky", 2, dist=UniformLifetimeDistribution(3.0), price=0.2),
    PoolSpec("pricey-stable", 1, dist=UniformLifetimeDistribution(24.0), price=1.0),
)
JOBS = [(0.6, 1), (0.4, 2), (0.5, 1), (0.8, 2), (0.3, 3), (0.7, 1)]
TRAFFIC = [
    (0, 0.0, [(0.6, 1), (0.4, 2)]),
    (1, 0.3, [(0.5, 1), (0.3, 3)]),
    (2, 0.9, [(0.8, 2)]),
    (0, 1.2, [(0.7, 1), (0.4, 2)]),
]

#: (label, config fields) of each fleet option.
POOL_OPTIONS = [("1pool", {})] + [
    (f"3pool-{a}", {"pools": POOLS, "allocator": a})
    for a in ("first_fit", "best_fit_price", "reliability")
]
CHECKPOINTS = [
    ("nockpt", {}),
    ("interval", {"checkpoint_interval": 0.2}),
    ("dp", {"checkpoint": "dp", "checkpoint_step": 0.05}),
]


def _fleets(pool_options):
    """``(label, config fields)`` of every pools x checkpointing pair."""
    for (pl, pk), (cl, ck) in itertools.product(pool_options, CHECKPOINTS):
        if "pools" not in pk or cl != "dp":  # the DP table has one law
            yield f"{pl}/{cl}", {**pk, **ck}


def _grid():
    """Yield ``(name, entry point, dist, workload, config fields)``."""
    for (fl, fk), bf, spare in itertools.product(
        _fleets(POOL_OPTIONS), (False, True), (True, False)
    ):
        cfg = dict(pool_size=4, backfill=bf, hot_spare=spare, **fk)
        name = f"cluster/{fl}/bf={int(bf)}/spare={int(spare)}"
        yield name, run_cluster_replications, DIST, JOBS, cfg
    for (fl, fk), bf, hold, lat in itertools.product(
        _fleets(POOL_OPTIONS), (False, True), (1.0, 0.05), (0.0, 0.1)
    ):
        cfg = dict(
            max_vms=4, backfill=bf, hot_spare_hours=hold,
            provision_latency=lat, **fk,
        )
        name = f"service/{fl}/bf={int(bf)}/hold={hold}/lat={lat}"
        yield name, run_service_replications, DIST, JOBS, cfg
    tenancy_pools = POOL_OPTIONS + [
        ("3pool-tenant_affinity", {"pools": POOLS, "allocator": "tenant_affinity"})
    ]
    extras = [
        ("fifo", {}),
        ("fair-admission", {"scheduling": "fair", "admission_cap": 3}),
        ("weighted-elastic", {
            "scheduling": "weighted", "tenant_weights": (1.0, 2.0, 0.5),
            "elastic_vms_per_bag": 3,
        }),
    ]
    for (fl, fk), hold, lat, (xl, xk) in itertools.product(
        _fleets(tenancy_pools), (1.0, 0.05), (0.0, 0.1), extras
    ):
        cfg = dict(
            max_vms=4, hot_spare_hours=hold, provision_latency=lat, **fk, **xk
        )
        name = f"tenancy/{fl}/hold={hold}/lat={lat}/{xl}"
        yield name, run_tenant_replications, DIST, TRAFFIC, cfg
    # Raising cases: the message is part of the contract.
    slow = UniformLifetimeDistribution(1000.0)
    livelock = dict(max_vms=3, livelock_threshold=1, hot_spare_hours=5.0)
    yield ("raise/service-livelock", run_service_replications, slow,
           [(0.1, 1), (0.1, 3)], livelock)
    yield ("raise/tenancy-livelock", run_tenant_replications, slow,
           [(0, 0.0, [(0.1, 1), (0.1, 3)])], livelock)
    yield ("raise/service-max-attempts", run_service_replications, DIST,
           [(3.0, 3)], {"max_attempts_per_job": 2})
    yield ("raise/tenancy-max-attempts", run_tenant_replications, DIST,
           [(0, 0.0, [(3.0, 3)])], {"max_attempts_per_job": 2})
    yield ("raise/cluster-max-events", run_cluster_replications, DIST,
           [(3.0, 3)], {"pool_size": 3, "max_events": 50})


def _feed_array(h, name: str, value) -> None:
    a = np.ascontiguousarray(value)
    h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())


def case_digest(fn, dist, workload, cfg: dict) -> tuple[str, str]:
    """``(sha256, note)`` of one case; ``note`` names a raised error."""
    inst = Instrumentation()
    h = hashlib.sha256()
    try:
        out = fn(
            dist, workload, n_replications=N_REPLICATIONS, seed=SEED,
            instrument=inst, **cfg,
        )
    except RuntimeError as exc:  # the kernels' failures are outcomes too
        note = f"raises {type(exc).__name__}: {exc}"
        h.update(note.encode())
        return h.hexdigest(), note
    for f in dataclasses.fields(out):
        if f.name not in ("stats", "backend"):
            _feed_array(h, f.name, getattr(out, f.name))
    snap = inst.registry.snapshot()
    for name in sorted(snap.counters):
        h.update(f"counter|{name}|{snap.counters[name]!r}\n".encode())
    for name in sorted(snap.gauges):
        if name.startswith("proc."):
            continue  # host-local (RSS)
        g = snap.gauges[name]
        h.update(f"gauge|{name}|{sorted(g.items())!r}\n".encode())
    return h.hexdigest(), ""


def main() -> int:
    for name, *case in _grid():
        sha, note = case_digest(*case)
        sys.stdout.write(f"{sha}  {name}{'  ' + note if note else ''}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
