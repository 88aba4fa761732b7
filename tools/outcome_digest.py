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

With ``--fields`` the tool prints one line per outcome array, counter
and gauge field of each case instead, ``<sha256>  <case>  <field>``
(fields such as ``makespan``, ``counter.events.arr`` or
``gauge.livelock.peak_streak.n_samples``; a raising case has the one
field ``error``, followed by its message), so a ``diff`` of two such
files names the field that moved::

    PYTHONPATH=src python tools/outcome_digest.py --fields > fields.txt
"""

from __future__ import annotations

import argparse
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


def _array_bytes(name: str, value) -> bytes:
    a = np.ascontiguousarray(value)
    return f"{name}|{a.dtype.str}|{a.shape}|".encode() + a.tobytes()


def _run(fn, dist, workload, cfg: dict):
    """``(outcomes, obs snapshot, note)`` of one case; a case that
    raises gives ``(None, None, note)`` with ``note`` naming the error."""
    inst = Instrumentation()
    try:
        out = fn(
            dist, workload, n_replications=N_REPLICATIONS, seed=SEED,
            instrument=inst, **cfg,
        )
    except RuntimeError as exc:  # the kernels' failures are outcomes too
        return None, None, f"raises {type(exc).__name__}: {exc}"
    return out, inst.registry.snapshot(), ""


def _parts(out, snap, split_gauges: bool) -> list[tuple[str, bytes]]:
    """``(field, bytes)`` the digests hash: every outcome array, every
    counter and every gauge — one part per gauge, or with
    ``split_gauges`` one per gauge field (``max``, ``n_samples``, ...)."""
    parts = [
        (f.name, _array_bytes(f.name, getattr(out, f.name)))
        for f in dataclasses.fields(out)
        if f.name not in ("stats", "backend")
    ]
    for name in sorted(snap.counters):
        line = f"counter|{name}|{snap.counters[name]!r}\n"
        parts.append((f"counter.{name}", line.encode()))
    for name in sorted(snap.gauges):
        if name.startswith("proc."):
            continue  # host-local (RSS)
        items = sorted(snap.gauges[name].items())
        if split_gauges:
            parts += [
                (f"gauge.{name}.{k}", f"gauge|{name}|{k}|{v!r}\n".encode())
                for k, v in items
            ]
        else:
            parts.append((f"gauge.{name}", f"gauge|{name}|{items!r}\n".encode()))
    return parts


def case_digest(fn, dist, workload, cfg: dict) -> tuple[str, str]:
    """``(sha256, note)`` of one case; ``note`` names a raised error."""
    out, snap, note = _run(fn, dist, workload, cfg)
    h = hashlib.sha256()
    if note:
        h.update(note.encode())
        return h.hexdigest(), note
    for _, data in _parts(out, snap, split_gauges=False):
        h.update(data)
    return h.hexdigest(), ""


def field_digests(fn, dist, workload, cfg: dict) -> list[tuple[str, str]]:
    """``(sha256, field)`` per outcome array, counter and gauge field of
    one case; a case that raises has the one field ``error  <note>``."""
    out, snap, note = _run(fn, dist, workload, cfg)
    if note:
        return [(hashlib.sha256(note.encode()).hexdigest(), f"error  {note}")]
    return [
        (hashlib.sha256(data).hexdigest(), field)
        for field, data in _parts(out, snap, split_gauges=True)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fields",
        action="store_true",
        help="one line per outcome array, counter and gauge field of "
        "each case, so a diff names the field that moved",
    )
    args = parser.parse_args(argv)
    for name, *case in _grid():
        if args.fields:
            lines = [f"{sha}  {name}  {field}" for sha, field in field_digests(*case)]
        else:
            sha, note = case_digest(*case)
            lines = [f"{sha}  {name}{'  ' + note if note else ''}"]
        sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
