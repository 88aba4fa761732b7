"""The benchmark's three workloads: inputs made from a seed, and the sweeps.

Every timed call goes through a public ``repro.sim.backend`` entry point
on the vectorized backend with ``workers=1`` and no ``chunk_size``.  Each
workload also defines a *slice*: a small instance cheap enough to run on
the event oracle, against which the vectorized backend is checked.

The input sizes are fixed for every seed (the seed moves arrival times,
job lengths and widths, never the job count), so the cost of a sweep
changes little from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.sim.backend import run_cluster_replications, run_tenant_replications
from repro.sim.tenancy_vectorized import BagSubmission
from repro.traces import swf
from repro.traces.catalog import default_catalog
from repro.traffic.arrivals import JobMix, PoissonProcess, TenantSpec, sample_traffic


def reference_dist():
    """The lifetime law of every workload (a fresh object, so its lazily
    built tables are rebuilt and paid for in set-up)."""
    return default_catalog().distribution("n1-highcpu-16", "us-east1-b")


def _replication_rng(seed: int) -> np.random.Generator:
    """The replication stream: a pure function of the seed, distinct
    from the stream the seed's input was drawn from."""
    return np.random.default_rng([seed, 1])


@dataclass
class Case:
    """One workload instance built from a seed.

    ``sweep`` and ``slice_sweep`` take ``backend`` and ``instrument``
    keywords and return the entry point's outcomes.
    """

    sweep: Callable
    slice_sweep: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str
    build: Callable  # (seed, workdir, probes, tiny) -> Case


# ----------------------------------------------------------------------
# tenancy-poisson
# ----------------------------------------------------------------------

POISSON_JOBS = 63
#: Replications of the sweep and of the event-checked slice.
POISSON_N, POISSON_SLICE_N = 1000, 16
TENANCY = dict(max_vms=16, scheduling="fair", admission_cap=24)


def poisson_traffic(seed: int, n_jobs: int = POISSON_JOBS) -> tuple[BagSubmission, ...]:
    """Four Poisson tenants with lognormal job mixes (the
    ``bench_tenancy_vectorized`` trace), cut to exactly ``n_jobs`` jobs.

    The horizon starts at 8 h and grows until the sample holds enough
    jobs; the first ``n_jobs`` jobs in submission order are kept.
    """
    tenants = [
        TenantSpec(
            name=f"tenant-{i}",
            arrivals=PoissonProcess(1.0),
            mix=JobMix(mean_hours=0.6, cv=0.4, widths=(1, 2, 4), jobs_per_bag=(2, 4)),
            weight=float(i + 1),
        )
        for i in range(4)
    ]
    horizon = 8.0
    while True:
        traffic = sample_traffic(tenants, horizon, seed=seed)
        if sum(len(b.jobs) for b in traffic) >= n_jobs:
            break
        horizon *= 1.25
    kept, left = [], n_jobs
    for bag in traffic:
        if left == 0:
            break
        kept.append(BagSubmission(bag.tenant, bag.time, bag.jobs[:left]))
        left -= len(kept[-1].jobs)
    return tuple(kept)


def _build_tenancy(seed: int, workdir: Path, probes, tiny: bool = False) -> Case:
    dist = reference_dist()
    with probes.timed("traffic.sample"):
        traffic = poisson_traffic(seed)
    n, slice_n = (16, 4) if tiny else (POISSON_N, POISSON_SLICE_N)

    def run(reps, backend="vectorized", instrument=None):
        return run_tenant_replications(
            dist, traffic, n_replications=reps, seed=_replication_rng(seed),
            backend=backend, instrument=instrument, **TENANCY,
        )

    return Case(
        sweep=lambda **kw: run(n, **kw),
        slice_sweep=lambda **kw: run(slice_n, **kw),
    )


# ----------------------------------------------------------------------
# swf-serial
# ----------------------------------------------------------------------

#: Jobs in the log and in the event-checked prefix.
SWF_JOBS, SWF_SLICE_JOBS = 2000, 150
SWF_USERS = 200
SWF_TENANCY = dict(max_vms=16, scheduling="fair", max_events=5_000_000)


def write_swf(path: Path, seed: int, n_jobs: int = SWF_JOBS) -> Path:
    """A synthetic SWF log written the way ``bench_swf_tenancy`` writes
    one: Poisson submits (60 s mean gap), lognormal runtimes (median
    ~50 min, at least 5 min), 1-4 processors, ``SWF_USERS`` users."""
    rng = np.random.default_rng(seed)
    lines = ["; Version: 2.2", "; MaxProcs: 256", "; Note: synthetic benchmark log"]
    t = 0.0
    for jid in range(1, n_jobs + 1):
        t += rng.exponential(60.0)
        run_s = max(300, int(rng.lognormal(8.0, 0.8)))
        procs = int(rng.integers(1, 5))
        user = int(rng.integers(1, SWF_USERS + 1))
        lines.append(
            f"{jid} {int(t)} 10 {run_s} {procs} -1 -1 "
            f"{procs} {run_s} -1 1 {user} {user % 50 + 1} 1 1 1 -1 -1"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def _build_swf(seed: int, workdir: Path, probes, tiny: bool = False) -> Case:
    dist = reference_dist()
    n_jobs, slice_jobs = (60, 20) if tiny else (SWF_JOBS, SWF_SLICE_JOBS)
    log = write_swf(workdir / f"serial-{seed}.swf", seed, n_jobs)
    with probes.timed("traces.to_traffic"):
        traffic = swf.swf_traffic(log, width_cap=4)

    def run(trace, backend="vectorized", instrument=None):
        return run_tenant_replications(
            dist, trace, n_replications=1, seed=_replication_rng(seed),
            backend=backend, instrument=instrument, **SWF_TENANCY,
        )

    return Case(
        sweep=lambda **kw: run(traffic, **kw),
        slice_sweep=lambda **kw: run(
            swf.swf_traffic(log, width_cap=4, max_jobs=slice_jobs), **kw
        ),
    )


# ----------------------------------------------------------------------
# cluster-dp
# ----------------------------------------------------------------------

BAG_JOBS = 100
#: Replications of the sweep and of the event-checked slice.
CLUSTER_N, CLUSTER_SLICE_N = 2000, 16
CLUSTER = dict(pool_size=16, checkpoint="dp", use_reuse_policy=False)


def cluster_bag(seed: int, n_jobs: int = BAG_JOBS) -> list[tuple[float, int]]:
    """A gang bag shaped like the Fig. 9 applications: 0.2-1.2 h jobs of
    width 1, 2 or 4 (the ``bench_cluster_vectorized`` bag)."""
    rng = np.random.default_rng(seed)
    hours = rng.uniform(0.2, 1.2, n_jobs)
    widths = rng.choice([1, 2, 4], n_jobs)
    return [(float(h), int(w)) for h, w in zip(hours, widths)]


def _build_cluster(seed: int, workdir: Path, probes, tiny: bool = False) -> Case:
    dist = reference_dist()
    bag = cluster_bag(seed, 20 if tiny else BAG_JOBS)
    n, slice_n = (16, 4) if tiny else (CLUSTER_N, CLUSTER_SLICE_N)

    def run(reps, backend="vectorized", instrument=None):
        return run_cluster_replications(
            dist, bag, n_replications=reps, seed=_replication_rng(seed),
            backend=backend, instrument=instrument, **CLUSTER,
        )

    return Case(
        sweep=lambda **kw: run(n, **kw),
        slice_sweep=lambda **kw: run(slice_n, **kw),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tenancy-poisson",
            7,
            "seed 7 gives the 63-job trace of bench_tenancy_vectorized; wide "
            "(n=1000) with few rounds, Eq. 8 is most of the sweep",
            _build_tenancy,
        ),
        Workload(
            "swf-serial",
            42,
            "seed 42 is the seed of bench_swf_tenancy's scale log; narrow (n=1) "
            "with thousands of rounds, fixed per-round overhead dominates",
            _build_swf,
        ),
        Workload(
            "cluster-dp",
            7,
            "seed 7 gives the bag of bench_cluster_vectorized; DP checkpoint "
            "plans and no Eq. 8 calls, the cluster kernel's own cost",
            _build_cluster,
        ),
    )
}
