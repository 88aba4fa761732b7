"""The fleet core's running-slot layout and column ordering.

A running segment lives in one of ``S`` running slots of
:class:`repro.sim.vectorized._LockstepKernel`, keyed by its gang's
first VM column, so the fused event table's width is a function of the
fleet alone — never of how many jobs the workload holds — and every
slot is empty again once a replication has finished.  The gang order
:meth:`_LockstepKernel._oldest` is pinned here against the three-pass
stable argsort chain it replaces.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributions.exponential import ExponentialDistribution
from repro.sim.backend import (
    run_cluster_replications,
    run_service_replications,
    run_tenant_replications,
)
from repro.sim.cluster_vectorized import ClusterConfig, GangJob, _ClusterKernel
from repro.sim.service_vectorized import ServiceBatchConfig, _ServiceKernel
from repro.sim.tenancy_vectorized import (
    BagSubmission,
    TenancyConfig,
    _TenancyKernel,
)
from repro.sim.vectorized import _SEQ_INF, EventArena, _LockstepKernel

#: A 40-minute MTTF: gang aborts happen in almost every replication.
DIST = ExponentialDistribution(1.5)
JOBS = [GangJob(0.6, 1), GangJob(0.4, 2), GangJob(0.5, 1), GangJob(0.8, 3)]
INT_MAX = np.iinfo(np.int64).max
#: The same workload through the public entry points.
CASE_JOBS = [(j.work_hours, j.width) for j in JOBS]
CASE_TRAFFIC = [
    (0, 0.0, CASE_JOBS[:2]),
    (1, 0.3, CASE_JOBS[2:3]),
    (2, 0.9, CASE_JOBS[3:]),
]


def _bag(n_jobs: int) -> list[GangJob]:
    return [GangJob(0.1 + 0.01 * (j % 7), 1 + j % 3) for j in range(n_jobs)]


def _cluster(jobs, n=4, **cfg):
    config = ClusterConfig(pool_size=4, **cfg)
    return _ClusterKernel(DIST, jobs, config, n, np.random.default_rng(3), 100_000)


def _service(jobs, n=4, **cfg):
    config = ServiceBatchConfig(max_vms=4, **cfg)
    return _ServiceKernel(DIST, jobs, config, n, np.random.default_rng(3), 100_000)


def _tenancy(jobs, n=4, **cfg):
    traffic = tuple(
        BagSubmission(k % 3, 0.25 * k, tuple(jobs[k : k + 2]))
        for k in range(0, len(jobs), 2)
    )
    config = TenancyConfig(max_vms=4, **cfg)
    return _TenancyKernel(
        DIST, traffic, 3, config, n, np.random.default_rng(3), 100_000
    )


class TestArenaWidth:
    @pytest.mark.parametrize("build", [_cluster, _service, _tenancy])
    def test_width_is_independent_of_the_job_count(self, build):
        small, large = build(_bag(3)), build(_bag(200))
        assert small._ev.times.shape[1] == large._ev.times.shape[1]
        lo, hi = large._ev.spans["comp"]
        assert hi - lo == large.S


class TestSlotsEmptyAfterRun:
    CASES = [
        (_cluster, dict(checkpoint="dp", checkpoint_step=0.05)),
        (_cluster, dict(hot_spare=False, checkpoint_interval=0.2)),
        (_cluster, dict(backfill=True)),
        (_service, dict(checkpoint="dp", checkpoint_step=0.05)),
        (_service, dict(provision_latency=0.1, hot_spare_hours=0.05)),
        (_service, dict(backfill=True, checkpoint_interval=0.2)),
        (_tenancy, dict(checkpoint="dp", checkpoint_step=0.05)),
        (_tenancy, dict(provision_latency=0.1, elastic_vms_per_bag=3)),
        (_tenancy, dict(scheduling="fair", checkpoint_interval=0.2)),
    ]

    @pytest.mark.parametrize("build, cfg", CASES)
    def test_every_slot_is_empty(self, build, cfg):
        kernel = build(JOBS * 3, n=16, **cfg)
        out = kernel.run()
        assert out["n_job_failures"].sum() > 0  # gang aborts happened
        assert np.all(kernel.rjob == -1)
        assert np.all(kernel.rtime == np.inf)
        assert np.all(kernel.rseq == _SEQ_INF)


def _oldest_chain(launch, birth, mask, rank=None):
    """The three stable argsort passes ``_oldest`` used to run."""
    lm = np.where(mask, launch, np.inf)
    bm = np.where(mask, birth, INT_MAX)
    by_birth = np.argsort(bm, axis=1, kind="stable")
    l_sorted = np.take_along_axis(lm, by_birth, axis=1)
    by_launch = np.argsort(l_sorted, axis=1, kind="stable")
    order = np.take_along_axis(by_birth, by_launch, axis=1)
    if rank is None:
        return order
    km = np.where(mask, rank, INT_MAX)
    k_sorted = np.take_along_axis(km, order, axis=1)
    by_rank = np.argsort(k_sorted, axis=1, kind="stable")
    return np.take_along_axis(order, by_rank, axis=1)


@st.composite
def _columns(draw):
    """Rows of VM columns with tied launches and births; each row's
    mask is all set, all clear or mixed."""
    R, S = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    cells = st.lists(st.integers(0, 3), min_size=R * S, max_size=R * S)
    launch = np.asarray(draw(cells), dtype=float).reshape(R, S) * 0.5
    birth = np.asarray(draw(cells), dtype=np.int64).reshape(R, S)
    mask = np.empty((R, S), dtype=bool)
    for r in range(R):
        kind = draw(st.sampled_from(["all", "none", "mixed"]))
        if kind == "mixed":
            mask[r] = draw(st.lists(st.booleans(), min_size=S, max_size=S))
        else:
            mask[r] = kind == "all"
    ranked = draw(st.booleans())
    rank = np.asarray(draw(cells), dtype=np.int64).reshape(R, S) % 3 if ranked else None
    return launch, birth, mask, rank


class TestOldestOrder:
    @settings(max_examples=200, deadline=None)
    @given(cols=_columns())
    def test_matches_the_argsort_chain(self, cols):
        launch, birth, mask, rank = cols
        core = SimpleNamespace(launch=launch, birth=birth)
        rr = np.arange(launch.shape[0])
        got = _LockstepKernel._oldest(core, mask, rr, rank)
        assert np.array_equal(got, _oldest_chain(launch, birth, mask, rank))


def _select_copying(arena, active):
    """The selector ``EventArena.select`` ran before its view path:
    both tables copied through ``active`` on every call."""
    times = arena.times[active]
    tmin = times.min(axis=1)
    tie = times == tmin[:, None]
    pick = np.argmin(np.where(tie, arena.seqs[active], _SEQ_INF), axis=1)
    return tmin, pick


@st.composite
def _arenas(draw):
    """A filled arena plus its active rows: every row, or a sorted
    strict subset.  Times come from a small set, so rows have ties and
    some rows are all ``inf``; seqs are a random order per row, and an
    empty cell holds ``_SEQ_INF`` (the arena invariant)."""
    n, C = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    arena = EventArena(n, [("a", C // 2), ("b", C - C // 2)])
    for r in range(n):
        if draw(st.booleans()):
            cells = st.sampled_from([0.0, 0.5, 1.0, np.inf])
            arena.times[r] = draw(st.lists(cells, min_size=C, max_size=C))
        arena.seqs[r] = draw(st.permutations(range(C)))
    arena.seqs[np.isinf(arena.times)] = _SEQ_INF
    if draw(st.booleans()):
        active = np.arange(n)
    else:
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        keep[draw(st.integers(0, n - 1))] = False
        active = np.flatnonzero(keep)
    return arena, active


class TestArenaSelect:
    @settings(max_examples=300, deadline=None)
    @given(case=_arenas())
    def test_matches_the_copying_selector(self, case):
        arena, active = case
        tmin, pick = arena.select(active)
        want_tmin, want_pick = _select_copying(arena, active)
        assert np.array_equal(tmin, want_tmin)
        assert np.array_equal(pick, want_pick)


RUNNERS = {
    "cluster": lambda n: run_cluster_replications(
        DIST, CASE_JOBS, n_replications=n, seed=5, pool_size=4,
        checkpoint_interval=0.2, instrument=True,
    ),
    "service": lambda n: run_service_replications(
        DIST, CASE_JOBS, n_replications=n, seed=5, max_vms=4,
        provision_latency=0.1, hot_spare_hours=0.05, instrument=True,
    ),
    "tenancy": lambda n: run_tenant_replications(
        DIST, CASE_TRAFFIC, n_replications=n, seed=5, max_vms=4,
        provision_latency=0.1, hot_spare_hours=0.05, instrument=True,
    ),
}


class TestDispatchCounts:
    """Every picked event is dispatched to, and counted on, exactly one
    channel: at one replication every round hands the whole active set
    to one channel; with many, a round splits across channels."""

    @pytest.mark.parametrize("kind", sorted(RUNNERS))
    @pytest.mark.parametrize("n", [1, 12])
    def test_channel_counts_sum_to_the_events(self, kind, n):
        out = RUNNERS[kind](n)
        counts = out.stats.channel_events
        assert sum(counts.values()) == int(out.n_events.sum())
        assert sum(v > 0 for v in counts.values()) >= 2


class TestEventBudgetError:
    @pytest.mark.parametrize("build", [_cluster, _service, _tenancy])
    def test_names_the_first_row_out_of_budget(self, build):
        full = build(JOBS * 2, n=12).run()["n_events"]
        # Row 0 finishes on its last allowed event; the rows that need
        # more are the ones the error counts.
        budget = int(full[0])
        over = np.flatnonzero(full > budget)
        assert over.size
        kernel = build(JOBS * 2, n=12)
        kernel.max_events = budget
        with pytest.raises(RuntimeError) as raised:
            kernel.run()
        msg = str(raised.value)
        assert msg.startswith(
            f"{over.size} replications unfinished after {budget} events"
        )
        m = re.search(r"first: kernel row (\d+) at now=(\S+)\)", msg)
        assert int(m.group(1)) == over[0]
        assert float(m.group(2)) == kernel.now[over[0]]
