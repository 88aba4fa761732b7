"""The fleet core's running-slot layout and column ordering.

A running segment lives in one of ``S`` running slots of
:class:`repro.sim.vectorized._LockstepKernel`, keyed by its gang's
first VM column, so the fused event table's width is a function of the
fleet alone — never of how many jobs the workload holds — and every
slot is empty again once a replication has finished.

The gang order is one ``(pool rank, birth)`` key per VM column.  It
stands for the ``(pool rank, launch, birth)`` order because, in every
state a kernel reaches, a row's births are distinct and its launches
are non-decreasing in birth: live kernels check that invariant after
every ``_add_vm``.  On such states :meth:`_LockstepKernel._oldest` is
pinned against the three-pass stable argsort chain it replaces, and
the gang a job takes — the suitable columns at or below the row's
``w``-th smallest key — against that chain's first ``w`` columns.  The
cluster's refresh loop acts on the judgment its scheduling pass made,
judging a stuck head again only after a backfill scan moved VMs.  The
tenancy kernel's batched bag arrivals — one scheduling pass per member
position across every row that arrived in a round — are pinned against
the per-bag loop they replace.  The service-family max-attempts error
must name its job and first row, and each fleet/provisioning invariant
error its first row.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributions.exponential import ExponentialDistribution
from repro.distributions.uniform import UniformLifetimeDistribution
from repro.obs import MetricsRegistry
from repro.sim.backend import (
    run_cluster_replications,
    run_service_replications,
    run_tenant_replications,
)
from repro.sim.cluster_vectorized import ClusterConfig, GangJob, _ClusterKernel
from repro.sim.placement import PoolSpec
from repro.sim.service_vectorized import ServiceBatchConfig, _ServiceKernel
from repro.sim.tenancy_vectorized import (
    BagSubmission,
    TenancyConfig,
    _TenancyKernel,
)
from repro.sim.vectorized import (
    _SEQ_INF,
    EventArena,
    _LockstepKernel,
    _lowest,
    _order_key,
)

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
    """Rows of VM columns in states the kernel can reach: a row's
    births are distinct (with gaps, as dead VMs leave) and its launches
    are a non-decreasing function of birth, with ties.  Each row's
    mask is all set, all clear or mixed."""
    R, S = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    cells = st.lists(st.integers(0, 3), min_size=R * S, max_size=R * S)
    launch = np.empty((R, S))
    birth = np.empty((R, S), dtype=np.int64)
    for r in range(R):
        births = st.lists(st.integers(0, 3 * S), min_size=S, max_size=S, unique=True)
        birth[r] = draw(births)
        steps = draw(st.lists(st.integers(0, 1), min_size=S, max_size=S))
        launch[r, np.argsort(birth[r])] = np.cumsum(steps) * 0.5
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


class TestMaxAttemptsError:
    @pytest.mark.parametrize("build", [_service, _tenancy])
    def test_names_the_job_and_the_first_row(self, build):
        limit = 3
        # Unlimited run: every abort's rows, jobs, attempts and clocks.
        # State is the same up to the abort that trips the limit.
        kernel = build(JOBS * 2, n=12)
        aborts = []
        abort = kernel._abort

        def spy(rr, jj):
            aborts.append(
                (rr.copy(), jj.copy(), kernel.attempts[rr, jj], kernel.now[rr])
            )
            abort(rr, jj)

        kernel._abort = spy
        kernel.run()
        rr, jj, attempts, now = next(a for a in aborts if (a[2] >= limit).any())
        over = attempts >= limit
        i = int(np.argmax(over))
        kernel = build(JOBS * 2, n=12, max_attempts_per_job=limit)
        with pytest.raises(RuntimeError) as raised:
            kernel.run()
        msg = str(raised.value)
        assert msg.startswith(
            f"job {jj[i]} exceeded {limit} attempts in {over.sum()} replications"
        )
        m = re.search(r"first: kernel row (\d+) at now=(\S+)\)", msg)
        assert int(m.group(1)) == rr[i]
        assert float(m.group(2)) == now[i]


class _PerBagArrivals(_TenancyKernel):
    """The arrival handler before batching: admission and one pass per
    member, run separately for each bag index among the arrived rows."""

    def _on_arr(self, rr, _col):
        ks = self.aptr[rr]
        self.aptr[rr] += 1
        nxt = self.aptr[rr]
        done = nxt >= self.K
        self.arr_time[rr, 0] = np.where(
            done, np.inf, self.atime[np.minimum(nxt, self.K - 1)]
        )
        self.arr_seq[rr, 0] = np.where(done, _SEQ_INF, nxt)
        for k in np.unique(ks):
            rk = rr[ks == k]
            t, lo, hi = int(self.bag_tcol[k]), int(self.bag_lo[k]), int(self.bag_hi[k])
            m = hi - lo
            if self.cfg.admission_cap is not None:
                unfinished = self.adm_tenant[rk, t] - self.done_tenant[rk, t]
                admit = unfinished + m <= self.cfg.admission_cap
            else:
                admit = np.ones(rk.size, dtype=bool)
            ra = rk[admit]
            if not ra.size:
                continue
            self.adm_tenant[ra, t] += m
            self.admitted_total[ra] += m
            self.admitted[ra, lo:hi] = True
            self.active_bags[ra] += 1
            for j in range(lo, hi):
                self.qkey[ra, j] = float(self.keys[j])
                self._schedule_pass(ra)


class _CountedArrivals(_TenancyKernel):
    """The batched kernel, logging per arrival round the scheduling
    passes it made, the largest bag among its rows and how many bags
    those rows were at."""

    _passes = None

    def _on_arr(self, rr, col):
        ks = self.aptr[rr]
        self._passes = 0
        super()._on_arr(rr, col)
        self.arrival_log.append(
            (self._passes, int(self.bag_size[ks].max()), np.unique(ks).size)
        )
        self._passes = None

    def _schedule_pass(self, rr):
        if self._passes is not None:
            self._passes += 1
        super()._schedule_pass(rr)


ARRIVAL_POOLS = (
    PoolSpec("mid", 1, dist=UniformLifetimeDistribution(8.0), price=0.5),
    PoolSpec("cheap-flaky", 2, dist=UniformLifetimeDistribution(3.0), price=0.2),
    PoolSpec("pricey-stable", 1, dist=UniformLifetimeDistribution(24.0), price=1.0),
)


@st.composite
def _arrival_cases(draw):
    """Random traffic of 1-4-job bags over few distinct instants (so
    bags share arrival times), plus a random tenancy configuration."""
    job = st.tuples(st.sampled_from([0.2, 0.4, 0.7]), st.integers(1, 3))
    bags = draw(st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6]),
            st.lists(job, min_size=1, max_size=4),
        ),
        min_size=2,
        max_size=8,
    ))
    traffic = tuple(
        BagSubmission(t, at, tuple(GangJob(w, g) for w, g in jobs))
        for t, at, jobs in sorted(bags, key=lambda b: b[1])
    )
    cfg = dict(
        max_vms=4,
        scheduling=draw(st.sampled_from(["fifo", "fair", "weighted"])),
        admission_cap=draw(st.sampled_from([None, 2, 4])),
        elastic_vms_per_bag=draw(st.sampled_from([None, 3])),
        hot_spare_hours=draw(st.sampled_from([1.0, 0.05])),
        provision_latency=draw(st.sampled_from([0.0, 0.1, 0.1])),
    )
    if cfg["scheduling"] == "weighted":
        cfg["tenant_weights"] = (1.0, 2.0, 0.5)
    if draw(st.booleans()):
        cfg["pools"] = ARRIVAL_POOLS
        cfg["allocator"] = draw(st.sampled_from(["first_fit", "tenant_affinity"]))
    return traffic, cfg, draw(st.integers(2, 12)), draw(st.integers(0, 99))


def _run_arrivals(kernel_cls, traffic, cfg, n, seed):
    """``(raw outputs or the raised error, obs counters, kernel)``."""
    obs = MetricsRegistry()
    kernel = kernel_cls(
        DIST, traffic, 3, TenancyConfig(**cfg), n,
        np.random.default_rng(seed), 100_000, obs=obs,
    )
    kernel.arrival_log = []
    try:
        raw = kernel.run()
    except RuntimeError as exc:
        raw = f"{type(exc).__name__}: {exc}"
    return raw, obs.snapshot().counters, kernel


def _assert_batching_matches(traffic, cfg, n, seed):
    """The batched kernel reproduces the per-bag loop byte for byte
    and makes at most (largest bag) passes per arrival round; returns
    its arrival log."""
    want, want_counts, _ = _run_arrivals(_PerBagArrivals, traffic, cfg, n, seed)
    got, got_counts, kernel = _run_arrivals(_CountedArrivals, traffic, cfg, n, seed)
    assert got_counts == want_counts
    if isinstance(want, str):
        assert got == want
    else:
        assert got.keys() == want.keys()
        for name, value in want.items():
            a, b = np.asarray(value), np.asarray(got[name])
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    for passes, largest, _ in kernel.arrival_log:
        assert passes <= largest
    return kernel.arrival_log


#: Twelve bags of 1-4 jobs from three tenants, two per instant, so
#: replications reach different bags in the same round.
BURSTY = tuple(
    BagSubmission(k % 3, 0.1 * (k // 2) + 0.6 * (k // 4), tuple(_bag(1 + k % 4)))
    for k in range(12)
)
#: One-job bags far enough apart that each finds no other bag active.
SPACED = tuple(
    BagSubmission(k % 3, 0.5 * k, (GangJob(0.3, 3 - k % 2),)) for k in range(6)
)


class TestArrivalBatching:
    @settings(max_examples=40, deadline=None)
    @given(case=_arrival_cases())
    def test_matches_the_per_bag_loop(self, case):
        _assert_batching_matches(*case)

    # Each fixed case shows one misordering the random cases reach only
    # rarely: warm spares let the first member inserted start at once
    # (member order), a boot latency makes every pass's provisioning
    # show (one pass per member), and an elastic cap with no other bag
    # active binds a pass that runs before its bag is counted active.
    @pytest.mark.parametrize(
        "traffic, cfg",
        [
            (BURSTY, dict(scheduling="weighted", tenant_weights=(1.0, 2.0, 0.5),
                          elastic_vms_per_bag=3)),
            (BURSTY, dict(scheduling="fair", admission_cap=6,
                          provision_latency=0.1, hot_spare_hours=0.05)),
            (SPACED, dict(elastic_vms_per_bag=3, provision_latency=0.1,
                          hot_spare_hours=0.05)),
        ],
        ids=["member-order", "pass-per-member", "admission-first"],
    )
    def test_fixed_cases(self, traffic, cfg):
        log = _assert_batching_matches(traffic, dict(max_vms=4, **cfg), 16, 3)
        if traffic is BURSTY:
            assert any(bags > 1 for _, _, bags in log)


def _alive_order_holds(kernel, rr) -> None:
    """Over each row's alive columns: births are distinct and launch
    is non-decreasing in birth."""
    for r in np.unique(rr):
        alive = kernel.alive[r]
        birth, launch = kernel.birth[r, alive], kernel.launch[r, alive]
        by_birth = np.argsort(birth)
        assert np.unique(birth).size == birth.size
        assert np.all(np.diff(launch[by_birth]) >= 0.0)


class TestColumnOrderInvariant:
    """The invariant that lets one ``(pool rank, birth)`` key stand for
    the ``(pool rank, launch, birth)`` order, checked after every
    ``_add_vm`` on live kernels."""

    CASES = [
        (_cluster, dict()),
        (_cluster, dict(hot_spare=False, checkpoint_interval=0.2)),
        (_cluster, dict(use_reuse_policy=True, backfill=True)),
        (_cluster, dict(checkpoint="dp", checkpoint_step=0.05)),
        (_cluster, dict(pools=ARRIVAL_POOLS, allocator="best_fit_price")),
        (_service, dict(provision_latency=0.1, hot_spare_hours=0.05)),
        (_service, dict(checkpoint="dp", checkpoint_step=0.05)),
        (_service, dict(pools=ARRIVAL_POOLS, hot_spare_hours=0.05)),
        (_service, dict(pools=ARRIVAL_POOLS, provision_latency=0.1)),
        (_tenancy, dict(provision_latency=0.1, elastic_vms_per_bag=3)),
        (_tenancy, dict(checkpoint="dp", checkpoint_step=0.05)),
        (_tenancy, dict(pools=ARRIVAL_POOLS, allocator="tenant_affinity",
                        provision_latency=0.1, hot_spare_hours=0.05)),
    ]

    @pytest.mark.parametrize("build, cfg", CASES)
    def test_launch_follows_birth(self, build, cfg):
        kernel = build(JOBS * 3, n=16, **cfg)
        add_vm = kernel._add_vm
        calls = []

        def checked(rr, pool):
            add_vm(rr, pool)
            calls.append(rr.size)
            _alive_order_holds(kernel, rr)

        kernel._add_vm = checked
        kernel.run()
        assert sum(calls) > 16


def _first_of_chain(launch, birth, mask, rank, w):
    """The first ``w`` columns of each row in ``_oldest_chain`` order."""
    order = _oldest_chain(launch, birth, mask, rank)
    sel = np.zeros(mask.shape, dtype=bool)
    for r in range(mask.shape[0]):
        sel[r, order[r, : w[r]]] = True
    return sel


class TestGangSelection:
    @settings(max_examples=200, deadline=None)
    @given(cols=_columns(), data=st.data())
    def test_threshold_takes_the_oldest(self, cols, data):
        launch, birth, mask, rank = cols
        rows = mask.any(axis=1)
        if not rows.any():
            mask[0, 0] = rows[0] = True
        launch, birth, mask = launch[rows], birth[rows], mask[rows]
        rank = None if rank is None else rank[rows]
        w = np.asarray(
            [data.draw(st.integers(1, int(m.sum()))) for m in mask], dtype=np.int64
        )
        got = _lowest(_order_key(birth, mask, rank), w)
        assert np.array_equal(got, _first_of_chain(launch, birth, mask, rank, w))


def _count_refresh_judgments(kernel):
    """Spy on a kernel: inside its refresh loops, count the head
    judgments, scheduling passes and job starts."""
    seen = dict(judged=0, passes=0, starts=0)
    inside = [False]

    def spy(name, key):
        method = getattr(kernel, name)

        def counted(*args):
            if inside[0]:
                seen[key] += 1
            return method(*args)

        setattr(kernel, name, counted)

    spy("_head_state", "judged")
    spy("_schedule_pass", "passes")
    spy("_start_job", "starts")
    refresh = kernel._refresh_loop

    def loop(*args):
        inside[0] = True
        try:
            refresh(*args)
        finally:
            inside[0] = False

    kernel._refresh_loop = loop
    return seen


class TestOneJudgmentPerStall:
    """The cluster's refresh loop acts on the judgment the scheduling
    pass before it made, instead of judging the stuck heads again."""

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(hot_spare=False),
            dict(hot_spare=False, use_reuse_policy=True),
            dict(use_reuse_policy=True, checkpoint_interval=0.2),
            dict(checkpoint="dp", checkpoint_step=0.05, hot_spare=False),
        ],
    )
    def test_each_iteration_judges_once(self, cfg):
        # One replication: a pass judges its head once, plus once more
        # after each job it starts.
        kernel = _cluster(JOBS * 3, n=1, **cfg)
        seen = _count_refresh_judgments(kernel)
        kernel.run()
        assert seen["passes"] > 0  # the queue stalled and was refreshed
        assert seen["judged"] == seen["passes"] + seen["starts"]

    def test_backfill_rejudges_after_moving_vms(self, monkeypatch):
        # A fixed case where the backfill scan starts jobs on VMs the
        # stuck head's judgment held free: refreshing on that stale
        # judgment terminates busy VMs, and the run then breaks the
        # fleet invariant.
        run = lambda backend: run_cluster_replications(  # noqa: E731
            DIST, CASE_JOBS, n_replications=4, seed=0, backend=backend,
            pool_size=4, use_reuse_policy=True, backfill=True,
        )
        event, vec = run("event"), run("vectorized")
        np.testing.assert_allclose(vec.makespan, event.makespan, rtol=0, atol=1e-9)
        assert np.array_equal(vec.n_preemptions, event.n_preemptions)

        def stale_pass(self, rr):
            stuck = self._start_heads(rr)
            if stuck is not None:
                self._backfill_scan(stuck[0])
            return stuck

        monkeypatch.setattr(_ClusterKernel, "_schedule_pass", stale_pass)
        try:
            stale = run("vectorized").makespan
        except RuntimeError as exc:
            stale = str(exc)
        assert not np.array_equal(stale, vec.makespan)


def _names_row(raised, words, row, now):
    msg = str(raised.value)
    assert words in msg
    assert msg.endswith(f"(first: kernel row {row} at now={now!r})")


class TestInvariantErrors:
    """Each fleet/provisioning invariant error names its first failing
    kernel row and that row's clock, forced here on a tiny kernel."""

    def _pooled(self):
        kernel = _service(JOBS, n=3, pools=ARRIVAL_POOLS)
        kernel.now[:] = [0.5, 0.75, 1.25]
        return kernel

    @pytest.mark.parametrize("affinity", [False, True], ids=["static", "rank_rows"])
    def test_boot_pool_headroom(self, affinity):
        kernel = self._pooled()
        kernel.provisioning_pool[1:] = kernel.pool_sizes  # rows 1-2 are full
        rr = np.arange(3)
        rank_rows = np.tile(kernel.rank, (3, 1)) if affinity else None
        with pytest.raises(RuntimeError) as raised:
            kernel._boot_pool(rr, rank_rows)
        _names_row(raised, "no pool headroom; fleet invariant violated", 1, 0.75)

    def test_add_vm_column(self):
        kernel = _cluster(JOBS, n=3)
        kernel.now[:] = [0.5, 0.75, 1.25]
        kernel.alive[2] = True  # row 2 has no empty column
        with pytest.raises(RuntimeError) as raised:
            kernel._add_vm(np.arange(3), np.zeros(3, dtype=np.int64))
        _names_row(raised, "no reusable VM column; fleet invariant violated", 2, 1.25)

    def test_schedule_boots_slot(self):
        kernel = self._pooled()
        kernel.bseq[1] = 0  # row 1 has no free boot slot
        with pytest.raises(RuntimeError) as raised:
            kernel._schedule_boots(np.arange(3), np.ones(3, dtype=np.int64))
        _names_row(
            raised, "no free boot slot; provisioning invariant violated", 1, 0.75
        )
