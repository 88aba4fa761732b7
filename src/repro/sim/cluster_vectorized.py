"""Batched gang-scheduling kernel: N whole-cluster runs in lockstep.

:func:`repro.sim.vectorized.simulate_plan_vectorized` batches *single
jobs*; this module batches the paper's Section 5 scenario end to end — a
bag of gang-scheduled jobs competing for a fixed pool of preemptible
VMs, with FIFO head-of-line queueing, Eq. 8 reuse decisions, hot-spare
substitution of dead nodes, and fixed-interval checkpoint restart.  All
``n_replications`` independent cluster runs advance together over
*queue-event rounds*: each round every still-active replication pops and
processes exactly one pending event (a VM death or a segment
completion) with NumPy masks across the replication axis, instead of
one Python event loop per replication.

The event-driven reference for this kernel is
:func:`repro.sim.backend.run_cluster_replications` with
``backend="event"``, which drives the real
:class:`repro.sim.cluster.ClusterManager` per replication; the
cross-backend cluster equivalence suite pins the two to 1e-9 hours.

Cluster round protocol (shared with the event backend)
------------------------------------------------------
*Randomness.*  Only VM lifetimes consume randomness.  Draw ``k`` of
replication ``i`` is column ``i`` of the ``k``-th ``rng.random(n)`` row
(rows materialised lazily, in order), mapped through ``dist.ppf`` —
the same lazy row table the single-job protocol uses, so a draw is a
function of ``(seed, i, k)`` alone.  Per replication, draws happen in
boot order: the initial pool (pool slots ``0..P-1`` at ``t = 0``), then
every replacement/refresh boot in event order (ties in slot order).

*Event ordering.*  Within a replication, pending events are processed
in ``(time, insertion sequence)`` order — exactly the
:class:`repro.sim.engine.Simulator` heap contract.  The kernel assigns
every scheduled event (a boot's death event, a segment launch's
completion event) a per-replication sequence number in the same order
the event harness schedules them, so simultaneous events (e.g. two
identical jobs finishing in the same instant) resolve identically on
both backends.

*Scheduling.*  Strict FIFO with head-of-line blocking by default (with
``backfill=True``, jobs behind a stuck head may start on suitable VMs
the head cannot use, scanned in queue order — unreserved, exactly the
:class:`~repro.sim.cluster.ClusterManager` flag): a
requeued (preempted) job returns to the queue head.  A job starts when
``width`` *suitable* free VMs exist — all free VMs when the reuse
policy is off, else the free VMs whose Eq. 8 decision
(:meth:`ModelReusePolicy.decide_pairs` on the job's remaining hours) is
REUSE — and takes the oldest suitable ones (launch time, then boot
order).  When the head stalls but ``suitable + unsuitable-free + empty
pool slots >= width``, the cluster *refreshes* one VM at a time — the
oldest unsuitable free VM is terminated and replaced by a fresh boot
(or an empty pool slot boots, when no unsuitable VM remains) — retrying
the queue between refreshes, until the head starts or capacity runs
out.

*Hot-spare substitution.*  With ``hot_spare=True`` a dead VM (busy or
idle) is immediately replaced by a fresh boot, keeping the pool at
``pool_size``; with ``False`` dead VMs leave empty slots that only the
stall-refresh path re-boots on demand.

*Checkpoint restart.*  ``checkpoint_interval`` hours of work between
checkpoint writes (each costing ``checkpoint_cost`` hours, final
segment unchecked), clipped to the attempt's remaining work exactly as
:meth:`repro.sim.runner.JobExecution._clip_segments` does; ``None``
runs each attempt as one unchecked segment.  With ``checkpoint="dp"``
each attempt instead follows the Section 4.3 DP plan for its remaining
work at the gang's oldest VM age, walked in batch by
:class:`repro.sim.checkpoint_vectorized.DPPlanWalker`.  A gang
preemption loses the work past the last durable checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.policies.scheduling import ModelReusePolicy
from repro.sim.placement import PoolSpec, make_allocator, resolve_pools
from repro.sim.vectorized import _LockstepKernel, _RESIDUAL, _SEQ_INF
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["GangJob", "ClusterConfig", "simulate_cluster_vectorized"]


@dataclass(frozen=True)
class GangJob:
    """One bag member: ``work_hours`` of computation on ``width`` gang nodes."""

    work_hours: float
    width: int = 1

    def __post_init__(self) -> None:
        check_positive("work_hours", self.work_hours)
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")


def check_fleet_config(config) -> None:
    """Validation shared by the cluster, service and tenancy configs.

    Covers the pool catalog (coerced to a tuple; incompatible with
    ``checkpoint="dp"``), the allocator name, and the checkpoint mode
    and its parameters.
    """
    if config.pools is not None:
        object.__setattr__(config, "pools", tuple(config.pools))
        if config.checkpoint == "dp":
            raise ValueError(
                "pools are incompatible with checkpoint='dp': the DP "
                "plan table is keyed to a single lifetime law"
            )
    make_allocator(config.allocator)
    if config.checkpoint not in ("interval", "dp"):
        raise ValueError(
            f"checkpoint must be 'interval' or 'dp', got {config.checkpoint!r}"
        )
    if config.checkpoint_interval is not None:
        if config.checkpoint == "dp":
            raise ValueError(
                "checkpoint='dp' plans per attempt; leave "
                "checkpoint_interval unset"
            )
        check_positive("checkpoint_interval", config.checkpoint_interval)
    check_nonnegative("checkpoint_cost", config.checkpoint_cost)
    check_positive("checkpoint_step", config.checkpoint_step)


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one batched cluster run (see the module docstring).

    Attributes
    ----------
    pool_size:
        Number of pool slots (the service's ``max_vms``); every job's
        width must fit.
    use_reuse_policy:
        Filter free VMs through the Eq. 8 decision (True) or accept any
        free VM, memoryless-style (False).
    reuse_criterion:
        :class:`ModelReusePolicy` criterion; the batch service uses
        ``"conditional"``.
    hot_spare:
        Replace dead VMs immediately (True) or let the pool shrink and
        re-boot slots on demand at stall time (False).
    backfill:
        Unreserved backfill (the :class:`ClusterManager` flag): jobs
        behind a stuck head may start on suitable VMs the head cannot
        use, scanned in queue order.  No start-time reservation for the
        head, exactly like the event path.  Default is strict FIFO.
    checkpoint:
        ``"interval"`` (default) — fixed-interval checkpointing per
        ``checkpoint_interval``; ``"dp"`` — per-attempt Section 4.3 DP
        plans (the controller's ``use_checkpointing`` mode), which
        requires ``checkpoint_interval`` to stay ``None``.
    checkpoint_interval:
        Work hours between checkpoint writes; ``None`` disables
        checkpointing (in ``"interval"`` mode).
    checkpoint_cost:
        Hours per checkpoint write.
    checkpoint_step:
        DP work-step granularity in hours (``"dp"`` mode only).
    pools:
        Optional heterogeneous pool catalog
        (:class:`~repro.sim.placement.PoolSpec` sequence); sizes must
        sum to ``pool_size``.  ``None`` keeps the historical single
        implicit pool under the sweep's distribution.  The cluster
        kernel boots instantaneously, so per-pool ``boot_latency`` is
        ignored here.  Incompatible with ``checkpoint="dp"`` (the DP
        table is keyed to a single lifetime law).
    allocator:
        Pool-choice plugin name (see
        :data:`repro.sim.placement.ALLOCATORS`): where fresh boots
        land, which free VM a gang grabs first, and which unsuitable VM
        a stalled queue evicts.  With a single pool every allocator
        reduces to the historical ``(launch, birth)`` order.
    """

    pool_size: int = 8
    use_reuse_policy: bool = True
    reuse_criterion: str = "conditional"
    hot_spare: bool = True
    backfill: bool = False
    checkpoint: str = "interval"
    checkpoint_interval: float | None = None
    checkpoint_cost: float = 1.0 / 60.0
    checkpoint_step: float = 0.1
    pools: tuple[PoolSpec, ...] | None = None
    allocator: str = "first_fit"

    def __post_init__(self) -> None:
        check_positive("pool_size", self.pool_size)
        check_fleet_config(self)


class _ClusterKernel(_LockstepKernel):
    """Array state and phase operations of the lockstep cluster sweep."""

    _sweep_name = "cluster"

    def __init__(
        self,
        dist: LifetimeDistribution,
        jobs: Sequence[GangJob],
        config: ClusterConfig,
        n_replications: int,
        rng: np.random.Generator,
        max_events: int,
        obs=None,
    ):
        self.dist = dist
        self.cfg = config
        self.obs = obs
        self.n = int(n_replications)
        self.max_events = int(max_events)
        # The same lazy row table the event paths use, so both backends
        # consume the generator identically by construction.
        from repro.sim.backend import _RoundUniforms
        from repro.sim.checkpoint_vectorized import walker_from_config

        # Pool catalog + allocator ranking (shared with the event
        # oracle).  Cluster boots are instantaneous, so per-pool boot
        # latency resolves to 0 here.
        self.pools = resolve_pools(
            config.pools, dist=dist, n_slots=config.pool_size
        )
        self.nP = len(self.pools)
        rank = make_allocator(config.allocator).rank_for(self.pools)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.rank_of = np.empty(self.nP, dtype=np.int64)
        self.rank_of[self.rank] = np.arange(self.nP)
        self.pool_sizes = np.asarray([p.size for p in self.pools], dtype=np.int64)
        self.policies = (
            [
                ModelReusePolicy(p.dist, criterion=config.reuse_criterion)
                for p in self.pools
            ]
            if config.use_reuse_policy
            else None
        )
        self.policy = self.policies[0] if self.policies is not None else None
        self.table = _RoundUniforms(rng, self.n)

        n, P = self.n, config.pool_size
        S = P + 1  # one spare column for the dead-busy-VM transient
        J = len(jobs)
        self.P, self.S, self.J = P, S, J
        self.width = np.asarray([j.width for j in jobs], dtype=np.int64)
        self.work = np.asarray([j.work_hours for j in jobs], dtype=float)
        self.dp = walker_from_config(dist, config, n, self.work)

        self.now = np.zeros(n)
        self.evseq = np.zeros(n, dtype=np.int64)
        self.draw_k = np.zeros(n, dtype=np.int64)
        self.births = np.zeros(n, dtype=np.int64)
        # Fused event table: death/dseq and ctime/cseq are channel
        # views (see EventArena; dead columns hold death == inf).
        self._init_arena(n)
        # VM columns (storage slots; ordering is (pool rank, launch,
        # birth) — (launch, birth) alone with a single pool).
        self.alive = np.zeros((n, S), dtype=bool)
        self.launch = np.zeros((n, S))
        self.birth = np.full((n, S), -1, dtype=np.int64)
        self.vm_job = np.full((n, S), -1, dtype=np.int64)
        self.vm_pool = np.full((n, S), -1, dtype=np.int64)
        # Job state.
        self.qkey = np.broadcast_to(np.arange(J, dtype=float), (n, J)).copy()
        self.head_key = np.full(n, -1.0)  # next requeue-at-head key
        self.progress = np.zeros((n, J))
        self.sstart = np.zeros((n, J))
        self.seg_take = np.zeros((n, J))
        self.seg_after = np.zeros((n, J))
        # Outcomes.
        self.makespan = np.zeros(n)
        self.wasted = np.zeros(n)
        self.done_count = np.zeros(n, dtype=np.int64)
        self.failures = np.zeros(n, dtype=np.int64)
        self.preemptions = np.zeros(n, dtype=np.int64)
        self.vm_hours = np.zeros(n)
        self.pool_hours = np.zeros((n, self.nP))
        self.events = np.zeros(n, dtype=np.int64)

    def _arena_channels(self) -> list[tuple[str, int]]:
        return [("death", self.S), ("comp", self.J)]

    # -- pool helpers ----------------------------------------------------
    def _boot_pool(self, rr: np.ndarray) -> np.ndarray:
        """First ranked pool with headroom, per row (the allocator rule).

        The choice is a pure function of pre-draw state, so both
        backends agree on it before the lifetime uniform is consumed.
        """
        if self.nP == 1:
            return np.zeros(rr.size, dtype=np.int64)
        occ = np.zeros((rr.size, self.nP), dtype=np.int64)
        vp = self.vm_pool[rr]
        al = self.alive[rr]
        for p in range(self.nP):
            occ[:, p] = (al & (vp == p)).sum(axis=1)
        headroom = (self.pool_sizes[None, :] - occ)[:, self.rank]
        if not (headroom > 0).any(axis=1).all():
            raise RuntimeError("no pool headroom; pool invariant violated")
        return self.rank[np.argmax(headroom > 0, axis=1)]

    def _pool_ppf(self, u: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """Map boot uniforms through each boot's pool's inverse CDF."""
        if self.nP == 1:
            return np.asarray(self.pools[0].dist.ppf(u), dtype=float)
        life = np.empty(u.shape)
        for p, spec in enumerate(self.pools):
            m = pool == p
            if m.any():
                life[m] = np.asarray(spec.dist.ppf(u[m]), dtype=float)
        return life

    def _rank_cols(self, rr: np.ndarray) -> np.ndarray | None:
        """Allocator rank of each VM column (``None`` with one pool)."""
        if self.nP == 1:
            return None
        vp = self.vm_pool[rr]
        return np.where(
            vp >= 0, self.rank_of[np.clip(vp, 0, None)], np.iinfo(np.int64).max
        )

    # -- primitive operations (all take a row-index array) --------------
    def _boot(self, rr: np.ndarray) -> None:
        """Boot one fresh VM per row: draw a lifetime, fill an empty column."""
        pool = self._boot_pool(rr)
        u = self.table.gather(rr, self.draw_k[rr])
        self.draw_k[rr] += 1
        life = self._pool_ppf(u, pool)
        empty = ~self.alive[rr] & (self.vm_job[rr] == -1)
        if not empty.any(axis=1).all():
            raise RuntimeError("no reusable VM column; pool invariant violated")
        col = np.argmax(empty, axis=1)  # first reusable column
        self.launch[rr, col] = self.now[rr]
        self.death[rr, col] = self.now[rr] + life
        self.dseq[rr, col] = self.evseq[rr]
        self.evseq[rr] += 1
        self.birth[rr, col] = self.births[rr]
        self.births[rr] += 1
        self.alive[rr, col] = True
        self.vm_job[rr, col] = -1
        self.vm_pool[rr, col] = pool

    def _head_state(self, rr: np.ndarray):
        """Queue head + pool suitability for each row; drops queue-less rows.

        Returns ``(rr, head, w, suit, free)`` restricted to rows with a
        non-empty queue.
        """
        qk = self.qkey[rr]
        head = np.argmin(qk, axis=1)
        has = qk[np.arange(rr.size), head] < np.inf
        rr, head = rr[has], head[has]
        if not rr.size:
            return rr, head, None, None, None
        w = self.width[head]
        free = self.alive[rr] & (self.vm_job[rr] == -1)
        if self.policies is not None:
            T = np.maximum(
                np.maximum(self.work[head] - self.progress[rr, head], 0.0), 1e-6
            )
            ages = np.maximum(self.now[rr][:, None] - self.launch[rr], 0.0)
            if self.nP == 1:
                suit = free & self.policy.decide_pairs(T[:, None], ages)
            else:
                # Per-pool Eq. 8: each free VM is judged under its own
                # pool's lifetime law.
                suit = np.zeros_like(free)
                vp = self.vm_pool[rr]
                for p, pol in enumerate(self.policies):
                    m = free & (vp == p)
                    if m.any():
                        suit |= m & pol.decide_pairs(T[:, None], ages)
        else:
            suit = free
        return rr, head, w, suit, free

    def _start_job(self, rr: np.ndarray, jj: np.ndarray, suit: np.ndarray) -> None:
        """Start job ``jj`` on its ``width`` oldest suitable VMs per row."""
        w = self.width[jj]
        order = self._oldest(suit, rr, self._rank_cols(rr))
        pos = np.arange(self.S)[None, :] < w[:, None]
        sel = np.zeros((rr.size, self.S), dtype=bool)
        np.put_along_axis(sel, order, pos, axis=1)
        self.vm_job[rr] = np.where(sel, jj[:, None], self.vm_job[rr])
        self.qkey[rr, jj] = np.inf
        left = np.maximum(self.work[jj] - self.progress[rr, jj], 0.0)
        if self.dp is not None:
            # Re-plan the attempt at the gang's oldest selected VM age
            # (the ClusterManager._start planner argument).
            ages = np.where(
                sel, self.now[rr][:, None] - self.launch[rr], -np.inf
            ).max(axis=1)
            self.dp.begin(rr, jj, left, np.maximum(ages, 0.0))
        self._launch_segment(rr, jj, left)

    def _attempt_starts(self, rr: np.ndarray) -> None:
        """One scheduling pass: FIFO head starts, then optional backfill."""
        stuck: list[np.ndarray] = []
        while rr.size:
            rr, head, w, suit, _ = self._head_state(rr)
            if not rr.size:
                break
            ok = suit.sum(axis=1) >= w
            if self.cfg.backfill:
                stuck.append(rr[~ok])
            rr, head, suit = rr[ok], head[ok], suit[ok]
            if not rr.size:
                break
            self._start_job(rr, head, suit)
            # Loop: the next queue head may start in the same instant.
        if self.cfg.backfill and stuck:
            blocked = np.concatenate(stuck)
            if blocked.size:
                self._backfill_scan(blocked)

    def _backfill_scan(self, rr: np.ndarray) -> None:
        """Start jobs behind a stuck head, in queue order (unreserved).

        Mirrors the ``ClusterManager.try_schedule`` scan past the stuck
        head: each iteration starts, per row, the lowest-queue-key job
        whose per-job Eq. 8 suitability count covers its width.  Picking
        the minimum startable key repeatedly is equivalent to the
        event path's single forward scan because started jobs only
        consume VMs — a job unstartable when the scan would have reached
        it stays unstartable afterwards.  The stuck head is excluded by
        the same width filter that stalled it.
        """
        while rr.size:
            free = self.alive[rr] & (self.vm_job[rr] == -1)
            queued = np.isfinite(self.qkey[rr])
            if self.policies is not None:
                T = np.maximum(
                    np.maximum(self.work[None, :] - self.progress[rr], 0.0), 1e-6
                )
                ages = np.maximum(self.now[rr][:, None] - self.launch[rr], 0.0)
                if self.nP == 1:
                    suit3 = free[:, None, :] & self.policy.decide_pairs(
                        T[:, :, None], ages[:, None, :]
                    )
                else:
                    suit3 = np.zeros((rr.size, self.J, self.S), dtype=bool)
                    vp = self.vm_pool[rr]
                    for p, pol in enumerate(self.policies):
                        m = free & (vp == p)
                        if m.any():
                            suit3 |= m[:, None, :] & pol.decide_pairs(
                                T[:, :, None], ages[:, None, :]
                            )
            else:
                suit3 = np.broadcast_to(
                    free[:, None, :], (rr.size, self.J, self.S)
                ).copy()
            startable = queued & (suit3.sum(axis=2) >= self.width[None, :])
            has = startable.any(axis=1)
            rr, startable, suit3 = rr[has], startable[has], suit3[has]
            if not rr.size:
                return
            jkey = np.where(startable, self.qkey[rr], np.inf)
            jc = np.argmin(jkey, axis=1)
            self._start_job(rr, jc, suit3[np.arange(rr.size), jc])

    def _refresh_loop(self, rr: np.ndarray) -> None:
        """Stall handling: refresh/boot one VM at a time until unstuck."""
        while rr.size:
            rr, head, w, suit, free = self._head_state(rr)
            if not rr.size:
                return
            n_suit = suit.sum(axis=1)
            unsuitable = free & ~suit
            n_unsuit = unsuitable.sum(axis=1)
            n_empty = self.P - self.alive[rr].sum(axis=1)
            need = (n_suit < w) & (n_suit + n_unsuit + n_empty >= w)
            rr, unsuitable, n_unsuit = rr[need], unsuitable[need], n_unsuit[need]
            if not rr.size:
                return
            # Terminate the oldest unsuitable free VM where one exists...
            has_u = n_unsuit > 0
            ru = rr[has_u]
            if ru.size:
                if self.obs is not None:
                    self.obs.inc("stall.terminations", int(ru.size))
                col = self._oldest(unsuitable[has_u], ru, self._rank_cols(ru))[:, 0]
                self.vm_hours[ru] += self.now[ru] - self.launch[ru, col]
                self.pool_hours[ru, self.vm_pool[ru, col]] += (
                    self.now[ru] - self.launch[ru, col]
                )
                self.alive[ru, col] = False
                self.death[ru, col] = np.inf
                self.dseq[ru, col] = _SEQ_INF
                self._boot(ru)
            # ...else re-boot an empty pool slot.
            rb = rr[~has_u]
            if rb.size:
                self._boot(rb)
            self._attempt_starts(rr)

    # -- event rounds ----------------------------------------------------
    def _process_deaths(self, rr: np.ndarray, col: np.ndarray) -> None:
        self.alive[rr, col] = False
        self.dseq[rr, col] = _SEQ_INF
        self.vm_hours[rr] += self.death[rr, col] - self.launch[rr, col]
        self.pool_hours[rr, self.vm_pool[rr, col]] += (
            self.death[rr, col] - self.launch[rr, col]
        )
        self.death[rr, col] = np.inf
        self.preemptions[rr] += 1
        jd = self.vm_job[rr, col]
        if self.cfg.hot_spare:
            # A fresh replacement boots immediately (the dead busy VM's
            # column stays held until the abort below releases it), then
            # the queue gets a crack at the replacement — exactly the
            # harness's add_node -> try_schedule ordering.
            self._boot(rr)
            self._attempt_starts(rr)
        busy = jd >= 0
        rb, jb, cb = rr[busy], jd[busy], col[busy]
        if rb.size:
            # Gang abort: waste the current segment, requeue at the
            # head, release the surviving gang members.
            self.wasted[rb] += self.now[rb] - self.sstart[rb, jb]
            self.failures[rb] += 1
            self.ctime[rb, jb] = np.inf
            self.cseq[rb, jb] = _SEQ_INF
            self.qkey[rb, jb] = self.head_key[rb]
            self.head_key[rb] -= 1.0
            gang = self.vm_job[rb] == jb[:, None]
            self.vm_job[rb] = np.where(gang, -1, self.vm_job[rb])
            self._attempt_starts(rb)
        self._refresh_loop(rr if self.cfg.hot_spare else rb)

    def _process_completions(self, rr: np.ndarray, jj: np.ndarray) -> None:
        take = self.seg_take[rr, jj]
        self.progress[rr, jj] = np.minimum(self.progress[rr, jj] + take, self.work[jj])
        after = self.seg_after[rr, jj]
        more = after > _RESIDUAL
        rc, jc = rr[more], jj[more]
        if rc.size:  # checkpoint written; next segment in the same instant
            self._launch_segment(rc, jc, after[more])
        rf, jf = rr[~more], jj[~more]
        if rf.size:
            self.ctime[rf, jf] = np.inf
            self.cseq[rf, jf] = _SEQ_INF
            gang = self.vm_job[rf] == jf[:, None]
            self.vm_job[rf] = np.where(gang, -1, self.vm_job[rf])
            self.done_count[rf] += 1
            finished = self.done_count[rf] == self.J
            self.makespan[rf[finished]] = self.now[rf[finished]]
            still = rf[~finished]
            if still.size:
                self._attempt_starts(still)
                self._refresh_loop(still)

    def run(self) -> int:
        n_rounds = 0
        # t = 0: boot the pool (draws in slot order), submit the bag FIFO.
        init = np.arange(self.n)
        if init.size:
            for _ in range(self.P):
                self._boot(init)
            self._attempt_starts(init)
            self._refresh_loop(init)
        active = np.flatnonzero(self.done_count < self.J) if self.n else init
        while active.size:
            _, pick = self._select_events(active)
            is_death = pick < self.S
            rd = active[is_death]
            rc = active[~is_death]
            if self.obs is not None:
                self.obs.inc("events.death", int(rd.size))
                self.obs.inc("events.comp", int(rc.size))
                self._sample_obs(active)
            if rd.size:
                self._process_deaths(rd, pick[is_death])
            if rc.size:
                self._process_completions(rc, pick[~is_death] - self.S)
            active = active[self.done_count[active] < self.J]
            n_rounds += 1
        # Bill VMs still alive at each replication's makespan.
        if self.n:
            live_hours = np.where(
                self.alive, self.makespan[:, None] - self.launch, 0.0
            )
            self.vm_hours += live_hours.sum(axis=1)
            for p in range(self.nP):
                self.pool_hours[:, p] += np.where(
                    self.vm_pool == p, live_hours, 0.0
                ).sum(axis=1)
        return n_rounds


def simulate_cluster_vectorized(
    dist: LifetimeDistribution,
    jobs: Sequence[GangJob],
    config: ClusterConfig,
    *,
    n_replications: int,
    rng: np.random.Generator,
    max_events: int = 1_000_000,
    obs=None,
) -> dict[str, np.ndarray | int]:
    """Run ``n_replications`` lockstep cluster sweeps (see module docstring).

    Argument validation lives in
    :func:`repro.sim.backend.run_cluster_replications`; this kernel
    assumes a validated ``config`` and job widths within the pool.
    Returns the raw per-replication arrays keyed by outcome name plus
    the round count.  ``obs`` is an optional
    :class:`repro.obs.MetricsRegistry`; counting sites are draw-neutral
    and gated so ``obs=None`` adds zero work.
    """
    kernel = _ClusterKernel(dist, jobs, config, n_replications, rng, max_events, obs=obs)
    n_rounds = kernel.run()
    if obs is not None:
        obs.gauge("rng.rows").set(kernel.table._filled)
    return {
        "makespan": kernel.makespan,
        "wasted_hours": kernel.wasted,
        "completed_jobs": kernel.done_count,
        "n_job_failures": kernel.failures,
        "n_preemptions": kernel.preemptions,
        "vm_hours": kernel.vm_hours,
        "pool_vm_hours": kernel.pool_hours,
        "n_events": kernel.events,
        "n_draws": kernel.draw_k,
        "n_rounds": n_rounds,
    }
