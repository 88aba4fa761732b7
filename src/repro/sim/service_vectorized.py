"""Batched end-to-end service kernel: N full controller runs in lockstep.

:mod:`repro.sim.cluster_vectorized` batches a *pre-booted* cluster;
this module batches the paper's complete Section 5 **service** — the
behaviour of :class:`repro.service.controller.BatchComputingService`
driving a :class:`~repro.sim.cluster.ClusterManager` on a simulated
cloud — so Fig. 9-style sweeps (cost-reduction factor, master billing,
provisioning latency) run at 10k+ replications.  The event-driven
reference is :func:`repro.sim.backend.run_service_replications` with
``backend="event"``, which instantiates the *real* controller per
replication; the cross-backend service equivalence suite pins the two
to 1e-9 hours with exact event/draw/preemption counts.

What the kernel reproduces, event for event
-------------------------------------------
* **Lazy deficit provisioning.**  The service starts with zero workers.
  Whenever the queue head stalls, the controller launches
  ``min(width - suitable - provisioning, max_vms - alive -
  provisioning)`` fresh workers, each joining the free pool
  ``provision_latency`` hours later (a scheduled boot event that draws
  the VM's lifetime at fire time).
* **Eq. 8 filtering on the bag estimate.**  Node selection and stall
  handling use the *bag-level runtime estimate*
  (:meth:`BatchComputingService._estimate_length`): the trailing
  sequential-sum mean of the last ``estimate_window`` completed
  members' declared hours, starting from the first job's declaration.
  Both backends compute the identical float sequence
  (:meth:`repro.service.bag.BagOfJobs.estimated_runtime`).
* **Terminate-all-unsuitable stalls.**  When the head stalls with the
  reuse policy on, every Eq. 8-rejected idle VM is terminated at once
  (the controller's ``_queue_stalled``), *then* the deficit is
  provisioned — unlike the cluster kernel's one-at-a-time refresh.
* **Idle retention (hot spare) timers.**  A VM released with an empty
  queue schedules a reap event ``hot_spare_hours`` later; the timer is
  cancelled when the VM starts work, dies, or is terminated, and the
  reap no-ops when the queue is non-empty at fire time.
* **Master billing.**  A non-preemptible master VM (no lifetime draw)
  is billed for the whole makespan when ``run_master`` is set.
* **Queue discipline.**  Strict FIFO with head-of-line blocking, or the
  controller's opt-in unreserved ``backfill``; preempted jobs requeue
  at the head; gang semantics as in the cluster kernel.
* **Checkpointing, fixed-interval or DP.**  ``checkpoint_interval``
  mirrors ``ServiceConfig.checkpoint_interval``; ``checkpoint="dp"``
  mirrors the controller's ``use_checkpointing`` mode — per-attempt
  Section 4.3 DP plans at the gang's oldest VM age, walked in batch by
  :class:`repro.sim.checkpoint_vectorized.DPPlanWalker`.

Service round protocol
----------------------
Randomness and event ordering follow the cluster round protocol
(:mod:`repro.sim.cluster_vectorized`): only worker-VM lifetimes consume
uniforms (one draw per boot *event*, in fire order; the master draws
nothing), and all pending events — VM deaths, segment completions,
worker boots, idle reaps — carry per-replication ``(time, insertion
sequence)`` keys assigned in exactly the order the event harness calls
``Simulator.schedule``, so simultaneous events resolve identically on
both backends and processed-event counts agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.policies.scheduling import ModelReusePolicy
from repro.sim.cluster_vectorized import check_fleet_config
from repro.sim.placement import PoolSpec, make_allocator, resolve_pools
from repro.sim.vectorized import _LockstepKernel, _RESIDUAL, _SEQ_INF
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "ProvisioningLivelockError",
    "ServiceBatchConfig",
    "simulate_service_vectorized",
]


class ProvisioningLivelockError(RuntimeError):
    """The service is churning terminate/provision cycles without progress.

    Raised — by the live :class:`~repro.service.controller.BatchComputingService`
    and by the batched service/tenancy kernels alike — when
    ``livelock_threshold`` consecutive queue-stall rounds each terminated
    policy-rejected idle workers (and provisioned replacements) without
    any job starting or completing in between.  The historical trigger —
    ``provision_latency > 0`` with the reuse policy on under lifetime
    laws whose conditional Eq. 8 criterion rejects *every* age (uniform,
    exponential — no infant-mortality window), so each staggered boot
    was rejected on evaluation, terminated, and replaced, forever — is
    resolved by the fresh-boot grace window: a worker no older than its
    pool's boot latency is always accepted, since terminating it buys a
    replacement that arrives no younger.  The guardrail remains as a
    backstop against configurations that still manage to churn.
    """




@dataclass(frozen=True)
class ServiceBatchConfig:
    """Knobs of one batched service run (see the module docstring).

    The fields mirror the policy content of
    :class:`repro.service.controller.ServiceConfig` — the layer-clean
    subset the kernel needs (no VM type / zone: prices are applied to
    the outcome arrays by the caller).
    :func:`repro.sim.backend.run_service_replications` also accepts a
    ``ServiceConfig`` directly and converts it.

    Attributes
    ----------
    max_vms:
        Worker-fleet cap; every job's width must fit.
    use_reuse_policy:
        Eq. 8 filtering (conditional criterion, like the controller) on
        node selection and stall refreshes; False = memoryless.
    hot_spare_hours:
        Idle retention window before a spare worker is reaped.
    provision_latency:
        Boot delay between launching a worker and it joining the pool.
    run_master:
        Bill a non-preemptible master for the makespan.
    backfill:
        Unreserved backfill past a stuck queue head (the
        ``ClusterManager`` flag); default strict FIFO.
    checkpoint:
        ``"interval"`` (default) — fixed-interval checkpointing per
        ``checkpoint_interval``; ``"dp"`` — per-attempt Section 4.3 DP
        plans (the controller's ``use_checkpointing`` mode), which
        requires ``checkpoint_interval`` to stay ``None``.
    checkpoint_interval:
        Fixed-interval checkpointing (hours of work per checkpoint);
        ``None`` runs each attempt as one unchecked segment.
    checkpoint_cost:
        Hours per checkpoint write.
    checkpoint_step:
        DP work-step granularity in hours (``"dp"`` mode only).
    estimate_window:
        Trailing-completion window of the bag runtime estimate
        (:class:`repro.service.bag.BagOfJobs` uses 16).
    max_attempts_per_job:
        Mirror of the controller's safety valve: a job aborting with
        this many attempts raises.
    livelock_threshold:
        Mirror of the controller's terminate/provision churn guardrail:
        this many consecutive stall rounds that terminated
        policy-rejected workers, with no job start or completion in
        between, raise :class:`ProvisioningLivelockError` on both
        backends.  Since the fresh-boot grace window (a worker no older
        than its pool's boot latency is never terminated as
        policy-rejected) resolved the documented churn pathology, the
        guardrail is a backstop, not the expected exit.
    pools:
        Optional heterogeneous pool catalog
        (:class:`~repro.sim.placement.PoolSpec` sequence); sizes must
        sum to ``max_vms``, per-pool ``boot_latency`` defaults to
        ``provision_latency``.  ``None`` keeps the historical single
        implicit pool.  Incompatible with ``checkpoint="dp"``.
    allocator:
        Pool-choice plugin name (see
        :data:`repro.sim.placement.ALLOCATORS`): where deficit boots
        land, which free VM a gang grabs first.  Single pool: all
        allocators reduce to the historical ``(launch, birth)`` order.
    """

    max_vms: int = 8
    use_reuse_policy: bool = True
    hot_spare_hours: float = 1.0
    provision_latency: float = 0.0
    run_master: bool = True
    backfill: bool = False
    checkpoint: str = "interval"
    checkpoint_interval: float | None = None
    checkpoint_cost: float = 1.0 / 60.0
    checkpoint_step: float = 0.1
    estimate_window: int = 16
    max_attempts_per_job: int = 1000
    livelock_threshold: int = 500
    pools: tuple[PoolSpec, ...] | None = None
    allocator: str = "first_fit"

    def __post_init__(self) -> None:
        check_positive("max_vms", self.max_vms)
        check_fleet_config(self)
        check_positive("hot_spare_hours", self.hot_spare_hours)
        check_nonnegative("provision_latency", self.provision_latency)
        check_positive("estimate_window", self.estimate_window)
        check_positive("max_attempts_per_job", self.max_attempts_per_job)
        check_positive("livelock_threshold", self.livelock_threshold)

    @classmethod
    def from_service_config(
        cls, config, *, checkpoint_interval: float | None = None
    ) -> "ServiceBatchConfig":
        """Build from a service-layer ``ServiceConfig`` (duck-typed, so
        the sim layer never imports the service layer).

        The single mapping site for every entry point that accepts a
        ``ServiceConfig``.  ``checkpoint_interval`` overrides the
        config's own; DP checkpointing (``use_checkpointing`` with no
        fixed interval resolved) maps onto ``checkpoint="dp"`` — the
        batched DP plan walker, equivalence-pinned against the
        controller's per-attempt planner.
        """
        interval = (
            checkpoint_interval
            if checkpoint_interval is not None
            else config.checkpoint_interval
        )
        dp = config.use_checkpointing and interval is None
        return cls(
            max_vms=config.max_vms,
            use_reuse_policy=config.use_reuse_policy,
            hot_spare_hours=config.hot_spare_hours,
            provision_latency=config.provision_latency,
            run_master=config.run_master,
            backfill=config.backfill,
            checkpoint="dp" if dp else "interval",
            checkpoint_interval=interval,
            checkpoint_cost=config.checkpoint_cost,
            checkpoint_step=config.checkpoint_step,
            max_attempts_per_job=config.max_attempts_per_job,
            livelock_threshold=config.livelock_threshold,
            pools=getattr(config, "pools", None),
            allocator=getattr(config, "allocator", "first_fit"),
        )


class _ServiceKernel(_LockstepKernel):
    """Array state and phase operations of the lockstep service sweep."""

    _sweep_name = "service"

    def _arena_channels(self) -> list[tuple[str, int]]:
        return [
            ("death", self.S),
            ("comp", self.J),
            ("boot", self.B),
            ("reap", self.S),
        ]

    def __init__(
        self,
        dist: LifetimeDistribution,
        jobs,
        config: ServiceBatchConfig,
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
        from repro.sim.backend import _RoundUniforms
        from repro.sim.checkpoint_vectorized import walker_from_config

        # Pool catalog + allocator ranking (shared with the event
        # oracle); per-pool boot latency defaults to provision_latency.
        self.pools = resolve_pools(
            config.pools,
            dist=dist,
            n_slots=config.max_vms,
            provision_latency=config.provision_latency,
        )
        self.nP = len(self.pools)
        rank = make_allocator(config.allocator).rank_for(self.pools)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.rank_of = np.empty(self.nP, dtype=np.int64)
        self.rank_of[self.rank] = np.arange(self.nP)
        self.pool_sizes = np.asarray([p.size for p in self.pools], dtype=np.int64)
        self.latency = np.asarray([p.boot_latency for p in self.pools])
        # The controller always uses the survival-conditioned criterion
        # (one policy per pool: each worker is judged under its own law).
        self.policies = (
            [
                ModelReusePolicy(p.dist, criterion="conditional")
                for p in self.pools
            ]
            if config.use_reuse_policy
            else None
        )
        self.policy = self.policies[0] if self.policies is not None else None
        self.table = _RoundUniforms(rng, self.n)

        n = self.n
        S = B = config.max_vms  # worker columns / pending-boot slots
        J = len(jobs)
        self.S, self.B, self.J = S, B, J
        self.width = np.asarray([j.width for j in jobs], dtype=np.int64)
        self.work = np.asarray([j.work_hours for j in jobs], dtype=float)
        self.dp = walker_from_config(dist, config, n, self.work)

        self.now = np.zeros(n)
        self.evseq = np.zeros(n, dtype=np.int64)
        self.draw_k = np.zeros(n, dtype=np.int64)
        self.births = np.zeros(n, dtype=np.int64)
        # Fused event table: deaths, completions, boots, and reap
        # timers are channel views (see EventArena; dead columns hold
        # death == inf).  The tenancy subclass swaps the completion
        # channel for its compact running slots.
        self._init_arena(n)
        # Worker-VM columns (ordering is (pool rank, launch, birth) —
        # (launch, birth) alone with a single pool).
        self.alive = np.zeros((n, S), dtype=bool)
        self.launch = np.zeros((n, S))
        self.birth = np.full((n, S), -1, dtype=np.int64)
        self.vm_job = np.full((n, S), -1, dtype=np.int64)
        self.vm_pool = np.full((n, S), -1, dtype=np.int64)
        self.provisioning = np.zeros(n, dtype=np.int64)
        self.boot_pool = np.full((n, B), -1, dtype=np.int64)
        self.provisioning_pool = np.zeros((n, self.nP), dtype=np.int64)
        # Job state.
        self.qkey = np.broadcast_to(np.arange(J, dtype=float), (n, J)).copy()
        self.head_key = np.full(n, -1.0)  # next requeue-at-head key
        self.progress = np.zeros((n, J))
        self.sstart = np.zeros((n, J))
        self.seg_take = np.zeros((n, J))
        self.seg_after = np.zeros((n, J))
        self.attempts = np.zeros((n, J), dtype=np.int64)
        # Livelock guardrail: consecutive stall rounds that terminated
        # rejected workers with no job start/completion in between.
        self.stall_strikes = np.zeros(n, dtype=np.int64)
        # Bag runtime estimate (sequential-sum trailing mean).
        W = config.estimate_window
        self.est = np.full(n, self.work[0] if J else 0.0)
        self.buf = np.zeros((n, W))
        self.buf_pos = np.zeros(n, dtype=np.int64)
        self.buf_len = np.zeros(n, dtype=np.int64)
        # Outcomes.
        self.makespan = np.zeros(n)
        self.wasted = np.zeros(n)
        self.done_count = np.zeros(n, dtype=np.int64)
        self.failures = np.zeros(n, dtype=np.int64)
        self.preemptions = np.zeros(n, dtype=np.int64)
        self.vm_hours = np.zeros(n)
        self.pool_hours = np.zeros((n, self.nP))
        self.master_hours = np.zeros(n)
        self.events = np.zeros(n, dtype=np.int64)

    # -- pool helpers ----------------------------------------------------
    def _boot_pool(self, rr: np.ndarray, rank_rows: np.ndarray | None = None) -> np.ndarray:
        """First ranked pool with headroom (alive + in-flight boots count).

        ``rank_rows`` — optional per-row ``(R, nP)`` preference order
        (the tenancy kernel's tenant affinity); ``None`` uses the
        allocator's static ranking.  Pure function of pre-draw state.
        """
        if self.nP == 1:
            return np.zeros(rr.size, dtype=np.int64)
        occ = self.provisioning_pool[rr].copy()
        vp = self.vm_pool[rr]
        al = self.alive[rr]
        for p in range(self.nP):
            occ[:, p] += (al & (vp == p)).sum(axis=1)
        headroom = self.pool_sizes[None, :] - occ
        if rank_rows is None:
            ranked = headroom[:, self.rank]
            if not (ranked > 0).any(axis=1).all():
                raise RuntimeError("no pool headroom; fleet invariant violated")
            return self.rank[np.argmax(ranked > 0, axis=1)]
        ranked = np.take_along_axis(headroom, rank_rows, axis=1)
        if not (ranked > 0).any(axis=1).all():
            raise RuntimeError("no pool headroom; fleet invariant violated")
        first = np.argmax(ranked > 0, axis=1)
        return rank_rows[np.arange(rr.size), first]

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

    def _rank_cols(
        self, rr: np.ndarray, jj: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Allocator rank of each VM column (``None`` with one pool).

        ``jj`` is the job being placed; the base kernel's ranking is
        job-independent, the tenancy kernel refines it per tenant.
        """
        if self.nP == 1:
            return None
        vp = self.vm_pool[rr]
        return np.where(
            vp >= 0, self.rank_of[np.clip(vp, 0, None)], np.iinfo(np.int64).max
        )

    def _decide(self, rr: np.ndarray, T: np.ndarray, ages: np.ndarray) -> np.ndarray:
        """Per-pool Eq. 8 verdicts plus the fresh-boot grace window.

        A worker no older than its pool's boot latency is always
        accepted: terminating it can only buy a replacement that
        arrives *no younger* than the evicted worker is now, so the
        conditional criterion rejecting every achievable age (uniform /
        exponential laws) no longer churns terminate/provision cycles —
        the documented livelock pathology.  With zero latency the
        window adds nothing (age-0 workers are always REUSE), and under
        bathtub laws the criterion already accepts infant ages, so
        existing single-pool outcomes are unchanged.
        """
        if self.nP == 1:
            ok = self.policies[0].decide_pairs(T, ages)
            return ok | (ages <= self.latency[0])
        out = np.zeros(np.broadcast_shapes(T.shape, ages.shape), dtype=bool)
        vp = self.vm_pool[rr]
        for p, pol in enumerate(self.policies):
            m = vp == p
            if m.any():
                verdict = pol.decide_pairs(T, ages) | (ages <= self.latency[p])
                out |= m & verdict
        return out

    # -- primitive operations (all take a row-index array) --------------
    def _schedule_boots(
        self, rr: np.ndarray, k: np.ndarray, rank_rows: np.ndarray | None = None
    ) -> None:
        """Schedule ``k`` worker boots per row at ``now + pool latency``.

        Each boot picks its pool *at schedule time* (first ranked pool
        with headroom, in-flight boots included), so the boot event
        carries the pool's latency and the lifetime draw at fire time
        maps through that pool's law.
        """
        kmax = int(k.max()) if k.size else 0
        for t in range(kmax):
            live = k > t
            sub = rr[live]
            pool = self._boot_pool(
                sub, None if rank_rows is None else rank_rows[live]
            )
            empty = self.bseq[sub] == _SEQ_INF
            if not empty.any(axis=1).all():
                raise RuntimeError("no free boot slot; provisioning invariant violated")
            slot = np.argmax(empty, axis=1)
            self.btime[sub, slot] = self.now[sub] + self.latency[pool]
            self.bseq[sub, slot] = self.evseq[sub]
            self.evseq[sub] += 1
            self.boot_pool[sub, slot] = pool
            self.provisioning_pool[sub, pool] += 1
        self.provisioning[rr] += k

    def _suitability(self, rr: np.ndarray):
        """(free, suitable) masks under the bag-estimate Eq. 8 filter."""
        free = self.alive[rr] & (self.vm_job[rr] == -1)
        return free, self._judge_free_rows(rr, free, self.est[rr])

    def _judge_free_rows(
        self, rr: np.ndarray, free: np.ndarray, est: np.ndarray
    ) -> np.ndarray:
        """The suitable mask ``free & Eq. 8(est, age)``, judged only on
        rows with a free VM — a row without one is all ``False``
        whatever the verdicts, so it costs no Eq. 8 cells."""
        if self.policies is None:
            return free
        has = free.any(axis=1)
        suit = free.copy()
        if has.any():
            r = rr[has]
            T = np.maximum(est[has], 1e-6)
            ages = np.maximum(self.now[r][:, None] - self.launch[r], 0.0)
            suit[has] &= self._decide(r, T[:, None], ages)
        return suit

    def _head_state(self, rr: np.ndarray):
        """Queue head + suitability per row; drops queue-less rows."""
        qk = self.qkey[rr]
        head = np.argmin(qk, axis=1)
        has = qk[np.arange(rr.size), head] < np.inf
        rr, head = rr[has], head[has]
        if not rr.size:
            return rr, head, None, None, None
        free, suit = self._suitability(rr)
        return rr, head, self.width[head], suit, free

    def _start_job(self, rr: np.ndarray, jj: np.ndarray, suit: np.ndarray) -> None:
        """Start job ``jj`` on its ``width`` oldest suitable VMs per row
        (pool rank first, then launch/birth age)."""
        w = self.width[jj]
        order = self._oldest(suit, rr, self._rank_cols(rr, jj))
        pos = np.arange(self.S)[None, :] < w[:, None]
        sel = np.zeros((rr.size, self.S), dtype=bool)
        np.put_along_axis(sel, order, pos, axis=1)
        self.stall_strikes[rr] = 0  # a job is starting: real progress
        # Starting work cancels the VMs' retention timers
        # (the controller's _select_nodes hygiene).
        self.reap_time[rr] = np.where(sel, np.inf, self.reap_time[rr])
        self.reap_seq[rr] = np.where(sel, _SEQ_INF, self.reap_seq[rr])
        self.vm_job[rr] = np.where(sel, jj[:, None], self.vm_job[rr])
        self.qkey[rr, jj] = np.inf
        self.attempts[rr, jj] += 1
        left = np.maximum(self.work[jj] - self.progress[rr, jj], 0.0)
        if self.dp is not None:
            # Re-plan the attempt at the gang's oldest selected VM age
            # (the ClusterManager._start planner argument).
            ages = np.where(
                sel, self.now[rr][:, None] - self.launch[rr], -np.inf
            ).max(axis=1)
            self.dp.begin(rr, jj, left, np.maximum(ages, 0.0))
        self._launch_segment(rr, jj, left)

    def _schedule_pass(self, rr: np.ndarray) -> None:
        """One ``try_schedule`` invocation: head starts, stall, backfill."""
        stuck = self._start_heads(rr)
        if stuck is not None:
            self._stall_actions(*stuck)
            if self.cfg.backfill:
                self._backfill_scan(stuck[0])

    def _start_heads(self, rr: np.ndarray):
        """Start queue heads until each row's head is stuck or its queue
        is empty.

        Returns the stuck rows' judgment ``(rr, head, width, suit,
        free)`` — the exact state ``_stall_actions`` acts on, since no
        later start touches a stuck row — or ``None`` when no row
        stalled.  Each head is judged by Eq. 8 once per pass.
        """
        stuck: list[tuple] = []
        while rr.size:
            rr, head, w, suit, free = self._head_state(rr)
            if not rr.size:
                break
            ok = suit.sum(axis=1) >= w
            if not ok.all():
                bad = ~ok
                stuck.append((rr[bad], head[bad], w[bad], suit[bad], free[bad]))
                rr, head, suit = rr[ok], head[ok], suit[ok]
                if not rr.size:
                    break
            self._start_job(rr, head, suit)
            # Loop: the next queue head may start in the same instant.
        if not stuck:
            return None
        return tuple(np.concatenate(part) for part in zip(*stuck))

    def _stall_actions(
        self,
        rr: np.ndarray,
        head: np.ndarray,
        w: np.ndarray,
        suit: np.ndarray,
        free: np.ndarray,
    ) -> None:
        """The controller's ``_queue_stalled``: terminate-all + provision.

        Fires once per scheduling pass for the stuck head, on the
        judgment the pass already made (see :meth:`_start_heads`):
        every Eq. 8-rejected idle VM is terminated (its lifetime event
        cancelled, hours billed), then the head's worker deficit is
        provisioned within the ``max_vms`` headroom.
        """
        if self.policies is not None:
            if self.obs is not None:
                self._count_graced(rr, head, free)
            unsuit = free & ~suit
            kill = unsuit.any(axis=1)
            rk = rr[kill]
            if rk.size:
                u = unsuit[kill]
                if self.obs is not None:
                    self.obs.inc("stall.terminations", int(u.sum()))
                hours = np.where(
                    u, self.now[rk][:, None] - self.launch[rk], 0.0
                )
                self.vm_hours[rk] += hours.sum(axis=1)
                if self.nP > 1:
                    vp = self.vm_pool[rk]
                    for p in range(self.nP):
                        self.pool_hours[rk, p] += np.where(
                            u & (vp == p), hours, 0.0
                        ).sum(axis=1)
                else:
                    self.pool_hours[rk, 0] += hours.sum(axis=1)
                self.alive[rk] &= ~u
                self.death[rk] = np.where(u, np.inf, self.death[rk])
                self.dseq[rk] = np.where(u, _SEQ_INF, self.dseq[rk])
                self.reap_time[rk] = np.where(u, np.inf, self.reap_time[rk])
                self.reap_seq[rk] = np.where(u, _SEQ_INF, self.reap_seq[rk])
                self._count_stall_strikes(rk)
        n_suit = suit.sum(axis=1)
        n_alive = self.alive[rr].sum(axis=1)
        deficit = w - n_suit - self.provisioning[rr]
        headroom = self._fleet_cap(rr) - n_alive - self.provisioning[rr]
        k = np.clip(np.minimum(deficit, headroom), 0, None)
        self._schedule_boots(rr, k, self._pool_rank_rows(rr, head))

    def _pool_rank_rows(
        self, rr: np.ndarray, jj: np.ndarray
    ) -> np.ndarray | None:
        """Per-row pool preference for deficit boots placed for job
        ``jj`` — the allocator's static ranking here; the tenancy
        kernel overrides this with tenant affinity."""
        return None

    def _fleet_cap(self, rr: np.ndarray) -> np.ndarray:
        """Provisioning cap per row — static here; the tenancy kernel
        overrides this with its elastic-in-active-bags cap."""
        return np.full(rr.size, self.cfg.max_vms, dtype=np.int64)

    def _stall_T(self, rr: np.ndarray, head: np.ndarray) -> np.ndarray:
        """The runtime estimate the stalled head is judged against —
        the bag-wide estimate here; the tenancy kernel's is per-bag."""
        return np.maximum(self.est[rr], 1e-6)

    def _count_graced(self, rr: np.ndarray, head: np.ndarray, free: np.ndarray) -> None:
        """Boot-grace near-miss census at a stall action.

        Counts free workers still inside their pool's boot-grace window
        that the *pure* Eq. 8 criterion would have terminated — i.e.
        spared only by the grace rule.  A pure read of equivalence-
        pinned state at the stall choke point, so the event oracle's
        controller mirror produces the exact same totals.
        """
        ages = np.maximum(self.now[rr][:, None] - self.launch[rr], 0.0)
        vp = self.vm_pool[rr]
        # Only a free worker inside its grace window can be graced, so
        # pure Eq. 8 is evaluated on the rows that hold one.
        cand = free & (ages <= self.latency[np.clip(vp, 0, None)])
        rows = cand.any(axis=1)
        graced = 0
        if rows.any():
            cand, ages, vp = cand[rows], ages[rows], vp[rows]
            T = self._stall_T(rr[rows], head[rows])[:, None]
            if self.nP == 1:
                pure = self.policies[0].decide_pairs(T, ages)
            else:
                pure = np.zeros(cand.shape, dtype=bool)
                for p, pol in enumerate(self.policies):
                    m = cand & (vp == p)
                    if m.any():
                        pure |= m & pol.decide_pairs(T, ages)
            graced = int((cand & ~pure).sum())
        self.obs.inc("stall.graced", graced)

    def _count_stall_strikes(self, rk: np.ndarray) -> None:
        """The controller's churn guardrail over the rows that just
        terminated rejected workers in a stall round."""
        self.stall_strikes[rk] += 1
        if self.obs is not None:
            self.obs.gauge("livelock.peak_streak").set(
                int(self.stall_strikes[rk].max())
            )
        if np.any(self.stall_strikes[rk] >= self.cfg.livelock_threshold):
            raise ProvisioningLivelockError(
                f"{self.cfg.livelock_threshold} consecutive queue stalls "
                "terminated policy-rejected idle workers without any job "
                "starting or completing; the reuse policy rejects every VM "
                "age under this lifetime law — use a bathtub-shaped law or "
                "disable use_reuse_policy"
            )

    def _backfill_scan(self, rr: np.ndarray) -> None:
        """Start jobs behind the stuck head in queue order (unreserved).

        All bag members share one estimate-based suitability mask, so
        the scan is the cluster kernel's with a row-uniform filter; the
        stuck head is excluded by the same width test that stalled it.
        """
        while rr.size:
            _, suit = self._suitability(rr)
            n_s = suit.sum(axis=1)
            queued = np.isfinite(self.qkey[rr])
            startable = queued & (self.width[None, :] <= n_s[:, None])
            has = startable.any(axis=1)
            rr, startable, suit = rr[has], startable[has], suit[has]
            if not rr.size:
                return
            jkey = np.where(startable, self.qkey[rr], np.inf)
            jc = np.argmin(jkey, axis=1)
            self._start_job(rr, jc, suit)

    def _record_completion(self, rr: np.ndarray, jj: np.ndarray) -> None:
        """Push the job's declared hours into the bag estimate.

        Reproduces ``BagOfJobs.estimated_runtime`` bit for bit: the
        trailing ``estimate_window`` values are summed sequentially in
        completion order, then divided by the window length.
        """
        W = self.cfg.estimate_window
        pos = self.buf_pos[rr]
        self.buf[rr, pos] = self.work[jj]
        self.buf_pos[rr] = (pos + 1) % W
        self.buf_len[rr] = np.minimum(self.buf_len[rr] + 1, W)
        k = self.buf_len[rr]
        start = np.where(k < W, 0, self.buf_pos[rr])
        total = np.zeros(rr.size)
        for t in range(W):
            vals = self.buf[rr, (start + t) % W]
            total = np.where(t < k, total + vals, total)
        self.est[rr] = total / k

    # -- event rounds ----------------------------------------------------
    def _process_deaths(self, rr: np.ndarray, col: np.ndarray) -> None:
        self.alive[rr, col] = False
        self.dseq[rr, col] = _SEQ_INF
        self.vm_hours[rr] += self.death[rr, col] - self.launch[rr, col]
        self.pool_hours[rr, np.clip(self.vm_pool[rr, col], 0, None)] += (
            self.death[rr, col] - self.launch[rr, col]
        )
        self.death[rr, col] = np.inf
        self.preemptions[rr] += 1
        # Death cancels the VM's retention timer.
        self.reap_time[rr, col] = np.inf
        self.reap_seq[rr, col] = _SEQ_INF
        jd = self.vm_job[rr, col]
        busy = jd >= 0
        rb, jb = rr[busy], jd[busy]
        if rb.size:
            # Gang abort: waste the segment, requeue at the head,
            # release the survivors; idle deaths need nothing more
            # (no rescheduling pass — the cluster only drops the node).
            if np.any(self.attempts[rb, jb] >= self.cfg.max_attempts_per_job):
                raise RuntimeError(
                    f"a job exceeded {self.cfg.max_attempts_per_job} attempts"
                )
            self.wasted[rb] += self.now[rb] - self.sstart[rb, jb]
            self.failures[rb] += 1
            self._clear_segment(rb, jb)
            self.qkey[rb, jb] = self.head_key[rb]
            self.head_key[rb] -= 1.0
            gang = self.vm_job[rb] == jb[:, None]
            self.vm_job[rb] = np.where(gang, -1, self.vm_job[rb])
            self._schedule_pass(rb)

    def _schedule_reaps(self, rr: np.ndarray, released: np.ndarray) -> None:
        """Retention timers for a released gang, in free-pool order
        (pool rank, then launch/birth)."""
        order = self._oldest(released, rr, self._rank_cols(rr))
        ranks = np.zeros((rr.size, self.S), dtype=np.int64)
        np.put_along_axis(
            ranks,
            order,
            np.broadcast_to(np.arange(self.S)[None, :], (rr.size, self.S)),
            axis=1,
        )
        seqs = self.evseq[rr][:, None] + ranks
        self.reap_seq[rr] = np.where(released, seqs, self.reap_seq[rr])
        self.reap_time[rr] = np.where(
            released,
            self.now[rr][:, None] + self.cfg.hot_spare_hours,
            self.reap_time[rr],
        )
        self.evseq[rr] += released.sum(axis=1)

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
            self._clear_segment(rf, jf)
            gang = self.vm_job[rf] == jf[:, None]
            self.vm_job[rf] = np.where(gang, -1, self.vm_job[rf])
            # Release order: idle timers first (queue empty only), then
            # the estimate update, then the scheduling pass — exactly
            # _job_completed's release -> callbacks -> try_schedule.
            qempty = ~np.isfinite(self.qkey[rf]).any(axis=1)
            rq = rf[qempty]
            if rq.size:
                self._schedule_reaps(rq, gang[qempty])
            self.stall_strikes[rf] = 0
            self._record_completion(rf, jf)
            self.done_count[rf] += 1
            finished = self.done_count[rf] == self.J
            self.makespan[rf[finished]] = self.now[rf[finished]]
            still = rf[~finished]
            if still.size:
                self._schedule_pass(still)

    def _process_boots(self, rr: np.ndarray, slot: np.ndarray) -> None:
        """A provisioned worker joins: draw its lifetime, add the node."""
        self.btime[rr, slot] = np.inf
        self.bseq[rr, slot] = _SEQ_INF
        self.provisioning[rr] -= 1
        pool = np.clip(self.boot_pool[rr, slot], 0, None)
        self.boot_pool[rr, slot] = -1
        self.provisioning_pool[rr, pool] -= 1
        u = self.table.gather(rr, self.draw_k[rr])
        self.draw_k[rr] += 1
        life = self._pool_ppf(u, pool)
        empty = ~self.alive[rr] & (self.vm_job[rr] == -1)
        if not empty.any(axis=1).all():
            raise RuntimeError("no reusable VM column; fleet invariant violated")
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
        self._schedule_pass(rr)  # add_node -> try_schedule

    def _process_reaps(self, rr: np.ndarray, col: np.ndarray) -> None:
        """An idle-retention timer fires: terminate if still warranted."""
        self.reap_time[rr, col] = np.inf
        self.reap_seq[rr, col] = _SEQ_INF
        # By the timer invariant the VM is alive and idle; the reap
        # no-ops when the queue is non-empty (the controller's check).
        qempty = ~np.isfinite(self.qkey[rr]).any(axis=1)
        rt, ct = rr[qempty], col[qempty]
        if rt.size:
            self.vm_hours[rt] += self.now[rt] - self.launch[rt, ct]
            self.pool_hours[rt, np.clip(self.vm_pool[rt, ct], 0, None)] += (
                self.now[rt] - self.launch[rt, ct]
            )
            self.alive[rt, ct] = False
            self.death[rt, ct] = np.inf
            self.dseq[rt, ct] = _SEQ_INF

    def run(self) -> int:
        n_rounds = 0
        init = np.arange(self.n)
        if init.size and self.J:
            # t = 0 submission: every submit stalls the empty pool, but
            # only the first provisions (deficit = head width, capped).
            k0 = np.full(self.n, min(int(self.width[0]), self.cfg.max_vms))
            self._schedule_boots(init, k0)
        active = np.flatnonzero(self.done_count < self.J) if self.n else init
        while active.size:
            _, pick = self._select_events(active)
            S, J, B = self.S, self.J, self.B
            is_death = pick < S
            is_comp = (pick >= S) & (pick < S + J)
            is_boot = (pick >= S + J) & (pick < S + J + B)
            is_reap = pick >= S + J + B
            rd = active[is_death]
            rc = active[is_comp]
            rb = active[is_boot]
            rp = active[is_reap]
            if self.obs is not None:
                self.obs.inc("events.death", int(rd.size))
                self.obs.inc("events.comp", int(rc.size))
                self.obs.inc("events.boot", int(rb.size))
                self.obs.inc("events.reap", int(rp.size))
                self._sample_obs(active)
            if rd.size:
                self._process_deaths(rd, pick[is_death])
            if rc.size:
                self._process_completions(rc, pick[is_comp] - S)
            if rb.size:
                self._process_boots(rb, pick[is_boot] - S - J)
            if rp.size:
                self._process_reaps(rp, pick[is_reap] - S - J - B)
            active = active[self.done_count[active] < self.J]
            n_rounds += 1
        if self.n:
            # Bill workers still alive at the makespan; pending boots
            # never fire (the run stops at the bag's last completion).
            live = np.where(self.alive, self.makespan[:, None] - self.launch, 0.0)
            self.vm_hours += live.sum(axis=1)
            for p in range(self.nP):
                self.pool_hours[:, p] += np.where(
                    self.vm_pool == p, live, 0.0
                ).sum(axis=1)
            if self.cfg.run_master:
                self.master_hours = self.makespan.copy()
        return n_rounds


def simulate_service_vectorized(
    dist: LifetimeDistribution,
    jobs,
    config: ServiceBatchConfig,
    *,
    n_replications: int,
    rng: np.random.Generator,
    max_events: int = 1_000_000,
    obs=None,
) -> dict[str, np.ndarray | int]:
    """Run ``n_replications`` lockstep service sweeps (see module docstring).

    Argument validation lives in
    :func:`repro.sim.backend.run_service_replications`; this kernel
    assumes a validated ``config`` and job widths within ``max_vms``.
    Returns the raw per-replication arrays keyed by outcome name plus
    the round count.  ``obs`` is an optional
    :class:`repro.obs.MetricsRegistry`; counting sites are draw-neutral
    and gated so ``obs=None`` adds zero work.
    """
    kernel = _ServiceKernel(dist, jobs, config, n_replications, rng, max_events, obs=obs)
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
        "master_hours": kernel.master_hours,
        "n_events": kernel.events,
        "n_draws": kernel.draw_k,
        "n_rounds": n_rounds,
    }
