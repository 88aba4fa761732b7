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
The round loop and the fleet mechanics are the shared core in
:class:`repro.sim.vectorized._LockstepKernel`; this module supplies the
controller's policy.  Randomness and event ordering follow the cluster
round protocol (:mod:`repro.sim.cluster_vectorized`): only worker-VM
lifetimes consume
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
from repro.sim.cluster_vectorized import check_fleet_config
from repro.sim.placement import PoolSpec
from repro.sim.vectorized import _LockstepKernel, _SEQ_INF
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
    def from_service_config(cls, config) -> "ServiceBatchConfig":
        """Build from a service-layer ``ServiceConfig`` (duck-typed, so
        the sim layer never imports the service layer).

        The single mapping site for every entry point that accepts a
        ``ServiceConfig``.  DP checkpointing (``use_checkpointing`` with
        no fixed ``checkpoint_interval``) maps onto ``checkpoint="dp"``
        — the batched DP plan walker, equivalence-pinned against the
        controller's per-attempt planner.
        """
        interval = config.checkpoint_interval
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
            pools=config.pools,
            allocator=config.allocator,
        )


class _ServiceKernel(_LockstepKernel):
    """The controller policy on the lockstep fleet core: boot events,
    reap timers, the terminate-all stall, boot grace, the livelock
    guard and master billing, with Eq. 8 judged on the bag estimate."""

    _sweep_name = "service"

    def _arena_channels(self) -> list[tuple[str, int]]:
        return [
            ("death", self.S),
            ("comp", self.S),
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
        self.B = config.max_vms  # pending-boot slots
        # The controller always uses the survival-conditioned criterion.
        super().__init__(
            dist, jobs, config, n_replications, rng, max_events, obs,
            fleet_cap=config.max_vms,
            n_cols=config.max_vms,
            criterion="conditional",
            provision_latency=config.provision_latency,
        )
        n = self.n
        self.provisioning = np.zeros(n, dtype=np.int64)
        self.boot_pool = np.full((n, self.B), -1, dtype=np.int64)
        self.attempts = np.zeros((n, self.J), dtype=np.int64)
        # Livelock guardrail: consecutive stall rounds that terminated
        # rejected workers with no job start/completion in between.
        self.stall_strikes = np.zeros(n, dtype=np.int64)
        # Bag runtime estimate, from the first job's declaration.
        self._init_estimates(np.full(n, self.work[0] if self.J else 0.0))

    def _t0(self, rows: np.ndarray) -> None:
        """Submission: every submit stalls the empty pool, but only the
        first provisions (deficit = head width, capped)."""
        if self.J:
            k0 = np.full(rows.size, min(int(self.width[0]), self.cfg.max_vms))
            self._schedule_boots(rows, k0)

    def _raw_extras(self) -> dict[str, np.ndarray]:
        """The non-preemptible master is billed for the makespan."""
        master = self.makespan.copy() if self.cfg.run_master else np.zeros(self.n)
        return {"master_hours": master}

    # -- Eq. 8 on the bag estimate ----------------------------------------
    def _head_length(self, rr: np.ndarray, head: np.ndarray) -> np.ndarray:
        return self.est[self._estimate_slot(rr, head)]

    def _verdict(self, rr, T, ages, free) -> np.ndarray:
        """Pure Eq. 8 verdicts plus the fresh-boot grace window.

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
        vp = self.vm_pool[rr]
        latency = self.latency[0] if self.nP == 1 else self.latency[np.clip(vp, 0, None)]
        return self._eq8(T, ages, free, vp) | (free & (ages <= latency))

    def _backfill_suit(self, rr: np.ndarray, free: np.ndarray) -> np.ndarray:
        """All bag members share one estimate-based mask."""
        if self.policies is None:
            return free[:, None, :]
        return self._judge(rr, free, self.est[rr])[:, None, :]

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
            ok = empty.any(axis=1)
            if not ok.all():
                raise RuntimeError(
                    "no free boot slot; provisioning invariant violated "
                    + self._first(sub, ~ok)
                )
            slot = np.argmax(empty, axis=1)
            self.btime[sub, slot] = self.now[sub] + self.latency[pool]
            self.bseq[sub, slot] = self.evseq[sub]
            self.evseq[sub] += 1
            self.boot_pool[sub, slot] = pool
            self.provisioning_pool[sub, pool] += 1
        self.provisioning[rr] += k

    def _cancel_reaps(self, rr: np.ndarray, cols: np.ndarray) -> None:
        """Cancel the retention timers of the ``cols`` mask.

        Only the rows where a ``cols`` VM holds a pending timer are
        rewritten; a cell without one already holds ``inf`` /
        ``_SEQ_INF`` (the arena invariant).
        """
        seqs = self.reap_seq[rr]
        hit = cols & (seqs != _SEQ_INF)
        rows = hit.any(axis=1)
        if not rows.any():
            return
        rh, hit = rr[rows], hit[rows]
        self.reap_time[rh] = np.where(hit, np.inf, self.reap_time[rh])
        self.reap_seq[rh] = np.where(hit, _SEQ_INF, seqs[rows])

    def _on_start(self, rr: np.ndarray, jj: np.ndarray, sel: np.ndarray) -> None:
        self.stall_strikes[rr] = 0  # a job is starting: real progress
        # Starting work cancels the VMs' retention timers
        # (the controller's _select_nodes hygiene).
        self._cancel_reaps(rr, sel)
        self.attempts[rr, jj] += 1

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
                self._retire(rk, u, self.now[rk][:, None])
                self._cancel_reaps(rk, u)
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

    def _count_graced(self, rr: np.ndarray, head: np.ndarray, free: np.ndarray) -> None:
        """Boot-grace near-miss census at a stall action.

        Counts free workers still inside their pool's boot-grace window
        that the *pure* Eq. 8 criterion would have terminated — i.e.
        spared only by the grace rule.  A pure read of equivalence-
        pinned state at the stall choke point, so the event oracle's
        controller mirror produces the exact same totals.
        """
        ages = self._ages(rr)
        vp = self.vm_pool[rr]
        # Only a free worker inside its grace window can be graced, so
        # pure Eq. 8 is evaluated on the rows that hold one.
        cand = free & (ages <= self.latency[np.clip(vp, 0, None)])
        rows = cand.any(axis=1)
        graced = 0
        if rows.any():
            cand = cand[rows]
            T = np.maximum(self._head_length(rr[rows], head[rows]), 1e-6)[:, None]
            pure = self._eq8(T, ages[rows], cand, vp[rows])
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

    # -- event rounds ----------------------------------------------------
    def _vm_lost(self, rr: np.ndarray, col: np.ndarray) -> None:
        # Death cancels the VM's retention timer; an idle death needs
        # nothing more (no rescheduling pass — the cluster only drops
        # the node).
        self.reap_time[rr, col] = np.inf
        self.reap_seq[rr, col] = _SEQ_INF

    def _abort(self, rr: np.ndarray, jj: np.ndarray) -> None:
        over = self.attempts[rr, jj] >= self.cfg.max_attempts_per_job
        if over.any():
            raise RuntimeError(
                f"job {int(jj[np.argmax(over)])} exceeded "
                f"{self.cfg.max_attempts_per_job} attempts in "
                f"{int(over.sum())} replications {self._first(rr, over)}"
            )
        super()._abort(rr, jj)

    def _schedule_reaps(self, rr: np.ndarray, released: np.ndarray) -> None:
        """Retention timers for a released gang, in free-pool order
        (pool rank, then age; see :meth:`_oldest`)."""
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

    def _job_done(self, rr: np.ndarray, jj: np.ndarray, gang: np.ndarray) -> None:
        # Release order: idle timers first (queue empty only), then the
        # estimate update, then the scheduling pass — exactly
        # _job_completed's release -> callbacks -> try_schedule.
        qempty = self.nq[rr] == 0
        rq = rr[qempty]
        if rq.size:
            self._schedule_reaps(rq, gang[qempty])
        self.stall_strikes[rr] = 0
        self._record_completion(rr, jj)
        self._schedule_pass(rr)

    def _on_boot(self, rr: np.ndarray, slot: np.ndarray) -> None:
        """A provisioned worker joins: draw its lifetime, add the node."""
        self.btime[rr, slot] = np.inf
        self.bseq[rr, slot] = _SEQ_INF
        self.provisioning[rr] -= 1
        pool = np.clip(self.boot_pool[rr, slot], 0, None)
        self.boot_pool[rr, slot] = -1
        self.provisioning_pool[rr, pool] -= 1
        self._add_vm(rr, pool)
        self._schedule_pass(rr)  # add_node -> try_schedule

    def _on_reap(self, rr: np.ndarray, col: np.ndarray) -> None:
        """An idle-retention timer fires: terminate if still warranted."""
        self.reap_time[rr, col] = np.inf
        self.reap_seq[rr, col] = _SEQ_INF
        # By the timer invariant the VM is alive and idle; the reap
        # no-ops when the queue is non-empty (the controller's check).
        qempty = self.nq[rr] == 0
        rt, ct = rr[qempty], col[qempty]
        if rt.size:
            self._retire(rt, ct, self.now[rt][:, None])


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
    return _ServiceKernel(
        dist, jobs, config, n_replications, rng, max_events, obs=obs
    ).run()
