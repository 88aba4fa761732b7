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
The round mechanics — event selection and per-channel dispatch, boots,
gang starts, Eq. 8 judging, retirement billing, gang aborts and segment
completion — are the fleet core in
:class:`repro.sim.vectorized._LockstepKernel`, shared with the service
and tenancy kernels.  This module supplies the cluster's policy: the
pre-booted pool, per-job Eq. 8 lengths, one-at-a-time refresh and
hot-spare replacement.

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
from repro.sim.placement import PoolSpec, make_allocator
from repro.sim.vectorized import _LockstepKernel
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
        boots instantaneously, so a pool's ``boot_latency`` must be
        ``None`` or ``0``; any other value is rejected.  Incompatible
        with ``checkpoint="dp"`` (the DP table is keyed to a single
        lifetime law).
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
        for p in self.pools or ():
            if p.boot_latency:
                raise ValueError(
                    f"pool {p.name!r} sets boot_latency={p.boot_latency}, but "
                    "the cluster boots instantly; leave it None or 0"
                )


class _ClusterKernel(_LockstepKernel):
    """The cluster policy on the lockstep fleet core: a pre-booted pool,
    per-job Eq. 8 lengths, one-at-a-time refresh and hot-spare
    replacement."""

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
        self.P = config.pool_size
        super().__init__(
            dist, jobs, config, n_replications, rng, max_events, obs,
            fleet_cap=config.pool_size,
            # One spare column for the dead-busy-VM transient.
            n_cols=config.pool_size + 1,
            criterion=config.reuse_criterion,
        )

    def _arena_channels(self) -> list[tuple[str, int]]:
        return [("death", self.S), ("comp", self.J)]

    def _t0(self, rows: np.ndarray) -> None:
        """Boot the pool (draws in slot order), submit the bag FIFO."""
        for _ in range(self.P):
            self._boot(rows)
        self._schedule_pass(rows)
        self._refresh_loop(rows)

    def _boot(self, rr: np.ndarray) -> None:
        """Boot one fresh VM per row, instantly."""
        self._add_vm(rr, self._boot_pool(rr))

    def _head_length(self, rr: np.ndarray, head: np.ndarray) -> np.ndarray:
        """Each job is judged on its own remaining hours."""
        return self.work[head] - self.progress[rr, head]

    def _backfill_suit(self, rr: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Per-job Eq. 8 suitability of the free VMs, ``(R, J, S)``."""
        if self.policies is None:
            return free[:, None, :]
        T = np.maximum(self.work[None, :] - self.progress[rr], 1e-6)
        return self._eq8(
            T[:, :, None],
            self._ages(rr)[:, None, :],
            free[:, None, :],
            self.vm_pool[rr][:, None, :],
        )

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
                self._retire(ru, col, self.now[ru][:, None])
                self._boot(ru)
            # ...else re-boot an empty pool slot.
            rb = rr[~has_u]
            if rb.size:
                self._boot(rb)
            self._schedule_pass(rr)

    # -- event rounds ----------------------------------------------------
    def _vm_lost(self, rr: np.ndarray, col: np.ndarray) -> None:
        if self.cfg.hot_spare:
            # A fresh replacement boots immediately (the dead busy VM's
            # column stays held until the gang abort releases it), then
            # the queue gets a crack at the replacement — exactly the
            # harness's add_node -> try_schedule ordering.
            self._boot(rr)
            self._schedule_pass(rr)

    def _on_death(self, rr: np.ndarray, col: np.ndarray) -> None:
        rb = super()._on_death(rr, col)
        self._refresh_loop(rr if self.cfg.hot_spare else rb)

    def _job_done(self, rr: np.ndarray, jj: np.ndarray, gang: np.ndarray) -> None:
        self._schedule_pass(rr)
        self._refresh_loop(rr)


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
    return _ClusterKernel(
        dist, jobs, config, n_replications, rng, max_events, obs=obs
    ).run()
