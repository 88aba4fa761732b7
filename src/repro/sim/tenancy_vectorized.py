"""Batched multi-tenant traffic kernel: N service-with-traffic runs in lockstep.

:mod:`repro.sim.service_vectorized` batches one bag submitted at t = 0;
this module batches the layer above it — many tenants submitting bags
*over time* to one shared preemptible fleet, under a pluggable
inter-tenant scheduling policy, per-tenant admission control, and
elastic fleet sizing.  It is the kernel behind
:func:`repro.sim.backend.run_tenant_replications`; the event-driven
reference drives the real
:class:`repro.traffic.multitenant.MultiTenantService` (a front end over
:class:`repro.service.controller.BatchComputingService`) per
replication, and the cross-backend tenancy equivalence suite pins the
two to 1e-9 hours with exact event/draw/preemption counts.

What the kernel adds on top of the service kernel
-------------------------------------------------
* **Bag arrivals as events.**  The traffic — a sequence of
  :class:`BagSubmission` s, each a (tenant, time, jobs) triple sampled
  upstream by :mod:`repro.traffic.arrivals` — is *fixed input* shared
  by every replication; replications differ only in VM-lifetime draws.
  Each submission is one scheduled arrival event; in the event backend
  these are the first ``K`` events scheduled (insertion sequences
  ``0..K-1``), so the kernel numbers them identically and every later
  event starts from sequence ``K``.
* **Inter-tenant scheduling as a static total order.**  The pluggable
  policies (``"fifo"``, ``"fair"`` round-robin, ``"weighted"`` stride)
  all reduce to one precomputed priority key per job
  (:func:`assign_queue_keys`); at any instant the queue is the set of
  arrived, unstarted jobs ordered by key (requeued preempted jobs keep
  the head, exactly like the single-bag kernels).  Both backends
  consume the *same* key array, so policy logic cannot diverge.
* **Per-tenant admission.**  ``admission_cap`` bounds a tenant's
  unfinished admitted jobs: a bag whose size would exceed the cap at
  arrival is rejected whole (its jobs never enter the queue).
* **Per-bag runtime estimates.**  Every admitted bag carries its own
  trailing-window estimate (the ``BagOfJobs`` sequential sum), and the
  Eq. 8 reuse filter evaluates the queue head against *its* bag's
  estimate — tenants do not pollute each other's estimates.
* **Elastic fleet sizing.**  With ``elastic_vms_per_bag`` set, the
  provisioning headroom cap is ``min(max_vms, elastic_vms_per_bag x
  active bags)`` (at least 1) instead of the static ``max_vms``;
  downsizing happens naturally through idle-retention reaps.

Tenancy round protocol
----------------------
Randomness and event ordering follow the service round protocol
(:mod:`repro.sim.service_vectorized`): only worker-VM lifetimes consume
uniforms (one draw per boot event, in fire order), and all pending
events — arrivals, VM deaths, segment completions, worker boots, idle
reaps — resolve in per-replication ``(time, insertion sequence)``
order.  Backfill has no tenancy equivalent (inter-tenant policies
replace it) and is not part of the configuration.

A bag arrival is the controller's ``submit_bag``: admission, then one
submit and scheduling pass per member in declaration order.  The
kernel keeps that sequence per replication but runs it for all rows
that took an arrival in a round at once: one admission over the rows,
then one scheduling pass per member *position* over the rows whose bag
has that many members — rows at different bags share the pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.sim.cluster_vectorized import GangJob, check_fleet_config
from repro.sim.placement import PoolSpec, make_allocator
from repro.sim.service_vectorized import _ServiceKernel
from repro.sim.vectorized import _SEQ_INF
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "BagSubmission",
    "TenancyConfig",
    "SCHEDULING_POLICIES",
    "assign_queue_keys",
    "queue_key",
    "normalize_traffic",
    "simulate_tenancy_vectorized",
]

#: Inter-tenant scheduling policies understood by the tenancy layer.
SCHEDULING_POLICIES = ("fifo", "fair", "weighted")


@dataclass(frozen=True)
class BagSubmission:
    """One traffic item: tenant ``tenant`` submits ``jobs`` at ``time``.

    Defined here (sim layer) so both the kernel and the traffic layer
    can share it without the sim layer importing upward; the arrival
    processes of :mod:`repro.traffic.arrivals` produce these.
    """

    tenant: int
    time: float
    jobs: tuple[GangJob, ...]

    def __post_init__(self) -> None:
        if self.tenant < 0:
            raise ValueError(f"tenant must be >= 0, got {self.tenant}")
        check_nonnegative("time", self.time)
        if not self.jobs:
            raise ValueError("a bag submission must contain at least one job")
        object.__setattr__(
            self,
            "jobs",
            tuple(j if isinstance(j, GangJob) else GangJob(*j) for j in self.jobs),
        )


@dataclass(frozen=True)
class TenancyConfig:
    """Knobs of one batched multi-tenant run (see the module docstring).

    The service-kernel subset (fleet, reuse, retention, latency,
    master, checkpointing, estimation) keeps the exact
    :class:`~repro.sim.service_vectorized.ServiceBatchConfig` meanings;
    the tenancy additions are:

    Attributes
    ----------
    scheduling:
        Inter-tenant queue order: ``"fifo"`` (global submission order),
        ``"fair"`` (round-robin across tenants by per-tenant job
        index), or ``"weighted"`` (stride scheduling —
        ``(k + 1) / weight`` virtual finish times).
    tenant_weights:
        Per-tenant weights for ``"weighted"`` (ignored otherwise);
        defaults to all-1.
    admission_cap:
        Maximum unfinished admitted jobs a tenant may hold; a bag that
        would exceed it at arrival is rejected whole.  ``None`` admits
        everything.
    elastic_vms_per_bag:
        Elastic fleet sizing: provisioning cap
        ``min(max_vms, elastic_vms_per_bag x active bags)`` (>= 1).
        ``None`` keeps the static ``max_vms`` cap.  Must cover the
        widest job so a lone active bag can always run.
    pools:
        Optional heterogeneous pool catalog
        (:class:`~repro.sim.placement.PoolSpec` sequence); sizes must
        sum to ``max_vms``.  ``None`` keeps the historical single
        implicit pool.  Incompatible with ``checkpoint="dp"``.
    allocator:
        Pool-choice plugin name (see
        :data:`repro.sim.placement.ALLOCATORS`); the tenancy layer
        additionally supports ``"tenant_affinity"`` — tenant ``t``
        prefers pool ``t mod P`` for boots and node selection.
    """

    max_vms: int = 8
    use_reuse_policy: bool = True
    hot_spare_hours: float = 1.0
    provision_latency: float = 0.0
    run_master: bool = True
    checkpoint: str = "interval"
    checkpoint_interval: float | None = None
    checkpoint_cost: float = 1.0 / 60.0
    checkpoint_step: float = 0.1
    estimate_window: int = 16
    max_attempts_per_job: int = 1000
    livelock_threshold: int = 500
    scheduling: str = "fifo"
    tenant_weights: tuple[float, ...] | None = None
    admission_cap: int | None = None
    elastic_vms_per_bag: int | None = None
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
        if self.scheduling not in SCHEDULING_POLICIES:
            raise ValueError(
                f"scheduling must be one of {SCHEDULING_POLICIES}, "
                f"got {self.scheduling!r}"
            )
        if self.tenant_weights is not None:
            object.__setattr__(
                self, "tenant_weights", tuple(float(w) for w in self.tenant_weights)
            )
            if any(w <= 0.0 for w in self.tenant_weights):
                raise ValueError("tenant_weights must be > 0")
        if self.admission_cap is not None:
            check_positive("admission_cap", self.admission_cap)
        if self.elastic_vms_per_bag is not None:
            check_positive("elastic_vms_per_bag", self.elastic_vms_per_bag)


def queue_key(
    scheduling: str,
    tenant: int,
    tenant_job_index: int,
    n_tenants: int,
    weights: tuple[float, ...] | None = None,
) -> float:
    """Priority key of one job under a tenancy scheduling policy.

    Lower keys run first; ties (possible under ``"weighted"``) resolve
    in submission order on both backends.  The pure scalar form — the
    online counterpart of :func:`assign_queue_keys`, used by the live
    :class:`~repro.traffic.multitenant.MultiTenantService` so that
    event-path keys are bit-identical to the kernel's precomputed ones.

    ``tenant_job_index`` is the job's index within *everything the
    tenant has ever submitted* (admitted or not): rejected bags still
    consume indices, keeping the key a pure function of the traffic.
    """
    if scheduling == "fifo":
        raise ValueError("fifo keys are global submission indices; use assign_queue_keys")
    if scheduling == "fair":
        return float(tenant_job_index * n_tenants + tenant)
    if scheduling == "weighted":
        w = 1.0 if weights is None else float(weights[tenant])
        return float(tenant_job_index + 1) / w
    raise ValueError(f"unknown scheduling policy {scheduling!r}")


def assign_queue_keys(
    job_tenants: np.ndarray,
    scheduling: str,
    n_tenants: int,
    weights: tuple[float, ...] | None = None,
) -> np.ndarray:
    """Priority keys for all jobs of a traffic trace, in submission order.

    ``job_tenants`` is the flat per-job tenant index array (traffic
    sorted by time, bags flattened in order).  Returns a float key per
    job; lower runs first.  All keys are >= 0, so requeued preempted
    jobs (negative head keys) always outrank them.
    """
    tenants = np.asarray(job_tenants, dtype=np.int64)
    if scheduling not in SCHEDULING_POLICIES:
        raise ValueError(
            f"scheduling must be one of {SCHEDULING_POLICIES}, got {scheduling!r}"
        )
    if scheduling == "fifo":
        return np.arange(tenants.size, dtype=float)
    # Within-tenant submission index k: 0, 1, 2, ... per tenant.
    k = np.zeros(tenants.size, dtype=np.int64)
    counts = np.zeros(max(n_tenants, 1), dtype=np.int64)
    for i, t in enumerate(tenants):
        k[i] = counts[t]
        counts[t] += 1
    if scheduling == "fair":
        return (k * n_tenants + tenants).astype(float)
    w = np.ones(n_tenants) if weights is None else np.asarray(weights, dtype=float)
    return (k + 1).astype(float) / w[tenants]


def normalize_traffic(traffic) -> tuple[BagSubmission, ...]:
    """Canonical traffic: ``BagSubmission`` s, stably sorted by time.

    Accepts ``BagSubmission`` objects or ``(tenant, time, jobs)``
    triples; every entry point (both backends, the live service front
    end) must normalise through here so job order — and therefore key
    assignment and tie-breaking — is identical everywhere.
    """
    subs = [
        s if isinstance(s, BagSubmission) else BagSubmission(*s) for s in traffic
    ]
    order = sorted(range(len(subs)), key=lambda i: (subs[i].time, i))
    return tuple(subs[i] for i in order)


def _flatten_traffic(traffic: tuple[BagSubmission, ...]):
    """Flat per-job / per-bag arrays of a normalised traffic trace."""
    job_tenant: list[int] = []
    work: list[float] = []
    width: list[int] = []
    bag_lo: list[int] = []
    bag_hi: list[int] = []
    for sub in traffic:
        bag_lo.append(len(work))
        for j in sub.jobs:
            job_tenant.append(sub.tenant)
            work.append(j.work_hours)
            width.append(j.width)
        bag_hi.append(len(work))
    return {
        "job_tenant": np.asarray(job_tenant, dtype=np.int64),
        "work": np.asarray(work, dtype=float),
        "width": np.asarray(width, dtype=np.int64),
        "bag_tenant": np.asarray([s.tenant for s in traffic], dtype=np.int64),
        "bag_time": np.asarray([s.time for s in traffic], dtype=float),
        "bag_lo": np.asarray(bag_lo, dtype=np.int64),
        "bag_hi": np.asarray(bag_hi, dtype=np.int64),
    }


class _TenancyKernel(_ServiceKernel):
    """Array state and phase operations of the lockstep tenancy sweep.

    Inherits the service kernel's fleet/boot/reap/death machinery and
    adds arrival events, per-bag estimates, tenant affinity and the
    elastic cap.  Running segments live in the fleet core's ``S``-wide
    running slots, so per-round selection cost does not grow with the
    traffic length.
    """

    _sweep_name = "tenancy"
    _budget_what = "traffic"

    #: Backfill has no tenancy equivalent: inter-tenant policies own the
    #: queue order.
    backfill = False

    def _arena_channels(self) -> list[tuple[str, int]]:
        return [
            ("death", self.S),
            ("comp", self.S),
            ("boot", self.B),
            ("reap", self.S),
            ("arr", 1),
        ]

    def __init__(
        self,
        dist: LifetimeDistribution,
        traffic: tuple[BagSubmission, ...],
        n_tenants: int,
        config: TenancyConfig,
        n_replications: int,
        rng: np.random.Generator,
        max_events: int,
        obs=None,
    ):
        flat = _flatten_traffic(traffic)
        jobs = [GangJob(h, int(w)) for h, w in zip(flat["work"], flat["width"])]
        self.K = len(traffic)
        self.atime = flat["bag_time"]
        super().__init__(dist, jobs, config, n_replications, rng, max_events, obs=obs)
        n, J = self.n, self.J
        self.T = int(n_tenants)
        self.job_tenant = flat["job_tenant"]
        self.bag_of = np.zeros(J, dtype=np.int64)
        for k in range(self.K):
            self.bag_of[flat["bag_lo"][k] : flat["bag_hi"][k]] = k
        self.bag_tenant = flat["bag_tenant"]
        self.bag_lo = flat["bag_lo"]
        self.bag_hi = flat["bag_hi"]
        self.bag_size = self.bag_hi - self.bag_lo
        self.keys = assign_queue_keys(
            self.job_tenant, config.scheduling, self.T, config.tenant_weights
        )
        # Jobs are queue-invisible until their arrival event fires.
        self._init_queue(self.keys, queued=False)
        # Arrival events carry insertion sequences 0..K-1; everything
        # scheduled afterwards starts at K (the event path schedules
        # all arrivals before any other event exists).
        self.evseq[:] = self.K
        self.aptr = np.zeros(n, dtype=np.int64)
        if self.K:
            self.arr_time[:, 0] = self.atime[0]
            self.arr_seq[:, 0] = 0
        # Per-bag runtime estimates (each bag its own BagOfJobs).
        first_work = self.work[self.bag_lo] if self.K else np.zeros(0)
        self._init_estimates(np.broadcast_to(first_work, (n, self.K)).copy())
        # Tenancy bookkeeping.  Per-tenant counters are *sparse*: only
        # tenants actually present in the traffic allocate a column, so
        # a sparse trace over a huge id space (e.g. SWF user IDs mapped
        # onto millions of tenants) costs O(active), not O(n_tenants).
        active_tenants, job_tcol = (
            np.unique(self.job_tenant, return_inverse=True)
            if J
            else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        )
        self.T_active = int(active_tenants.size)
        self.job_tcol = job_tcol.astype(np.int64)
        self.bag_tcol = np.searchsorted(active_tenants, self.bag_tenant)
        self.admitted = np.zeros((n, J), dtype=bool)
        self.admitted_total = np.zeros(n, dtype=np.int64)
        self.adm_tenant = np.zeros((n, self.T_active), dtype=np.int64)
        self.done_tenant = np.zeros((n, self.T_active), dtype=np.int64)
        self.bag_done = np.zeros((n, self.K), dtype=np.int64)
        self.active_bags = np.zeros(n, dtype=np.int64)
        self.first_start = np.full((n, J), np.nan)
        self.finish = np.full((n, J), np.nan)
        # Per-tenant pool rankings.  Affinity only depends on
        # ``tenant mod P`` (the home pool), so ``nP x nP`` tables cover
        # every tenant; non-affinity allocators produce identical rows.
        alloc = make_allocator(config.allocator)
        self.job_home = (
            self.job_tenant % self.nP
            if self.nP > 1
            else np.zeros(J, dtype=np.int64)
        )
        self.rank_by_home = np.stack(
            [
                np.asarray(alloc.rank_for(self.pools, h), dtype=np.int64)
                for h in range(self.nP)
            ]
        )
        self.rank_of_by_home = np.empty_like(self.rank_by_home)
        for h in range(self.nP):
            self.rank_of_by_home[h, self.rank_by_home[h]] = np.arange(self.nP)

    # -- tenancy-aware policy plumbing -----------------------------------
    def _t0(self, rows: np.ndarray) -> None:
        """Nothing: bags arrive as events."""

    def _finished(self, rows: np.ndarray) -> np.ndarray:
        """All traffic has arrived and every admitted job is done."""
        return (self.aptr[rows] == self.K) & (
            self.done_count[rows] == self.admitted_total[rows]
        )

    def _raw_extras(self) -> dict[str, np.ndarray]:
        return {
            **super()._raw_extras(),
            "admitted": self.admitted,
            "start_times": self.first_start,
            "finish_times": self.finish,
        }

    def _fleet_cap(self, rr: np.ndarray) -> np.ndarray:
        """Provisioning cap per row: static, or elastic in active bags."""
        e = self.cfg.elastic_vms_per_bag
        if e is None:
            return np.full(rr.size, self.cfg.max_vms, dtype=np.int64)
        return np.minimum(
            self.cfg.max_vms, np.maximum(e * self.active_bags[rr], 1)
        )

    def _estimate_slot(self, rr: np.ndarray, jj: np.ndarray) -> tuple:
        """Each job is judged, and recorded, under its own bag's estimate."""
        return (rr, self.bag_of[jj])

    def _on_start(self, rr: np.ndarray, jj: np.ndarray, sel: np.ndarray) -> None:
        fresh = self.attempts[rr, jj] == 0
        rf = rr[fresh]
        if rf.size:
            self.first_start[rf, jj[fresh]] = self.now[rf]
        super()._on_start(rr, jj, sel)

    # -- tenant-affinity pool rankings ------------------------------------
    def _rank_cols(
        self, rr: np.ndarray, jj: np.ndarray | None = None
    ) -> np.ndarray | None:
        if self.nP == 1:
            return None
        if jj is None:
            return super()._rank_cols(rr)
        return self.rank_of_by_home[
            self.job_home[jj][:, None], np.clip(self.vm_pool[rr], 0, None)
        ]

    def _pool_rank_rows(
        self, rr: np.ndarray, jj: np.ndarray
    ) -> np.ndarray | None:
        if self.nP == 1:
            return None
        return self.rank_by_home[self.job_home[jj]]

    # -- event rounds ----------------------------------------------------
    def _on_arr(self, rr: np.ndarray, _col: np.ndarray) -> None:
        """Bag arrival events: admission, key activation, submit stalls —
        one scheduling pass per member position (see the module
        docstring)."""
        ks = self.aptr[rr]
        self.aptr[rr] += 1
        nxt = self.aptr[rr]
        done = nxt >= self.K
        self.arr_time[rr, 0] = np.where(
            done, np.inf, self.atime[np.minimum(nxt, self.K - 1)]
        )
        self.arr_seq[rr, 0] = np.where(done, _SEQ_INF, nxt)
        t, lo, m = self.bag_tcol[ks], self.bag_lo[ks], self.bag_size[ks]
        if self.cfg.admission_cap is not None:
            unfinished = self.adm_tenant[rr, t] - self.done_tenant[rr, t]
            admit = unfinished + m <= self.cfg.admission_cap
            rr, t, lo, m = rr[admit], t[admit], lo[admit], m[admit]
        if not rr.size:
            return
        self.adm_tenant[rr, t] += m
        self.admitted_total[rr] += m
        self.active_bags[rr] += 1
        for i in range(int(m.max())):
            live = m > i
            ri, j = rr[live], lo[live] + i
            self.admitted[ri, j] = True
            self._enqueue(ri, j, self.keys[j])
            self._schedule_pass(ri)

    def _job_done(self, rr: np.ndarray, jj: np.ndarray, gang: np.ndarray) -> None:
        # Tenant bookkeeping, then the service's release order (idle
        # timers, estimate update, scheduling pass).
        self.finish[rr, jj] = self.now[rr]
        self.done_tenant[rr, self.job_tcol[jj]] += 1
        b = self.bag_of[jj]
        self.bag_done[rr, b] += 1
        ended = self.bag_done[rr, b] == self.bag_size[b]
        self.active_bags[rr[ended]] -= 1
        super()._job_done(rr, jj, gang)


def simulate_tenancy_vectorized(
    dist: LifetimeDistribution,
    traffic,
    n_tenants: int,
    config: TenancyConfig,
    *,
    n_replications: int,
    rng: np.random.Generator,
    max_events: int = 1_000_000,
    obs=None,
) -> dict[str, np.ndarray | int]:
    """Run ``n_replications`` lockstep multi-tenant sweeps.

    Argument validation lives in
    :func:`repro.sim.backend.run_tenant_replications`; this kernel
    assumes normalised traffic and a validated config.  Returns the raw
    per-replication arrays keyed by outcome name plus the round count.
    ``obs`` is an optional :class:`repro.obs.MetricsRegistry`; counting
    sites are draw-neutral and gated so ``obs=None`` adds zero work.
    """
    traffic = normalize_traffic(traffic)
    return _TenancyKernel(
        dist, traffic, n_tenants, config, n_replications, rng, max_events, obs=obs
    ).run()
