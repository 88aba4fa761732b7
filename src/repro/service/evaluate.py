"""Headless Monte-Carlo evaluation of service policy configurations.

The event-driven :class:`~repro.service.controller.BatchComputingService`
is the semantics oracle for the Section 5 system, but scoring a policy
configuration with it means replaying the whole queue/cluster event loop
once per seed — far too slow for production replication counts.  This
module evaluates the *policy content* of a configuration — the Eq. 8
VM-reuse decision, the hot-spare retention window, and the DP checkpoint
plan — over N independent job placements through the shared
backend-selection API (:func:`repro.sim.backend.run_replications`), so a
(reuse x hot-spare x checkpoint) grid sweeps at vectorized speed with
the event backend available as a cross-check.

Replication model (one job placement per replication)
-----------------------------------------------------
1. A candidate worker VM went idle and a job arrives ``idle_gap`` hours
   later; the VM's age at arrival is sampled uniformly over the
   lifetime law's support (the Fig. 6 "jobs arrive at arbitrary points
   in a VM's life" assumption).
2. **Hot spare** — the candidate is still around only if the idle gap is
   within the configuration's retention window
   (``ServiceConfig.hot_spare_hours``, the controller's ``_node_idle``
   rule); otherwise the job boots a fresh VM.
3. **Reuse decision** — surviving candidates pass through the batch
   Eq. 8 decision (:meth:`ModelReusePolicy.decide_batch` with the
   controller's survival-conditioned criterion, or always-reuse when
   ``use_reuse_policy`` is off).  Rejected candidates are replaced by
   fresh VMs, exactly like the controller's ``_select_nodes``.
4. **Execution** — the job runs its checkpoint plan (the DP plan for
   the job at age 0 when ``use_checkpointing`` is on, else one
   uncheckpointed segment) with its first VM's lifetime conditioned on
   the chosen start age, restarting until done;
   ``ServiceConfig.provision_latency`` is charged per preemption.

Determinism: the arrival draws (ages, idle gaps) are consumed from the
generator *before* the round protocol starts, and both backends consume
the round protocol identically, so one seed gives identical
per-replication outcomes on ``"event"`` and ``"vectorized"`` (within
1e-9 hours; pinned by ``tests/test_service_evaluate.py``).  Evaluating
several configurations with the same seed pairs them through common
random numbers: identical arrival ages and identical round-0 uniforms.

Usage::

    from repro.service import ServiceConfig
    from repro.service.evaluate import ServicePolicyEvaluator
    from repro.traces import default_catalog

    dist = default_catalog().distribution("n1-highcpu-16", "us-east1-b")
    ev = ServicePolicyEvaluator(dist, ServiceConfig(use_reuse_policy=True))
    result = ev.evaluate(6.0, n_replications=10_000, seed=0)
    print(result.failure_fraction, result.expected_failure_fraction)
    print(result.mean_makespan, result.reuse_fraction)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.policies.checkpointing import CheckpointPolicy
from repro.policies.scheduling import (
    MemorylessSchedulingPolicy,
    ModelReusePolicy,
    job_failure_probability_batch,
)
from repro.service.controller import ServiceConfig
from repro.sim.backend import (
    ClusterOutcomes,
    ReplicationOutcomes,
    ServiceOutcomes,
    TenantOutcomes,
    run_cluster_replications,
    run_replications,
    run_service_replications,
    run_tenant_replications,
)
from repro.sim.cluster_vectorized import ClusterConfig, GangJob
from repro.sim.service_vectorized import ServiceBatchConfig
from repro.sim.tenancy_vectorized import TenancyConfig
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "PolicyEvaluation",
    "ClusterEvaluation",
    "ServiceEvaluation",
    "TenantEvaluation",
    "ServicePolicyEvaluator",
    "sweep_configurations",
]


@dataclass(frozen=True)
class PolicyEvaluation:
    """Scored outcome of one (configuration, job length) evaluation.

    Attributes
    ----------
    outcomes:
        Per-replication makespan / wasted hours / restarts from
        :func:`repro.sim.backend.run_replications`.
    vm_ages:
        Sampled candidate VM age at job arrival, shape ``(n,)``.
    idle_gaps:
        Sampled hours the candidate sat idle before the job arrived.
    spare_available:
        Candidate retained by the hot-spare window at arrival.
    reused:
        Job ran on the aged candidate (available *and* chosen by the
        reuse decision); fresh VM otherwise.
    start_ages:
        Age the job's first VM actually had (candidate age where
        ``reused``, else 0).
    expected_failure_fraction:
        Closed-form ``P(>= 1 preemption)`` averaged over the sampled
        start ages — the analytic curve the Monte-Carlo
        ``failure_fraction`` estimates.
    """

    config: ServiceConfig
    job_length: float
    segments: tuple[float, ...]
    outcomes: ReplicationOutcomes
    vm_ages: np.ndarray
    idle_gaps: np.ndarray
    spare_available: np.ndarray
    reused: np.ndarray
    start_ages: np.ndarray
    expected_failure_fraction: float
    backend: str

    @property
    def n_replications(self) -> int:
        return self.outcomes.n_replications

    @property
    def failure_fraction(self) -> float:
        """Monte-Carlo ``P(job preempted at least once)``."""
        return self.outcomes.failure_fraction

    @property
    def mean_makespan(self) -> float:
        return self.outcomes.mean_makespan

    @property
    def mean_wasted_hours(self) -> float:
        return self.outcomes.mean_wasted_hours

    @property
    def reuse_fraction(self) -> float:
        """Fraction of jobs placed on an aged (hot-spare) VM."""
        return float(np.mean(self.reused))

    @property
    def spare_hit_fraction(self) -> float:
        """Fraction of arrivals that found the candidate still retained."""
        return float(np.mean(self.spare_available))

    def mean_cost_per_job(self, price_per_hour: float) -> float:
        """Mean billed VM-hours per job times the hourly price."""
        check_nonnegative("price_per_hour", price_per_hour)
        return self.mean_makespan * price_per_hour

    def cost_reduction_factor(
        self, preemptible_rate: float, on_demand_rate: float
    ) -> float:
        """Ideal on-demand cost over the configuration's expected cost.

        The Fig. 9a metric in evaluator form: on-demand runs the job
        once at list price; the preemptible fleet pays the discounted
        rate for the whole makespan (wasted work included).
        """
        check_positive("preemptible_rate", preemptible_rate)
        check_nonnegative("on_demand_rate", on_demand_rate)
        spend = self.mean_makespan * preemptible_rate
        return (self.job_length * on_demand_rate) / spend if spend > 0 else float("inf")

    def summary(self) -> str:
        """One-line human summary (policy flags -> headline numbers)."""
        flags = (
            f"reuse={'on' if self.config.use_reuse_policy else 'off'} "
            f"ckpt={'on' if self.config.use_checkpointing else 'off'} "
            f"spare={self.config.hot_spare_hours:g}h"
        )
        return (
            f"[{flags}] n={self.n_replications} ({self.backend}): "
            f"P(fail) {self.failure_fraction:.3f} "
            f"(closed form {self.expected_failure_fraction:.3f}), "
            f"E[makespan] {self.mean_makespan:.3f} h, "
            f"reused {100 * self.reuse_fraction:.0f}% of placements"
        )


@dataclass(frozen=True)
class ClusterEvaluation:
    """Scored outcome of one cluster-scale (bag + configuration) sweep.

    Where :class:`PolicyEvaluation` scores a single job placement per
    replication, this scores the *whole service scenario*: the bag's
    gang jobs competing for the configuration's VM pool, per
    replication, through
    :func:`repro.sim.backend.run_cluster_replications`.
    """

    config: ServiceConfig
    cluster_config: ClusterConfig
    jobs: tuple[GangJob, ...]
    outcomes: ClusterOutcomes
    backend: str

    @property
    def n_replications(self) -> int:
        return self.outcomes.n_replications

    @property
    def mean_makespan(self) -> float:
        return self.outcomes.mean_makespan

    @property
    def mean_wasted_hours(self) -> float:
        return self.outcomes.mean_wasted_hours

    @property
    def failure_fraction(self) -> float:
        """Fraction of cluster runs that saw at least one gang abort."""
        return self.outcomes.failure_fraction

    @property
    def total_work_hours(self) -> float:
        """Ideal VM-hours of the bag (work x gang width, summed)."""
        return float(sum(j.work_hours * j.width for j in self.jobs))

    def mean_cost_per_job(self, price_per_hour: float) -> float:
        """Mean billed cluster-run cost per bag member."""
        return self.outcomes.mean_cost(price_per_hour) / len(self.jobs)

    def cost_reduction_factor(
        self, preemptible_rate: float, on_demand_rate: float
    ) -> float:
        """Ideal on-demand bag cost over the configuration's mean cost."""
        check_positive("preemptible_rate", preemptible_rate)
        check_nonnegative("on_demand_rate", on_demand_rate)
        spend = self.outcomes.mean_cost(preemptible_rate)
        baseline = self.total_work_hours * on_demand_rate
        return baseline / spend if spend > 0 else float("inf")

    def summary(self) -> str:
        flags = (
            f"reuse={'on' if self.config.use_reuse_policy else 'off'} "
            f"ckpt={'dp' if self.cluster_config.checkpoint == 'dp' else 'on' if self.cluster_config.checkpoint_interval else 'off'} "
            f"spare={'on' if self.cluster_config.hot_spare else 'off'} "
            f"pool={self.cluster_config.pool_size}"
        )
        return (
            f"[{flags}] {len(self.jobs)} jobs x n={self.n_replications} "
            f"({self.backend}): E[makespan] {self.mean_makespan:.3f} h, "
            f"E[waste] {self.mean_wasted_hours:.3f} h, "
            f"P(any abort) {self.failure_fraction:.3f}"
        )


@dataclass(frozen=True)
class ServiceEvaluation:
    """Scored outcome of one full-service (bag + configuration) sweep.

    The highest-fidelity evaluation mode: each replication is one
    complete :class:`BatchComputingService` run — cold start, lazy
    deficit provisioning under ``provision_latency``, Eq. 8 filtering
    on the evolving bag runtime estimate, hot-spare retention timers,
    master billing — through
    :func:`repro.sim.backend.run_service_replications`, so the
    ``ServiceReport`` quantities (cost-reduction factor, on-demand
    baseline, preemptions, makespan) come with Monte-Carlo error bars.
    """

    config: ServiceConfig
    batch_config: ServiceBatchConfig
    jobs: tuple[GangJob, ...]
    outcomes: ServiceOutcomes
    backend: str

    @property
    def n_replications(self) -> int:
        return self.outcomes.n_replications

    @property
    def mean_makespan(self) -> float:
        return self.outcomes.mean_makespan

    @property
    def mean_wasted_hours(self) -> float:
        return self.outcomes.mean_wasted_hours

    @property
    def failure_fraction(self) -> float:
        """Fraction of service runs that saw at least one gang abort."""
        return self.outcomes.failure_fraction

    @property
    def total_work_hours(self) -> float:
        """Ideal VM-hours of the bag (work x gang width, summed)."""
        return self.outcomes.total_work_hours

    def mean_cost_per_job(
        self, preemptible_rate: float, master_rate: float = 0.0
    ) -> float:
        """Mean billed service-run cost per bag member."""
        return self.outcomes.mean_cost(preemptible_rate, master_rate) / len(self.jobs)

    def cost_reduction_factor(
        self,
        preemptible_rate: float,
        on_demand_rate: float,
        master_rate: float = 0.0,
    ) -> float:
        """Mean Fig. 9a metric: on-demand baseline over mean billed cost."""
        check_positive("preemptible_rate", preemptible_rate)
        check_nonnegative("on_demand_rate", on_demand_rate)
        spend = self.outcomes.mean_cost(preemptible_rate, master_rate)
        baseline = self.outcomes.on_demand_baseline(on_demand_rate)
        return baseline / spend if spend > 0 else float("inf")

    def summary(self) -> str:
        flags = (
            f"reuse={'on' if self.batch_config.use_reuse_policy else 'off'} "
            f"ckpt={'dp' if self.batch_config.checkpoint == 'dp' else 'on' if self.batch_config.checkpoint_interval else 'off'} "
            f"lat={self.batch_config.provision_latency:g}h "
            f"fleet={self.batch_config.max_vms}"
        )
        return (
            f"[{flags}] {len(self.jobs)} jobs x n={self.n_replications} "
            f"({self.backend}): E[makespan] {self.mean_makespan:.3f} h, "
            f"E[waste] {self.mean_wasted_hours:.3f} h, "
            f"P(any abort) {self.failure_fraction:.3f}"
        )


@dataclass(frozen=True)
class TenantEvaluation:
    """Scored outcome of one multi-tenant traffic sweep.

    The traffic-serving evaluation mode: each replication replays the
    whole traffic trace through the full controller semantics plus the
    tenancy layer (inter-tenant scheduling, admission, elastic fleet
    sizing) via :func:`repro.sim.backend.run_tenant_replications`; see
    :func:`repro.traffic.metrics.tenant_report` for the per-tenant SLO
    aggregation of :attr:`outcomes`.
    """

    config: ServiceConfig
    tenancy_config: TenancyConfig
    outcomes: TenantOutcomes
    backend: str

    @property
    def n_replications(self) -> int:
        return self.outcomes.n_replications

    @property
    def mean_makespan(self) -> float:
        return self.outcomes.mean_makespan

    @property
    def mean_wait_hours(self) -> float:
        """Mean queueing delay over all admitted jobs and replications."""
        return self.outcomes.mean_wait_hours

    @property
    def admitted_fraction(self) -> float:
        return float(self.outcomes.admitted_fraction.mean())

    def cost_reduction_factor(
        self,
        preemptible_rate: float,
        on_demand_rate: float,
        master_rate: float = 0.0,
    ) -> float:
        """Mean Fig. 9a metric over the admitted workload."""
        crf = self.outcomes.cost_reduction_factor(
            preemptible_rate, on_demand_rate, master_rate
        )
        return float(crf.mean()) if crf.size else float("inf")

    def summary(self) -> str:
        cfg = self.tenancy_config
        flags = (
            f"sched={cfg.scheduling} "
            f"cap={'-' if cfg.admission_cap is None else cfg.admission_cap} "
            f"elastic={'-' if cfg.elastic_vms_per_bag is None else cfg.elastic_vms_per_bag} "
            f"fleet={cfg.max_vms}"
        )
        return (
            f"[{flags}] {self.outcomes.n_jobs} jobs x "
            f"{self.outcomes.n_tenants} tenants x n={self.n_replications} "
            f"({self.backend}): E[wait] {self.mean_wait_hours:.3f} h, "
            f"admitted {100 * self.admitted_fraction:.0f}%"
        )


class ServicePolicyEvaluator:
    """Monte-Carlo scorer for one (lifetime law, service configuration).

    Instantiate directly, or from a live controller via
    :meth:`repro.service.controller.BatchComputingService.policy_evaluator`
    to score exactly the policies the controller is running.

    Parameters
    ----------
    dist:
        Lifetime law of the worker VM type.
    config:
        Service knobs to score; defaults to ``ServiceConfig()``.  Only
        the policy-content fields are read (``use_reuse_policy``,
        ``use_checkpointing``, ``checkpoint_cost``, ``checkpoint_step``,
        ``hot_spare_hours``, ``provision_latency``).
    """

    def __init__(self, dist: LifetimeDistribution, config: ServiceConfig | None = None):
        self.dist = dist
        self.config = config or ServiceConfig()
        # Same criterion choice as BatchComputingService: the literal
        # Eq. 8 form churns fresh VMs for short jobs (see
        # ModelReusePolicy.criterion).
        self.policy: ModelReusePolicy | MemorylessSchedulingPolicy
        if self.config.use_reuse_policy:
            self.policy = ModelReusePolicy(dist, criterion="conditional")
        else:
            self.policy = MemorylessSchedulingPolicy(dist)
        self._ckpt: CheckpointPolicy | None = None
        if self.config.use_checkpointing:
            self._ckpt = CheckpointPolicy(
                dist,
                step=self.config.checkpoint_step,
                delta=self.config.checkpoint_cost,
            )

    def plan_segments(self, job_length: float) -> tuple[float, ...]:
        """Checkpoint segments the configuration runs the job with.

        The DP plan for the job on a fresh VM when checkpointing is on
        (the plan shipped with the job; per-age re-planning is the
        controller's online refinement), one uncheckpointed segment
        otherwise.
        """
        J = check_positive("job_length", job_length)
        if self._ckpt is None or J < self.config.checkpoint_step:
            return (J,)
        return self._ckpt.plan(J, 0.0).segments

    def evaluate(
        self,
        job_length: float,
        *,
        n_replications: int = 1000,
        seed: int | np.random.Generator | None = 0,
        backend: str = "vectorized",
        max_idle_hours: float | None = None,
        max_rounds: int = 10_000,
    ) -> PolicyEvaluation:
        """Score the configuration over ``n_replications`` placements.

        ``max_idle_hours`` bounds the sampled idle gap before each
        arrival (default: twice the hot-spare window, so roughly half
        the arrivals still find the candidate VM).  See the module
        docstring for the replication model and determinism contract.
        """
        J = check_positive("job_length", job_length)
        n = int(n_replications)
        if n < 0:
            raise ValueError(f"n_replications must be >= 0, got {n}")
        hold = self.config.hot_spare_hours
        max_idle = 2.0 * hold if max_idle_hours is None else max_idle_hours
        check_nonnegative("max_idle_hours", max_idle)
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        # Arrival draws: two full-width rows, consumed before the round
        # protocol so both backends see the same generator state.
        vm_ages = rng.random(n) * self.dist.t_max
        idle_gaps = rng.random(n) * max_idle
        spare_available = idle_gaps <= hold
        decisions = self.policy.decide_batch(J, vm_ages)
        reused = spare_available & decisions
        start_ages = np.where(reused, vm_ages, 0.0)
        segments = self.plan_segments(J)
        outcomes = run_replications(
            self.dist,
            segments,
            delta=self.config.checkpoint_cost,
            start_age=start_ages,
            restart_latency=self.config.provision_latency,
            n_replications=n,
            seed=rng,
            backend=backend,
            max_rounds=max_rounds,
        )
        # P(>= 1 preemption) = P(first VM dies inside the plan's total
        # walltime), closed form at each sampled start age.
        walltime = float(sum(segments)) + self.config.checkpoint_cost * (
            len(segments) - 1
        )
        expected = (
            float(
                np.mean(
                    job_failure_probability_batch(self.dist, walltime, start_ages)
                )
            )
            if n
            else 0.0
        )
        return PolicyEvaluation(
            config=self.config,
            job_length=J,
            segments=tuple(segments),
            outcomes=outcomes,
            vm_ages=vm_ages,
            idle_gaps=idle_gaps,
            spare_available=spare_available,
            reused=reused,
            start_ages=start_ages,
            expected_failure_fraction=expected,
            backend=backend,
        )


    @staticmethod
    def _as_bag(jobs) -> tuple[GangJob, ...]:
        """Normalise a jobs argument (``GangJob`` s or tuples) to a bag."""
        return tuple(j if isinstance(j, GangJob) else GangJob(*j) for j in jobs)

    def cluster_config(
        self,
        *,
        pool_size: int | None = None,
        hot_spare: bool = True,
        checkpoint_interval: float | None = None,
    ) -> ClusterConfig:
        """Map the service configuration onto the cluster kernel's knobs.

        ``pool_size`` defaults to the service's ``max_vms``.  When
        checkpointing is on and no interval is given, the kernel runs
        the controller's own per-attempt DP plans via
        ``checkpoint="dp"`` (the batched plan walker), so the mapping
        needs no fixed-interval stand-in.
        """
        dp = checkpoint_interval is None and self.config.use_checkpointing
        return ClusterConfig(
            pool_size=pool_size or self.config.max_vms,
            use_reuse_policy=self.config.use_reuse_policy,
            reuse_criterion="conditional",
            hot_spare=hot_spare,
            checkpoint="dp" if dp else "interval",
            checkpoint_interval=checkpoint_interval,
            checkpoint_cost=self.config.checkpoint_cost,
            checkpoint_step=self.config.checkpoint_step,
        )

    def service_batch_config(
        self,
        *,
        checkpoint_interval: float | None = None,
    ) -> ServiceBatchConfig:
        """Map the service configuration onto the service kernel's knobs.

        The mapping is one-to-one (the kernel models the controller's
        own semantics), checkpointing included: when
        ``use_checkpointing`` is on and no fixed interval resolves, the
        kernel runs the controller's per-attempt DP plans via
        ``checkpoint="dp"`` — see
        :meth:`ServiceBatchConfig.from_service_config`.
        """
        return ServiceBatchConfig.from_service_config(
            self.config, checkpoint_interval=checkpoint_interval
        )

    def evaluate_service(
        self,
        jobs,
        *,
        n_replications: int = 256,
        seed: int | np.random.Generator | None = 0,
        backend: str = "vectorized",
        checkpoint_interval: float | None = None,
        max_events: int = 1_000_000,
    ) -> ServiceEvaluation:
        """Score the configuration over full end-to-end service runs.

        ``jobs`` is the bag — :class:`GangJob` entries or
        ``(work_hours, width)`` tuples.  Each replication replays the
        complete Fig. 3 controller loop (cold start, deficit
        provisioning with boot latency, bag-estimate Eq. 8 filtering,
        hot-spare retention, master billing, optional backfill) through
        the backend-selection API; the event path drives the real
        :class:`BatchComputingService` and is the oracle (same seed,
        identical outcomes within 1e-9).  This supersedes
        :meth:`evaluate_cluster` whenever controller effects —
        provisioning latency, master cost, estimation feedback — are
        part of the question.
        """
        bag = self._as_bag(jobs)
        batch_cfg = self.service_batch_config(checkpoint_interval=checkpoint_interval)
        outcomes = run_service_replications(
            self.dist,
            bag,
            config=batch_cfg,
            n_replications=n_replications,
            seed=seed,
            backend=backend,
            max_events=max_events,
        )
        return ServiceEvaluation(
            config=self.config,
            batch_config=batch_cfg,
            jobs=bag,
            outcomes=outcomes,
            backend=backend,
        )

    def evaluate_cluster(
        self,
        jobs,
        *,
        n_replications: int = 256,
        seed: int | np.random.Generator | None = 0,
        backend: str = "vectorized",
        pool_size: int | None = None,
        hot_spare: bool = True,
        checkpoint_interval: float | None = None,
        max_events: int = 1_000_000,
    ) -> ClusterEvaluation:
        """Score the configuration over whole-cluster bag replications.

        ``jobs`` is the bag — :class:`GangJob` entries or
        ``(work_hours, width)`` tuples.  Each replication simulates the
        full Section 5 scenario (FIFO gang queue, Eq. 8 reuse
        refreshes, hot-spare substitution, checkpoint restarts) through
        the backend-selection API, so a policy grid scores at vectorized
        speed with the event-driven :class:`ClusterManager` path as the
        oracle (same seed, identical outcomes within 1e-9).

        This scores a *pre-booted pool* (the cluster kernel's model);
        for the controller's own cold-start semantics — deficit
        provisioning, boot latency, master billing, bag-estimate
        feedback — use :meth:`evaluate_service`.
        """
        bag = self._as_bag(jobs)
        cluster_cfg = self.cluster_config(
            pool_size=pool_size,
            hot_spare=hot_spare,
            checkpoint_interval=checkpoint_interval,
        )
        outcomes = run_cluster_replications(
            self.dist,
            bag,
            config=cluster_cfg,
            n_replications=n_replications,
            seed=seed,
            backend=backend,
            max_events=max_events,
        )
        return ClusterEvaluation(
            config=self.config,
            cluster_config=cluster_cfg,
            jobs=bag,
            outcomes=outcomes,
            backend=backend,
        )

    def tenancy_config(
        self,
        *,
        scheduling: str = "fifo",
        tenant_weights=None,
        admission_cap: int | None = None,
        elastic_vms_per_bag: int | None = None,
        checkpoint_interval: float | None = None,
        estimate_window: int = 16,
    ) -> TenancyConfig:
        """Map the service configuration onto the tenancy kernel's knobs.

        The service-kernel subset follows
        :meth:`service_batch_config` (including the ``checkpoint="dp"``
        mapping when ``use_checkpointing`` is on with no fixed
        interval); the tenancy-specific knobs — scheduling policy, weights, admission
        cap, elastic sizing — are passed through.  ``backfill`` has no
        tenancy equivalent (inter-tenant policies own the queue order)
        and is rejected, exactly like the live
        :class:`~repro.traffic.multitenant.MultiTenantService`.
        """
        if self.config.backfill:
            raise ValueError(
                "backfill is incompatible with inter-tenant scheduling; "
                "pick a tenancy scheduling policy instead"
            )
        interval = (
            checkpoint_interval
            if checkpoint_interval is not None
            else self.config.checkpoint_interval
        )
        dp = interval is None and self.config.use_checkpointing
        return TenancyConfig(
            max_vms=self.config.max_vms,
            use_reuse_policy=self.config.use_reuse_policy,
            hot_spare_hours=self.config.hot_spare_hours,
            provision_latency=self.config.provision_latency,
            run_master=self.config.run_master,
            checkpoint="dp" if dp else "interval",
            checkpoint_interval=interval,
            checkpoint_cost=self.config.checkpoint_cost,
            checkpoint_step=self.config.checkpoint_step,
            estimate_window=estimate_window,
            max_attempts_per_job=self.config.max_attempts_per_job,
            livelock_threshold=self.config.livelock_threshold,
            scheduling=scheduling,
            tenant_weights=tenant_weights,
            admission_cap=admission_cap,
            elastic_vms_per_bag=elastic_vms_per_bag,
        )

    def evaluate_tenants(
        self,
        traffic,
        *,
        n_replications: int = 256,
        seed: int | np.random.Generator | None = 0,
        backend: str = "vectorized",
        scheduling: str = "fifo",
        tenant_weights=None,
        admission_cap: int | None = None,
        elastic_vms_per_bag: int | None = None,
        checkpoint_interval: float | None = None,
        estimate_window: int = 16,
        max_events: int = 1_000_000,
        chunk_size: int | None = None,
    ) -> TenantEvaluation:
        """Score the configuration over multi-tenant traffic runs.

        ``traffic`` is a sequence of
        :class:`~repro.sim.tenancy_vectorized.BagSubmission` s (or
        ``(tenant, time, jobs)`` triples), typically one
        :func:`repro.traffic.arrivals.sample_traffic` draw or an SWF
        import (:func:`repro.traces.swf.swf_traffic`).  Each
        replication serves the whole trace on a shared fleet under the
        chosen inter-tenant scheduling policy; the event path drives
        the real :class:`~repro.traffic.multitenant.MultiTenantService`
        and is the oracle (same seed, identical outcomes within 1e-9).
        ``chunk_size`` streams the batch in bounded-memory chunks (see
        :func:`repro.sim.backend.run_tenant_replications`) — set it for
        production-scale traces (tens of thousands of jobs).  This is
        the top of the evaluation-mode ladder: use it whenever the
        question involves *traffic* — contention across tenants,
        admission, fairness — rather than a single bag.
        """
        cfg = self.tenancy_config(
            scheduling=scheduling,
            tenant_weights=tenant_weights,
            admission_cap=admission_cap,
            elastic_vms_per_bag=elastic_vms_per_bag,
            checkpoint_interval=checkpoint_interval,
            estimate_window=estimate_window,
        )
        outcomes = run_tenant_replications(
            self.dist,
            traffic,
            config=cfg,
            n_replications=n_replications,
            seed=seed,
            backend=backend,
            max_events=max_events,
            chunk_size=chunk_size,
        )
        return TenantEvaluation(
            config=self.config,
            tenancy_config=cfg,
            outcomes=outcomes,
            backend=backend,
        )


def sweep_configurations(
    dist: LifetimeDistribution,
    configs: Sequence[ServiceConfig],
    job_length: float,
    *,
    n_replications: int = 1000,
    seed: int = 0,
    backend: str = "vectorized",
    max_idle_hours: float | None = None,
) -> list[PolicyEvaluation]:
    """Score several configurations with common random numbers.

    Every configuration is evaluated from a fresh generator with the
    same ``seed``, so all of them consume identical uniforms: identical
    arrival ages, identical idle-gap quantiles, and identical round-0
    lifetime draws — differences between entries are policy effects,
    not sampling noise (paired comparison).  Note the gap *hours* scale
    with each configuration's window (``2 * hot_spare_hours`` unless
    ``max_idle_hours`` pins them), so across different windows it is the
    gap quantiles, not the hours, that are paired.
    """
    return [
        ServicePolicyEvaluator(dist, cfg).evaluate(
            job_length,
            n_replications=n_replications,
            seed=seed,
            backend=backend,
            max_idle_hours=max_idle_hours,
        )
        for cfg in configs
    ]
