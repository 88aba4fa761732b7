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

import operator
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
from repro.sim.backend import ReplicationOutcomes, run_replications
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "PolicyEvaluation",
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

    ``seed`` must therefore be an integer: a shared ``Generator`` (or
    ``None``) would hand each configuration different draws, so it is
    rejected with :class:`TypeError` before any draw.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(
            "sweep_configurations pairs configurations by re-seeding a fresh "
            f"generator for each one, so seed must be an int, got {seed!r}"
        ) from None
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
