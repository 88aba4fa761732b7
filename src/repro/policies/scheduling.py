"""VM-reuse job scheduling (paper Section 4.2, evaluated in Figs. 5-7).

When a job of length ``T`` is ready and a VM of age ``s`` is free, the
service must choose: run on the aged VM, or discard it and launch fresh.
The paper's rule compares the Eq. 8 expected makespans::

    reuse  iff  E[T_s] <= E[T_0]   i.e.   int_s^{s+T} t f <= int_0^T t f

The *memoryless baseline* (what SpotOn-style systems do) always reuses —
under an exponential belief the VM's age carries no information.

The figures plot the resulting *job failure probability*: the chance the
chosen VM is preempted inside the job's window, conditioned on it being
alive when the job starts (for a fresh VM that is simply ``F(T)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.distributions.base import LifetimeDistribution
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "SchedulingDecision",
    "ModelReusePolicy",
    "MemorylessSchedulingPolicy",
    "job_failure_probability",
    "job_failure_probability_batch",
    "average_failure_probability",
    "effective_start_ages",
]


class SchedulingDecision(enum.Enum):
    """Outcome of a scheduling query for (job, VM-age)."""

    REUSE = "reuse"
    NEW_VM = "new_vm"


def job_failure_probability(
    dist: LifetimeDistribution, job_length: float, start_age: float
) -> float:
    """``P(preempted during job | VM alive at start_age)``.

    ``F(T)`` for a fresh VM; the conditional interval probability for an
    aged one.  Returns 1.0 when the job cannot fit before the support
    edge (``start_age + T > t_max``) — the deterministic deadline kill of
    Fig. 5's memoryless curve.
    """
    T = check_positive("job_length", job_length)
    s = check_nonnegative("start_age", start_age)
    return dist.conditional_failure_probability(s, T)


def job_failure_probability_batch(
    dist: LifetimeDistribution, job_length: float, start_ages
) -> np.ndarray:
    """Vectorised :func:`job_failure_probability` over an age array.

    One array pass through the distribution's ``cdf``/``sf``; elementwise
    identical to the scalar form (1.0 where survival at the start age is
    zero).  This is the closed-form counterpart the Fig. 5/6 Monte-Carlo
    variants cross-validate against.
    """
    T = check_positive("job_length", job_length)
    s = np.asarray(start_ages, dtype=float)
    if not (s >= 0.0).all():  # negated so NaN is rejected too
        raise ValueError("start_ages must be >= 0")
    surv = np.asarray(dist.sf(s), dtype=float)
    mass = np.asarray(dist.cdf(s + T), dtype=float) - np.asarray(
        dist.cdf(s), dtype=float
    )
    safe = np.where(surv > 0.0, surv, 1.0)
    return np.where(surv > 0.0, np.clip(mass / safe, 0.0, 1.0), 1.0)


@dataclass(frozen=True)
class ModelReusePolicy:
    """The paper's model-driven reuse policy for one lifetime law.

    Parameters
    ----------
    dist:
        Fitted (or ground-truth) lifetime distribution of the VM type.
    criterion:
        ``"paper"`` (default) applies Eq. 8 literally: compare
        ``int_s^{s+T} t f(t) dt`` against ``int_0^T t f(t) dt``.  Because
        the integrand weights the VM's *absolute* age rather than the
        work actually lost, the literal form prefers fresh VMs over
        perfectly stable aged ones for short jobs.  ``"conditional"``
        fixes that: it compares the expected lost work *relative to the
        job's start*, conditioned on the VM being alive at age ``s``::

            C(s) = int_s^{s+T} (x - s) f(x) dx / (1 - F(s))

        Both coincide at ``s = 0`` and both flip to NEW_VM near the
        deadline; the batch service uses "conditional" (see DESIGN.md).
    """

    dist: LifetimeDistribution
    criterion: str = "paper"

    def __post_init__(self) -> None:
        if self.criterion not in ("paper", "conditional"):
            raise ValueError(
                f"criterion must be 'paper' or 'conditional', got {self.criterion!r}"
            )

    def reuse_cost(self, job_length: float, vm_age: float) -> float:
        """Expected preemption cost of running the job on a VM aged ``vm_age``."""
        T = check_positive("job_length", job_length)
        s = check_nonnegative("vm_age", vm_age)
        moment = self.dist.truncated_first_moment(s, s + T)
        if self.criterion == "paper":
            return moment
        surv = float(np.asarray(self.dist.sf(s), dtype=float))
        if surv <= 0.0:
            return float("inf")
        end = min(s + T, self.dist.t_max)
        mass = float(np.asarray(self.dist.cdf(end), dtype=float)) - float(
            np.asarray(self.dist.cdf(s), dtype=float)
        )
        return max(moment - s * mass, 0.0) / surv

    def decide(self, job_length: float, vm_age: float) -> SchedulingDecision:
        """Reuse iff the Eq. 8 makespan on the aged VM is no worse."""
        T = check_positive("job_length", job_length)
        s = check_nonnegative("vm_age", vm_age)
        if s >= self.dist.t_max:
            # Past the support edge the truncated moment is clipped to 0
            # and Eq. 8 loses meaning; the VM is (about to be) dead.
            return SchedulingDecision.NEW_VM
        if self.reuse_cost(T, s) <= self.reuse_cost(T, 0.0):
            return SchedulingDecision.REUSE
        return SchedulingDecision.NEW_VM

    def reuse_cost_batch(self, job_length: float, vm_ages) -> np.ndarray:
        """Vectorised :meth:`reuse_cost` over an array of VM ages.

        One pass through the distribution's batched truncated moment and
        ``cdf``/``sf`` — elementwise identical to the scalar form (``inf``
        where survival at the age is zero, under the conditional
        criterion).  The fixed-length special case of
        :meth:`reuse_cost_pairs`.
        """
        T = check_positive("job_length", job_length)
        return self.reuse_cost_pairs(T, vm_ages)

    def decide_batch(self, job_length: float, vm_ages) -> np.ndarray:
        """Eq. 8 decisions over an age array: ``True`` = reuse the aged VM.

        The batched counterpart of :meth:`decide` — exactly the same
        decisions (the scalar-vs-batch agreement is pinned by the test
        suite), computed in one vectorised pass so that the
        policy-evaluation layer can score millions of placements without
        a Python loop over ages.  The fixed-length special case of
        :meth:`decide_pairs`.
        """
        T = check_positive("job_length", job_length)
        return self.decide_pairs(T, vm_ages)

    def reuse_cost_pairs(self, job_lengths, vm_ages) -> np.ndarray:
        """Vectorised :meth:`reuse_cost` over paired (length, age) arrays.

        Unlike :meth:`reuse_cost_batch` the job length varies elementwise
        too — the shape the cluster kernel needs, where every replication
        evaluates its own queue head against its own pool ages.  The
        arrays broadcast against each other; elementwise identical to the
        scalar form (``inf`` where survival at the age is zero, under the
        conditional criterion).
        """
        T = np.asarray(job_lengths, dtype=float)
        s = np.asarray(vm_ages, dtype=float)
        # Negated comparisons so that NaN is rejected too (the scalar
        # form's check_positive/check_nonnegative contract).
        if not (T > 0.0).all():
            raise ValueError("job_lengths must be > 0")
        if not (s >= 0.0).all():
            raise ValueError("vm_ages must be >= 0")
        moment, surv, mass = self.dist.reuse_window_terms(s, T)
        if self.criterion == "paper":
            return moment
        gain = np.maximum(moment - s * mass, 0.0)
        alive = surv > 0.0
        if alive.all():  # no dead start age to guard (the usual case)
            return gain / surv
        return np.where(alive, gain / np.where(alive, surv, 1.0), np.inf)

    def decide_pairs(self, job_lengths, vm_ages) -> np.ndarray:
        """Eq. 8 decisions over paired (length, age) arrays: ``True`` = reuse.

        The fully-batched counterpart of :meth:`decide`: element ``i``
        asks about a job of length ``job_lengths[i]`` on a VM aged
        ``vm_ages[i]`` (the arrays broadcast).  The fresh-VM cost rides
        in the aged :meth:`reuse_cost_pairs` pass, taken once for a
        scalar length and once per run of equal lengths in 1-D
        equal-shape pairs (the kernels' cells, a row's cells adjacent);
        other shapes take it in a second pass.  Same decisions as the
        scalar form at every element (pinned by the test suite).
        """
        T = np.asarray(job_lengths, dtype=float)
        s = np.asarray(vm_ages, dtype=float)
        if T.ndim == 0:
            cost = self.reuse_cost_pairs(T, np.append(s, 0.0))
            aged, fresh = cost[:-1].reshape(s.shape), cost[-1]
        elif T.ndim == 1 and T.shape == s.shape:
            n, lengths, at = T.size, T[:1], slice(None)
            step = T[1:] != T[:-1]
            if np.count_nonzero(step):
                new = np.concatenate(([True], step))
                lengths, at = T[new], np.cumsum(new) - 1
            ages = np.concatenate((s, np.zeros(lengths.size)))
            cost = self.reuse_cost_pairs(np.concatenate((T, lengths)), ages)
            aged, fresh = cost[:n], cost[n:][at]
        else:
            aged = self.reuse_cost_pairs(T, s)
            fresh = self.reuse_cost_pairs(T, np.zeros(T.shape))
        return (aged <= fresh) & (s < self.dist.t_max)

    def failure_probability_batch(self, job_length: float, vm_ages) -> np.ndarray:
        """Closed-form failure probability of the policy's VM choices."""
        ages, _ = effective_start_ages(self, job_length, vm_ages)
        return job_failure_probability_batch(self.dist, job_length, ages)

    def failure_probability(self, job_length: float, vm_age: float) -> float:
        """Failure probability of the job under the policy's VM choice."""
        if self.decide(job_length, vm_age) is SchedulingDecision.REUSE:
            return job_failure_probability(self.dist, job_length, vm_age)
        return job_failure_probability(self.dist, job_length, 0.0)

    def critical_age(self, job_length: float, *, tol: float = 1e-6) -> float:
        """Oldest VM age at which reuse is still preferred for this job.

        Beyond this age the policy launches fresh VMs (the flat region of
        Fig. 5).  Found by bisection on the reuse-vs-fresh cost gap over
        the late-life region where the gap is monotone increasing.
        """
        T = check_positive("job_length", job_length)
        fresh_cost = self.reuse_cost(T, 0.0)

        def gap(s: float) -> float:
            return self.reuse_cost(T, s) - fresh_cost

        # The gap is (at most briefly positive near age 0 for short jobs,
        # then) negative through the stable phase, and crosses zero for
        # good as the job window enters the final phase.  The critical age
        # is that *last* upward crossing.  Only ages whose job window fits
        # inside the support are scanned: beyond t_max - T the truncated
        # moment is clipped and the gap loses meaning.
        hi = self.dist.t_max - T
        if hi <= 0.0:
            return 0.0  # job cannot fit on any aged VM
        grid = np.linspace(0.0, hi, 512)
        # One batched pass over the grid; elementwise identical to gap().
        values = self.reuse_cost_pairs(T, grid) - fresh_cost
        nonpos = np.flatnonzero(values <= 0.0)
        if nonpos.size == 0:
            return 0.0  # reuse never preferred for this job length
        k = int(nonpos[-1])
        if k == len(grid) - 1 or values[k + 1] <= 0.0:
            return hi
        return float(brentq(gap, float(grid[k]), float(grid[k + 1]), xtol=tol))

    def critical_job_length(self, vm_age: float, *, tol: float = 1e-6) -> float:
        """``T*`` of Section 4.2: job length where reuse flips to fresh.

        Returns ``inf`` when reuse is preferred for every feasible length
        at this age (the common case deep in the stable phase).
        """
        s = check_nonnegative("vm_age", vm_age)

        def gap(T: float) -> float:
            return self.reuse_cost(T, s) - self.reuse_cost(T, 0.0)

        t_hi = self.dist.t_max
        lengths = np.linspace(1e-3, t_hi, 512)
        # One batched pass per side; elementwise identical to gap().
        values = self.reuse_cost_pairs(lengths, s) - self.reuse_cost_pairs(
            lengths, 0.0
        )
        pos = np.flatnonzero(values > 0.0)
        if pos.size == 0:
            return float("inf")
        k = int(pos[0])
        if k == 0:
            return float(lengths[0])
        return float(brentq(gap, float(lengths[k - 1]), float(lengths[k]), xtol=tol))


@dataclass(frozen=True)
class MemorylessSchedulingPolicy:
    """Baseline: always reuse the running VM (age is ignored).

    This is the default behaviour of memoryless transient-computing
    systems (e.g. SpotOn), which the paper compares against in Figs. 5-7.
    """

    dist: LifetimeDistribution

    def decide(self, job_length: float, vm_age: float) -> SchedulingDecision:
        check_positive("job_length", job_length)
        check_nonnegative("vm_age", vm_age)
        return SchedulingDecision.REUSE

    def decide_batch(self, job_length: float, vm_ages) -> np.ndarray:
        """Always-reuse over an age array (all ``True``)."""
        check_positive("job_length", job_length)
        s = np.asarray(vm_ages, dtype=float)
        if not (s >= 0.0).all():  # negated so NaN is rejected too
            raise ValueError("vm_ages must be >= 0")
        return np.ones(s.shape, dtype=bool)

    def failure_probability(self, job_length: float, vm_age: float) -> float:
        return job_failure_probability(self.dist, job_length, vm_age)

    def failure_probability_batch(self, job_length: float, vm_ages) -> np.ndarray:
        """Closed-form failure probability at each (always reused) age."""
        return job_failure_probability_batch(self.dist, job_length, vm_ages)


def effective_start_ages(
    policy: "ModelReusePolicy | MemorylessSchedulingPolicy",
    job_length: float,
    vm_ages,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a policy's batch decision to candidate VM ages.

    Returns ``(start_ages, reused)``: the age each job actually starts
    at (the candidate's age where the policy reuses, 0 for a fresh VM)
    and the boolean reuse mask.  This is the array form of the
    controller's placement step, consumed directly by
    :func:`repro.sim.vectorized.simulate_job_attempts_vectorized` and
    the service evaluator.
    """
    ages = np.asarray(vm_ages, dtype=float)
    reused = policy.decide_batch(job_length, ages)
    return np.where(reused, ages, 0.0), reused


def average_failure_probability(
    policy: ModelReusePolicy | MemorylessSchedulingPolicy,
    job_length: float,
    *,
    num_ages: int = 256,
    max_age: float | None = None,
) -> float:
    """Failure probability averaged over uniformly distributed start ages.

    This is the Fig. 6 metric: jobs arrive at arbitrary points in a VM's
    life, so average ``failure_probability(T, s)`` over ``s in [0, max_age)``
    (default: the distribution's support).
    """
    T = check_positive("job_length", job_length)
    hi = max_age if max_age is not None else policy.dist.t_max
    check_positive("max_age", hi)
    ages = np.linspace(0.0, hi, num_ages, endpoint=False)
    probs = np.array([policy.failure_probability(T, float(s)) for s in ages])
    return float(np.mean(probs))
