"""Slurm-like cluster manager.

The paper's service drives a Slurm cluster whose "cloud" nodes are
preemptible VMs; Slurm handles node loss and reports job completions and
failures back to the controller via callbacks.  This module reproduces
that contract:

* a node registry (VMs join and leave as they launch and die),
* a FIFO job queue with gang scheduling (a job occupies ``width`` nodes
  at once; MPI semantics — losing any node aborts the attempt),
* pluggable *node selection* and *checkpoint planning* hooks, through
  which the service controller injects the Section 4 policies,
* a queue discipline (FIFO, optionally with backfill or a priority
  key) and an allocator plugin (:mod:`repro.sim.placement`) that fixes
  the *placement order* of free nodes over a heterogeneous pool
  catalog,
* completion / failure callbacks (the "Slurm call-backs" of Fig. 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.sim.engine import Simulator
from repro.sim.events import EventLog, JobCompleted, JobFailed, JobStarted
from repro.sim.placement import Allocator, PoolSpec, make_allocator
from repro.sim.runner import JobExecution
from repro.sim.vm import SimVM
from repro.utils.validation import check_positive

__all__ = ["JobState", "SimJob", "ClusterManager"]


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class SimJob:
    """A batch job: ``work_hours`` of computation on ``width`` gang nodes.

    ``progress_hours`` tracks checkpointed work; after a preemption the
    job resumes from there.
    """

    job_id: int
    work_hours: float
    width: int = 1
    bag_id: int | None = None
    submit_time: float = 0.0
    state: JobState = JobState.PENDING
    progress_hours: float = 0.0
    attempts: int = 0
    failures: int = 0
    start_time: float | None = None
    finish_time: float | None = None

    def __post_init__(self) -> None:
        check_positive("work_hours", self.work_hours)
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")

    @property
    def remaining_hours(self) -> float:
        return max(self.work_hours - self.progress_hours, 0.0)

    @property
    def makespan(self) -> float | None:
        """Submission-to-completion wall time, once finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


# Hook signatures ------------------------------------------------------
#: Given (job, free VMs) return the VMs to run on, or None to defer
#: (e.g. because new VMs should be launched instead).
NodeSelector = Callable[[SimJob, Sequence[SimVM]], "list[SimVM] | None"]
#: Given (job, age of the oldest selected VM) return checkpoint segments
#: (hours of work between checkpoints) or None for no checkpointing.
CheckpointPlanner = Callable[[SimJob, float], "list[float] | None"]


def _default_selector(job: SimJob, free: Sequence[SimVM]) -> list[SimVM] | None:
    if len(free) < job.width:
        return None
    return list(free[: job.width])


def _no_checkpoints(job: SimJob, start_age: float) -> list[float] | None:
    return None


class ClusterManager:
    """FIFO gang scheduler over a dynamic pool of preemptible nodes.

    Head-of-line semantics
    ----------------------
    The queue is strict FIFO by default: when the selector cannot place
    the *head* job (e.g. a wide gang waiting for nodes), no job behind it
    starts either, exactly like Slurm's default FIFO scheduler — a stuck
    wide job blocks arbitrarily narrow ones (pinned by
    ``tests/test_cluster_scheduling.py``).  Pass ``backfill=True`` for
    opportunistic backfill: jobs behind a stuck head may start on nodes
    the head cannot use.  This is *unreserved* backfill (no start-time
    guarantee for the head), so a steady stream of narrow jobs can starve
    a wide one; callers that need fairness must throttle submissions.

    ``on_queue_stalled`` fires once per scheduling pass for the stuck
    head job (regardless of how many nodes are free — a selector that
    returns an empty list stalls the head just like ``None``).

    Queue discipline and placement
    ------------------------------
    ``backfill`` lets the pass scan past a stuck head, and
    :meth:`enable_keyed_queue` switches the queue to priority-key order.
    The free-node placement order is a plugin
    (:mod:`repro.sim.placement`): ``allocator`` + ``pools`` order idle
    nodes by the allocator's pool ranking before age, so gangs grab (and
    stalled queues evict) nodes pool-rank-first over a heterogeneous
    fleet.
    """

    #: Optional :class:`repro.obs.MetricsRegistry`.  ``None`` (the class
    #: default) keeps scheduling paths instrumentation-free; when set,
    #: the manager records the peak queue depth seen at insertion time.
    obs = None

    def __init__(
        self,
        sim: Simulator,
        *,
        log: EventLog | None = None,
        node_selector: NodeSelector = _default_selector,
        checkpoint_planner: CheckpointPlanner = _no_checkpoints,
        checkpoint_cost: float = 1.0 / 60.0,
        backfill: bool = False,
        allocator: Allocator | str | None = None,
        pools: "Sequence[PoolSpec] | None" = None,
    ):
        self.sim = sim
        self.log = log if log is not None else EventLog()
        self.node_selector = node_selector
        self.checkpoint_planner = checkpoint_planner
        self.checkpoint_cost = checkpoint_cost
        self.backfill = bool(backfill)
        self.allocator = make_allocator(allocator)
        self.pools = None if pools is None else tuple(pools)
        self._keyed = False
        self._requeue_key = -1.0
        self._submit_seq = 0
        self._free: dict[int, SimVM] = {}
        self._busy: dict[int, SimVM] = {}
        self._queue: list[SimJob] = []
        self._executions: dict[int, JobExecution] = {}
        self.completed: list[SimJob] = []
        #: external callbacks: fired after internal state updates.
        self.on_job_complete: list[Callable[[SimJob], None]] = []
        self.on_job_failed: list[Callable[[SimJob, SimVM], None]] = []
        self.on_node_idle: list[Callable[[SimVM], None]] = []
        self.on_queue_stalled: list[Callable[[SimJob, int], None]] = []

    # -- node registry --------------------------------------------------
    def add_node(self, vm: SimVM) -> None:
        """Register a running VM as a schedulable node."""
        if not vm.alive:
            raise ValueError(f"VM {vm.vm_id} is not running")
        vm.on_preempt.append(self._node_preempted)
        self._free[vm.vm_id] = vm
        self.try_schedule()

    def remove_node(self, vm: SimVM) -> None:
        """Deregister an idle node (e.g. hot-spare expiry)."""
        if vm.vm_id in self._busy:
            raise ValueError(f"VM {vm.vm_id} is busy; cannot remove")
        self._free.pop(vm.vm_id, None)

    def free_nodes(self, job: SimJob | None = None) -> list[SimVM]:
        """Idle registered nodes in placement order.

        Single pool (or no catalog): oldest launch first, the historical
        stable order.  With a multi-pool catalog the allocator's pool
        ranking is the primary key — refined per tenant when ``job``
        carries one — so selection, eviction, and hot-spare substitution
        all walk pools best-first.
        """
        vms = self._free.values()
        if self.pools is None or len(self.pools) <= 1:
            return sorted(vms, key=lambda v: (v.launch_time, v.vm_id))
        tenant = getattr(job, "tenant", None) if job is not None else None
        rank = self.allocator.rank_for(self.pools, tenant)
        rank_of = {p: i for i, p in enumerate(rank)}
        return sorted(
            vms, key=lambda v: (rank_of[v.pool], v.launch_time, v.vm_id)
        )

    def busy_nodes(self) -> list[SimVM]:
        return sorted(self._busy.values(), key=lambda v: v.vm_id)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def queue_head(self) -> SimJob | None:
        """The job next in line (None when the queue is empty)."""
        return self._queue[0] if self._queue else None

    # -- job queue --------------------------------------------------------
    def enable_keyed_queue(self) -> None:
        """Switch the queue from FIFO to priority-key order.

        Queued jobs are kept in ascending ``job.queue_key`` order (FIFO
        among equal keys); requeued preempted jobs receive decreasing
        negative keys, preserving the requeue-at-head contract.  Jobs
        submitted without a key get their submission index, so a purely
        unkeyed workload still behaves FIFO.  The multi-tenant service
        front end (:mod:`repro.traffic.multitenant`) uses this to run
        its inter-tenant scheduling policies through the unmodified
        gang-scheduling core.  Must be enabled while the queue is empty.
        """
        if self._queue:
            raise RuntimeError("cannot enable keyed queueing on a non-empty queue")
        self._keyed = True

    def submit(self, job: SimJob) -> None:
        if job.state is not JobState.PENDING:
            raise ValueError(f"job {job.job_id} is {job.state.value}")
        job.submit_time = self.sim.now if job.submit_time == 0.0 else job.submit_time
        if self._keyed:
            key = getattr(job, "queue_key", None)
            if key is None:
                key = float(self._submit_seq)
                job.queue_key = key  # type: ignore[attr-defined]
            self._submit_seq += 1
            idx = len(self._queue)
            while idx > 0 and getattr(self._queue[idx - 1], "queue_key") > key:
                idx -= 1
            self._queue.insert(idx, job)
        else:
            self._queue.append(job)
        if self.obs is not None:
            self.obs.gauge("queue.peak_depth").set(len(self._queue))
        self.try_schedule()

    def try_schedule(self) -> None:
        """Start queued jobs while the selector yields node sets (FIFO).

        Strict FIFO stops at the first job the selector cannot place
        (head-of-line blocking); with ``backfill`` the scan continues
        past stuck jobs.  ``on_queue_stalled`` fires for the stuck head
        whether the selector deferred with ``None`` or an empty list —
        callbacks may register nodes (recursing into this method), in
        which case the scan restarts from the new head.
        """
        scan = 0
        while scan < len(self._queue):
            job = self._queue[scan]
            free = self.free_nodes(job)
            selected = self.node_selector(job, free)
            if not selected:
                if scan == 0:
                    for cb in list(self.on_queue_stalled):
                        cb(job, len(free))
                    if self._queue and self._queue[0] is not job:
                        # A callback unblocked the head (e.g. by adding
                        # nodes, which recurses here); rescan from the top.
                        scan = 0
                        continue
                if not self.backfill:
                    return
                scan += 1
                continue
            if len(selected) != job.width:
                raise RuntimeError(
                    f"selector returned {len(selected)} nodes for width {job.width}"
                )
            self._queue.pop(scan)
            self._start(job, selected)
            # No scan reset: the pool only shrank, so jobs already skipped
            # over cannot have become startable; the next queued job has
            # shifted into this index.

    def _start(self, job: SimJob, vms: list[SimVM]) -> None:
        for vm in vms:
            self._free.pop(vm.vm_id)
            self._busy[vm.vm_id] = vm
        job.state = JobState.RUNNING
        job.attempts += 1
        if job.start_time is None:
            job.start_time = self.sim.now
        oldest_age = max(vm.age(self.sim.now) for vm in vms)
        segments = self.checkpoint_planner(job, oldest_age)
        execution = JobExecution(
            sim=self.sim,
            job=job,
            vms=vms,
            segments=segments,
            checkpoint_cost=self.checkpoint_cost,
            log=self.log,
            on_complete=self._job_completed,
            on_abort=self._job_aborted,
        )
        self._executions[job.job_id] = execution
        self.log.record(
            JobStarted(time=self.sim.now, job_id=job.job_id, vm_ids=tuple(v.vm_id for v in vms))
        )
        execution.begin()

    # -- execution callbacks ---------------------------------------------
    def _release(self, vms: Sequence[SimVM]) -> None:
        for vm in vms:
            self._busy.pop(vm.vm_id, None)
            if vm.alive:
                self._free[vm.vm_id] = vm
                for cb in list(self.on_node_idle):
                    cb(vm)

    def _job_completed(self, job: SimJob, vms: Sequence[SimVM]) -> None:
        job.state = JobState.COMPLETED
        job.finish_time = self.sim.now
        self._executions.pop(job.job_id, None)
        self.completed.append(job)
        self.log.record(
            JobCompleted(
                time=self.sim.now, job_id=job.job_id, makespan_hours=job.makespan or 0.0
            )
        )
        self._release(vms)
        for cb in list(self.on_job_complete):
            cb(job)
        self.try_schedule()

    def _job_aborted(self, job: SimJob, vms: Sequence[SimVM], dead_vm: SimVM, lost: float) -> None:
        job.state = JobState.PENDING
        job.failures += 1
        self._executions.pop(job.job_id, None)
        self.log.record(
            JobFailed(time=self.sim.now, job_id=job.job_id, vm_id=dead_vm.vm_id, lost_hours=lost)
        )
        # Failed job returns to the head of the queue (it was oldest);
        # under keyed queueing it gets the next decreasing negative key
        # so later submissions cannot outrank it.
        if self._keyed:
            job.queue_key = self._requeue_key  # type: ignore[attr-defined]
            self._requeue_key -= 1.0
        self._queue.insert(0, job)
        if self.obs is not None:
            self.obs.gauge("queue.peak_depth").set(len(self._queue))
        # Release the whole gang: the dead VM leaves the busy set, the
        # survivors return to the free pool.
        self._release(vms)
        for cb in list(self.on_job_failed):
            cb(job, dead_vm)
        self.try_schedule()

    def _node_preempted(self, vm: SimVM, now: float) -> None:
        if vm.vm_id in self._free:
            self._free.pop(vm.vm_id)
            return
        if vm.vm_id in self._busy:
            # The execution owning this VM handles the abort.
            for execution in list(self._executions.values()):
                if any(v.vm_id == vm.vm_id for v in execution.vms):
                    execution.abort(vm)
                    return
