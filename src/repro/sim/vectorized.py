"""Batched (array-shaped) Monte-Carlo kernels for replication sweeps.

The event-driven :class:`repro.sim.engine.Simulator` pays Python-level
heap and callback costs for *every* segment of *every* replication, so a
10k-replication sweep is dominated by interpreter dispatch even though
the per-replication logic — sample a lifetime, walk a checkpoint plan,
accumulate wasted/useful hours — is embarrassingly parallel.  This
module hoists that inner loop into NumPy: all N replications advance
together as flat arrays, and the restart-until-done kernel iterates in
"rounds" (one VM acquisition per round) over only the still-unfinished
replications.

It is also the home of the structure-of-arrays core the event-driven
lockstep kernels share: :class:`EventArena` (the fused pending-event
table) and :class:`_LockstepKernel` (the fleet core: state, the round
loop and every fleet mechanism the cluster, service and tenancy
kernels have in common), which also drives the DP plan walker in
:mod:`repro.sim.checkpoint_vectorized` through ``_launch_segment``.

Draw protocol (the determinism contract shared with the event backend)
-----------------------------------------------------------------------
Round ``r`` draws one uniform vector ``u_r = rng.random(n)`` from the
single generator; replication ``i``'s ``r``-th VM lifetime comes from
``u_r[i]`` by inverse-transform sampling through the distribution's
cached PPF table.  Finished replications keep (and discard) their column
so that column ``i`` is a function of ``(seed, i, r)`` alone — never of
the progress of *other* replications.  Rounds are drawn only while at
least one replication is unfinished.  The event backend consumes the
same generator through the same protocol, which is what makes the two
backends bit-compatible for identical seeds (see
:mod:`repro.sim.backend`).

Execution semantics (identical to the event-driven reference)
-------------------------------------------------------------
A replication runs ``segments`` in order; every non-final segment is
followed by a ``delta``-hour checkpoint write.  The first VM's lifetime
is conditioned on survival to ``start_age``; if the VM dies before the
current segment (plus its checkpoint) finishes, all progress since the
last checkpoint is lost, ``restart_latency`` hours are charged, and the
replication resumes from its last checkpoint on a fresh VM in the next
round.  Ties favour completion: a VM that dies *exactly* at a segment
boundary completes the segment.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.policies.scheduling import ModelReusePolicy
from repro.sim.placement import make_allocator, resolve_pools

__all__ = [
    "conditional_quantiles",
    "sample_lifetimes",
    "simulate_plan_vectorized",
    "simulate_job_attempts_vectorized",
    "EventArena",
]

#: The largest int64: the sort key that puts masked cells last.
_INT64_MAX = np.iinfo(np.int64).max
#: Sentinel sequence number larger than any a lockstep kernel can assign.
_SEQ_INF = _INT64_MAX
#: Residual-work threshold below which a segment is final (the
#: ``JobExecution._clip_segments`` tolerance).
_RESIDUAL = 1e-12
#: Bits of a gang-order key below the allocator rank: a row's birth
#: counter (one per VM it ever boots) stays far below ``2**40``.
_RANK_SHIFT = 40


def _order_key(birth: np.ndarray, mask: np.ndarray, rank: np.ndarray | None = None):
    """One int64 gang-order key per VM column, ``_INT64_MAX`` off ``mask``.

    The key is ``(rank, birth)`` packed as ``rank << _RANK_SHIFT |
    birth`` (``birth`` alone when ``rank`` is ``None``).  Within a row
    births are distinct, so the ``mask`` cells' keys are too.
    """
    key = birth if rank is None else (rank << _RANK_SHIFT) | birth
    return np.where(mask, key, _INT64_MAX)


def _lowest(key: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mask of each row's ``w`` smallest keys.

    A row's finite keys are distinct and at least ``w`` of them are
    finite, so these are the cells at or below the row's ``w``-th
    smallest key — one sort, no scatter.
    """
    kth = np.sort(key, axis=1)[np.arange(key.shape[0]), w - 1]
    return key <= kth[:, None]


def _join(parts: list[tuple]) -> tuple | None:
    """One stuck-head judgment from several over disjoint rows."""
    if len(parts) < 2:
        return parts[0] if parts else None
    return tuple(np.concatenate(part) for part in zip(*parts))


class EventArena:
    """Fused pending-event table of a lockstep kernel (SoA layout).

    One pair of preallocated ``(n, C)`` arrays — ``times`` (float) and
    ``seqs`` (int64) — holds *every* event channel of a kernel (VM
    deaths, segment completions, worker boots, reap timers, arrivals)
    as adjacent column spans.  Kernels write through per-channel slice
    views, so the per-round selection is two reductions over one
    contiguous block with **no** per-round ``np.concatenate``; when
    every row is active (always at one replication) the reductions run
    over the arrays themselves, with no mask copy.

    Invariant: a column with no pending event holds ``times == inf``
    and ``seqs == _SEQ_INF``.  In particular the death channel is *not*
    masked by an ``alive`` array at selection time — kernels clear a
    VM's death cell the moment the VM dies or is terminated.
    """

    def __init__(self, n: int, channels: list[tuple[str, int]]):
        total = sum(w for _, w in channels)
        self.times = np.full((n, total), np.inf)
        self.seqs = np.full((n, total), _SEQ_INF, dtype=np.int64)
        self.spans: dict[str, tuple[int, int]] = {}
        off = 0
        for name, w in channels:
            self.spans[name] = (off, off + w)
            off += w

    def channel(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, seqs) slice views of one channel's column span."""
        lo, hi = self.spans[name]
        return self.times[:, lo:hi], self.seqs[:, lo:hi]

    def select(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Next event per active row: ``(tmin, pick)``.

        ``pick`` is the fused-table column of the earliest pending
        event, ties broken by the smallest insertion sequence — the
        :class:`repro.sim.engine.Simulator` heap contract.  ``active``
        is a sorted subset of the rows, so a full-size one is every row.
        """
        if active.size == self.times.shape[0]:
            times, seqs = self.times, self.seqs
        else:
            times, seqs = self.times[active], self.seqs[active]
        tmin = times.min(axis=1)
        tie = times == tmin[:, None]
        pick = np.argmin(np.where(tie, seqs, _SEQ_INF), axis=1)
        return tmin, pick


def conditional_quantiles(u, cdf_at_age):
    """Map uniforms to quantiles of ``T | T > age`` given ``F(age)``.

    ``q = F(s) + u * (1 - F(s))``, clamped to 1 against floating-point
    overshoot.  ``cdf_at_age`` may be a scalar (one conditioning age for
    the whole batch) or an array aligned with ``u`` (per-replication
    ages).  Both backends use this exact expression so conditioned
    first-VM draws agree bit-for-bit.
    """
    u_arr = np.asarray(u, dtype=float)
    cdf_arr = np.asarray(cdf_at_age, dtype=float)
    out = np.minimum(cdf_arr + u_arr * (1.0 - cdf_arr), 1.0)
    return out if out.ndim else float(out)


def sample_lifetimes(
    dist: LifetimeDistribution,
    n: int,
    rng: np.random.Generator,
    *,
    start_age: float = 0.0,
) -> np.ndarray:
    """Draw ``n`` lifetimes conditioned on survival to ``start_age``.

    One vectorised inverse-CDF pass: ``ppf(F(s) + U (1 - F(s)))``.  With
    ``start_age = 0`` this is plain inverse-transform sampling.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if start_age < 0.0:
        raise ValueError(f"start_age must be >= 0, got {start_age}")
    F_s = float(np.asarray(dist.cdf(start_age), dtype=float)) if start_age > 0.0 else 0.0
    q = conditional_quantiles(rng.random(n), F_s)
    return np.asarray(dist.ppf(q), dtype=float)


def simulate_plan_vectorized(
    dist: LifetimeDistribution,
    segments: np.ndarray,
    *,
    delta: float,
    start_age: float,
    restart_latency: float,
    n_replications: int,
    rng: np.random.Generator,
    max_rounds: int = 10_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Restart-until-done kernel over N independent replications.

    Returns ``(makespan, wasted_hours, completed_work, n_restarts,
    n_rounds)`` — per-replication arrays plus the number of rounds (VM
    generations) the batch needed.  Argument validation lives in
    :func:`repro.sim.backend.run_replications`; this kernel assumes
    positive segments and non-negative ``delta``/``start_age``/latency.

    ``start_age`` may be a scalar (every replication's first VM has the
    same age) or an array of shape ``(n_replications,)`` — the shape the
    policy-evaluation layer uses, where each replication's job lands on
    a VM of a different sampled age.  Either way, the first VM's
    lifetime is conditioned on survival to its replication's age and
    replacement VMs are fresh.

    The per-round walk is closed-form: with ``cum_w`` the cumulative
    wall-clock of the plan (segment + checkpoint durations), a VM that
    grants ``budget`` hours starting from segment ``k`` completes through
    segment ``j-1`` where ``j = searchsorted(cum_w, cum_w[k] + budget,
    'right') - 1`` — a single O(N log K) pass instead of a Python loop
    over segments.
    """
    segs = np.asarray(segments, dtype=float)
    K = segs.size
    durations = segs.copy()
    if K > 1:
        durations[:-1] += delta
    # cum_w[j]: wall-clock hours to durably finish the first j segments
    # (each non-final one including its checkpoint write); cum_s[j]: the
    # corresponding durable *work* hours.
    cum_w = np.concatenate(([0.0], np.cumsum(durations)))
    cum_s = np.concatenate(([0.0], np.cumsum(segs)))

    n = int(n_replications)
    makespan = np.zeros(n)
    wasted = np.zeros(n)
    completed = np.zeros(n)
    restarts = np.zeros(n, dtype=np.int64)
    seg_idx = np.zeros(n, dtype=np.int64)  # next segment to (re)run
    active = np.arange(n)

    start_arr = np.asarray(start_age, dtype=float)
    per_rep_ages = start_arr.ndim > 0
    F_s = np.asarray(dist.cdf(start_arr), dtype=float)
    if not per_rep_ages:
        F_s = float(F_s)
    n_rounds = 0
    while active.size:
        if n_rounds >= max_rounds:
            raise RuntimeError(
                f"{active.size} replications unfinished after {max_rounds} "
                "rounds; schedule cannot finish under this lifetime law"
            )
        u = rng.random(n)  # full-width row: the draw protocol (see module doc)
        ua = u[active]
        if n_rounds == 0:
            F_a = F_s[active] if per_rep_ages else F_s
            death = np.asarray(dist.ppf(conditional_quantiles(ua, F_a)), dtype=float)
            age = start_arr[active] if per_rep_ages else float(start_arr)
        else:
            death = np.asarray(dist.ppf(ua), dtype=float)
            age = 0.0
        # The PPF table can land epsilon below the conditioning age.
        budget = np.maximum(death - age, 0.0)

        k = seg_idx[active]
        j = np.searchsorted(cum_w, cum_w[k] + budget, side="right") - 1
        finished = j >= K

        fin = active[finished]
        if fin.size:
            k_fin = seg_idx[fin]
            makespan[fin] += cum_w[K] - cum_w[k_fin]
            completed[fin] += cum_s[K] - cum_s[k_fin]
            seg_idx[fin] = K

        fail = active[~finished]
        if fail.size:
            j_fail = j[~finished]
            k_fail = seg_idx[fail]
            b_fail = budget[~finished]
            # The whole VM tenure counts toward makespan; only the hours
            # past the last durable checkpoint are wasted.
            makespan[fail] += b_fail + restart_latency
            completed[fail] += cum_s[j_fail] - cum_s[k_fail]
            wasted[fail] += b_fail - (cum_w[j_fail] - cum_w[k_fail])
            restarts[fail] += 1
            seg_idx[fail] = j_fail

        active = fail
        n_rounds += 1

    return makespan, wasted, completed, restarts, n_rounds


def simulate_job_attempts_vectorized(
    dist: LifetimeDistribution,
    job_length: float,
    start_ages: np.ndarray,
    *,
    reuse: np.ndarray | None = None,
    restart_latency: float = 0.0,
    rng: np.random.Generator,
    max_rounds: int = 10_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Batched uncheckpointed job attempts under the Eq. 8 reuse decision.

    The scheduling scenario of Figs. 5/6 and the service's placement
    path: replication ``i``'s job (length ``job_length`` hours, no
    checkpoints) is offered a VM of age ``start_ages[i]``.  If
    ``reuse[i]`` is True the job runs on the aged VM (its lifetime
    conditioned on survival to that age); otherwise it starts on a fresh
    VM.  A preemption loses *all* progress and the job restarts from
    scratch on a fresh VM in the next round, until it completes.

    ``reuse`` is the boolean output of a batch decision function (e.g.
    :meth:`repro.policies.scheduling.ModelReusePolicy.decide_batch`);
    ``None`` means "always reuse" — the memoryless baseline.

    Returns the same ``(makespan, wasted_hours, completed_work,
    n_restarts, n_rounds)`` tuple as :func:`simulate_plan_vectorized`;
    ``n_restarts > 0`` marks the replications whose *first* attempt was
    preempted, so its mean is the Monte-Carlo job failure probability.
    The draw protocol is the shared round protocol, so the event backend
    (via :func:`repro.sim.backend.run_replications` with a single
    segment) reproduces the outcomes for an identical generator state.
    """
    ages = np.asarray(start_ages, dtype=float)
    effective = ages if reuse is None else np.where(np.asarray(reuse, bool), ages, 0.0)
    return simulate_plan_vectorized(
        dist,
        np.asarray([float(job_length)]),
        delta=0.0,
        start_age=effective,
        restart_latency=restart_latency,
        n_replications=ages.size,
        rng=rng,
        max_rounds=max_rounds,
    )


class _LockstepKernel:
    """The fleet core of the lockstep controller kernels.

    The cluster, service and tenancy kernels advance N replications of
    one preemptible fleet together over event rounds; the DP plan
    walker in :mod:`repro.sim.checkpoint_vectorized` rides along through
    :meth:`_launch_segment`.  The kernels differ in policy, not
    plumbing, so this base owns every mechanism they share, once:

    * **fleet state** (``__init__``): the resolved pool catalog,
      allocator ranks, one :class:`ModelReusePolicy` per pool, the
      round-uniform table, the fused :class:`EventArena` (channel views
      bound through ``_ARENA_BINDINGS``), VM columns, queue and job
      state, and the outcome arrays;
    * **the round loop** (:meth:`run`): :meth:`_select_events` — the
      event harness's ``(time, insertion sequence)`` heap order plus
      the event-budget and deadlock guards — then one dispatch per
      arena channel to ``_on_<channel>(rows, column)``, counted as
      ``events.<channel>``; after the loop, live-VM billing and the raw
      result dict;
    * **pool helpers and boots**: :meth:`_boot_pool`, :meth:`_pool_ppf`,
      :meth:`_rank_cols` and the new-VM column fill :meth:`_add_vm`;
    * **Eq. 8**: the per-pool cell loop :meth:`_eq8` and
      :meth:`_judge`, which judges only the free VM cells;
    * **scheduling**: the job queue (:meth:`_enqueue` and
      :meth:`_dequeue` own every write and keep its head state, see
      :meth:`_init_queue`), :meth:`_head_state`, :meth:`_start_heads`,
      :meth:`_start_job` (gang selection in :meth:`_oldest` order),
      :meth:`_schedule_pass` and :meth:`_backfill_scan`;
    * **VM and job exits**: :meth:`_retire` (billing), :meth:`_on_death`
      with the gang :meth:`_abort`, the segment walk
      (:meth:`_launch_segment` / :meth:`_clear_segment`, clipped exactly
      as ``JobExecution`` clips) and :meth:`_on_comp`.  A running
      segment lives in one running slot, keyed by its gang's first VM
      column, so the ``comp`` channel is ``S`` wide however many jobs
      the workload holds;
    * the trailing-mean runtime estimate (:meth:`_record_completion`).

    A kernel keeps only its policy, through these hooks:
    ``_arena_channels`` (its event channels and their ``_on_*``
    handlers), ``_head_length`` (the job length Eq. 8 judges the queue
    head against), ``_backfill_suit``, ``_stall_actions``,
    ``_on_start``, ``_vm_lost``, ``_job_done``, ``_t0``, ``_finished``
    and ``_raw_extras``.
    """

    #: arena channel name -> (times attribute, seqs attribute).  A
    #: kernel binds only the channels its ``_arena_channels()``
    #: declares; extra map entries are inert.
    _ARENA_BINDINGS: dict[str, tuple[str, str]] = {
        "death": ("death", "dseq"),
        "comp": ("rtime", "rseq"),
        "boot": ("btime", "bseq"),
        "reap": ("reap_time", "reap_seq"),
        "arr": ("arr_time", "arr_seq"),
    }

    #: Sweep name and workload noun used in the guard error messages.
    _sweep_name = "lockstep"
    _budget_what = "bag"

    #: Per-run metrics registry, or ``None`` when instrumentation is
    #: off.  Every counting site is gated on this being non-``None`` —
    #: the zero-overhead-when-off contract — and no site consumes an
    #: RNG draw or writes simulation state (draw neutrality, pinned by
    #: the on/off byte-identity tests).
    obs = None

    def __init__(
        self,
        dist: LifetimeDistribution,
        jobs,
        config,
        n_replications: int,
        rng: np.random.Generator,
        max_events: int,
        obs,
        *,
        fleet_cap: int,
        n_cols: int,
        criterion: str,
        provision_latency: float = 0.0,
    ):
        # The same lazy row table the event paths use, so both backends
        # consume the generator identically by construction.
        from repro.sim.backend import _RoundUniforms
        from repro.sim.checkpoint_vectorized import walker_from_config

        self.cfg = config
        self.obs = obs
        self.n = n = int(n_replications)
        self.max_events = int(max_events)
        # Pool catalog + allocator ranking (shared with the event
        # oracle); per-pool boot latency defaults to provision_latency.
        self.pools = resolve_pools(
            config.pools,
            dist=dist,
            n_slots=fleet_cap,
            provision_latency=provision_latency,
        )
        self.nP = len(self.pools)
        rank = make_allocator(config.allocator).rank_for(self.pools)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.rank_of = np.empty(self.nP, dtype=np.int64)
        self.rank_of[self.rank] = np.arange(self.nP)
        self.pool_sizes = np.asarray([p.size for p in self.pools], dtype=np.int64)
        self.latency = np.asarray([p.boot_latency for p in self.pools])
        # One policy per pool: each VM is judged under its own law.
        self.policies = (
            [ModelReusePolicy(p.dist, criterion=criterion) for p in self.pools]
            if config.use_reuse_policy
            else None
        )
        self.table = _RoundUniforms(rng, n)

        S, J = n_cols, len(jobs)
        self.S, self.J = S, J
        self.width = np.asarray([j.width for j in jobs], dtype=np.int64)
        self.work = np.asarray([j.work_hours for j in jobs], dtype=float)
        self.dp = walker_from_config(dist, config, n, self.work)

        self.now = np.zeros(n)
        self.evseq = np.zeros(n, dtype=np.int64)
        self.draw_k = np.zeros(n, dtype=np.int64)
        self.births = np.zeros(n, dtype=np.int64)
        self.events = np.zeros(n, dtype=np.int64)  # set as a row finishes
        # Fused event table: the channels are attribute views (see
        # EventArena; dead columns hold death == inf).
        self._init_arena(n)
        # VM columns (storage slots; gang order is (pool rank, birth) —
        # birth alone with a single pool; see _oldest).
        self.alive = np.zeros((n, S), dtype=bool)
        self.launch = np.zeros((n, S))
        self.birth = np.full((n, S), -1, dtype=np.int64)
        self.vm_job = np.full((n, S), -1, dtype=np.int64)
        self.vm_pool = np.full((n, S), -1, dtype=np.int64)
        # Boots in flight per pool (always zero where boots are instant).
        self.provisioning_pool = np.zeros((n, self.nP), dtype=np.int64)
        # Job state: every job queued under its index as key.
        self._init_queue(np.arange(J, dtype=float), queued=True)
        self.head_key = np.full(n, -1.0)  # next requeue-at-head key
        self.progress = np.zeros((n, J))
        # Running slots: at most S gangs run at once and each holds at
        # least one VM column, so a running segment is keyed by its
        # gang's first column.  Only _start_job and _release write
        # vm_job, so that column is fixed from launch to clear.
        self.rjob = np.full((n, S), -1, dtype=np.int64)
        self.sstart = np.zeros((n, S))
        self.seg_take = np.zeros((n, S))
        self.seg_after = np.zeros((n, S))
        # Outcomes.
        self.makespan = np.zeros(n)
        self.wasted = np.zeros(n)
        self.done_count = np.zeros(n, dtype=np.int64)
        self.failures = np.zeros(n, dtype=np.int64)
        self.preemptions = np.zeros(n, dtype=np.int64)
        self.vm_hours = np.zeros(n)
        self.pool_hours = np.zeros((n, self.nP))

    # -- the round loop --------------------------------------------------
    def run(self) -> dict[str, np.ndarray | int]:
        """Advance every replication to its end; the raw result dict."""
        rows = np.arange(self.n)
        if rows.size:
            self._t0(rows)
        active = rows[~self._finished(rows)]
        spans = self._ev.spans
        channels = [
            (name, lo, getattr(self, f"_on_{name}"))
            for name, (lo, _) in spans.items()
        ]
        span_ends = np.asarray([hi for _, hi in spans.values()])
        n_rounds = 0
        while active.size:
            _, pick = self._select_events(active, n_rounds)
            # Channel of each pick, and how many picks each channel got.
            ch = np.searchsorted(span_ends, pick, "right")
            counts = np.bincount(ch, minlength=len(channels)).tolist()
            if self.obs is not None:
                for (name, *_), count in zip(channels, counts):
                    self.obs.inc(f"events.{name}", count)
                self._sample_obs(active)
            for c, (_, lo, handle) in enumerate(channels):
                if counts[c] == active.size:
                    handle(active, pick - lo)
                elif counts[c]:
                    hit = ch == c
                    handle(active[hit], pick[hit] - lo)
            done = self._finished(active)
            fin = active[done]
            self.makespan[fin] = self.now[fin]
            self.events[fin] = n_rounds + 1
            active = active[~done]
            n_rounds += 1
        # Bill VMs still alive at each replication's end; pending boots
        # and reaps never fire.
        live = np.where(self.alive, self.makespan[:, None] - self.launch, 0.0)
        self.vm_hours += live.sum(axis=1)
        for p in range(self.nP):
            self.pool_hours[:, p] += np.where(self.vm_pool == p, live, 0.0).sum(axis=1)
        if self.obs is not None:
            self.obs.gauge("rng.rows").set(self.table._filled)
        return {
            "makespan": self.makespan,
            "wasted_hours": self.wasted,
            "completed_jobs": self.done_count,
            "n_job_failures": self.failures,
            "n_preemptions": self.preemptions,
            "vm_hours": self.vm_hours,
            "pool_vm_hours": self.pool_hours,
            "n_events": self.events,
            "n_draws": self.draw_k,
            **self._raw_extras(),
            "n_rounds": n_rounds,
        }

    def _t0(self, rows: np.ndarray) -> None:
        """What happens at ``t = 0``, before the first round."""

    def _finished(self, rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` are done (their makespan is ``now``)."""
        return self.done_count[rows] == self.J

    def _raw_extras(self) -> dict[str, np.ndarray]:
        """Kernel-specific outcome arrays of the raw result dict."""
        return {}

    def _sample_obs(self, active: np.ndarray) -> None:
        """Round-start diagnostic sampling: queue depth, pool occupancy.

        Sampling points are backend-local (the event oracle samples at
        queue insertions and boots instead), so these gauges are
        diagnostics, not part of the cross-backend exactness contract.
        """
        if not active.size:
            return
        self.obs.gauge("queue.peak_depth").set(int(self.nq[active].max()))
        al = self.alive[active]
        vp = self.vm_pool[active]
        for p in range(self.nP):
            self.obs.gauge(f"pool.occupancy.{p}").set(
                int((al & (vp == p)).sum(axis=1).max())
            )

    def _arena_channels(self) -> list[tuple[str, int]]:
        raise NotImplementedError

    def _init_arena(self, n: int) -> None:
        """Build the fused event table and bind the channel views."""
        self._ev = EventArena(n, self._arena_channels())
        for name in self._ev.spans:
            t_attr, s_attr = self._ARENA_BINDINGS[name]
            t_view, s_view = self._ev.channel(name)
            setattr(self, t_attr, t_view)
            setattr(self, s_attr, s_view)

    def _select_events(
        self, active: np.ndarray, n_rounds: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Budget-checked earliest-event pick; advances ``now``.

        Rows only ever leave ``active`` and each active row takes one
        event per round, so every active row has taken ``n_rounds``
        events: the budget is one scalar test, and ``run`` writes a
        row's ``events`` count once, as the row finishes.
        """
        if n_rounds >= self.max_events:
            raise RuntimeError(
                f"{active.size} replications unfinished after "
                f"{self.max_events} events {self._first(active)}; the "
                f"{self._budget_what} cannot finish under this lifetime "
                "law / configuration"
            )
        tmin, pick = self._ev.select(active)
        if not np.all(np.isfinite(tmin)):
            raise RuntimeError(
                f"{self._sweep_name} sweep deadlocked: a replication "
                "has pending work but no pending events"
            )
        self.now[active] = tmin
        return tmin, pick

    def _first(self, rr: np.ndarray, bad: np.ndarray | None = None) -> str:
        """``(first: kernel row R at now=T)`` — the first ``bad`` row of
        ``rr`` (its first row when ``bad`` is ``None``), as the guard
        errors name it."""
        row = int(rr[0 if bad is None else np.argmax(bad)])
        return f"(first: kernel row {row} at now={float(self.now[row])!r})"

    # -- pools and boots -------------------------------------------------
    def _boot_pool(
        self, rr: np.ndarray, rank_rows: np.ndarray | None = None
    ) -> np.ndarray:
        """First ranked pool with headroom (alive + in-flight boots count).

        ``rank_rows`` — optional per-row ``(R, nP)`` preference order
        (the tenancy kernel's tenant affinity); ``None`` uses the
        allocator's static ranking.  A pure function of pre-draw state,
        so both backends agree on it before the lifetime uniform is
        consumed.
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
            room = headroom[:, self.rank] > 0
        else:
            room = np.take_along_axis(headroom, rank_rows, axis=1) > 0
        ok = room.any(axis=1)
        if not ok.all():
            raise RuntimeError(
                f"no pool headroom; fleet invariant violated {self._first(rr, ~ok)}"
            )
        first = np.argmax(room, axis=1)
        if rank_rows is None:
            return self.rank[first]
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

        ``jj`` is the job being placed; the static ranking is
        job-independent, the tenancy kernel refines it per tenant.  A
        never-used column (pool ``-1``) is alive in no row, so it lies
        outside every mask its rank is read under.
        """
        if self.nP == 1:
            return None
        return self.rank_of[np.maximum(self.vm_pool[rr], 0)]

    def _add_vm(self, rr: np.ndarray, pool: np.ndarray) -> None:
        """One fresh VM joins each row in ``pool``: draw its lifetime,
        fill the first empty column, schedule its death.

        The only writer of ``launch`` and ``birth``: it stamps the row's
        clock, which never goes down, and the row's next birth number,
        so a row's births are distinct and ``launch`` is non-decreasing
        in ``birth`` — the invariant the gang order rests on.
        """
        u = self.table.gather(rr, self.draw_k[rr])
        self.draw_k[rr] += 1
        life = self._pool_ppf(u, pool)
        empty = ~self.alive[rr] & (self.vm_job[rr] == -1)
        ok = empty.any(axis=1)
        if not ok.all():
            raise RuntimeError(
                "no reusable VM column; fleet invariant violated "
                + self._first(rr, ~ok)
            )
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

    def _retire(self, rr: np.ndarray, col: np.ndarray, end) -> None:
        """Bill VMs up to ``end`` and remove them from the fleet.

        ``col`` is one column per row or an ``(R, S)`` mask (a stall
        may terminate several VMs of a row at once); ``end`` broadcasts
        against ``(R, S)``.  A row's retired hours are summed before
        they are added to its totals.
        """
        gone = col if col.dtype == bool else np.arange(self.S)[None, :] == col[:, None]
        hours = np.where(gone, end - self.launch[rr], 0.0)
        total = hours.sum(axis=1)
        self.vm_hours[rr] += total
        if self.nP == 1:
            self.pool_hours[rr, 0] += total
        else:
            vp = self.vm_pool[rr]
            for p in range(self.nP):
                self.pool_hours[rr, p] += np.where(
                    gone & (vp == p), hours, 0.0
                ).sum(axis=1)
        self.alive[rr] &= ~gone
        self.death[rr] = np.where(gone, np.inf, self.death[rr])
        self.dseq[rr] = np.where(gone, _SEQ_INF, self.dseq[rr])

    # -- Eq. 8 -----------------------------------------------------------
    def _ages(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Age of the VM in cell ``(row, col)``, per cell."""
        return np.maximum(self.now[row] - self.launch[row, col], 0.0)

    def _eq8(self, T: np.ndarray, ages: np.ndarray, vp: np.ndarray) -> np.ndarray:
        """Eq. 8 over equal-shape 1-D cells, each VM under its pool's law
        (``vp``: the cell's pool); one call per pool that holds a cell."""
        if self.nP == 1:
            return self.policies[0].decide_pairs(T, ages)
        out = np.zeros(T.shape, dtype=bool)
        for p, pol in enumerate(self.policies):
            m = vp == p
            if m.any():
                out[m] = pol.decide_pairs(T[m], ages[m])
        return out

    def _judge(self, rr: np.ndarray, free: np.ndarray, T: np.ndarray) -> np.ndarray:
        """The suitable mask for per-row job lengths ``T``: Eq. 8 judges
        the free cells only, so a row without a free VM costs nothing."""
        r, c = np.nonzero(free)
        suit = np.zeros(free.shape, dtype=bool)
        if r.size:
            row = rr[r]
            T = np.maximum(T, 1e-6)[r]
            suit[r, c] = self._verdict(row, c, T, self._ages(row, c))
        return suit

    def _verdict(self, row, col, T, ages) -> np.ndarray:
        """Suitability of the free VM in each cell ``(row, col)``: pure
        Eq. 8 here; the service kernel adds its boot grace."""
        return self._eq8(T, ages, self.vm_pool[row, col])

    def _head_length(self, rr: np.ndarray, head: np.ndarray) -> np.ndarray:
        """The job length Eq. 8 judges the queue head against."""
        raise NotImplementedError

    # -- scheduling ------------------------------------------------------
    @property
    def backfill(self) -> bool:
        return self.cfg.backfill

    # -- the job queue ---------------------------------------------------
    def _init_queue(self, keys: np.ndarray, queued: bool) -> None:
        """The job queue over the static ``keys``: every job queued
        under its key, or none.

        ``qkey`` is the queue (``inf``: not queued; negative: requeued
        at the head); :meth:`_enqueue` and :meth:`_dequeue` own every
        write to it and keep the per-row head state in step: ``head``
        is always ``argmin(qkey)`` and ``shead`` the lowest queued job
        with a non-negative (static) key, each ``-1`` when there is
        none; ``nq`` counts the queued jobs and ``nreq`` the requeued
        ones.  The static order is the stable ``argsort`` of ``keys``,
        so ties go to the lower job index as in ``np.argmin``: ``srank``
        is a job's place in it (``srank[J]`` ranks the ``-1`` of an
        empty ``shead`` last) and ``succ`` the next job, the last one
        mapping to itself, which :meth:`_dequeue` has just taken off
        the queue when it asks.
        """
        n, J = self.n, keys.size
        self.qkey = np.tile(keys, (n, 1)) if queued else np.full((n, J), np.inf)
        self.skey = keys
        order = np.argsort(keys, kind="stable")
        self.srank = np.empty(J + 1, dtype=np.int64)
        self.srank[order] = np.arange(J)
        self.srank[J] = J
        self.succ = np.empty(J, dtype=np.int64)
        self.succ[order[:-1]] = order[1:]
        self.succ[order[-1:]] = order[-1:]
        first = order[0] if queued and J else -1
        self.head = np.full(n, first, dtype=np.int64)
        self.shead = self.head.copy()
        self.nq = np.full(n, J if queued else 0, dtype=np.int64)
        self.nreq = np.zeros(n, dtype=np.int64)

    def _enqueue(self, rr: np.ndarray, jj: np.ndarray, key) -> None:
        """Queue job ``jj`` under ``key`` on each (distinct) row ``rr``.

        A negative key is a requeue at the head: it is below every key
        the row holds (``head_key`` only decreases), so the job becomes
        the head.  A non-negative key must be the job's static key; the
        job becomes ``shead`` when it is earlier in the static order,
        and the head too on rows with no requeued job.
        """
        qk = self.qkey
        qk[rr, jj] = key
        self.nq[rr] += 1
        req = qk[rr, jj] < 0
        if req.any():
            r = rr[req]
            self.head[r] = jj[req]
            self.nreq[r] += 1
            if req.all():
                return
            rr, jj = rr[~req], jj[~req]
        low = self.srank[jj] < self.srank[self.shead[rr]]
        if not low.all():
            rr, jj = rr[low], jj[low]
        self.shead[rr] = jj
        nreq = self.nreq[rr]
        if nreq.any():
            rr, jj = rr[nreq == 0], jj[nreq == 0]
        self.head[rr] = jj

    def _dequeue(self, rr: np.ndarray, jj: np.ndarray) -> None:
        """Take queued job ``jj`` off each (distinct) row ``rr``.

        A new ``shead`` is the static successor when that job is
        queued under its static key; otherwise, with static jobs left,
        one ``argmin`` over the row's non-negative keys.  A new head is
        ``shead`` on rows with no requeued job left, else the row's
        ``argmin``.  Only rows that hold a requeued job can be taking
        one off, so without such rows that test is skipped.
        """
        qk = self.qkey
        nreq = self.nreq[rr]
        held = nreq.any()
        req = (qk[rr, jj] < 0) if held else None
        qk[rr, jj] = np.inf
        self.nq[rr] -= 1
        if held and req.any():
            r, j = rr[req], jj[req]
            self.nreq[r] -= 1
            r = r[self.head[r] == j]
            new = self.shead[r]
            scan = self.nreq[r] > 0
            if scan.any():
                new[scan] = np.argmin(qk[r[scan]], axis=1)
            self.head[r] = new
        s = self.shead[rr] == jj
        if not s.all():
            rr, jj, nreq = rr[s], jj[s], nreq[s]
            if not rr.size:
                return
        # A static job left: these rows' nreq is the one gathered above.
        nxt = self.succ[jj]
        ok = qk[rr, nxt] == self.skey[nxt]
        if ok.all():
            new = nxt
        else:
            new = np.where(ok, nxt, -1)
            miss = ~ok & (self.nq[rr] > nreq)
            if miss.any():
                q = qk[rr[miss]]
                new[miss] = np.argmin(np.where(q >= 0, q, np.inf), axis=1)
        self.shead[rr] = new
        if held:
            rr, new = rr[nreq == 0], new[nreq == 0]
        self.head[rr] = new

    def _head_state(self, rr: np.ndarray):
        """Queue head + suitability per row; drops queue-less rows.

        The head is the kept ``head`` state (``argmin(qkey)``, see
        :meth:`_init_queue`); no queue row is read.  Returns ``(rr,
        head, width, suit, free)`` restricted to rows with a non-empty
        queue.
        """
        head = self.head[rr]
        has = head >= 0
        if not has.all():
            rr, head = rr[has], head[has]
        if not rr.size:
            return rr, head, None, None, None
        free = self.alive[rr] & (self.vm_job[rr] == -1)
        if self.policies is None:
            suit = free
        else:
            suit = self._judge(rr, free, self._head_length(rr, head))
        return rr, head, self.width[head], suit, free

    def _schedule_pass(self, rr: np.ndarray) -> None:
        """One ``try_schedule`` invocation: head starts, stall, backfill."""
        stuck = self._start_heads(rr)
        if stuck is not None:
            self._stall_actions(*stuck)
            if self.backfill:
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
        return _join(stuck)

    def _stall_actions(self, rr, head, w, suit, free) -> None:
        """What a stuck queue head triggers within a scheduling pass."""

    def _start_job(self, rr: np.ndarray, jj: np.ndarray, suit: np.ndarray) -> None:
        """Start job ``jj`` on its ``width`` oldest suitable VMs per row
        (pool rank first, then age; see :meth:`_oldest`)."""
        key = _order_key(self.birth[rr], suit, self._rank_cols(rr, jj))
        sel = _lowest(key, self.width[jj])
        self._on_start(rr, jj, sel)
        self.vm_job[rr] = np.where(sel, jj[:, None], self.vm_job[rr])
        self._dequeue(rr, jj)
        left = np.maximum(self.work[jj] - self.progress[rr, jj], 0.0)
        if self.dp is not None:
            # Re-plan the attempt at the gang's oldest selected VM age
            # (the ClusterManager._start planner argument).
            ages = np.where(
                sel, self.now[rr][:, None] - self.launch[rr], -np.inf
            ).max(axis=1)
            self.dp.begin(rr, jj, left, np.maximum(ages, 0.0))
        self._launch_segment(rr, jj, np.argmax(sel, axis=1), left)

    def _on_start(self, rr: np.ndarray, jj: np.ndarray, sel: np.ndarray) -> None:
        """Policy bookkeeping as job ``jj`` takes the VMs ``sel``."""

    def _backfill_scan(self, rr: np.ndarray) -> bool:
        """Start jobs behind a stuck head, in queue order (unreserved);
        whether any started.

        Mirrors the ``ClusterManager.try_schedule`` scan past the stuck
        head: each iteration starts, per row, the lowest-queue-key job
        whose suitability count covers its width.  Picking the minimum
        startable key repeatedly is equivalent to the event path's
        single forward scan because started jobs only consume VMs — a
        job unstartable when the scan would have reached it stays
        unstartable afterwards.  The stuck head is excluded by the same
        width test that stalled it.
        """
        started = False
        while rr.size:
            free = self.alive[rr] & (self.vm_job[rr] == -1)
            suit = self._backfill_suit(rr, free)
            queued = np.isfinite(self.qkey[rr])
            startable = queued & (suit.sum(axis=2) >= self.width[None, :])
            has = startable.any(axis=1)
            rr, startable, suit = rr[has], startable[has], suit[has]
            if not rr.size:
                break
            started = True
            jc = np.argmin(np.where(startable, self.qkey[rr], np.inf), axis=1)
            # A row-uniform mask has one job row, shared by every job.
            jrow = jc if suit.shape[1] > 1 else 0
            self._start_job(rr, jc, suit[np.arange(rr.size), jrow])
        return started

    def _backfill_suit(self, rr: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Suitable VMs per queued job, ``(R, J, S)`` — or ``(R, 1, S)``
        when every job shares one mask."""
        raise NotImplementedError

    # -- VM and job exits --------------------------------------------------
    def _on_death(self, rr: np.ndarray, col: np.ndarray):
        """VM ``col`` of each row dies: bill it, let the policy react,
        abort the gang it served.  Returns the rows that lost a job and
        what their scheduling pass returned (``None`` without one)."""
        jd = self.vm_job[rr, col]
        self._retire(rr, col, self.death[rr])
        self.preemptions[rr] += 1
        self._vm_lost(rr, col)
        busy = jd >= 0
        rb, jb = rr[busy], jd[busy]
        if not rb.size:
            return rb, None
        self._abort(rb, jb)
        return rb, self._schedule_pass(rb)

    def _vm_lost(self, rr: np.ndarray, col: np.ndarray) -> None:
        """The policy's reaction to a VM death, before its gang aborts."""

    def _abort(self, rr: np.ndarray, jj: np.ndarray) -> None:
        """Gang abort: waste the current segment, requeue the job at the
        head, release the surviving gang members."""
        slot = np.argmax(self.vm_job[rr] == jj[:, None], axis=1)
        self.wasted[rr] += self.now[rr] - self.sstart[rr, slot]
        self.failures[rr] += 1
        self._clear_segment(rr, slot)
        self._enqueue(rr, jj, self.head_key[rr])
        self.head_key[rr] -= 1.0
        self._release(rr, jj)

    def _release(self, rr: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Free job ``jj``'s gang; returns the released columns."""
        gang = self.vm_job[rr] == jj[:, None]
        self.vm_job[rr] = np.where(gang, -1, self.vm_job[rr])
        return gang

    def _launch_segment(
        self, rr: np.ndarray, jj: np.ndarray, slot: np.ndarray, left: np.ndarray
    ) -> None:
        """Schedule job ``jj``'s next segment of ``left`` remaining
        attempt hours in running slot ``slot``."""
        if self.dp is not None:
            take = self.dp.next_take(rr, jj, left)
        else:
            tau = self.cfg.checkpoint_interval
            take = left if tau is None else np.minimum(tau, left)
        after = left - take
        final = after <= _RESIDUAL
        dur = take + np.where(final, 0.0, self.cfg.checkpoint_cost)
        self.sstart[rr, slot] = self.now[rr]
        self.rtime[rr, slot] = self.now[rr] + dur
        self.rseq[rr, slot] = self.evseq[rr]
        self.evseq[rr] += 1
        self.rjob[rr, slot] = jj
        self.seg_take[rr, slot] = take
        self.seg_after[rr, slot] = after

    def _clear_segment(self, rr: np.ndarray, slot: np.ndarray) -> None:
        """Empty running slot ``slot``: cancel its pending completion."""
        self.rtime[rr, slot] = np.inf
        self.rseq[rr, slot] = _SEQ_INF
        self.rjob[rr, slot] = -1

    def _on_comp(self, rr: np.ndarray, slot: np.ndarray) -> None:
        """A running slot's segment completes: credit its job's work,
        then launch the next segment or finish the job."""
        jj = self.rjob[rr, slot]
        take = self.seg_take[rr, slot]
        self.progress[rr, jj] = np.minimum(self.progress[rr, jj] + take, self.work[jj])
        after = self.seg_after[rr, slot]
        more = after > _RESIDUAL
        rc = rr[more]
        if rc.size:  # checkpoint written; next segment in the same instant
            self._launch_segment(rc, jj[more], slot[more], after[more])
        done = ~more
        rf, jf = rr[done], jj[done]
        if rf.size:
            self._clear_segment(rf, slot[done])
            gang = self._release(rf, jf)
            self.done_count[rf] += 1
            self._job_done(rf, jf, gang)

    def _job_done(self, rr: np.ndarray, jj: np.ndarray, gang: np.ndarray) -> None:
        """The policy's reaction to job ``jj`` finishing on ``gang``."""
        raise NotImplementedError

    # -- the bag runtime estimate -----------------------------------------
    def _init_estimates(self, first: np.ndarray) -> None:
        """Trailing-window estimate state seeded with ``first`` (one
        estimate per row, or per row and bag)."""
        W = self.cfg.estimate_window
        self.est = first
        self.buf = np.zeros(first.shape + (W,))
        self.buf_pos = np.zeros(first.shape, dtype=np.int64)
        self.buf_len = np.zeros(first.shape, dtype=np.int64)

    def _estimate_slot(self, rr: np.ndarray, jj: np.ndarray) -> tuple:
        """Index of job ``jj``'s estimate in ``est`` (one per row here)."""
        return (rr,)

    def _record_completion(self, rr: np.ndarray, jj: np.ndarray) -> None:
        """Push the job's declared hours into its estimate.

        Reproduces ``BagOfJobs.estimated_runtime`` bit for bit: the
        trailing ``estimate_window`` values are gathered in completion
        order (cells past the window's fill are zero) and summed
        sequentially by ``np.add.accumulate`` — not ``sum``, whose
        pairwise order rounds differently — then divided by the window
        length.
        """
        W = self.cfg.estimate_window
        at = self._estimate_slot(rr, jj)
        pos = self.buf_pos[at]
        self.buf[at + (pos,)] = self.work[jj]
        self.buf_pos[at] = (pos + 1) % W
        k = np.minimum(self.buf_len[at] + 1, W)
        self.buf_len[at] = k
        start = np.where(k < W, 0, self.buf_pos[at])
        t = np.arange(W)
        vals = self.buf[at][np.arange(rr.size)[:, None], (start[:, None] + t) % W]
        vals[t >= k[:, None]] = 0.0
        self.est[at] = np.add.accumulate(vals, axis=1)[:, -1] / k

    # -- ordering --------------------------------------------------------
    def _oldest(
        self, mask: np.ndarray, rr: np.ndarray, rank: np.ndarray | None = None
    ) -> np.ndarray:
        """Column order by one ``(pool rank, birth)`` key, non-``mask`` last.

        ``rank`` — optional per-(row, column) allocator rank aligned
        with ``self.birth[rr]`` — is the *primary* key; ``None`` (or an
        all-equal rank, i.e. a single pool) is the historical
        ``(launch time, boot order)`` ``free_nodes()`` order.  Birth
        alone gives that order because :meth:`_add_vm` is the only
        writer of ``launch`` and ``birth``: a row's births are distinct
        and its ``launch`` is non-decreasing in ``birth``.  The sort is
        stable, so the non-``mask`` cells keep column order.
        """
        key = _order_key(self.birth[rr], mask, rank)
        return np.argsort(key, axis=1, kind="stable")
