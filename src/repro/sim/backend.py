"""Backend selection for replication-heavy Monte-Carlo sweeps.

Two interchangeable backends simulate N independent (lifetime,
checkpoint-plan) replications:

``"event"``
    The reference implementation: one :class:`repro.sim.engine.Simulator`
    per replication, with segment completions and preemptions as real
    scheduled events (cancellation included).  Exact but Python-speed;
    it is also the semantics oracle for anything that genuinely needs
    event interleaving (gang scheduling, the batch service).

``"vectorized"``
    The batched NumPy kernel of :mod:`repro.sim.vectorized`: all
    replications advance together as arrays, rounds touch only the
    still-unfinished ones.  10-100x faster at 10k replications.

Determinism contract
--------------------
Both backends consume uniforms through the same *round protocol*: round
``r`` is one ``rng.random(n)`` row and replication ``i``'s ``r``-th VM
lifetime is ``ppf(...)`` of column ``i`` (the first VM conditioned on
survival to ``start_age``).  For an identical seed, distribution, and
configuration the two backends therefore produce identical
per-replication outcomes up to float associativity (< 1e-9 hours); the
cross-backend equivalence suite pins this down.  Note the generator is
advanced by whole rounds, so the *number* of values consumed depends on
the slowest replication — do not interleave other draws from the same
generator and expect stability.

Orchestration
-------------
The four ``run_*_replications`` entry points validate their own inputs
and hand their kernel's module-level simulate function to one sweep
driver (:func:`_sweep`), which owns seeding, ``capture``, chunking,
process sharding, instrumentation and the merge of raw results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.obs.core import (
    Instrumentation,
    KernelStats,
    MetricsRegistry,
    current_instrumentation,
    peak_rss_bytes,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.vectorized import conditional_quantiles, simulate_plan_vectorized
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "DrawCapture",
    "ReplicationOutcomes",
    "run_replications",
    "ClusterOutcomes",
    "run_cluster_replications",
    "ServiceOutcomes",
    "run_service_replications",
    "TenantOutcomes",
    "run_tenant_replications",
    "BACKENDS",
]

#: Valid values for the ``backend`` argument of every entry point.
BACKENDS = ("event", "vectorized")

#: Extra backend accepted by :func:`run_replications` only — the opt-in
#: compiled inner loop of :mod:`repro.sim.compiled` (soft dependency).
COMPILED_BACKEND = "vectorized-compiled"


class DrawCapture:
    """Realized round-protocol uniforms of one sweep (the oracle hook).

    Pass a fresh instance as ``capture=`` to any replication entry
    point; after the sweep, ``rows`` holds every ``rng.random(n)`` row
    the run consumed, in round order — the *exact* randomness behind
    the outcomes, regardless of backend.  Replication ``i``'s ``k``-th
    lifetime draw is ``ppf(rows[k][i])``, so the hindsight-optimal
    oracle (:mod:`repro.baselines`) can be scored on the same draws as
    the policy, giving draw-level regret pairing.

    A capture records one sweep: reuse raises, because rows from two
    sweeps would interleave into nonsense.
    """

    def __init__(self) -> None:
        #: One ``(n_replications,)`` uniform row per round, in order.
        self.rows: list[np.ndarray] = []

    @property
    def n_rounds(self) -> int:
        return len(self.rows)

    @property
    def uniforms(self) -> np.ndarray:
        """The round table, shape ``(n_rounds, n_replications)``."""
        if not self.rows:
            return np.empty((0, 0))
        return np.vstack(self.rows)

    def lifetimes(
        self, dist: LifetimeDistribution, *, start_age: float | None = None
    ) -> np.ndarray:
        """Realized VM lifetimes, shape ``(n_rounds, n_replications)``.

        Rows map through ``dist.ppf`` exactly as the backends do.  With
        ``start_age`` (the :func:`run_replications` protocol) the first
        row is conditioned on survival to that age; the fleet sweeps
        boot every VM fresh, so their captures leave it ``None``.

        Replication ``i`` consumed only its first ``n_draws[i]`` values
        (the outcome field); trailing entries of a column are rounds
        materialised for slower replications.
        """
        u = self.uniforms
        if start_age is not None and u.shape[0]:
            u = u.copy()
            F = float(np.asarray(dist.cdf(float(start_age)), dtype=float))
            u[0] = conditional_quantiles(u[0], F)
        return np.asarray(dist.ppf(u), dtype=float)

    def _arm(self) -> None:
        """Entry-point guard: a capture records exactly one sweep."""
        if self.rows:
            raise ValueError(
                "this DrawCapture already recorded a sweep; "
                "pass a fresh instance per run"
            )


class _RecordingRNG:
    """Duck-typed generator shim copying every round row into a capture.

    Both backends consume randomness exclusively through
    ``rng.random(n)`` round rows (the determinism contract), so
    recording at that choke point captures the complete randomness of
    a sweep without touching either simulation path.
    """

    def __init__(self, rng: np.random.Generator, capture: DrawCapture):
        self._rng = rng
        self._capture = capture

    def random(self, n: int) -> np.ndarray:
        row = self._rng.random(n)
        self._capture.rows.append(np.array(row, copy=True))
        return row


# ----------------------------------------------------------------------
# Process sharding: CRN-paired shards of one serial round stream
# ----------------------------------------------------------------------

class _ShardRNG:
    """Duck-typed generator serving one shard's columns of a round stream.

    CRN shard pairing: the wrapped generator is an exact copy of the
    serial root, every ``random`` call draws the *full* serial-width
    row(s), and only the shard's ``[lo, hi)`` column slice is served.
    Column ``i`` of round ``r`` therefore holds the same value under
    every shard layout — including ``workers=1`` — which is what makes
    merged sharded outcomes byte-identical to the serial sweep.

    Shards run for different round counts (each stops when its own
    slowest replication finishes), but a shard that needs round ``r``
    always draws rounds ``0..r`` in serial order from its private copy,
    so no coordination between workers is needed.
    """

    def __init__(self, rng: np.random.Generator, lo: int, hi: int, full_width: int):
        self._rng = rng
        self._lo = lo
        self._hi = hi
        self._full = full_width

    def random(self, size):
        width = self._hi - self._lo
        block = isinstance(size, tuple)  # block mode: (rows, n) round rows
        if (size[1] if block else size) != width:
            raise ValueError(
                f"shard expected width-{width} round rows, got {size}"
            )
        if block:
            rows = self._rng.random((size[0], self._full))
            return np.ascontiguousarray(rows[:, self._lo : self._hi])
        return np.ascontiguousarray(self._rng.random(self._full)[self._lo : self._hi])


def _shard_bounds(n: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` replication ranges, longest shards first."""
    base, extra = divmod(n, n_shards)
    bounds, lo = [], 0
    for s in range(n_shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _require_picklable(payload) -> None:
    """Raise ``ValueError`` *before* any worker spawns on bad inputs."""
    import pickle

    try:
        pickle.dumps(payload)
    except Exception as exc:
        raise ValueError(
            "workers > 1 ships the distribution, configuration, and "
            f"inputs to worker processes via pickle, which failed: {exc}"
        ) from exc


def _shard_task(payload):
    """Run one shard in a worker process (module-level, hence picklable).

    ``payload`` is ``(simulate, args, kwargs, rng, lo, hi, full_width,
    instrument)``: the kernel's module-level simulate function and its
    inputs, plus this shard's private copy of the chunk's root generator
    (copied by pickling) and its ``[lo, hi)`` columns of the chunk.
    """
    simulate, args, kwargs, rng, lo, hi, full, instrument = payload
    # Instrumented shards count into a private registry and ship the
    # picklable snapshot home inside the raw dict; the parent merges
    # (deterministically — Snapshot.merge is order-independent).
    reg = MetricsRegistry() if instrument else None
    raw = simulate(
        *args,
        n_replications=hi - lo,
        rng=_ShardRNG(rng, lo, hi, full),
        obs=reg,
        **kwargs,
    )
    if reg is not None:
        reg.gauge("proc.peak_rss").set(peak_rss_bytes())
        raw["obs_snapshot"] = reg.snapshot()
    return raw


def _run_sharded(payloads, workers: int, sizes: list[int]):
    """Fan shard payloads out over a process pool, results in order.

    A worker that dies raises ``BrokenProcessPool`` naming the chunk
    ``sizes``, each shard's bounds within its chunk and ``workers``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _require_picklable(payloads[0])
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork: spawn works too
        ctx = multiprocessing.get_context()
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)), mp_context=ctx
        ) as pool:
            return list(pool.map(_shard_task, payloads))
    except BrokenProcessPool as exc:
        shards = " ".join(f"[{p[4]}, {p[5]})" for p in payloads)
        raise BrokenProcessPool(
            f"a worker process died in a sharded sweep: chunk sizes {sizes}, "
            f"shards {shards} (bounds within their chunk), workers={workers}; "
            "workers=1 replays the same replications byte for byte"
        ) from exc


def _merge_raws(raws: list[dict]) -> dict:
    """Reduce per-shard/per-chunk raw dicts back into one serial batch."""
    if len(raws) == 1:
        return raws[0]
    merged = {
        key: np.concatenate([r[key] for r in raws], axis=0)
        for key in raws[0]
        # Scalar / side-channel keys are not per-replication arrays:
        # round counts reduce by max, obs snapshots via _RunObs.absorb.
        if key not in ("n_rounds", "obs_snapshot")
    }
    merged["n_rounds"] = max(r["n_rounds"] for r in raws)
    return merged


# ----------------------------------------------------------------------
# Instrumentation plumbing (the observability plane's backend hooks)
# ----------------------------------------------------------------------

@contextmanager
def _timed_phase(phases: dict, tracer, name: str):
    t0 = time.perf_counter()
    with tracer.span(name):
        try:
            yield
        finally:
            phases[name] = phases.get(name, 0.0) + (time.perf_counter() - t0)


class _RunObs:
    """Per-invocation instrumentation state of one entry-point call.

    Resolves the ``instrument=`` argument (an :class:`Instrumentation`
    bundle, ``True`` for a fresh one, or ``None`` to consult the
    ambient stack — usually off), owns the run's *private* registry so
    per-run stats stay per-run even when one bundle spans many calls,
    times orchestration phases, and assembles the :class:`KernelStats`
    record.  When instrumentation is off every method is a cheap no-op,
    and the simulation paths receive ``obs=None`` — the zero-overhead
    contract.

    Draw-neutrality note: nothing in here touches the generator; the
    kernels' counting sites only *read* simulation state.  The byte-
    identity suite (``tests/test_obs_neutrality.py``) pins this.
    """

    def __init__(self, instrument, kind: str, backend: str):
        if instrument is None:
            inst = current_instrumentation()
        elif instrument is True:
            inst = Instrumentation()
        elif instrument is False:
            inst = None
        else:
            inst = instrument
        self.inst = inst
        self.reg: MetricsRegistry | None = (
            MetricsRegistry() if inst is not None else None
        )
        self.phases: dict[str, float] = {}
        self.kind = kind
        self.backend = backend
        self.shards: tuple[tuple[int, int], ...] = ()
        self.chunk_sizes: tuple[int, ...] = ()
        self._t0 = time.perf_counter()

    @property
    def on(self) -> bool:
        return self.inst is not None

    def timed(self, name: str):
        """Context manager timing one orchestration phase (+ a span)."""
        if self.inst is None:
            return nullcontext()
        return _timed_phase(self.phases, self.inst.tracer, name)

    def absorb(self, raws: list[dict]) -> None:
        """Merge worker-shard registry snapshots carried in raw dicts."""
        for r in raws:
            snap = r.pop("obs_snapshot", None)
            if snap is not None and self.reg is not None:
                self.reg.merge_snapshot(snap)

    def progress(self, done: int, total: int) -> None:
        """Invoke the bundle's progress callback (chunk streaming)."""
        if self.inst is None or self.inst.progress is None:
            return
        elapsed = time.perf_counter() - self._t0
        eta = (
            elapsed * (total - done) / done if done > 0 else float("inf")
        )
        self.inst.progress(done, total, elapsed, eta)

    def finish(self, raw: dict, *, n: int, workers: int, channels) -> KernelStats | None:
        """Build the KernelStats record of a merged sweep and fold the
        run's metrics into the bundle's cumulative registry — the one
        stats builder of every kind.  ``channels=None`` reads the
        kernel-counted ``events.*`` counters (vectorized backends);
        otherwise ``channels(raw, registry)`` derives them from the
        outputs (event oracles, plan kernels), so the cross-backend
        stats comparison is an independent check of the kernels' pick
        classification."""
        if self.inst is None or self.reg is None:
            return None
        channel_events = None if channels is None else channels(raw, self.reg)
        snap = self.reg.snapshot()
        if channel_events is None:
            channel_events = {
                name.split(".", 1)[1]: int(v)
                for name, v in snap.counters.items()
                if name.startswith("events.")
            }
        else:
            # Derived channels (plan restarts, event-oracle death/comp/
            # boot) are computed from outputs rather than counted in the
            # registry; backfill them so the cumulative bundle registry
            # (and any --metrics-out dump) carries the same events.*
            # counters regardless of backend.  Counters already present
            # (e.g. events.reap, counted live) are left alone.
            missing = {
                k: int(v)
                for k, v in channel_events.items()
                if f"events.{k}" not in snap.counters
            }
            if missing:
                for k, v in missing.items():
                    self.reg.inc(f"events.{k}", v)
                snap = self.reg.snapshot()
        occupancy = []
        while True:
            g = snap.gauges.get(f"pool.occupancy.{len(occupancy)}")
            if g is None:
                break
            occupancy.append(int(g["max"]))
        stats = KernelStats(
            kind=self.kind,
            backend=self.backend,
            n_replications=int(n),
            workers=int(workers),
            shards=tuple(self.shards),
            chunk_sizes=tuple(self.chunk_sizes),
            n_rounds=int(raw["n_rounds"]),
            rng_rows=int(snap.gauge_max("rng.rows")),
            n_draws=int(raw["n_draws"].sum()),
            channel_events={k: int(v) for k, v in channel_events.items()},
            stall_terminations=int(snap.counter("stall.terminations")),
            boot_grace_activations=int(snap.counter("stall.graced")),
            livelock_peak_streak=int(snap.gauge_max("livelock.peak_streak")),
            peak_queue_depth=int(snap.gauge_max("queue.peak_depth")),
            pool_occupancy=tuple(occupancy),
            phase_seconds={k: float(v) for k, v in self.phases.items()},
            peak_rss_bytes=max(int(snap.gauge_max("proc.peak_rss")), peak_rss_bytes()),
        )
        self.inst.registry.merge_snapshot(snap)
        return stats


# ----------------------------------------------------------------------
# The sweep driver: the one orchestration behind every entry point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Kernel:
    """What an entry point hands the sweep driver.

    ``simulate`` is a module-level function (so shard payloads pickle),
    called as ``simulate(*args, n_replications=, rng=, obs=, **kwargs)``;
    it returns a raw dict of per-replication arrays — ``n_draws`` among
    them — plus the scalar ``n_rounds``.  ``per_replication`` holds
    ``(n,)`` input arrays the driver slices to each chunk's or shard's
    replications and passes as extra keyword arguments.  ``channels``
    derives the stats event channels from a merged raw dict (see
    :meth:`_RunObs.finish`); ``None`` when the kernel counts them live.
    """

    kind: str
    simulate: Callable
    args: tuple
    kwargs: dict
    per_replication: dict = field(default_factory=dict)
    channels: Callable | None = None


def _sweep(
    kernel: _Kernel,
    *,
    backend: str,
    n_replications: int,
    seed,
    workers: int,
    capture: DrawCapture | None,
    instrument,
    chunk_size: int | None = None,
) -> tuple[dict, KernelStats | None]:
    """Run one replication sweep; returns the merged raw dict and stats.

    The only orchestration path of the four entry points: it validates
    the sweep-level arguments before any draw, turns ``seed`` into the
    root generator, arms ``capture``, plans chunks and their generators,
    runs them serially or as CRN-paired shards over worker processes,
    and merges the raw results.  Phase spans follow one scheme:
    ``simulate:<backend>`` for a single serial chunk, ``chunk[k]`` per
    streamed chunk, ``shards`` for the process fan-out, and ``merge``.
    """
    if n_replications < 0:
        raise ValueError(f"n_replications must be >= 0, got {n_replications}")
    if chunk_size is not None:
        check_positive("chunk_size", chunk_size)
        if capture is not None:
            raise ValueError(
                "capture is incompatible with chunk_size: chunks consume "
                "rows of differing widths, which no longer form one round "
                "table"
            )
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and capture is not None:
        raise ValueError(
            "capture is incompatible with workers > 1: rows are drawn "
            "inside worker processes, where the capture object cannot "
            "observe them; record draws with workers=1"
        )
    n = int(n_replications)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if capture is not None:
        capture._arm()
        rng = _RecordingRNG(rng, capture)
    if chunk_size is None or n <= chunk_size:
        sizes = [n]
    else:
        sizes = [chunk_size] * (n // chunk_size)
        if n % chunk_size:
            sizes.append(n % chunk_size)
    # Chunk 0 keeps the root generator (so a covering chunk is the
    # unchunked run, byte for byte); later chunks get spawned children,
    # making every chunk's stream independent of how many rounds its
    # predecessors ran — the invariant that lets chunks be recomputed
    # in isolation and sharded across workers.
    chunk_rngs = [rng] if len(sizes) == 1 else [rng, *rng.spawn(len(sizes) - 1)]
    robs = _RunObs(instrument, kernel.kind, backend)
    robs.chunk_sizes = tuple(sizes)

    def inputs(lo: int, hi: int) -> dict:
        """Keyword inputs of the sweep's replications ``[lo, hi)``."""
        sliced = {k: v[lo:hi] for k, v in kernel.per_replication.items()}
        return {**kernel.kwargs, **sliced}

    sharded = workers > 1 and n > 1
    raws, start = [], 0
    if sharded:
        # Shards pair to their chunk's generator: each replays it, draws
        # chunk-wide rows, and consumes only its own columns.
        payloads = []
        for chunk_rng, size in zip(chunk_rngs, sizes):
            for lo, hi in _shard_bounds(size, min(workers, size)):
                robs.shards += ((lo, hi),)
                payloads.append((
                    kernel.simulate, kernel.args, inputs(start + lo, start + hi),
                    chunk_rng, lo, hi, size, robs.on,
                ))
            start += size
        with robs.timed("shards"):
            raws = _run_sharded(payloads, workers, sizes)
        robs.absorb(raws)
        robs.progress(n, n)
    else:
        # Chunks run sequentially, each building its own chunk-wide
        # kernel (bounded peak memory); the progress callback fires as
        # each lands.
        for k, (chunk_rng, size) in enumerate(zip(chunk_rngs, sizes)):
            phase = f"chunk[{k}]" if len(sizes) > 1 else f"simulate:{backend}"
            with robs.timed(phase):
                raws.append(kernel.simulate(
                    *kernel.args,
                    n_replications=size,
                    rng=chunk_rng,
                    obs=robs.reg,
                    **inputs(start, start + size),
                ))
            start += size
            robs.progress(start, n)
    with robs.timed("merge"):
        raw = _merge_raws(raws)
    stats = robs.finish(
        raw, n=n, workers=workers if sharded else 1, channels=kernel.channels
    )
    return raw, stats


def _fleet_config(backend: str, config, config_kwargs: dict, config_cls):
    """Backend check and config resolution of the fleet entry points."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if config is not None and config_kwargs:
        raise ValueError("pass either config or its fields as kwargs, not both")
    return config_cls(**config_kwargs) if config is None else config


def _gang_bag(jobs, n_slots: int, cap: str) -> list:
    """Normalise a bag of gang jobs and check every width fits the fleet."""
    from repro.sim.cluster_vectorized import GangJob

    bag = [j if isinstance(j, GangJob) else GangJob(*j) for j in jobs]
    if not bag:
        raise ValueError("jobs must be non-empty")
    widest = max(j.width for j in bag)
    if widest > n_slots:
        raise ValueError(f"job width {widest} exceeds {cap} {n_slots}")
    return bag


class _SweepMeans:
    """Per-replication summaries every ``*Outcomes`` type shares."""

    @property
    def n_replications(self) -> int:
        return int(self.makespan.size)

    @property
    def mean_makespan(self) -> float:
        return float(self.makespan.mean())


class _FleetMeans(_SweepMeans):
    """Summaries of the gang-scheduling sweeps (cluster and service)."""

    @property
    def mean_wasted_hours(self) -> float:
        return float(self.wasted_hours.mean())

    @property
    def mean_vm_hours(self) -> float:
        return float(self.vm_hours.mean())

    @property
    def failure_fraction(self) -> float:
        """Fraction of replications with at least one gang abort."""
        return float(np.mean(self.n_job_failures > 0))


@dataclass(frozen=True)
class ReplicationOutcomes(_SweepMeans):
    """Per-replication results of one :func:`run_replications` sweep.

    Attributes
    ----------
    makespan:
        Wall-clock hours to completion (work + checkpoint writes +
        recomputation + restart latency), shape ``(n,)``.
    wasted_hours:
        Hours lost past the last durable checkpoint, summed over all
        preemptions, shape ``(n,)``.
    completed_work:
        Durably saved work hours; equals the job length for every
        replication once the sweep terminates, shape ``(n,)``.
    n_restarts:
        Preemption count per replication, shape ``(n,)``.
    n_rounds:
        VM generations the batch needed (= 1 + max restarts).
    backend:
        Which backend produced the arrays.
    """

    makespan: np.ndarray
    wasted_hours: np.ndarray
    completed_work: np.ndarray
    n_restarts: np.ndarray
    n_rounds: int
    backend: str
    #: Per-run diagnostics when the sweep ran with ``instrument=``;
    #: ``None`` otherwise (the zero-overhead default).
    stats: KernelStats | None = None

    @property
    def mean_wasted_hours(self) -> float:
        return float(self.wasted_hours.mean())

    @property
    def failure_fraction(self) -> float:
        """Fraction of replications preempted at least once."""
        return float(np.mean(self.n_restarts > 0))

    def mean_overhead_fraction(self, job_length: float) -> float:
        """``(E[makespan] - J) / J`` — the Fig. 8 y-axis (as a fraction)."""
        J = check_positive("job_length", job_length)
        return (self.mean_makespan - J) / J

    def total_cost(self, price_per_hour: float) -> float:
        """Summed VM-hours billed across replications times the hourly price."""
        return float(self.makespan.sum()) * check_nonnegative(
            "price_per_hour", price_per_hour
        )


class _RoundUniforms:
    """Lazily materialised round-protocol uniforms, shared by backends.

    Rounds are generated in order, each as one ``rng.random(n)`` row, so
    every consumer advances the generator identically; replication ``i``
    reads column ``i`` of each row it needs — scalar (:meth:`value`, the
    event paths) or gathered per-replication (:meth:`gather`, the
    cluster kernel, where draw counters differ across replications).
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self._rng = rng
        self._n = n
        self._buf = np.empty((0, n))
        self._filled = 0

    def _materialise(self, rounds: int) -> None:
        while self._filled < rounds:
            if self._filled >= self._buf.shape[0]:
                grown = np.empty((max(4, 2 * self._buf.shape[0]), self._n))
                grown[: self._filled] = self._buf[: self._filled]
                self._buf = grown
            self._buf[self._filled] = self._rng.random(self._n)
            self._filled += 1

    def value(self, replication: int, round_index: int) -> float:
        self._materialise(round_index + 1)
        return float(self._buf[round_index, replication])

    def gather(self, replications: np.ndarray, round_indices: np.ndarray) -> np.ndarray:
        """``value`` over aligned index vectors, in one fancy-index pass."""
        if round_indices.size:
            self._materialise(int(round_indices.max()) + 1)
        return self._buf[round_indices, replications]


class _EventReplication:
    """One replication driven through the discrete-event engine.

    Each segment schedules its completion event; when the current VM dies
    before the segment's end, a preemption event is scheduled too and the
    loser is cancelled — exercising the engine's cancellation path the
    way the full cluster simulation does.
    """

    def __init__(
        self,
        dist: LifetimeDistribution,
        segments: np.ndarray,
        durations: np.ndarray,
        cdf_at_start: float,
        start_age: float,
        restart_latency: float,
        uniforms: _RoundUniforms,
        replication: int,
        max_rounds: int,
    ):
        self.sim = Simulator()
        self.dist = dist
        self.segments = segments
        self.durations = durations
        self.cdf_at_start = cdf_at_start
        self.start_age = start_age
        self.restart_latency = restart_latency
        self.uniforms = uniforms
        self.replication = replication
        self.max_rounds = max_rounds
        self.wasted = 0.0
        self.completed = 0.0
        self.restarts = 0
        self.rounds = 0
        self.k = 0  # next segment to (re)run
        self.vm_age = 0.0
        self.death_age = 0.0
        self.segment_start = 0.0
        self.completion_handle: EventHandle | None = None
        self.preempt_handle: EventHandle | None = None

    def run(self) -> tuple[float, float, float, int, int]:
        self._acquire_vm()
        self.sim.run()
        return (self.sim.now, self.wasted, self.completed, self.restarts, self.rounds)

    def _acquire_vm(self) -> None:
        if self.rounds >= self.max_rounds:
            raise RuntimeError(
                f"replication {self.replication} unfinished after "
                f"{self.max_rounds} rounds; schedule cannot finish under "
                "this lifetime law"
            )
        u = self.uniforms.value(self.replication, self.rounds)
        if self.rounds == 0:
            q = conditional_quantiles(u, self.cdf_at_start)
            self.vm_age = self.start_age
        else:
            q = u
            self.vm_age = 0.0
        self.death_age = float(self.dist.ppf(q))
        self.rounds += 1
        self._launch_segment()

    def _launch_segment(self) -> None:
        w = float(self.durations[self.k])
        self.segment_start = self.sim.now
        self.completion_handle = self.sim.schedule(w, self._segment_done)
        if self.death_age < self.vm_age + w:
            # Dies strictly inside the segment; at an exact boundary the
            # segment completes (ties favour completion in both backends).
            self.preempt_handle = self.sim.schedule(
                max(self.death_age - self.vm_age, 0.0), self._preempted
            )
        else:
            self.preempt_handle = None

    def _segment_done(self) -> None:
        if self.preempt_handle is not None:
            self.preempt_handle.cancel()
            self.preempt_handle = None
        self.completed += float(self.segments[self.k])
        self.vm_age += float(self.durations[self.k])
        self.k += 1
        if self.k < self.segments.size:
            self._launch_segment()

    def _preempted(self) -> None:
        if self.completion_handle is not None:
            self.completion_handle.cancel()
            self.completion_handle = None
        self.wasted += self.sim.now - self.segment_start
        self.restarts += 1
        if self.restart_latency > 0.0:
            self.sim.schedule(self.restart_latency, self._acquire_vm)
        else:
            self._acquire_vm()


def _simulate_plan_event(
    dist: LifetimeDistribution,
    segments: np.ndarray,
    *,
    delta: float,
    start_age,
    restart_latency: float,
    n_replications: int,
    rng: np.random.Generator,
    max_rounds: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    durations = segments.copy()
    if segments.size > 1:
        durations[:-1] += delta
    # start_age is a scalar or a (n_replications,) array; F is evaluated
    # with the same array shape the vectorized kernel uses, so the
    # per-element conditioning values match bit-for-bit either way.
    given = np.asarray(start_age, dtype=float)
    if given.ndim == 0:
        F_arr = np.full(n_replications, float(np.asarray(dist.cdf(given), dtype=float)))
        start_arr = np.full(n_replications, float(given))
    else:
        F_arr = np.asarray(dist.cdf(given), dtype=float)
        start_arr = given
    uniforms = _RoundUniforms(rng, n_replications)
    makespan = np.zeros(n_replications)
    wasted = np.zeros(n_replications)
    completed = np.zeros(n_replications)
    restarts = np.zeros(n_replications, dtype=np.int64)
    n_rounds = 0
    for i in range(n_replications):
        rep = _EventReplication(
            dist,
            segments,
            durations,
            float(F_arr[i]),
            float(start_arr[i]),
            restart_latency,
            uniforms,
            i,
            max_rounds,
        )
        makespan[i], wasted[i], completed[i], restarts[i], rounds_i = rep.run()
        n_rounds = max(n_rounds, rounds_i)
    return makespan, wasted, completed, restarts, n_rounds


def _simulate_plan(
    dist: LifetimeDistribution,
    segments: np.ndarray,
    *,
    kernel,
    rng,
    obs=None,
    stream_exact: bool | None = None,
    **kwargs,
) -> dict:
    """Run one plan kernel and return its outputs as a raw dict.

    Plan kernels return tuples and count nothing live; everything the
    stats need is derivable from the outputs (one lifetime draw per VM
    acquisition, one RNG row per round).  ``stream_exact`` is the
    compiled kernel's switch: a worker's private generator copy is never
    observed afterwards, so shards always block-draw.
    """
    if stream_exact is not None:
        kwargs["stream_exact"] = stream_exact and not isinstance(rng, _ShardRNG)
    makespan, wasted, completed, restarts, n_rounds = kernel(
        dist, segments, rng=rng, **kwargs
    )
    if obs is not None:
        obs.gauge("rng.rows").set(n_rounds)
    return {
        "makespan": makespan,
        "wasted_hours": wasted,
        "completed_work": completed,
        "n_restarts": restarts,
        "n_draws": restarts + 1,
        "n_rounds": n_rounds,
    }


def _plan_channels(raw: dict, reg) -> dict[str, int]:
    return {"restart": int(raw["n_restarts"].sum())}


def run_replications(
    dist: LifetimeDistribution,
    segments: Sequence[float],
    *,
    delta: float = 1.0 / 60.0,
    start_age: float | Sequence[float] | np.ndarray = 0.0,
    restart_latency: float = 0.0,
    n_replications: int = 1000,
    seed: int | np.random.Generator | None = 0,
    backend: str = "vectorized",
    max_rounds: int = 10_000,
    workers: int = 1,
    capture: DrawCapture | None = None,
    instrument=None,
) -> ReplicationOutcomes:
    """Simulate ``n_replications`` runs of a checkpoint plan under ``dist``.

    Parameters
    ----------
    dist:
        Lifetime law of the VMs (any :class:`LifetimeDistribution`).
    segments:
        Work-hours between consecutive checkpoints; the final segment is
        not followed by a checkpoint write.
    delta:
        Checkpoint write cost in hours.
    start_age:
        Age of the first VM; its lifetime is conditioned on surviving to
        this age.  Replacement VMs are fresh.  Either one scalar age for
        the whole batch, or an array of shape ``(n_replications,)``
        giving each replication its own first-VM age — the shape the
        policy-evaluation layer uses to score reuse decisions over
        sampled VM ages.
    restart_latency:
        Extra hours charged per preemption for acquiring the replacement.
    seed:
        Root seed (or an existing generator) for the round-protocol
        draws.  Identical seeds give identical per-replication outcomes
        on *both* backends (within 1e-9 hours); pass ``None`` for
        OS-entropy seeding.
    backend:
        ``"vectorized"`` (default) or ``"event"`` — see the module
        docstring for the trade-off.
    max_rounds:
        Safety cap on VM generations before declaring the plan
        unfinishable.
    workers:
        Shard the replication batch across this many worker processes.
        Shards are contiguous replication ranges paired to the serial
        stream by common random numbers: each worker replays the serial
        root generator, draws full-width round rows, and consumes only
        its own columns, so the merged outcomes are *byte-identical* to
        ``workers=1`` for every backend.  A ``Generator`` seed is
        copied to each worker; the caller's instance is left untouched.
        Incompatible with ``capture``.
    capture:
        Optional fresh :class:`DrawCapture`; records every consumed
        round row so the realized draws can be re-scored (e.g. by the
        hindsight-optimal oracle) with draw-level pairing.
    instrument:
        Observability switch: ``None`` (default) consults the ambient
        :func:`repro.obs.instrumented` stack — usually off, the
        zero-overhead path; ``True`` builds a fresh
        :class:`repro.obs.Instrumentation` bundle; ``False`` forces
        off; or pass a bundle directly.  When on, the returned
        outcomes carry a :class:`repro.obs.KernelStats` in ``.stats``,
        and the bundle's ``progress`` callback fires with ``(done,
        total, elapsed_s, eta_s)`` once the sweep lands (every entry
        point; chunked tenancy sweeps report after each chunk).
        Instrumentation never consumes an RNG draw and never changes
        an outcome (pinned byte-identical by the neutrality tests).

    Returns
    -------
    ReplicationOutcomes
        Per-replication makespan / wasted hours / completed work /
        restart counts.
    """
    if backend not in BACKENDS and backend != COMPILED_BACKEND:
        raise ValueError(
            f"backend must be one of {BACKENDS + (COMPILED_BACKEND,)}, "
            f"got {backend!r}"
        )
    segs = np.asarray(segments, dtype=float)
    if segs.size == 0:
        raise ValueError("segments must be non-empty")
    good = np.isfinite(segs) & (segs > 0.0)
    if not good.all():
        check_positive("segment", segs.ravel()[np.flatnonzero(~good.ravel())[0]])
    check_nonnegative("delta", delta)
    check_nonnegative("restart_latency", restart_latency)
    check_positive("max_rounds", max_rounds)
    kwargs = dict(
        delta=float(delta),
        restart_latency=float(restart_latency),
        max_rounds=int(max_rounds),
    )
    per_replication = {}
    start_arr = np.asarray(start_age, dtype=float)
    if start_arr.ndim == 0:
        kwargs["start_age"] = check_nonnegative("start_age", float(start_arr))
    else:
        if start_arr.shape != (int(n_replications),):
            raise ValueError(
                "per-replication start_age must have shape "
                f"({n_replications},), got {start_arr.shape}"
            )
        if np.any(start_arr < 0.0):
            raise ValueError("start_age entries must be >= 0")
        per_replication["start_age"] = start_arr
    if backend == COMPILED_BACKEND:
        from repro.sim.compiled import simulate_plan_compiled

        kwargs["kernel"] = simulate_plan_compiled
        # Block drawing may advance the generator past the final round;
        # only safe when nobody can observe the generator afterwards.
        kwargs["stream_exact"] = (
            isinstance(seed, np.random.Generator) or capture is not None
        )
    elif backend == "vectorized":
        kwargs["kernel"] = simulate_plan_vectorized
    else:
        kwargs["kernel"] = _simulate_plan_event
    raw, stats = _sweep(
        _Kernel(
            "plan",
            _simulate_plan,
            (dist, segs),
            kwargs,
            per_replication=per_replication,
            channels=_plan_channels,
        ),
        backend=backend,
        n_replications=n_replications,
        seed=seed,
        workers=workers,
        capture=capture,
        instrument=instrument,
    )
    return ReplicationOutcomes(
        makespan=raw["makespan"],
        wasted_hours=raw["wasted_hours"],
        completed_work=raw["completed_work"],
        n_restarts=raw["n_restarts"],
        n_rounds=raw["n_rounds"],
        backend=backend,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Cluster-scale sweeps: N whole-cluster (bag-of-gangs) replications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterOutcomes(_FleetMeans):
    """Per-replication results of one :func:`run_cluster_replications` sweep.

    Attributes
    ----------
    makespan:
        Hours from submission (t = 0) to the bag's last job completion,
        shape ``(n,)``.
    wasted_hours:
        Hours of segment work (including in-flight checkpoint writes)
        lost to gang preemptions, summed over all job aborts.
    completed_jobs:
        Jobs finished per replication (the bag size once a sweep
        terminates).
    n_job_failures:
        Gang aborts (a job losing a VM mid-attempt), per replication.
    n_preemptions:
        VM deaths observed before the bag finished (idle VMs included).
    vm_hours:
        Billable VM hours: every VM from boot to its death, refresh
        termination, or the bag's completion time.
    n_events:
        Discrete events (deaths + segment completions) processed; equal
        across backends by construction.
    n_draws:
        Lifetime uniforms consumed per replication under the cluster
        round protocol.
    n_rounds:
        Lockstep rounds the batch needed (= max of ``n_events``).
    backend:
        Which backend produced the arrays.
    pool_vm_hours:
        Per-pool split of ``vm_hours``, shape ``(n, n_pools)`` — one
        column per catalog entry (a single column for the default
        anonymous pool).  ``pool_vm_hours @ prices`` gives each
        replication's heterogeneous-fleet bill.
    """

    makespan: np.ndarray
    wasted_hours: np.ndarray
    completed_jobs: np.ndarray
    n_job_failures: np.ndarray
    n_preemptions: np.ndarray
    vm_hours: np.ndarray
    n_events: np.ndarray
    n_draws: np.ndarray
    n_rounds: int
    backend: str
    pool_vm_hours: np.ndarray | None = None
    #: Per-run diagnostics when the sweep ran with ``instrument=``;
    #: ``None`` otherwise (the zero-overhead default).
    stats: KernelStats | None = None

    def mean_cost(self, price_per_hour: float) -> float:
        """Mean billed cost of one cluster run at the given hourly price."""
        return self.mean_vm_hours * check_nonnegative(
            "price_per_hour", price_per_hour
        )


class _ClusterReplication:
    """One cluster run driven through the real :class:`ClusterManager`.

    This is the reference semantics for the batched kernel
    (:mod:`repro.sim.cluster_vectorized`): the FIFO gang scheduler, job
    executions, and callbacks are the production classes; only VM
    lifetimes come from the shared round protocol instead of a
    :class:`~repro.sim.cloud.CloudProvider`, so that both backends
    consume the generator identically.  Policy hooks mirror the batch
    service: Eq. 8 suitability filtering in the node selector, stall
    refreshes that terminate the oldest unsuitable idle VM for a fresh
    boot, hot-spare substitution of dead nodes, and a fixed-interval
    checkpoint planner.
    """

    def __init__(
        self,
        dist: LifetimeDistribution,
        jobs,
        config,
        uniforms: _RoundUniforms,
        replication: int,
        max_events: int,
        ckpt=None,
        obs=None,
    ):
        from repro.policies.scheduling import ModelReusePolicy, SchedulingDecision
        from repro.sim.cluster import ClusterManager, SimJob
        from repro.sim.placement import make_allocator, resolve_pools

        self._SimJob = SimJob
        self._REUSE = SchedulingDecision.REUSE
        self.jobs = jobs
        self.cfg = config
        self.replication = replication
        self.max_events = max_events
        # Pool catalog: VM boots pick the first ranked pool with alive
        # headroom *before* drawing (so draw counts stay pool-agnostic),
        # and each pool carries its own lifetime law + reuse policy.
        # Cluster pools always boot instantly, so no boot-grace window
        # is needed here (decide(T, 0) is REUSE under both criteria).
        self.pools = resolve_pools(
            config.pools, dist=dist, n_slots=config.pool_size
        )
        self.rank = make_allocator(config.allocator).rank_for(self.pools)
        self.policies = (
            [
                ModelReusePolicy(p.dist, criterion=config.reuse_criterion)
                for p in self.pools
            ]
            if config.use_reuse_policy
            else None
        )
        self.sim = Simulator()
        # VM lifecycles (boot draws, deaths, terminations, per-pool
        # occupancy) run through the service oracles' cloud shim.
        self.cloud = _RoundProtocolCloud(
            self.sim, dist, uniforms, replication, pools=self.pools, obs=obs
        )
        if config.hot_spare:
            self.cloud.on_death = self._hot_spare
        self.cluster = ClusterManager(
            self.sim,
            log=self.cloud.log,
            node_selector=self._select_nodes,
            checkpoint_planner=self._plan_checkpoints,
            checkpoint_cost=config.checkpoint_cost,
            backfill=config.backfill,
            allocator=config.allocator,
            pools=self.pools,
        )
        self.cluster.on_queue_stalled.append(self._on_stall)
        # Mirrored observability counters: the ClusterManager samples
        # queue depth at its insertion points; this oracle counts stall
        # terminations.
        self.obs = obs
        self.cluster.obs = obs
        # Shared CheckpointPolicy in checkpoint="dp" mode (one DP table
        # across the whole sweep, like the batched walker), else None.
        self._ckpt = ckpt
        self._stalled = False

    # -- policy hooks ---------------------------------------------------
    def _suitable(self, job, free):
        if self.policies is None:
            return list(free)
        T = max(job.remaining_hours, 1e-6)
        now = self.sim.now
        return [
            vm
            for vm in free
            if self.policies[vm.pool].decide(T, vm.age(now)) is self._REUSE
        ]

    def _select_nodes(self, job, free):
        suitable = self._suitable(job, free)
        if len(suitable) < job.width:
            return None
        return suitable[: job.width]

    def _plan_checkpoints(self, job, start_age):
        tau = self.cfg.checkpoint_interval
        if tau is not None:
            # Enough tau-segments to cover the attempt; JobExecution
            # clips the plan to the exact remaining hours.
            n_seg = int(np.ceil(job.remaining_hours / tau)) + 1
            return [tau] * n_seg
        if self._ckpt is None:
            return None
        # The controller's DP branch (checkpoint="dp"): plan the
        # remaining work at the gang's oldest selected VM age.
        remaining = job.remaining_hours
        if remaining < self.cfg.checkpoint_step:
            return None
        return list(self._ckpt.plan(remaining, start_age).segments)

    # -- VM lifecycle under the round protocol --------------------------
    def _pick_pool(self) -> int:
        """First ranked pool with alive headroom (the kernel's _boot_pool).

        Counted over *alive* registered nodes only: dead/terminated VMs
        are marked before their replacements boot on both backends, so
        the vacated slot is already free here.
        """
        if len(self.pools) == 1:
            return 0
        occ = [0] * len(self.pools)
        for vm in self.cluster.free_nodes():
            if vm.alive:
                occ[vm.pool] += 1
        for vm in self.cluster.busy_nodes():
            if vm.alive:
                occ[vm.pool] += 1
        for p in self.rank:
            if occ[p] < self.pools[p].size:
                return p
        raise RuntimeError("no pool headroom; pool invariant violated")

    def _boot(self):
        # The pool pick is deterministic and precedes the draw.
        return self.cloud.launch("cluster-mc", pool=self._pick_pool())

    def _hot_spare(self, vm) -> None:
        """Substitute before the cluster reacts to a death: the dead idle
        VM leaves the pool and a fresh spare joins (giving the queue
        first crack at it), then the abort path runs."""
        if any(v.vm_id == vm.vm_id for v in self.cluster.free_nodes()):
            self.cluster.remove_node(vm)
        self.cluster.add_node(self._boot())

    # -- stall refresh (the service's policy-rejection path) -------------
    def _on_stall(self, job, n_free) -> None:
        self._stalled = True

    def _drain_stalls(self) -> None:
        """Refresh/boot one VM at a time while the queue head is stuck."""
        while self._stalled:
            self._stalled = False
            job = self.cluster.queue_head()
            if job is None:
                return
            free = self.cluster.free_nodes()
            suitable = self._suitable(job, free)
            if len(suitable) >= job.width:
                self.cluster.try_schedule()
                continue
            suitable_ids = {vm.vm_id for vm in suitable}
            unsuitable = [vm for vm in free if vm.vm_id not in suitable_ids]
            n_alive = len(free) + len(self.cluster.busy_nodes())
            n_empty = self.cfg.pool_size - n_alive
            if len(free) + n_empty < job.width:
                return  # wait for completions to release gang nodes
            if unsuitable:
                victim = unsuitable[0]  # oldest (launch, id) rejected VM
                self.cluster.remove_node(victim)
                self.cloud.terminate(victim)
                if self.obs is not None:
                    self.obs.inc("stall.terminations")
            # add_node recurses into try_schedule, re-flagging the stall
            # if the head is still stuck.
            self.cluster.add_node(self._boot())

    # -- drive ------------------------------------------------------------
    def run(self):
        n_jobs = len(self.jobs)
        for _ in range(self.cfg.pool_size):
            self.cluster.add_node(self._boot())
        for k, gj in enumerate(self.jobs):
            self.cluster.submit(
                self._SimJob(job_id=k, work_hours=gj.work_hours, width=gj.width)
            )
        self._drain_stalls()
        while len(self.cluster.completed) < n_jobs:
            if self.sim.events_processed >= self.max_events:
                raise RuntimeError(
                    f"replication {self.replication} unfinished after "
                    f"{self.max_events} events; the bag cannot finish under "
                    "this lifetime law / configuration"
                )
            if not self.sim.step():
                raise RuntimeError(
                    "cluster replication drained before the bag finished"
                )
            self._drain_stalls()
        return _oracle_run_scalars(
            self.sim, self.cloud, self.cluster.completed, len(self.pools)
        )


#: dtype and fill value of every event-oracle output field.
_ORACLE_FIELDS = {
    "makespan": (float, 0.0),
    "wasted_hours": (float, 0.0),
    "completed_jobs": (np.int64, 0),
    "n_job_failures": (np.int64, 0),
    "n_preemptions": (np.int64, 0),
    "vm_hours": (float, 0.0),
    "pool_vm_hours": (float, 0.0),
    "master_hours": (float, 0.0),
    "n_events": (np.int64, 0),
    "n_draws": (np.int64, 0),
    "admitted": (bool, False),
    "start_times": (float, np.nan),
    "finish_times": (float, np.nan),
}


def _simulate_event(
    replicate,
    fields: Sequence[str],
    dist: LifetimeDistribution,
    config,
    n_slots: int,
    *,
    n_replications: int,
    rng: np.random.Generator,
    obs=None,
    row_widths: dict[str, int] | None = None,
) -> dict[str, np.ndarray | int]:
    """The event-oracle harness of the cluster, service and tenancy kinds.

    ``replicate(uniforms, i, ckpt)`` builds replication ``i`` on the
    shared round table; its ``run()`` returns one value per name in
    ``fields`` (see :data:`_ORACLE_FIELDS`).  ``row_widths`` gives the
    per-replication row length of vector-valued fields;
    ``pool_vm_hours`` is always one column per resolved pool.
    """
    from repro.policies.checkpointing import CheckpointPolicy
    from repro.sim.placement import resolve_pools

    uniforms = _RoundUniforms(rng, n_replications)
    n = int(n_replications)
    widths = {
        "pool_vm_hours": len(resolve_pools(config.pools, dist=dist, n_slots=n_slots)),
        **(row_widths or {}),
    }
    # One shared policy (hence one cached DP table) across the sweep.
    ckpt = (
        CheckpointPolicy(
            dist, step=config.checkpoint_step, delta=config.checkpoint_cost
        )
        if config.checkpoint == "dp"
        else None
    )
    raw = {}
    for name in fields:
        dtype, fill = _ORACLE_FIELDS[name]
        shape = (n, widths[name]) if name in widths else (n,)
        raw[name] = np.full(shape, fill, dtype=dtype)
    for i in range(n):
        rep = replicate(uniforms, i, ckpt)
        for name, value in zip(fields, rep.run()):
            raw[name][i] = value
        if obs is not None:
            # Engine mirror: real event-loop callbacks executed, summed
            # across the sweep (a backend-local diagnostic; the arena
            # event channels are the cross-backend contract).
            obs.inc("engine.callbacks", rep.sim.events_processed)
    raw["n_rounds"] = int(raw["n_events"].max()) if n else 0
    if obs is not None:
        obs.gauge("rng.rows").set(uniforms._filled)
    return raw


_CLUSTER_FIELDS = (
    "makespan", "wasted_hours", "completed_jobs", "n_job_failures",
    "n_preemptions", "vm_hours", "pool_vm_hours", "n_events", "n_draws",
)


def _simulate_cluster_event(
    dist: LifetimeDistribution,
    jobs,
    config,
    *,
    n_replications: int,
    rng: np.random.Generator,
    max_events: int,
    obs=None,
) -> dict[str, np.ndarray | int]:
    return _simulate_event(
        lambda uniforms, i, ckpt: _ClusterReplication(
            dist, jobs, config, uniforms, i, max_events, ckpt=ckpt, obs=obs
        ),
        _CLUSTER_FIELDS,
        dist,
        config,
        config.pool_size,
        n_replications=n_replications,
        rng=rng,
        obs=obs,
    )


def _cluster_channels(raw: dict, reg) -> dict[str, int]:
    """Every cluster arena event is a death or a segment completion."""
    death = int(raw["n_preemptions"].sum())
    return {"death": death, "comp": int(raw["n_events"].sum()) - death}


def run_cluster_replications(
    dist: LifetimeDistribution,
    jobs,
    *,
    config=None,
    n_replications: int = 1000,
    seed: int | np.random.Generator | None = 0,
    backend: str = "vectorized",
    max_events: int = 1_000_000,
    workers: int = 1,
    capture: DrawCapture | None = None,
    instrument=None,
    **config_kwargs,
) -> ClusterOutcomes:
    """Simulate ``n_replications`` whole-cluster bag runs under ``dist``.

    Each replication is one Section 5 service scenario: the bag's gang
    jobs are submitted FIFO at ``t = 0`` to a cluster of
    ``config.pool_size`` preemptible VMs and run — through preemptions,
    Eq. 8 reuse refreshes, hot-spare substitution, and checkpoint
    restarts — until every job completes.  See
    :mod:`repro.sim.cluster_vectorized` for the cluster round protocol
    both backends share.

    Parameters
    ----------
    dist:
        Lifetime law of the pool VMs.
    jobs:
        The bag: a sequence of :class:`~repro.sim.cluster_vectorized.GangJob`
        (or ``(work_hours, width)`` tuples).
    config:
        A :class:`~repro.sim.cluster_vectorized.ClusterConfig`;
        alternatively pass its fields as keyword arguments
        (``pool_size=16, hot_spare=False, ...``).
    seed:
        Root seed (or generator) for the cluster round protocol;
        identical seeds give identical per-replication outcomes on both
        backends (within 1e-9 hours).
    backend:
        ``"vectorized"`` (default) or ``"event"`` — the event path
        drives the real :class:`~repro.sim.cluster.ClusterManager` per
        replication and is the semantics oracle.
    max_events:
        Safety cap on processed events per replication before declaring
        the bag unfinishable.
    workers:
        Shard the batch across this many worker processes under CRN
        shard pairing (see :func:`run_replications`); merged outcomes
        are byte-identical to ``workers=1``.  Incompatible with
        ``capture``.
    capture:
        Optional fresh :class:`DrawCapture`; records every consumed
        round row so the realized lifetime draws can be re-scored with
        draw-level pairing (the hindsight-oracle hook).
    instrument:
        Observability switch (see :func:`run_replications`); when on,
        ``.stats`` carries per-channel arena event counts, stall
        terminations, pool occupancy, and phase timings.  The event
        backend's channel counts are *derived* from the oracle's
        outputs, so comparing them against the vectorized kernel's
        direct counts independently checks the pick classification.

    Returns
    -------
    ClusterOutcomes
        Per-replication makespan / wasted hours / completion counts /
        preemption counts / VM hours.
    """
    from repro.sim.cluster_vectorized import ClusterConfig, simulate_cluster_vectorized

    config = _fleet_config(backend, config, config_kwargs, ClusterConfig)
    bag = _gang_bag(jobs, config.pool_size, "pool_size")
    check_positive("max_events", max_events)
    event = backend == "event"
    raw, stats = _sweep(
        _Kernel(
            "cluster",
            _simulate_cluster_event if event else simulate_cluster_vectorized,
            (dist, bag, config),
            {"max_events": int(max_events)},
            channels=_cluster_channels if event else None,
        ),
        backend=backend,
        n_replications=n_replications,
        seed=seed,
        workers=workers,
        capture=capture,
        instrument=instrument,
    )
    return ClusterOutcomes(backend=backend, stats=stats, **raw)


# ----------------------------------------------------------------------
# Service-scale sweeps: N full BatchComputingService runs
# ----------------------------------------------------------------------

class _BilledSweepMixin:
    """Billing arithmetic shared by the service- and tenant-scale
    outcome types: both expose ``vm_hours`` / ``master_hours`` arrays
    and an ``on_demand_baseline``, so the rate validation and the
    zero-spend convention (spend 0 with a positive baseline -> inf)
    live in exactly one place.
    """

    def total_cost(
        self, preemptible_rate: float, master_rate: float = 0.0
    ) -> np.ndarray:
        """Per-replication billed cost: workers + (optionally) the master."""
        check_nonnegative("preemptible_rate", preemptible_rate)
        check_nonnegative("master_rate", master_rate)
        return self.vm_hours * preemptible_rate + self.master_hours * master_rate

    def cost_reduction_factor(
        self,
        preemptible_rate: float,
        on_demand_rate: float,
        master_rate: float = 0.0,
    ) -> np.ndarray:
        """Per-replication Fig. 9a metric: baseline over billed cost."""
        check_positive("preemptible_rate", preemptible_rate)
        baseline = self.on_demand_baseline(on_demand_rate)
        spend = self.total_cost(preemptible_rate, master_rate)
        return np.where(spend > 0.0, baseline / np.where(spend > 0.0, spend, 1.0), np.inf)


@dataclass(frozen=True)
class ServiceOutcomes(_FleetMeans, _BilledSweepMixin):
    """Per-replication results of one :func:`run_service_replications` sweep.

    ``ServiceReport``-shaped arrays: everything
    :meth:`repro.service.controller.BatchComputingService.report`
    derives — cost-reduction factor, on-demand baseline, preemption
    count, makespan — is available per replication, with prices applied
    by the caller so one sweep scores any rate sheet.

    Attributes
    ----------
    makespan:
        Hours from submission (t = 0) to the bag's last completion.
    wasted_hours:
        Segment hours lost to gang preemptions, summed per replication.
    completed_jobs:
        Jobs finished (the bag size once a sweep terminates).
    n_job_failures:
        Gang aborts per replication.
    n_preemptions:
        Worker-VM deaths observed before the bag finished.
    vm_hours:
        Billable *worker* hours: every worker from boot to its death,
        termination (stall refresh or idle reap), or the makespan.
    master_hours:
        Billable master hours (= makespan under ``run_master``, else 0).
    n_events:
        Engine events processed (deaths + completions + boots + reaps);
        equal across backends by construction.
    n_draws:
        Lifetime uniforms consumed (one per worker boot event).
    n_rounds:
        Lockstep rounds the batch needed (= max of ``n_events``).
    total_work_hours:
        Ideal VM-hours of the bag (work x gang width, summed) — the
        on-demand baseline's work term.
    backend:
        Which backend produced the arrays.
    pool_vm_hours:
        Per-pool split of ``vm_hours``, shape ``(n, n_pools)`` — one
        column per catalog entry; ``pool_vm_hours @ prices`` gives each
        replication's heterogeneous-fleet bill.
    """

    makespan: np.ndarray
    wasted_hours: np.ndarray
    completed_jobs: np.ndarray
    n_job_failures: np.ndarray
    n_preemptions: np.ndarray
    vm_hours: np.ndarray
    master_hours: np.ndarray
    n_events: np.ndarray
    n_draws: np.ndarray
    n_rounds: int
    total_work_hours: float
    backend: str
    pool_vm_hours: np.ndarray | None = None
    #: Per-run diagnostics when the sweep ran with ``instrument=``;
    #: ``None`` otherwise (the zero-overhead default).
    stats: KernelStats | None = None

    def mean_cost(self, preemptible_rate: float, master_rate: float = 0.0) -> float:
        """Mean billed cost of one service run at the given rates."""
        if self.n_replications == 0:
            return 0.0
        return float(self.total_cost(preemptible_rate, master_rate).mean())

    def on_demand_baseline(self, on_demand_rate: float) -> float:
        """The conventional-deployment counterfactual (no master, no waste)."""
        return self.total_work_hours * check_nonnegative(
            "on_demand_rate", on_demand_rate
        )


class _RoundProtocolCloud:
    """CloudProvider-shaped shim drawing worker lifetimes from the table.

    The real :class:`~repro.sim.cloud.CloudProvider` samples lifetimes
    from per-VM named streams; for cross-backend sweeps the lifetimes
    must come from the shared round protocol instead, drawn at boot
    time in event order.  The master (non-preemptible) draws nothing
    and schedules nothing, exactly like the kernel.  No advance-warning
    events are scheduled: they would perturb the processed-event count
    without affecting the service's proactive policies.

    With a multi-pool catalog, the pool index the controller passes to
    :meth:`launch` routes the boot's round-protocol uniform through
    *that pool's* lifetime law — the pool is chosen deterministically
    before the draw, so draw counts match the kernel's exactly.
    """

    def __init__(
        self,
        sim: Simulator,
        dist: LifetimeDistribution,
        uniforms: _RoundUniforms,
        replication: int,
        pools=None,
        obs=None,
    ):
        from repro.sim.events import EventLog

        self.sim = sim
        self.dist = dist
        self.pools = pools
        self.uniforms = uniforms
        self.replication = replication
        self.log = EventLog()
        self.workers: list = []
        self.draws = 0
        self.n_preempted = 0
        self._next_id = 0
        self._handles: dict[int, EventHandle] = {}
        # Observability: per-pool alive-worker occupancy, sampled at
        # every boot (the vectorized kernels sample per round — the
        # peaks agree in spirit, not by contract; see docs).
        self.obs = obs
        self._alive_per_pool: dict[int, int] = {}
        #: Optional ``(vm) -> None`` hook run after a death is recorded
        #: and before the VM's preemption callbacks (cluster hot spares).
        self.on_death = None

    def _occupancy(self, pool: int, delta: int) -> None:
        if self.obs is None:
            return
        level = self._alive_per_pool.get(pool, 0) + delta
        self._alive_per_pool[pool] = level
        if delta > 0:
            self.obs.gauge(f"pool.occupancy.{pool}").set(level)

    def launch(
        self, vm_type: str, zone: str = "mc", *, preemptible: bool = True, pool: int = 0
    ):
        from repro.sim.vm import SimVM

        vm = SimVM(
            vm_id=self._next_id,
            vm_type=vm_type,
            zone=zone,
            launch_time=self.sim.now,
            preemptible=preemptible,
            hourly_price=0.0,
            pool=int(pool),
        )
        self._next_id += 1
        if preemptible:
            u = self.uniforms.value(self.replication, self.draws)
            self.draws += 1
            dist = self.dist if self.pools is None else self.pools[vm.pool].dist
            lifetime = float(dist.ppf(u))
            self.workers.append(vm)
            self._handles[vm.vm_id] = self.sim.schedule(
                lifetime, lambda v=vm: self._die(v)
            )
            self._occupancy(vm.pool, +1)
        return vm

    def terminate(self, vm) -> None:
        if not vm.alive:
            return
        handle = self._handles.pop(vm.vm_id, None)
        if handle is not None:
            handle.cancel()
        vm.mark_terminated(self.sim.now)
        if vm.preemptible:
            self._occupancy(vm.pool, -1)

    def _die(self, vm) -> None:
        if not vm.alive:
            return
        self._handles.pop(vm.vm_id, None)
        vm.mark_preempted(self.sim.now)
        self.n_preempted += 1
        self._occupancy(vm.pool, -1)
        if self.on_death is not None:
            self.on_death(vm)
        for cb in list(vm.on_preempt):
            cb(vm, self.sim.now)


def _oracle_service_config(config, vm_type: str, *, backfill: bool):
    """Map a batch/tenancy kernel config onto the live ``ServiceConfig``.

    The one place the event oracles translate kernel knobs into
    controller knobs — a field added to the mapping lands in every
    oracle at once instead of drifting between copies.
    """
    from repro.service.controller import ServiceConfig

    return ServiceConfig(
        vm_type=vm_type,
        zone="mc",
        max_vms=config.max_vms,
        use_reuse_policy=config.use_reuse_policy,
        use_checkpointing=config.checkpoint == "dp",
        checkpoint_cost=config.checkpoint_cost,
        checkpoint_step=config.checkpoint_step,
        checkpoint_interval=config.checkpoint_interval,
        hot_spare_hours=config.hot_spare_hours,
        provision_latency=config.provision_latency,
        run_master=config.run_master,
        backfill=backfill,
        max_attempts_per_job=config.max_attempts_per_job,
        livelock_threshold=config.livelock_threshold,
        pools=config.pools,
        allocator=config.allocator,
    )


def _attach_oracle(svc, obs, ckpt) -> None:
    """Hook one live ``BatchComputingService`` into an oracle sweep.

    Mirrored observability counters: the controller counts reaps, stall
    terminations, boot-grace spares and livelock streaks; the cluster
    manager samples queue depth.  The controller resolved the pool
    catalog (defaults filled in), so the cloud shim gets it to draw
    per-pool lifetimes.  In ``checkpoint="dp"`` mode every replication
    shares one CheckpointPolicy (hence one cached DP table).
    """
    svc.obs = obs
    svc.cluster.obs = obs
    svc.cloud.pools = svc.pools
    if ckpt is not None:
        svc._ckpt = ckpt


def _oracle_run_scalars(sim, cloud, completed, n_pools: int):
    """The per-replication outputs of one finished oracle run, in
    :data:`_CLUSTER_FIELDS` order.

    ``vm.age`` caps at each worker's end time, so one end-of-run pass
    over the fleet yields both the total and the per-pool hour splits.
    """
    from repro.sim.events import JobFailed

    end = sim.now
    pool_hours = np.zeros(n_pools)
    for vm in cloud.workers:
        pool_hours[vm.pool] += vm.age(end)
    return (
        end,
        sum(ev.lost_hours for ev in cloud.log.of_type(JobFailed)),
        len(completed),
        sum(job.failures for job in completed),
        cloud.n_preempted,
        sum(vm.age(end) for vm in cloud.workers),
        pool_hours,
        sim.events_processed,
        cloud.draws,
    )


def _service_run_scalars(svc):
    """:func:`_oracle_run_scalars` of a controller run plus the master's
    billed hours (:data:`_SERVICE_FIELDS` order)."""
    scalars = _oracle_run_scalars(
        svc.sim, svc.cloud, svc.cluster.completed, len(svc.pools)
    )
    return (*scalars, svc.sim.now if svc.config.run_master else 0.0)


class _ServiceReplication:
    """One service run driven through the real ``BatchComputingService``.

    The controller, cluster manager, bag estimator, hot-spare timers,
    and provisioning loop are the production classes; only the cloud is
    swapped for the round-protocol shim so both backends consume the
    generator identically.  This is the reference semantics for
    :mod:`repro.sim.service_vectorized`.
    """

    def __init__(
        self, dist, jobs, config, uniforms, replication, max_events, ckpt=None, obs=None
    ):
        # The oracle deliberately reaches down into the service layer —
        # it IS the service; the vectorized kernel stays sim-pure.
        from repro.service.controller import BatchComputingService

        self.sim = Simulator()
        self.jobs = jobs
        self.config = config
        self.max_events = int(max_events)
        service_config = _oracle_service_config(
            config, "service-mc", backfill=config.backfill
        )
        self.svc = BatchComputingService(
            self.sim,
            _RoundProtocolCloud(self.sim, dist, uniforms, replication, obs=obs),
            dist,
            service_config,
        )
        _attach_oracle(self.svc, obs, ckpt)

    def run(self):
        from repro.service.api import BagRequest, JobRequest

        bag = BagRequest(
            jobs=[
                JobRequest(work_hours=j.work_hours, width=j.width) for j in self.jobs
            ],
            name="service-mc",
        )
        bid = self.svc.submit_bag(bag)
        # The estimate window is a per-bag knob; no completions have
        # landed during submission, so setting it here is exact.
        self.svc.bags[bid].window = self.config.estimate_window
        self.svc.run_until_bag_done(bid, max_events=self.max_events)
        return _service_run_scalars(self.svc)


_SERVICE_FIELDS = _CLUSTER_FIELDS + ("master_hours",)


def _simulate_service_event(
    dist: LifetimeDistribution,
    jobs,
    config,
    *,
    n_replications: int,
    rng: np.random.Generator,
    max_events: int,
    obs=None,
) -> dict[str, np.ndarray | int]:
    return _simulate_event(
        lambda uniforms, i, ckpt: _ServiceReplication(
            dist, jobs, config, uniforms, i, max_events, ckpt=ckpt, obs=obs
        ),
        _SERVICE_FIELDS,
        dist,
        config,
        config.max_vms,
        n_replications=n_replications,
        rng=rng,
        obs=obs,
    )


def _service_channels(raw: dict, reg, arrivals: int = 0) -> dict[str, int]:
    """Event channels of a service/tenancy oracle run, derived from its
    outputs plus the controller's reap counter: every worker boot event
    draws exactly one lifetime (masters and t=0 launches are not
    events), deaths are the cloud's preemption tally, arrivals are one
    event per submitted bag, and completions are the remainder."""
    death = int(raw["n_preemptions"].sum())
    boot = int(raw["n_draws"].sum())
    reap = int(reg.counter("events.reap").value)
    channels = {
        "death": death,
        "comp": int(raw["n_events"].sum()) - death - boot - reap - arrivals,
        "boot": boot,
        "reap": reap,
    }
    if arrivals:
        channels["arr"] = arrivals
    return channels


def run_service_replications(
    dist: LifetimeDistribution,
    jobs,
    *,
    config=None,
    n_replications: int = 1000,
    seed: int | np.random.Generator | None = 0,
    backend: str = "vectorized",
    max_events: int = 1_000_000,
    workers: int = 1,
    capture: DrawCapture | None = None,
    instrument=None,
    **config_kwargs,
) -> ServiceOutcomes:
    """Simulate ``n_replications`` full batch-service runs under ``dist``.

    Each replication is one end-to-end Section 5 service run: the bag
    is submitted at t = 0 to a *cold* service (no workers yet), which
    provisions its preemptible fleet on demand with ``provision_latency``
    boot delay, filters placements through the Eq. 8 reuse policy on
    the evolving bag runtime estimate, retains idle workers as hot
    spares for ``hot_spare_hours``, bills a non-preemptible master for
    the makespan, and runs until every job completes.  See
    :mod:`repro.sim.service_vectorized` for the service round protocol
    both backends share.

    Parameters
    ----------
    dist:
        Lifetime law of the worker VMs.
    jobs:
        The bag: a sequence of
        :class:`~repro.sim.cluster_vectorized.GangJob` (or
        ``(work_hours, width)`` tuples).
    config:
        A :class:`~repro.sim.service_vectorized.ServiceBatchConfig`,
        *or* a :class:`repro.service.controller.ServiceConfig` (its
        policy-content fields are converted; DP checkpointing —
        ``use_checkpointing`` without ``checkpoint_interval`` — maps to
        ``checkpoint="dp"`` on both backends).  Alternatively pass the
        batch-config fields as keyword arguments
        (``max_vms=16, backfill=True, ...``).
    seed:
        Root seed (or generator) for the service round protocol;
        identical seeds give identical per-replication outcomes on both
        backends (within 1e-9 hours).
    backend:
        ``"vectorized"`` (default) or ``"event"`` — the event path
        drives the real
        :class:`~repro.service.controller.BatchComputingService` per
        replication and is the semantics oracle.
    max_events:
        Safety cap on processed events per replication.
    workers:
        Shard the batch across this many worker processes under CRN
        shard pairing (see :func:`run_replications`); merged outcomes
        are byte-identical to ``workers=1``.  Incompatible with
        ``capture``.
    capture:
        Optional fresh :class:`DrawCapture`; records every consumed
        round row so the realized lifetime draws can be re-scored with
        draw-level pairing (the hindsight-oracle hook).
    instrument:
        Observability switch (see :func:`run_replications`); when on,
        ``.stats`` carries per-channel arena event counts (death /
        comp / boot / reap), stall terminations, boot-grace
        activations, livelock near-miss peaks, queue depth, pool
        occupancy, and phase timings.

    Returns
    -------
    ServiceOutcomes
        ``ServiceReport``-shaped per-replication arrays (makespan,
        waste, preemptions, worker/master hours) with cost and
        cost-reduction-factor helpers.
    """
    from repro.sim.service_vectorized import (
        ServiceBatchConfig,
        simulate_service_vectorized,
    )

    config = _fleet_config(backend, config, config_kwargs, ServiceBatchConfig)
    if hasattr(config, "vm_type"):  # a service-layer ServiceConfig
        config = ServiceBatchConfig.from_service_config(config)
    bag = _gang_bag(jobs, config.max_vms, "max_vms")
    check_positive("max_events", max_events)
    event = backend == "event"
    raw, stats = _sweep(
        _Kernel(
            "service",
            _simulate_service_event if event else simulate_service_vectorized,
            (dist, bag, config),
            {"max_events": int(max_events)},
            channels=_service_channels if event else None,
        ),
        backend=backend,
        n_replications=n_replications,
        seed=seed,
        workers=workers,
        capture=capture,
        instrument=instrument,
    )
    return ServiceOutcomes(
        backend=backend,
        total_work_hours=float(sum(j.work_hours * j.width for j in bag)),
        stats=stats,
        **raw,
    )


# ----------------------------------------------------------------------
# Tenant-scale sweeps: N multi-tenant traffic runs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TenantOutcomes(_SweepMeans, _BilledSweepMixin):
    """Per-replication results of one :func:`run_tenant_replications` sweep.

    Beyond the :class:`ServiceOutcomes`-style scalars, per-job timing
    arrays (aligned with the flattened traffic order) expose the SLO
    surface: waits, turnarounds, and per-tenant aggregations are all
    derived views over equivalence-pinned data.  See
    :mod:`repro.traffic.metrics` for the report layer.

    Attributes
    ----------
    makespan:
        Hours from t = 0 to the last processed traffic event per
        replication (final completion, or a trailing arrival).
    wasted_hours, n_job_failures, n_preemptions, vm_hours, master_hours,
    n_events, n_draws, n_rounds, backend:
        As in :class:`ServiceOutcomes`.
    completed_jobs:
        Jobs finished per replication (equals that replication's
        admitted count once the sweep terminates).
    admitted:
        Per-(replication, job) admission outcome, shape ``(n, J)``;
        rejected bags leave their jobs ``False``.
    start_times, finish_times:
        First gang start / completion hour per (replication, job);
        ``nan`` where not admitted.
    job_tenant, job_arrival, job_work, job_width:
        Static per-job traffic metadata, shape ``(J,)``.
    n_tenants:
        Tenant count of the traffic.
    pool_vm_hours:
        Per-pool split of ``vm_hours``, shape ``(n, n_pools)`` — one
        column per catalog entry; ``pool_vm_hours @ prices`` gives each
        replication's heterogeneous-fleet bill.
    """

    makespan: np.ndarray
    wasted_hours: np.ndarray
    completed_jobs: np.ndarray
    n_job_failures: np.ndarray
    n_preemptions: np.ndarray
    vm_hours: np.ndarray
    master_hours: np.ndarray
    n_events: np.ndarray
    n_draws: np.ndarray
    admitted: np.ndarray
    start_times: np.ndarray
    finish_times: np.ndarray
    job_tenant: np.ndarray
    job_arrival: np.ndarray
    job_work: np.ndarray
    job_width: np.ndarray
    n_tenants: int
    n_rounds: int
    backend: str
    pool_vm_hours: np.ndarray | None = None
    #: Per-run diagnostics when the sweep ran with ``instrument=``;
    #: ``None`` otherwise (the zero-overhead default).
    stats: KernelStats | None = None

    @property
    def n_jobs(self) -> int:
        return int(self.job_tenant.size)

    @property
    def wait_times(self) -> np.ndarray:
        """Arrival-to-start queueing delay per (replication, job); nan
        where the job was rejected."""
        return self.start_times - self.job_arrival[None, :]

    @property
    def turnaround_times(self) -> np.ndarray:
        """Arrival-to-completion response time per (replication, job)."""
        return self.finish_times - self.job_arrival[None, :]

    @property
    def mean_wait_hours(self) -> float:
        """Pooled mean queueing delay over all admitted jobs (nan when
        nothing was admitted)."""
        waits = self.wait_times
        return float(np.nanmean(waits)) if np.isfinite(waits).any() else float("nan")

    @property
    def admitted_fraction(self) -> np.ndarray:
        """Fraction of submitted jobs admitted, per replication."""
        if self.n_jobs == 0:
            return np.ones(self.n_replications)
        return self.admitted.mean(axis=1)

    def on_demand_baseline(self, on_demand_rate: float) -> np.ndarray:
        """Per-replication conventional-deployment counterfactual.

        Unlike the single-bag sweeps the baseline varies per
        replication: only *admitted* work would have run on demand.
        """
        check_nonnegative("on_demand_rate", on_demand_rate)
        ideal = self.job_work * self.job_width
        return (self.admitted * ideal[None, :]).sum(axis=1) * on_demand_rate


class _TenantReplication:
    """One traffic run driven through the real ``MultiTenantService``.

    The front end, controller, cluster manager, and keyed queue are the
    production classes; only the cloud is swapped for the
    round-protocol shim so both backends consume the generator
    identically.  This is the reference semantics for
    :mod:`repro.sim.tenancy_vectorized`.
    """

    def __init__(
        self, dist, traffic, n_tenants, config, uniforms, replication, max_events,
        ckpt=None, obs=None,
    ):
        from repro.traffic.multitenant import MultiTenantService

        self.sim = Simulator()
        self.max_events = int(max_events)
        service_config = _oracle_service_config(config, "tenant-mc", backfill=False)
        self.mts = MultiTenantService(
            self.sim,
            _RoundProtocolCloud(self.sim, dist, uniforms, replication, obs=obs),
            dist,
            service_config,
            n_tenants=n_tenants,
            scheduling=config.scheduling,
            tenant_weights=config.tenant_weights,
            admission_cap=config.admission_cap,
            elastic_vms_per_bag=config.elastic_vms_per_bag,
            estimate_window=config.estimate_window,
        )
        _attach_oracle(self.mts.service, obs, ckpt)
        self.mts.submit_traffic(traffic)

    def run(self):
        # Drive through the front end's own entry point: one copy of
        # the finished/step/cap loop, exercised by its own tests too.
        self.mts.run(max_events=self.max_events)
        records = self.mts.records
        J = len(records)
        admitted = np.fromiter((r.admitted for r in records), dtype=bool, count=J)
        starts = np.full(J, np.nan)
        finishes = np.full(J, np.nan)
        for k, rec in enumerate(records):
            if rec.admitted and rec.job is not None:
                starts[k] = rec.job.start_time
                finishes[k] = rec.job.finish_time
        return (*_service_run_scalars(self.mts.service), admitted, starts, finishes)


_TENANT_FIELDS = _SERVICE_FIELDS + ("admitted", "start_times", "finish_times")


def _simulate_tenancy_event(
    dist: LifetimeDistribution,
    traffic,
    n_tenants: int,
    config,
    *,
    n_replications: int,
    rng: np.random.Generator,
    max_events: int,
    obs=None,
) -> dict[str, np.ndarray | int]:
    n_jobs = sum(len(s.jobs) for s in traffic)
    return _simulate_event(
        lambda uniforms, i, ckpt: _TenantReplication(
            dist, traffic, n_tenants, config, uniforms, i, max_events,
            ckpt=ckpt, obs=obs,
        ),
        _TENANT_FIELDS,
        dist,
        config,
        config.max_vms,
        n_replications=n_replications,
        rng=rng,
        obs=obs,
        row_widths=dict.fromkeys(("admitted", "start_times", "finish_times"), n_jobs),
    )


def run_tenant_replications(
    dist: LifetimeDistribution,
    traffic,
    *,
    config=None,
    n_tenants: int | None = None,
    n_replications: int = 1000,
    seed: int | np.random.Generator | None = 0,
    backend: str = "vectorized",
    max_events: int = 1_000_000,
    chunk_size: int | None = None,
    workers: int = 1,
    capture: DrawCapture | None = None,
    instrument=None,
    **config_kwargs,
) -> TenantOutcomes:
    """Simulate ``n_replications`` multi-tenant traffic runs under ``dist``.

    Each replication serves the *same* traffic — a sequence of
    :class:`~repro.sim.tenancy_vectorized.BagSubmission` s (or
    ``(tenant, time, jobs)`` triples), typically sampled once by
    :func:`repro.traffic.arrivals.sample_traffic` — on one shared
    preemptible fleet through the full controller semantics (deficit
    provisioning with boot latency, per-bag Eq. 8 estimates, hot-spare
    retention, master billing) plus the tenancy layer: inter-tenant
    scheduling policy, per-tenant admission, elastic fleet sizing.
    Replications differ only in VM-lifetime draws, consumed under the
    tenancy round protocol shared by both backends (see
    :mod:`repro.sim.tenancy_vectorized`).

    Parameters
    ----------
    dist:
        Lifetime law of the worker VMs.
    traffic:
        The scenario input; normalised (stably time-sorted) before use.
    config:
        A :class:`~repro.sim.tenancy_vectorized.TenancyConfig`;
        alternatively pass its fields as keyword arguments
        (``max_vms=16, scheduling="fair", ...``).
    n_tenants:
        Tenant count; inferred from the traffic when omitted.
    seed:
        Root seed (or generator) for the tenancy round protocol;
        identical seeds give identical per-replication outcomes on both
        backends (within 1e-9 hours).
    backend:
        ``"vectorized"`` (default) or ``"event"`` — the event path
        drives the real
        :class:`~repro.traffic.multitenant.MultiTenantService` per
        replication and is the semantics oracle.
    max_events:
        Safety cap on processed events per replication.
    chunk_size:
        Stream the batch in chunks of at most this many replications,
        reducing the results chunk by chunk.  Peak memory of the
        batched kernel scales with ``chunk_n x (K x estimate_window +
        3 x n_jobs + ...)``, so chunking is what lets tens of
        thousands of traced jobs run at production replication counts.
        Chunk 0 consumes the root generator; chunk ``k > 0`` consumes
        child ``k - 1`` of ``root.spawn(n_chunks - 1)``.  Each chunk's
        stream is therefore a pure function of ``(seed, chunk_size, k)``
        — independent of how many rounds earlier chunks ran — so any
        chunk is reproducible in isolation, results are deterministic
        for a fixed ``(seed, chunk_size)``, and cross-backend
        equivalence holds at *any* chunk size.  Draws (hence outcomes)
        still differ between chunk sizes, because the round protocol
        materialises per-round uniform rows chunk-wide; a chunk
        covering the whole batch is byte-identical to no chunking.
        ``None`` (default) runs the whole batch as one chunk.
    workers:
        Shard each chunk across this many worker processes under CRN
        shard pairing (see :func:`run_replications`): shards replay the
        chunk's generator, draw chunk-wide rows, and consume only their
        own columns.  Merged outcomes are byte-identical to
        ``workers=1`` at the same ``chunk_size``, and peak memory per
        worker stays bounded by its chunk shard.  Incompatible with
        ``capture``.
    capture:
        Optional fresh :class:`DrawCapture`; records every consumed
        round row so the realized lifetime draws can be re-scored with
        draw-level pairing (the hindsight-oracle hook).  Incompatible
        with ``chunk_size``: chunks materialise rows of differing
        widths, which no longer form one round table.
    instrument:
        Observability switch (see :func:`run_replications`); when on,
        ``.stats`` carries the five tenancy channels (death / comp /
        boot / reap / arr), chunk layout, and phase timings, and the
        bundle's ``progress`` callback fires after each streamed chunk
        with ``(done, total, elapsed_s, eta_s)``.

    Returns
    -------
    TenantOutcomes
        Per-replication scalars plus per-(replication, job) admission
        and timing arrays for the SLO metrics layer.
    """
    from repro.sim.tenancy_vectorized import (
        TenancyConfig,
        normalize_traffic,
        simulate_tenancy_vectorized,
    )

    config = _fleet_config(backend, config, config_kwargs, TenancyConfig)
    traffic = normalize_traffic(traffic)
    if not traffic:
        raise ValueError("traffic must be non-empty")
    inferred = max(s.tenant for s in traffic) + 1
    T = inferred if n_tenants is None else int(n_tenants)
    if T < inferred:
        raise ValueError(
            f"n_tenants={T} but the traffic references tenant {inferred - 1}"
        )
    if config.tenant_weights is not None and len(config.tenant_weights) < T:
        raise ValueError("tenant_weights must cover every tenant in the traffic")
    widest = max(j.width for s in traffic for j in s.jobs)
    if widest > config.max_vms:
        raise ValueError(f"job width {widest} exceeds max_vms {config.max_vms}")
    if config.elastic_vms_per_bag is not None and config.elastic_vms_per_bag < widest:
        raise ValueError(
            f"elastic_vms_per_bag {config.elastic_vms_per_bag} cannot cover "
            f"the widest job ({widest}); a lone active bag would deadlock"
        )
    check_positive("max_events", max_events)
    event = backend == "event"
    raw, stats = _sweep(
        _Kernel(
            "tenancy",
            _simulate_tenancy_event if event else simulate_tenancy_vectorized,
            (dist, traffic, T, config),
            {"max_events": int(max_events)},
            channels=(
                partial(_service_channels, arrivals=n_replications * len(traffic))
                if event
                else None
            ),
        ),
        backend=backend,
        n_replications=n_replications,
        seed=seed,
        workers=workers,
        capture=capture,
        instrument=instrument,
        chunk_size=chunk_size,
    )
    job_tenant = np.asarray(
        [s.tenant for s in traffic for _ in s.jobs], dtype=np.int64
    )
    job_arrival = np.asarray(
        [s.time for s in traffic for _ in s.jobs], dtype=float
    )
    job_work = np.asarray(
        [j.work_hours for s in traffic for j in s.jobs], dtype=float
    )
    job_width = np.asarray(
        [j.width for s in traffic for j in s.jobs], dtype=np.int64
    )
    return TenantOutcomes(
        backend=backend,
        n_tenants=T,
        job_tenant=job_tenant,
        job_arrival=job_arrival,
        job_work=job_work,
        job_width=job_width,
        stats=stats,
        **raw,
    )
