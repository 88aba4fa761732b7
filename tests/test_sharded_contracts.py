"""Fail-fast contracts of the sharded / compiled execution options.

Misconfigurations must fail *before* any worker process spawns, with
messages that say what to change: ``workers < 1`` and non-picklable
inputs are ``ValueError`` s raised up front, ``capture`` composes with
``workers=1`` only (rows drawn inside worker processes are unobservable
to the parent's capture object), and requesting
``backend="vectorized-compiled"`` with no compiled provider available
is an actionable ``ImportError`` naming the install options — pinned
here by monkeypatching every provider loader away.  A worker that dies
mid-sweep raises ``BrokenProcessPool`` naming the chunk sizes, shard
bounds and worker count.
"""

import os
import shutil
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.distributions.exponential import ExponentialDistribution
from repro.sim.backend import (
    DrawCapture,
    _Kernel,
    _sweep,
    run_cluster_replications,
    run_replications,
    run_service_replications,
    run_tenant_replications,
)

pytestmark = pytest.mark.sharded

DIST = ExponentialDistribution(3.0)
SEGMENTS = [0.8, 0.5]
JOBS = [(0.5, 1), (0.4, 2)]
TRAFFIC = [(0, 0.0, [(0.5, 1)]), (1, 0.2, [(0.4, 2)])]

ENTRY_POINTS = [
    lambda **kw: run_replications(DIST, SEGMENTS, **kw),
    lambda **kw: run_cluster_replications(DIST, JOBS, pool_size=2, **kw),
    lambda **kw: run_service_replications(DIST, JOBS, max_vms=2, **kw),
    lambda **kw: run_tenant_replications(DIST, TRAFFIC, max_vms=2, **kw),
]
KINDS = ["plan", "cluster", "service", "tenancy"]
#: The one entry point that takes ``chunk_size``.
CHUNKED_ENTRY = ENTRY_POINTS[3]


class TestWorkersValidation:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_nonpositive_workers_rejected(self, entry, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            entry(n_replications=4, workers=workers)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_capture_with_workers_rejected(self, entry):
        capture = DrawCapture()
        with pytest.raises(ValueError, match="capture is incompatible with workers"):
            entry(n_replications=4, workers=2, capture=capture)

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=KINDS)
    def test_capture_left_fresh_after_rejection(self, entry):
        """The rejection fires before arming: the capture stays usable."""
        capture = DrawCapture()
        with pytest.raises(ValueError, match="capture is incompatible"):
            entry(n_replications=4, workers=2, capture=capture)
        assert capture.n_rounds == 0
        entry(n_replications=4, capture=capture)
        assert capture.n_rounds > 0

    def test_capture_with_chunk_size_rejected_before_arming(self):
        capture = DrawCapture()
        with pytest.raises(ValueError, match="capture is incompatible with chunk_size"):
            CHUNKED_ENTRY(n_replications=4, chunk_size=2, capture=capture)
        assert capture.n_rounds == 0
        CHUNKED_ENTRY(n_replications=4, capture=capture)
        assert capture.n_rounds > 0

    def test_unpicklable_inputs_rejected_before_spawn(self):
        """A distribution that cannot cross a process boundary is a
        ``ValueError`` naming pickle — not a traceback from inside a
        half-started pool."""

        class LocalDist(ExponentialDistribution):  # local class: unpicklable
            pass

        with pytest.raises(ValueError, match="pickle"):
            run_replications(
                LocalDist(3.0), SEGMENTS, n_replications=4, workers=2
            )

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_workers_one_is_the_serial_path(self, entry):
        """``workers=1`` must not fork: it is the exact serial code path
        (a capture composes with it, which only the serial path allows)."""
        capture = DrawCapture()
        out = entry(n_replications=3, workers=1, capture=capture)
        assert capture.n_rounds > 0
        assert capture.uniforms.shape[1] == 3


def _dies_in_the_short_shard(*, n_replications, rng, obs):
    """A simulate function whose worker process exits in the 2-wide
    shard of a 5-replication sweep over 2 workers."""
    if n_replications == 2:
        os._exit(3)
    return {"makespan": np.zeros(n_replications)}


class TestWorkerCrash:
    def test_names_the_sweep_it_broke(self):
        kernel = _Kernel("plan", _dies_in_the_short_shard, (), {})
        with pytest.raises(BrokenProcessPool) as raised:
            _sweep(
                kernel, backend="vectorized", n_replications=5, seed=0,
                workers=2, capture=None, instrument=False,
            )
        assert str(raised.value) == (
            "a worker process died in a sharded sweep: chunk sizes [5], "
            "shards [0, 3) [3, 5) (bounds within their chunk), workers=2; "
            "workers=1 replays the same replications byte for byte"
        )
        assert isinstance(raised.value.__cause__, BrokenProcessPool)


def _progress_calls(entry, **kw):
    from repro.obs import Instrumentation

    calls = []
    inst = Instrumentation(progress=lambda done, total, *_: calls.append((done, total)))
    out = entry(instrument=inst, **kw)
    return calls, out.stats


class TestOneSweepDriver:
    """Every entry point runs through the same driver, so progress,
    worker accounting and phase names follow one scheme for every kind."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=KINDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_fires_once_for_an_unchunked_run(self, entry, workers):
        calls, _ = _progress_calls(entry, n_replications=5, workers=workers)
        assert calls == [(5, 5)]

    def test_progress_fires_per_streamed_chunk(self):
        calls, _ = _progress_calls(CHUNKED_ENTRY, n_replications=5, chunk_size=2)
        assert calls == [(2, 5), (4, 5), (5, 5)]

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=KINDS)
    @pytest.mark.parametrize("n, workers", [(3, 1), (1, 2), (0, 3)])
    def test_serial_path_reports_one_worker_and_no_shards(self, entry, n, workers):
        stats = entry(n_replications=n, workers=workers, instrument=True).stats
        assert stats.workers == 1
        assert stats.shards == ()
        assert stats.chunk_sizes == (n,)

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=KINDS)
    @pytest.mark.parametrize("backend", ["event", "vectorized"])
    def test_single_chunk_phase_names(self, entry, backend):
        stats = entry(n_replications=3, backend=backend, instrument=True).stats
        assert set(stats.phase_seconds) == {f"simulate:{backend}", "merge"}

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=KINDS)
    def test_sharded_phase_names(self, entry):
        stats = entry(n_replications=5, workers=2, instrument=True).stats
        assert set(stats.phase_seconds) == {"shards", "merge"}
        assert stats.workers == 2
        assert stats.shards == ((0, 3), (3, 5))

    def test_chunked_phase_names(self):
        stats = CHUNKED_ENTRY(n_replications=5, chunk_size=2, instrument=True).stats
        assert set(stats.phase_seconds) == {"chunk[0]", "chunk[1]", "chunk[2]", "merge"}
        assert stats.chunk_sizes == (2, 2, 1)


@pytest.mark.compiled
class TestCompiledProviderContracts:
    def _clear_cache(self):
        from repro.sim import compiled

        saved = dict(compiled._PROVIDER_CACHE)
        compiled._PROVIDER_CACHE.clear()
        return compiled, saved

    def test_no_provider_is_actionable_importerror(self, monkeypatch):
        compiled, saved = self._clear_cache()
        try:

            def missing():
                raise ImportError("module not installed")

            monkeypatch.setitem(compiled._LOADERS, "cc", missing)
            with pytest.raises(ImportError, match="Make a C compiler"):
                run_replications(
                    DIST, SEGMENTS, n_replications=4,
                    backend="vectorized-compiled",
                )
        finally:
            compiled._PROVIDER_CACHE.clear()
            compiled._PROVIDER_CACHE.update(saved)

    def test_unknown_provider_rejected(self):
        from repro.sim.compiled import resolve_walk

        with pytest.raises(ValueError, match="unknown compiled provider"):
            resolve_walk("fortran")

    def test_python_provider_matches_vectorized(self):
        """The always-available pure-python provider is byte-identical
        to the NumPy kernel — the equivalence floor every compiled
        provider must also meet."""
        from repro.sim.compiled import simulate_plan_compiled

        base = run_replications(
            DIST, SEGMENTS, n_replications=40, seed=0, restart_latency=0.05
        )
        mk, wasted, completed, restarts, n_rounds = simulate_plan_compiled(
            DIST,
            np.asarray(SEGMENTS, dtype=float),
            delta=1.0 / 60.0,
            start_age=0.0,
            restart_latency=0.05,
            n_replications=40,
            rng=np.random.default_rng(0),
            max_rounds=10_000,
            provider="python",
        )
        np.testing.assert_array_equal(base.makespan, mk)
        np.testing.assert_array_equal(base.wasted_hours, wasted)
        np.testing.assert_array_equal(base.n_restarts, restarts)

    @pytest.mark.skipif(
        shutil.which("cc") is None and shutil.which("gcc") is None,
        reason="no C compiler",
    )
    def test_cc_provider_matches_vectorized(self):
        base = run_replications(
            DIST, SEGMENTS, n_replications=40, seed=0, restart_latency=0.05
        )
        compiled = run_replications(
            DIST, SEGMENTS, n_replications=40, seed=0, restart_latency=0.05,
            backend="vectorized-compiled",
        )
        np.testing.assert_array_equal(base.makespan, compiled.makespan)
        np.testing.assert_array_equal(base.wasted_hours, compiled.wasted_hours)
        np.testing.assert_array_equal(base.n_restarts, compiled.n_restarts)
        assert base.n_rounds == compiled.n_rounds
