"""Sharding-determinism tier: ``workers=`` is invisible in the results.

Every ``run_*_replications`` entry point accepts ``workers=``, which
shards the replication batch across processes under *CRN shard
pairing*: each worker replays the serial root generator, draws
full-width round rows, and consumes only its own column slice
(``repro.sim.backend._ShardRNG``).  Column ``i`` of round ``r`` is the
same number under every shard layout, so the merged outcomes must be
**byte-identical** to ``workers=1`` — not close, equal.  This tier pins
that with exact array equality on all four kernels (plan, cluster,
service, tenancy), across worker counts that divide the batch raggedly,
across both backends, composed with ``chunk_size=`` streaming, and
under a hypothesis fuzzer over random ``(n, workers, chunk_size)``
triples.

It also pins the chunk RNG hand-off contract: chunk 0 consumes the
root generator and chunk ``k > 0`` consumes child ``k - 1`` of
``root.spawn(n_chunks - 1)``, so any chunk is reproducible in
isolation — the invariant that makes chunks shardable at all.

The deep grid (reference bathtub law, bigger batches, the full worker
matrix) carries the ``slow`` marker for the scheduled CI job, which
re-runs it once per ``REPRO_SHARD_WORKERS`` matrix leg.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.distributions.exponential import ExponentialDistribution
from repro.sim.backend import (
    run_cluster_replications,
    run_replications,
    run_service_replications,
    run_tenant_replications,
)

pytestmark = pytest.mark.sharded

SEEDS = [0, 1, 2, 3, 4]
WORKERS = [1, 2, 3, 7]

DIST = ExponentialDistribution(3.0)
SEGMENTS = [0.8, 0.5, 0.7]
JOBS = [(0.6, 1), (0.4, 2), (0.5, 1)]
TRAFFIC = [
    (0, 0.0, [(0.6, 1), (0.4, 2)]),
    (1, 0.3, [(0.5, 1)]),
    (2, 0.9, [(0.8, 2)]),
]


def assert_outcomes_equal(base, sharded):
    """Exact equality of every per-replication array and round scalar."""
    for name, value in vars(base).items():
        other = getattr(sharded, name)
        if isinstance(value, np.ndarray):
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(value, other, err_msg=name)
        else:
            assert value == other, name


#: A failure message that counts or names replications may differ
#: between shard layouts; any other message must be reproduced verbatim.
_NAMES_ROWS = re.compile(r"replication")


def assert_same_outcome(serial, other):
    """``other()`` reproduces ``serial()``: equal outcomes, or the same
    failure — the same exception type, and the same message wherever
    the message names no replication.  Returns both outcomes, or
    ``(None, None)`` when the serial run raised."""
    try:
        base = serial()
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            other()
        assert type(raised.value) is type(exc)
        if not _NAMES_ROWS.search(str(exc)):
            assert str(raised.value) == str(exc)
        return None, None
    result = other()
    assert_outcomes_equal(base, result)
    return base, result


def _budget(tier1: int) -> int:
    """Examples per fuzz test: ``tier1`` under the tier-1 profile, ten
    times as many under ``--hypothesis-profile=fuzz``.  A per-test
    ``@settings`` pins ``max_examples`` over any profile, so the count
    has to follow the profile here."""
    return 10 * tier1 if settings.get_current_profile_name() == "fuzz" else tier1


class TestShardedByteIdentity:
    """Four kernels x workers in {1, 2, 3, 7} x seeds 0-4, exact."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plan(self, seed):
        base = run_replications(
            DIST, SEGMENTS, n_replications=19, seed=seed, restart_latency=0.05
        )
        for w in WORKERS:
            sharded = run_replications(
                DIST, SEGMENTS, n_replications=19, seed=seed,
                restart_latency=0.05, workers=w,
            )
            assert_outcomes_equal(base, sharded)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster(self, seed):
        base = run_cluster_replications(
            DIST, JOBS, n_replications=13, seed=seed, pool_size=3
        )
        for w in WORKERS:
            sharded = run_cluster_replications(
                DIST, JOBS, n_replications=13, seed=seed, pool_size=3, workers=w
            )
            assert_outcomes_equal(base, sharded)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_service(self, seed):
        base = run_service_replications(
            DIST, JOBS, n_replications=11, seed=seed, max_vms=4
        )
        for w in WORKERS:
            sharded = run_service_replications(
                DIST, JOBS, n_replications=11, seed=seed, max_vms=4, workers=w
            )
            assert_outcomes_equal(base, sharded)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tenancy(self, seed):
        base = run_tenant_replications(
            DIST, TRAFFIC, n_replications=9, seed=seed, max_vms=4
        )
        for w in WORKERS:
            sharded = run_tenant_replications(
                DIST, TRAFFIC, n_replications=9, seed=seed, max_vms=4, workers=w
            )
            assert_outcomes_equal(base, sharded)

    def test_event_backend_shards_identically(self):
        """CRN pairing is backend-agnostic: the event oracle shards too."""
        base = run_replications(
            DIST, SEGMENTS, n_replications=8, seed=0, backend="event"
        )
        sharded = run_replications(
            DIST, SEGMENTS, n_replications=8, seed=0, backend="event", workers=3
        )
        assert_outcomes_equal(base, sharded)
        base = run_cluster_replications(
            DIST, JOBS, n_replications=5, seed=0, pool_size=3, backend="event"
        )
        sharded = run_cluster_replications(
            DIST, JOBS, n_replications=5, seed=0, pool_size=3,
            backend="event", workers=2,
        )
        assert_outcomes_equal(base, sharded)
        base = run_tenant_replications(
            DIST, TRAFFIC, n_replications=4, seed=0, max_vms=4, backend="event"
        )
        sharded = run_tenant_replications(
            DIST, TRAFFIC, n_replications=4, seed=0, max_vms=4,
            backend="event", workers=2,
        )
        assert_outcomes_equal(base, sharded)

    @pytest.mark.compiled
    def test_compiled_backend_shards_identically(self):
        """The compiled plan kernel consumes the same sharded stream."""
        pytest.importorskip("repro.sim.compiled")
        from repro.sim.compiled import available_providers

        if not available_providers():
            pytest.skip("no compiled provider on this machine")
        base = run_replications(
            DIST, SEGMENTS, n_replications=19, seed=1,
            backend="vectorized-compiled",
        )
        sharded = run_replications(
            DIST, SEGMENTS, n_replications=19, seed=1,
            backend="vectorized-compiled", workers=3,
        )
        assert_outcomes_equal(base, sharded)

    def test_generator_seed_shards_identically(self):
        """A caller Generator seed is copied per worker, results equal."""
        base = run_replications(
            DIST, SEGMENTS, n_replications=9,
            seed=np.random.default_rng(7),
        )
        sharded = run_replications(
            DIST, SEGMENTS, n_replications=9,
            seed=np.random.default_rng(7), workers=2,
        )
        assert_outcomes_equal(base, sharded)

    def test_per_replication_start_age_shards_identically(self):
        """The per-shard slice of a start-age vector lines up."""
        ages = np.linspace(0.0, 2.0, 10)
        base = run_replications(
            DIST, SEGMENTS, n_replications=10, seed=3, start_age=ages
        )
        sharded = run_replications(
            DIST, SEGMENTS, n_replications=10, seed=3, start_age=ages, workers=3
        )
        assert_outcomes_equal(base, sharded)

    def test_more_workers_than_replications(self):
        """Shard count collapses to the batch size; no empty shards."""
        base = run_cluster_replications(
            DIST, JOBS, n_replications=3, seed=0, pool_size=3
        )
        sharded = run_cluster_replications(
            DIST, JOBS, n_replications=3, seed=0, pool_size=3, workers=7
        )
        assert_outcomes_equal(base, sharded)


class TestWorkersChunkCrossProduct:
    """``workers`` x ``chunk_size`` on tenancy: shards pair per chunk."""

    @pytest.mark.parametrize("chunk_size", [None, 2, 4, 9])
    def test_cross_product(self, chunk_size):
        base = run_tenant_replications(
            DIST, TRAFFIC, n_replications=9, seed=2, max_vms=4,
            chunk_size=chunk_size,
        )
        for w in (2, 3):
            sharded = run_tenant_replications(
                DIST, TRAFFIC, n_replications=9, seed=2, max_vms=4,
                chunk_size=chunk_size, workers=w,
            )
            assert_outcomes_equal(base, sharded)


class TestChunkRNGHandoff:
    """The fixed chunk seeding contract (regression for the hand-off).

    Chunks used to consume one shared generator sequentially, so chunk
    ``k``'s draws depended on how many rounds chunks ``0..k-1`` happened
    to run — no chunk could be recomputed alone, and shards could not
    pair to it.  The contract now: chunk 0 gets the root generator,
    chunk ``k > 0`` gets child ``k - 1`` of ``root.spawn(n_chunks - 1)``.
    """

    def test_covering_chunk_identical_to_unchunked(self):
        base = run_tenant_replications(
            DIST, TRAFFIC, n_replications=5, seed=0, max_vms=4
        )
        covered = run_tenant_replications(
            DIST, TRAFFIC, n_replications=5, seed=0, max_vms=4, chunk_size=5
        )
        assert_outcomes_equal(base, covered)

    def test_first_chunk_identical_to_prefix_run(self):
        """Chunk 0 is the root generator: it equals a bare run of its size."""
        chunked = run_tenant_replications(
            DIST, TRAFFIC, n_replications=7, seed=5, max_vms=4, chunk_size=3
        )
        prefix = run_tenant_replications(
            DIST, TRAFFIC, n_replications=3, seed=5, max_vms=4
        )
        np.testing.assert_array_equal(chunked.makespan[:3], prefix.makespan)
        np.testing.assert_array_equal(chunked.vm_hours[:3], prefix.vm_hours)

    def test_chunk_reproducible_in_isolation(self):
        """Any chunk k > 0 can be recomputed from the spawned child alone."""
        chunked = run_tenant_replications(
            DIST, TRAFFIC, n_replications=7, seed=9, max_vms=4, chunk_size=3
        )
        children = np.random.default_rng(9).spawn(2)
        middle = run_tenant_replications(
            DIST, TRAFFIC, n_replications=3, seed=children[0], max_vms=4
        )
        last = run_tenant_replications(
            DIST, TRAFFIC, n_replications=1, seed=children[1], max_vms=4
        )
        np.testing.assert_array_equal(chunked.makespan[3:6], middle.makespan)
        np.testing.assert_array_equal(chunked.makespan[6:], last.makespan)

    def test_chunked_cross_backend_equivalent(self):
        """Both backends build the same chunk generators from a seed."""
        vec = run_tenant_replications(
            DIST, TRAFFIC, n_replications=5, seed=1, max_vms=4, chunk_size=2
        )
        event = run_tenant_replications(
            DIST, TRAFFIC, n_replications=5, seed=1, max_vms=4, chunk_size=2,
            backend="event",
        )
        np.testing.assert_allclose(vec.makespan, event.makespan, atol=1e-9)
        np.testing.assert_array_equal(vec.n_events, event.n_events)
        np.testing.assert_array_equal(vec.admitted, event.admitted)


class TestShardChunkFuzz:
    """Hypothesis: random (n, workers, chunk_size) triples, exact merges.

    Ranges deliberately produce ragged final shards and chunks (worker
    and chunk counts that do not divide the batch), and the per-shard
    draw accounting must concatenate back to the serial ``n_draws``
    (hence equal sums).
    """

    def test_budget_follows_profile(self):
        fuzz = settings.get_current_profile_name() == "fuzz"
        assert _budget(10) == (100 if fuzz else 10)
        assert settings.default.derandomize is not fuzz

    @settings(max_examples=_budget(10), deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=17),
        workers=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_cluster_fuzz(self, n, workers, seed):
        kwargs = dict(n_replications=n, seed=seed, pool_size=3)
        base, sharded = assert_same_outcome(
            lambda: run_cluster_replications(DIST, JOBS, **kwargs),
            lambda: run_cluster_replications(DIST, JOBS, workers=workers, **kwargs),
        )
        if base is not None:
            assert sharded.n_draws.sum() == base.n_draws.sum()
            assert sharded.n_draws.shape == (n,)

    @settings(max_examples=_budget(8), deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=11),
        workers=st.integers(min_value=2, max_value=4),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
        seed=st.integers(min_value=0, max_value=99),
    )
    # The serial (seed, n) cells whose run exhausts max_attempts_per_job:
    # the law's 20-minute MTTF makes an unchecked 0.8 h width-2 attempt
    # succeed with p ~ 0.8%.  The sharded run must fail identically.
    @example(n=5, workers=2, chunk_size=None, seed=50)
    @example(n=4, workers=3, chunk_size=None, seed=56)
    @example(n=10, workers=4, chunk_size=None, seed=97)
    def test_tenancy_fuzz(self, n, workers, chunk_size, seed):
        kwargs = dict(
            n_replications=n, seed=seed, max_vms=4, chunk_size=chunk_size
        )
        base, sharded = assert_same_outcome(
            lambda: run_tenant_replications(DIST, TRAFFIC, **kwargs),
            lambda: run_tenant_replications(DIST, TRAFFIC, workers=workers, **kwargs),
        )
        if base is not None:
            assert sharded.n_draws.sum() == base.n_draws.sum()


@pytest.mark.slow
class TestShardedDeep:
    """Deep grid for the scheduled CI job: reference bathtub law, bigger
    batches, the worker matrix from ``REPRO_SHARD_WORKERS`` (one value
    per CI matrix leg)."""

    WORKER_MATRIX = [
        int(w) for w in os.environ.get("REPRO_SHARD_WORKERS", "2,3,7").split(",")
    ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_kernels_deep(self, reference_dist, seed):
        plan_base = run_replications(
            reference_dist, SEGMENTS, n_replications=64, seed=seed,
            restart_latency=0.1,
        )
        cluster_base = run_cluster_replications(
            reference_dist, JOBS, n_replications=48, seed=seed, pool_size=3
        )
        service_base = run_service_replications(
            reference_dist, JOBS, n_replications=48, seed=seed, max_vms=4
        )
        tenancy_base = run_tenant_replications(
            reference_dist, TRAFFIC, n_replications=32, seed=seed, max_vms=4,
            chunk_size=10,
        )
        for w in self.WORKER_MATRIX:
            assert_outcomes_equal(
                plan_base,
                run_replications(
                    reference_dist, SEGMENTS, n_replications=64, seed=seed,
                    restart_latency=0.1, workers=w,
                ),
            )
            assert_outcomes_equal(
                cluster_base,
                run_cluster_replications(
                    reference_dist, JOBS, n_replications=48, seed=seed,
                    pool_size=3, workers=w,
                ),
            )
            assert_outcomes_equal(
                service_base,
                run_service_replications(
                    reference_dist, JOBS, n_replications=48, seed=seed,
                    max_vms=4, workers=w,
                ),
            )
            assert_outcomes_equal(
                tenancy_base,
                run_tenant_replications(
                    reference_dist, TRAFFIC, n_replications=32, seed=seed,
                    max_vms=4, chunk_size=10, workers=w,
                ),
            )
