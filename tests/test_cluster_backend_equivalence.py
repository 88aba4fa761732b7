"""Cross-backend cluster equivalence: event ClusterManager vs lockstep kernel.

Both backends of :func:`repro.sim.backend.run_cluster_replications`
share the cluster round protocol (draw order, event-sequence
tie-breaking, FIFO/refresh scheduling rules — see
``repro/sim/cluster_vectorized.py``), so for identical seeds and
configurations the per-replication outcomes must agree to
float-associativity noise.  We pin 1e-9 hours, several orders of
magnitude above the observed drift (~1e-13).

The default grid keeps the event backend affordable for tier-1; the
``slow``-marked class re-runs it at higher replication counts and
bigger bags for the scheduled ``slow-equivalence`` CI job.
"""

import numpy as np
import pytest

from repro.distributions.exponential import ExponentialDistribution
from repro.distributions.uniform import UniformLifetimeDistribution
from repro.policies.scheduling import ModelReusePolicy, SchedulingDecision
from repro.sim.backend import run_cluster_replications
from repro.sim.cluster_vectorized import ClusterConfig, GangJob

SEEDS = [0, 1, 2, 3, 4]

#: Small bags with mixed widths; preemption pressure comes from the
#: short-support distributions below.
BAGS = {
    "narrow": [(2.0, 1), (1.5, 1), (0.5, 1), (2.5, 1), (1.0, 1)],
    "mixed": [(2.0, 1), (1.5, 2), (0.5, 3), (2.5, 1), (1.0, 2), (0.25, 1)],
    "wide": [(1.0, 4), (2.0, 3), (1.5, 4), (0.5, 2)],
}

CONFIGS = {
    "reuse-hot": dict(pool_size=4, use_reuse_policy=True, hot_spare=True),
    "reuse-cold": dict(pool_size=4, use_reuse_policy=True, hot_spare=False),
    "memoryless-hot": dict(pool_size=4, use_reuse_policy=False, hot_spare=True),
    "ckpt": dict(pool_size=4, hot_spare=True, checkpoint_interval=0.4),
    "ckpt-cold": dict(pool_size=4, hot_spare=False, checkpoint_interval=0.4),
    "pool6": dict(pool_size=6, hot_spare=True),
    "backfill": dict(pool_size=4, backfill=True),
    "backfill-cold-ckpt": dict(
        pool_size=4, backfill=True, hot_spare=False, checkpoint_interval=0.4
    ),
}


def run_both(dist, jobs, seed, *, n=8, **kwargs):
    event = run_cluster_replications(
        dist, jobs, n_replications=n, seed=seed, backend="event", **kwargs
    )
    vec = run_cluster_replications(
        dist, jobs, n_replications=n, seed=seed, backend="vectorized", **kwargs
    )
    return event, vec


def assert_equivalent(event, vec):
    np.testing.assert_allclose(vec.makespan, event.makespan, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(
        vec.wasted_hours, event.wasted_hours, rtol=0.0, atol=1e-9
    )
    np.testing.assert_allclose(vec.vm_hours, event.vm_hours, rtol=0.0, atol=1e-9)
    np.testing.assert_array_equal(vec.completed_jobs, event.completed_jobs)
    np.testing.assert_array_equal(vec.n_job_failures, event.n_job_failures)
    np.testing.assert_array_equal(vec.n_preemptions, event.n_preemptions)
    np.testing.assert_array_equal(vec.n_events, event.n_events)
    np.testing.assert_array_equal(vec.n_draws, event.n_draws)
    assert vec.n_rounds == event.n_rounds


class TestEquivalenceGrid:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_uniform_support(self, seed, config):
        """Short uniform support: frequent deaths exercise every path."""
        dist = UniformLifetimeDistribution(6.0)
        assert_equivalent(*run_both(dist, BAGS["mixed"], seed, **config))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bag", BAGS.values(), ids=BAGS.keys())
    def test_bag_shapes_bathtub(self, reference_dist, seed, bag):
        assert_equivalent(
            *run_both(reference_dist, bag, seed, pool_size=4, checkpoint_interval=0.5)
        )

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "config",
        [CONFIGS["reuse-cold"], CONFIGS["ckpt"], CONFIGS["memoryless-hot"]],
        ids=["reuse-cold", "ckpt", "memoryless-hot"],
    )
    def test_exponential(self, seed, config):
        dist = ExponentialDistribution(rate=0.7)
        assert_equivalent(*run_both(dist, BAGS["wide"], seed, **config))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_criterion(self, reference_dist, seed):
        """The literal Eq. 8 criterion (fresh-VM churn) also matches."""
        assert_equivalent(
            *run_both(
                reference_dist,
                BAGS["mixed"],
                seed,
                pool_size=4,
                reuse_criterion="paper",
            )
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bag", BAGS.values(), ids=BAGS.keys())
    def test_backfill_bag_shapes(self, reference_dist, seed, bag):
        """Backfill coverage (previously event-only): the kernel's
        queue-order scan past a stuck head must match the real
        ClusterManager's ``backfill=True`` discipline, per-job Eq. 8
        suitability included."""
        assert_equivalent(
            *run_both(reference_dist, bag, seed, pool_size=4, backfill=True)
        )

    @pytest.mark.parametrize("seed", [0, 2])
    def test_backfill_memoryless_exponential(self, seed):
        dist = ExponentialDistribution(rate=0.7)
        assert_equivalent(
            *run_both(
                dist,
                BAGS["mixed"],
                seed,
                pool_size=4,
                backfill=True,
                use_reuse_policy=False,
            )
        )

    def test_identical_jobs_tie_storm(self, reference_dist):
        """A bag of identical jobs completes in simultaneous waves — the
        adversarial case for event-ordering: every wave's completions tie
        to the float and must resolve in the same insertion order on
        both backends."""
        jobs = [(0.75, 2)] * 8
        assert_equivalent(*run_both(reference_dist, jobs, 0, pool_size=6))


class TestDecidePairs:
    """The kernel's fully-batched Eq. 8 path matches the scalar decide."""

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    def test_pairs_match_scalar(self, reference_dist, criterion):
        pol = ModelReusePolicy(reference_dist, criterion=criterion)
        rng = np.random.default_rng(0)
        T = rng.uniform(0.05, 8.0, 64)
        ages = rng.uniform(0.0, reference_dist.t_max * 1.05, 64)
        pairs = pol.decide_pairs(T, ages)
        scalar = np.array(
            [
                pol.decide(float(t), float(s)) is SchedulingDecision.REUSE
                for t, s in zip(T, ages)
            ]
        )
        np.testing.assert_array_equal(pairs, scalar)

    def test_pairs_match_batch_at_fixed_length(self, reference_dist):
        pol = ModelReusePolicy(reference_dist, criterion="conditional")
        ages = np.linspace(0.0, reference_dist.t_max, 64)
        np.testing.assert_array_equal(
            pol.decide_pairs(np.full(64, 3.0), ages), pol.decide_batch(3.0, ages)
        )

    def test_pairs_broadcast(self, reference_dist):
        pol = ModelReusePolicy(reference_dist)
        out = pol.decide_pairs(np.array([[2.0], [4.0]]), np.linspace(0, 10, 5))
        assert out.shape == (2, 5)

    def test_pairs_validation(self, reference_dist):
        pol = ModelReusePolicy(reference_dist)
        with pytest.raises(ValueError):
            pol.decide_pairs(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            pol.decide_pairs(np.array([1.0]), np.array([-1.0]))
        # NaN is rejected on both axes (it used to slip through as False
        # / inf where the scalar decide raises).
        with pytest.raises(ValueError):
            pol.decide_pairs(np.nan, 3.0)
        with pytest.raises(ValueError):
            pol.decide_pairs(np.array([[2.0], [np.nan]]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pol.decide_pairs(np.array([1.0]), np.array([np.nan]))
        with pytest.raises(ValueError):
            pol.reuse_cost_pairs(2.0, np.nan)


class TestApiEdges:
    def test_gangjob_and_tuple_inputs_agree(self, reference_dist):
        a = run_cluster_replications(
            reference_dist, [(1.0, 2), (2.0, 1)], n_replications=4, seed=0
        )
        b = run_cluster_replications(
            reference_dist,
            [GangJob(1.0, 2), GangJob(2.0, 1)],
            n_replications=4,
            seed=0,
        )
        np.testing.assert_array_equal(a.makespan, b.makespan)

    def test_config_object_and_kwargs_agree(self, reference_dist):
        cfg = ClusterConfig(pool_size=3, hot_spare=False)
        a = run_cluster_replications(
            reference_dist, [(1.0, 1)] * 3, config=cfg, n_replications=4, seed=1
        )
        b = run_cluster_replications(
            reference_dist,
            [(1.0, 1)] * 3,
            pool_size=3,
            hot_spare=False,
            n_replications=4,
            seed=1,
        )
        np.testing.assert_array_equal(a.makespan, b.makespan)

    def test_config_and_kwargs_conflict(self, reference_dist):
        with pytest.raises(ValueError, match="not both"):
            run_cluster_replications(
                reference_dist,
                [(1.0, 1)],
                config=ClusterConfig(),
                pool_size=2,
            )

    def test_zero_replications(self, reference_dist):
        for backend in ("event", "vectorized"):
            out = run_cluster_replications(
                reference_dist, [(1.0, 1)], n_replications=0, backend=backend
            )
            assert out.n_replications == 0
            assert out.n_rounds == 0

    def test_width_exceeding_pool_rejected(self, reference_dist):
        with pytest.raises(ValueError, match="exceeds pool_size"):
            run_cluster_replications(reference_dist, [(1.0, 9)], pool_size=4)

    def test_empty_bag_rejected(self, reference_dist):
        with pytest.raises(ValueError, match="non-empty"):
            run_cluster_replications(reference_dist, [])

    def test_invalid_backend_rejected(self, reference_dist):
        with pytest.raises(ValueError, match="backend"):
            run_cluster_replications(reference_dist, [(1.0, 1)], backend="gpu")

    def test_unfinishable_bag_raises_on_both(self):
        """A job longer than the support can never finish uncheckpointed."""
        dist = UniformLifetimeDistribution(6.0)
        for backend in ("event", "vectorized"):
            with pytest.raises(RuntimeError, match="events"):
                run_cluster_replications(
                    dist,
                    [(30.0, 1)],
                    pool_size=2,
                    n_replications=2,
                    backend=backend,
                    max_events=200,
                )

    def test_outcome_properties(self, reference_dist):
        out = run_cluster_replications(
            reference_dist, [(1.0, 1)] * 4, pool_size=2, n_replications=8, seed=0
        )
        assert out.n_replications == 8
        assert (out.completed_jobs == 4).all()
        assert out.mean_makespan > 0.0
        assert out.mean_vm_hours > 0.0
        assert 0.0 <= out.failure_fraction <= 1.0
        assert out.mean_cost(2.0) == pytest.approx(2.0 * out.mean_vm_hours)


@pytest.mark.slow
class TestSlowEquivalence:
    """Higher-replication re-run for the scheduled slow-equivalence job."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_uniform_support_deep(self, seed, config):
        dist = UniformLifetimeDistribution(6.0)
        assert_equivalent(*run_both(dist, BAGS["mixed"], seed, n=64, **config))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_bag_bathtub(self, reference_dist, seed):
        rng = np.random.default_rng(seed)
        jobs = [
            (float(h), int(w))
            for h, w in zip(rng.uniform(0.2, 1.5, 40), rng.choice([1, 2, 4], 40))
        ]
        assert_equivalent(
            *run_both(
                reference_dist,
                jobs,
                seed,
                n=32,
                pool_size=8,
                checkpoint_interval=0.5,
            )
        )
