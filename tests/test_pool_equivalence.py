"""Pool-axis equivalence: heterogeneous fleets agree across backends.

The pool axis (``pools=`` on ``ClusterConfig`` / ``ServiceBatchConfig``
/ ``TenancyConfig``, see :mod:`repro.sim.placement`) must not disturb
the round protocol: pool choice is deterministic and happens *before*
the lifetime draw, the chosen pool only selects which ``ppf`` the
shared uniform maps through, and free-VM ordering keys on the
allocator's static pool ranking.  So for identical seeds the event
oracle (real ``ClusterManager`` + ``CloudProvider``) and the vectorized
kernels must still agree — exact event/draw/preemption counts, hours to
1e-9, including the new per-pool billing split ``pool_vm_hours``.

This file pins that on all three kernels, across allocator plugins,
under ``workers=`` sharding (byte-identical, like every other axis),
plus the catalog validation rules.  The ``slow``-marked grid re-runs
bigger batches for the scheduled ``slow-equivalence`` CI job.
"""

import os

import numpy as np
import pytest

from repro.distributions.exponential import ExponentialDistribution
from repro.distributions.uniform import UniformLifetimeDistribution
from repro.sim.backend import (
    run_cluster_replications,
    run_service_replications,
    run_tenant_replications,
)
from repro.sim.cluster_vectorized import ClusterConfig
from repro.sim.placement import PoolSpec, resolve_pools
from repro.sim.service_vectorized import ServiceBatchConfig
from repro.sim.tenancy_vectorized import TenancyConfig

SEEDS = [0, 1, 2, 3, 4]

FLAKY = UniformLifetimeDistribution(3.0)
STABLE = UniformLifetimeDistribution(24.0)
MEMORYLESS = ExponentialDistribution(0.7)

#: Cheap-but-flaky next to pricey-but-stable: the canonical 2-pool mix.
POOLS_4 = (
    PoolSpec("cheap-flaky", 2, dist=FLAKY, price=0.2),
    PoolSpec("pricey-stable", 2, dist=STABLE, price=1.0),
)
POOLS_4_REV = tuple(reversed(
    (PoolSpec("cheap-flaky", 2, dist=FLAKY, price=0.2),
     PoolSpec("pricey-stable", 2, dist=STABLE, price=1.0))
))
POOLS_3 = (
    PoolSpec("small", 1, dist=MEMORYLESS, price=0.5),
    PoolSpec("big", 2, dist=STABLE, price=0.8),
)

JOBS = [(0.6, 1), (0.4, 2), (0.5, 1), (0.8, 2)]
TRAFFIC = [
    (0, 0.0, [(0.6, 1), (0.4, 2)]),
    (1, 0.3, [(0.5, 1)]),
    (2, 0.9, [(0.8, 2)]),
]

ALLOCATORS = ["first_fit", "best_fit_price", "reliability"]


def assert_equivalent(event, vec):
    np.testing.assert_allclose(vec.makespan, event.makespan, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(vec.vm_hours, event.vm_hours, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(
        vec.pool_vm_hours, event.pool_vm_hours, rtol=0.0, atol=1e-9
    )
    np.testing.assert_array_equal(vec.completed_jobs, event.completed_jobs)
    np.testing.assert_array_equal(vec.n_preemptions, event.n_preemptions)
    np.testing.assert_array_equal(vec.n_events, event.n_events)
    np.testing.assert_array_equal(vec.n_draws, event.n_draws)


def assert_outcomes_equal(base, sharded):
    for name, value in vars(base).items():
        other = getattr(sharded, name)
        if isinstance(value, np.ndarray):
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(value, other, err_msg=name)
        else:
            assert value == other, name


class TestCatalog:
    def test_none_resolves_to_single_default_pool(self):
        (pool,) = resolve_pools(None, dist=FLAKY, n_slots=4, provision_latency=0.5)
        assert pool.name == "default" and pool.size == 4
        assert pool.dist is FLAKY and pool.price == 1.0
        assert pool.boot_latency == 0.5

    def test_defaults_filled_from_config(self):
        pools = resolve_pools(
            (PoolSpec("a", 1), PoolSpec("b", 3, dist=STABLE, boot_latency=0.1)),
            dist=FLAKY, n_slots=4, provision_latency=0.5,
        )
        assert pools[0].dist is FLAKY and pools[0].boot_latency == 0.5
        assert pools[1].dist is STABLE and pools[1].boot_latency == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            resolve_pools((), dist=FLAKY, n_slots=4)
        with pytest.raises(ValueError, match="unique"):
            resolve_pools(
                (PoolSpec("a", 2), PoolSpec("a", 2)), dist=FLAKY, n_slots=4
            )
        with pytest.raises(ValueError, match="sum to the fleet cap"):
            resolve_pools(
                (PoolSpec("a", 2), PoolSpec("b", 3)), dist=FLAKY, n_slots=4
            )
        with pytest.raises(ValueError, match="size must be positive"):
            resolve_pools((PoolSpec("a", 0),), dist=FLAKY, n_slots=0)

    @pytest.mark.parametrize(
        "config_cls, size_field",
        [
            (ClusterConfig, "pool_size"),
            (ServiceBatchConfig, "max_vms"),
            (TenancyConfig, "max_vms"),
        ],
        ids=["cluster", "service", "tenancy"],
    )
    def test_pools_incompatible_with_dp_checkpointing(self, config_cls, size_field):
        with pytest.raises(ValueError, match="pools"):
            config_cls(**{size_field: 4}, pools=POOLS_4, checkpoint="dp")

    @pytest.mark.parametrize("backend", ["vectorized", "event"])
    def test_cluster_rejects_boot_latency_before_any_draw(self, backend):
        """The cluster boots instantly: a pool latency would be ignored,
        so it is refused up front instead."""
        pools = (
            PoolSpec("slow", 2, dist=FLAKY, boot_latency=0.3),
            PoolSpec("instant", 2, dist=STABLE),
        )
        with pytest.raises(ValueError, match="boot_latency"):
            ClusterConfig(pool_size=4, pools=pools)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="boot_latency"):
            run_cluster_replications(
                FLAKY, JOBS, n_replications=2, seed=rng, backend=backend,
                pool_size=4, pools=pools,
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("latency", [None, 0.0])
    def test_cluster_accepts_instant_boot_latency(self, latency):
        pools = (
            PoolSpec("a", 2, dist=FLAKY, boot_latency=latency),
            PoolSpec("b", 2, dist=STABLE, boot_latency=latency),
        )
        ClusterConfig(pool_size=4, pools=pools)

    def test_unknown_allocator_rejected(self):
        from repro.sim.cluster_vectorized import ClusterConfig

        with pytest.raises(ValueError, match="allocator"):
            ClusterConfig(pool_size=4, pools=POOLS_4, allocator="roulette")


class TestClusterPools:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_two_pool_grid(self, seed, allocator):
        kwargs = dict(
            n_replications=8, seed=seed, pool_size=4,
            pools=POOLS_4, allocator=allocator,
        )
        event = run_cluster_replications(FLAKY, JOBS, backend="event", **kwargs)
        vec = run_cluster_replications(FLAKY, JOBS, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_ragged_pools_hot_spare(self, seed):
        """Uneven pool sizes + hot-spare: a death in the full pool must
        substitute cross-pool into the ranked pool with headroom."""
        kwargs = dict(
            n_replications=8, seed=seed, pool_size=3, pools=POOLS_3,
            allocator="best_fit_price", hot_spare=True,
        )
        event = run_cluster_replications(FLAKY, JOBS[:3], backend="event", **kwargs)
        vec = run_cluster_replications(FLAKY, JOBS[:3], backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    def test_pool_hours_partition_vm_hours(self):
        out = run_cluster_replications(
            FLAKY, JOBS, n_replications=16, seed=0, pool_size=4, pools=POOLS_4
        )
        assert out.pool_vm_hours.shape == (16, 2)
        np.testing.assert_allclose(
            out.pool_vm_hours.sum(axis=1), out.vm_hours, atol=1e-9
        )

    def test_single_pool_column_equals_total(self):
        out = run_cluster_replications(
            FLAKY, JOBS, n_replications=8, seed=0, pool_size=4
        )
        assert out.pool_vm_hours.shape == (8, 1)
        np.testing.assert_allclose(
            out.pool_vm_hours[:, 0], out.vm_hours, atol=1e-9
        )

    def test_same_law_split_still_equivalent_across_backends(self):
        """Same-law pools are not a pure relabeling (pool rank becomes
        the primary free-VM sort key), but both backends must apply the
        reordering identically."""
        kwargs = dict(
            n_replications=16, seed=2, pool_size=4,
            pools=(PoolSpec("a", 2), PoolSpec("b", 2)),
        )
        event = run_cluster_replications(FLAKY, JOBS, backend="event", **kwargs)
        vec = run_cluster_replications(FLAKY, JOBS, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    @pytest.mark.sharded
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_byte_identical(self, workers):
        base = run_cluster_replications(
            FLAKY, JOBS, n_replications=13, seed=0, pool_size=4,
            pools=POOLS_4, allocator="best_fit_price",
        )
        sharded = run_cluster_replications(
            FLAKY, JOBS, n_replications=13, seed=0, pool_size=4,
            pools=POOLS_4, allocator="best_fit_price", workers=workers,
        )
        assert_outcomes_equal(base, sharded)


class TestServicePools:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_two_pool_grid(self, seed, allocator):
        kwargs = dict(
            n_replications=8, seed=seed, max_vms=4, run_master=False,
            pools=POOLS_4, allocator=allocator,
        )
        event = run_service_replications(FLAKY, JOBS, backend="event", **kwargs)
        vec = run_service_replications(FLAKY, JOBS, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_per_pool_boot_latency(self, seed):
        """Pools with distinct boot latencies exercise the staggered
        provisioning channels plus the per-pool boot-grace window."""
        pools = (
            PoolSpec("slow-boot", 2, dist=STABLE, price=1.0, boot_latency=0.4),
            PoolSpec("fast-boot", 2, dist=FLAKY, price=0.3, boot_latency=0.1),
        )
        kwargs = dict(
            n_replications=6, seed=seed, max_vms=4, run_master=False,
            pools=pools, allocator="best_fit_price", provision_latency=0.2,
        )
        event = run_service_replications(FLAKY, JOBS, backend="event", **kwargs)
        vec = run_service_replications(FLAKY, JOBS, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    def test_pool_hours_partition_vm_hours(self):
        out = run_service_replications(
            FLAKY, JOBS, n_replications=12, seed=1, max_vms=4,
            run_master=False, pools=POOLS_4,
        )
        assert out.pool_vm_hours.shape == (12, 2)
        np.testing.assert_allclose(
            out.pool_vm_hours.sum(axis=1), out.vm_hours, atol=1e-9
        )

    def test_priced_cost_is_hours_at_prices(self):
        """The billing contract: cost under heterogeneous prices is just
        ``pool_vm_hours @ prices`` — cheaper than billing every hour at
        the top rate, costlier than the bottom rate."""
        out = run_service_replications(
            FLAKY, JOBS, n_replications=12, seed=1, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="best_fit_price",
        )
        prices = np.array([p.price for p in POOLS_4])
        cost = out.pool_vm_hours @ prices
        assert (cost <= out.vm_hours * prices.max() + 1e-9).all()
        assert (cost >= out.vm_hours * prices.min() - 1e-9).all()

    @pytest.mark.sharded
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_byte_identical(self, workers):
        base = run_service_replications(
            FLAKY, JOBS, n_replications=11, seed=0, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="reliability",
        )
        sharded = run_service_replications(
            FLAKY, JOBS, n_replications=11, seed=0, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="reliability",
            workers=workers,
        )
        assert_outcomes_equal(base, sharded)


class TestTenancyPools:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("allocator", ALLOCATORS + ["tenant_affinity"])
    def test_two_pool_grid(self, seed, allocator):
        kwargs = dict(
            n_replications=6, seed=seed, max_vms=4, run_master=False,
            pools=POOLS_4, allocator=allocator,
        )
        event = run_tenant_replications(FLAKY, TRAFFIC, backend="event", **kwargs)
        vec = run_tenant_replications(FLAKY, TRAFFIC, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)
        np.testing.assert_array_equal(event.admitted, vec.admitted)
        np.testing.assert_allclose(
            event.finish_times, vec.finish_times, atol=1e-9, equal_nan=True
        )

    @pytest.mark.parametrize("scheduling", ["fair", "weighted"])
    def test_pools_compose_with_tenancy_policies(self, scheduling):
        kwargs = dict(
            n_replications=6, seed=0, max_vms=4, run_master=False,
            pools=POOLS_4, allocator="tenant_affinity",
            scheduling=scheduling,
            tenant_weights=(1.0, 2.0, 3.0) if scheduling == "weighted" else None,
        )
        event = run_tenant_replications(FLAKY, TRAFFIC, backend="event", **kwargs)
        vec = run_tenant_replications(FLAKY, TRAFFIC, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    @pytest.mark.sharded
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_byte_identical(self, workers):
        base = run_tenant_replications(
            FLAKY, TRAFFIC, n_replications=9, seed=0, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="tenant_affinity",
        )
        sharded = run_tenant_replications(
            FLAKY, TRAFFIC, n_replications=9, seed=0, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="tenant_affinity",
            workers=workers,
        )
        assert_outcomes_equal(base, sharded)


class TestAllocatorBehaviour:
    def test_best_fit_and_reliability_differ_measurably(self):
        """The fig9-pools premise: on a cheap-flaky / pricey-stable mix,
        chasing price and chasing reliability land on different pools —
        different billing splits and different preemption counts."""
        outs = {
            alloc: run_service_replications(
                FLAKY, JOBS, n_replications=32, seed=0, max_vms=4,
                run_master=False, pools=POOLS_4, allocator=alloc,
            )
            for alloc in ("best_fit_price", "reliability")
        }
        price_split = outs["best_fit_price"].pool_vm_hours.sum(axis=0)
        rel_split = outs["reliability"].pool_vm_hours.sum(axis=0)
        # best-fit-by-price leans on pool 0 (cheap), reliability on pool 1.
        assert price_split[0] > price_split[1]
        assert rel_split[1] > rel_split[0]
        assert (
            outs["best_fit_price"].n_preemptions.sum()
            != outs["reliability"].n_preemptions.sum()
        )

    def test_tenant_affinity_homes_tenants(self):
        """With per-tenant affinity each tenant's work lands on its home
        pool first; single-tenant traffic on pool 1's home shows up in
        the billing split."""
        traffic = [(1, 0.0, [(0.5, 1), (0.5, 1)])]
        out = run_tenant_replications(
            STABLE, traffic, n_replications=8, seed=0, max_vms=4,
            run_master=False, n_tenants=2, pools=POOLS_4,
            allocator="tenant_affinity",
        )
        split = out.pool_vm_hours.sum(axis=0)
        assert split[1] > split[0]


@pytest.mark.slow
class TestPoolsDeep:
    """Bigger batches for the scheduled slow-equivalence CI job."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster_deep(self, seed):
        kwargs = dict(
            n_replications=32, seed=seed, pool_size=4,
            pools=POOLS_4, allocator="best_fit_price", hot_spare=True,
        )
        event = run_cluster_replications(FLAKY, JOBS, backend="event", **kwargs)
        vec = run_cluster_replications(FLAKY, JOBS, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_service_deep(self, reference_dist, seed):
        pools = (
            PoolSpec("flaky", 2, dist=FLAKY, price=0.2, boot_latency=0.3),
            PoolSpec("paper", 2, dist=reference_dist, price=1.0),
        )
        kwargs = dict(
            n_replications=24, seed=seed, max_vms=4, run_master=False,
            pools=pools, allocator="reliability", provision_latency=0.1,
        )
        event = run_service_replications(FLAKY, JOBS, backend="event", **kwargs)
        vec = run_service_replications(FLAKY, JOBS, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tenancy_deep(self, seed):
        kwargs = dict(
            n_replications=16, seed=seed, max_vms=4, run_master=False,
            pools=POOLS_4, allocator="tenant_affinity", scheduling="fair",
        )
        event = run_tenant_replications(FLAKY, TRAFFIC, backend="event", **kwargs)
        vec = run_tenant_replications(FLAKY, TRAFFIC, backend="vectorized", **kwargs)
        assert_equivalent(event, vec)


@pytest.mark.slow
@pytest.mark.sharded
class TestPoolShardedDeep:
    """Pool tier of the sharded CI matrix: bigger multi-pool batches,
    the worker matrix from ``REPRO_SHARD_WORKERS`` (one value per CI
    matrix leg), byte-identical merges on all three kernels."""

    WORKER_MATRIX = [
        int(w) for w in os.environ.get("REPRO_SHARD_WORKERS", "2,3,7").split(",")
    ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_kernels_deep(self, seed):
        cluster_base = run_cluster_replications(
            FLAKY, JOBS, n_replications=48, seed=seed, pool_size=4,
            pools=POOLS_4, allocator="best_fit_price",
        )
        service_base = run_service_replications(
            FLAKY, JOBS, n_replications=48, seed=seed, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="reliability",
        )
        tenancy_base = run_tenant_replications(
            FLAKY, TRAFFIC, n_replications=32, seed=seed, max_vms=4,
            run_master=False, pools=POOLS_4, allocator="tenant_affinity",
        )
        for w in self.WORKER_MATRIX:
            assert_outcomes_equal(
                cluster_base,
                run_cluster_replications(
                    FLAKY, JOBS, n_replications=48, seed=seed, pool_size=4,
                    pools=POOLS_4, allocator="best_fit_price", workers=w,
                ),
            )
            assert_outcomes_equal(
                service_base,
                run_service_replications(
                    FLAKY, JOBS, n_replications=48, seed=seed, max_vms=4,
                    run_master=False, pools=POOLS_4, allocator="reliability",
                    workers=w,
                ),
            )
            assert_outcomes_equal(
                tenancy_base,
                run_tenant_replications(
                    FLAKY, TRAFFIC, n_replications=32, seed=seed, max_vms=4,
                    run_master=False, pools=POOLS_4,
                    allocator="tenant_affinity", workers=w,
                ),
            )
