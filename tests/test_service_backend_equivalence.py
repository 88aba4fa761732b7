"""Cross-backend service equivalence: real BatchComputingService vs kernel.

Both backends of :func:`repro.sim.backend.run_service_replications`
share the service round protocol (draw order, event-sequence
tie-breaking, the controller's provisioning/stall/retention rules —
see ``repro/sim/service_vectorized.py``), so for identical seeds and
configurations the per-replication outcomes must agree to
float-associativity noise.  We pin 1e-9 hours, several orders of
magnitude above the observed drift, and demand *exact* agreement of
event, draw, preemption, failure, and completion counts.

Two layers:

* a deterministic grid over seeds 0-4 x bags x fleets x (latency,
  backfill, reuse, hot-spare, checkpoint) — the issue's acceptance
  grid;
* a hypothesis-driven differential fuzzer generating random (bag,
  fleet, ServiceConfig, latency, backfill) scenarios — a small budget
  in tier-1, a deep ``slow``-marked budget for the scheduled
  ``slow-equivalence`` CI job.

Every lifetime law is fair game in the latency grids: the boot-grace
fallback (a VM no older than its pool's boot latency is always
accepted) lets laws whose conditional Eq. 8 criterion rejects every
aged VM (uniform, exponential — no infant-mortality window) gather
gangs instead of churning terminate/provision cycles, and both
backends implement the fallback identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributions.exponential import ExponentialDistribution
from repro.distributions.uniform import UniformLifetimeDistribution
from repro.sim.backend import run_service_replications
from repro.sim.cluster_vectorized import GangJob
from repro.sim.service_vectorized import ServiceBatchConfig

SEEDS = [0, 1, 2, 3, 4]

BAGS = {
    "narrow": [(2.0, 1), (1.5, 1), (0.5, 1), (2.5, 1), (1.0, 1)],
    "mixed": [(2.0, 1), (1.5, 2), (0.5, 3), (2.5, 1), (1.0, 2), (0.25, 1)],
    "wide": [(1.0, 4), (2.0, 3), (1.5, 4), (0.5, 2)],
    "tie": [(0.75, 2)] * 8,
}

#: Configurations safe for any law (latency only with the policy off).
CONFIGS = {
    "base": dict(max_vms=4),
    "backfill": dict(max_vms=4, backfill=True),
    "short-spare": dict(max_vms=4, hot_spare_hours=0.3),
    "ckpt": dict(max_vms=4, checkpoint_interval=0.4),
    "memoryless-lat": dict(max_vms=4, use_reuse_policy=False, provision_latency=0.25),
    "no-master": dict(max_vms=4, run_master=False),
    "window2": dict(max_vms=4, estimate_window=2),
}

#: Latency-with-reuse configurations (any law — the boot-grace fallback
#: keeps reuse-rejecting laws from churning; see module doc).
LATENCY_CONFIGS = {
    "lat": dict(max_vms=4, provision_latency=0.25),
    "lat-small": dict(max_vms=4, provision_latency=0.05),
    "lat-bf-ckpt": dict(
        max_vms=5,
        provision_latency=0.1,
        backfill=True,
        hot_spare_hours=0.5,
        checkpoint_interval=0.4,
    ),
}


def run_both(dist, jobs, seed, *, n=4, max_events=100_000, **kwargs):
    event = run_service_replications(
        dist,
        jobs,
        n_replications=n,
        seed=seed,
        backend="event",
        max_events=max_events,
        **kwargs,
    )
    vec = run_service_replications(
        dist,
        jobs,
        n_replications=n,
        seed=seed,
        backend="vectorized",
        max_events=max_events,
        **kwargs,
    )
    return event, vec


def assert_equivalent(event, vec):
    np.testing.assert_allclose(vec.makespan, event.makespan, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(
        vec.wasted_hours, event.wasted_hours, rtol=0.0, atol=1e-9
    )
    np.testing.assert_allclose(vec.vm_hours, event.vm_hours, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(
        vec.master_hours, event.master_hours, rtol=0.0, atol=1e-9
    )
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
            *run_both(reference_dist, bag, seed, max_vms=4, checkpoint_interval=0.5)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "config", LATENCY_CONFIGS.values(), ids=LATENCY_CONFIGS.keys()
    )
    def test_provisioning_latency_bathtub(self, reference_dist, seed, config):
        """Boot latency under the paper's law (reuse policy on)."""
        assert_equivalent(*run_both(reference_dist, BAGS["mixed"], seed, **config))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "config", LATENCY_CONFIGS.values(), ids=LATENCY_CONFIGS.keys()
    )
    def test_provisioning_latency_uniform(self, seed, config):
        """Boot latency under a reuse-rejecting law: the boot-grace
        fallback (not churn) is what both backends must agree on."""
        dist = UniformLifetimeDistribution(6.0)
        assert_equivalent(*run_both(dist, BAGS["mixed"], seed, **config))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "config",
        [CONFIGS["backfill"], CONFIGS["memoryless-lat"], CONFIGS["short-spare"]],
        ids=["backfill", "memoryless-lat", "short-spare"],
    )
    def test_exponential(self, seed, config):
        dist = ExponentialDistribution(rate=0.7)
        assert_equivalent(*run_both(dist, BAGS["wide"], seed, **config))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_heterogeneous_estimation_feedback(self, reference_dist, seed):
        """A spread of job lengths drives the bag estimate through the
        full trailing window, so Eq. 8 decisions flip as completions
        land — the estimation feedback loop must match bit for bit."""
        bag = [(2.5, 1), (0.25, 1), (1.75, 2), (0.3, 1), (2.0, 2), (0.5, 1), (1.0, 1)]
        assert_equivalent(
            *run_both(reference_dist, bag, seed, max_vms=3, estimate_window=3)
        )

    def test_identical_jobs_tie_storm(self, reference_dist):
        """Identical jobs complete in simultaneous waves — the
        adversarial case for event ordering, now with reap timers and
        boot events in the same instant mix."""
        assert_equivalent(
            *run_both(reference_dist, BAGS["tie"], 0, max_vms=6, hot_spare_hours=0.5)
        )


class TestDifferentialFuzz:
    """Randomised (bag, fleet, config, latency, backfill) scenarios."""

    LAWS = {
        "uniform": lambda: UniformLifetimeDistribution(6.0),
        "exponential": lambda: ExponentialDistribution(rate=0.7),
        "bathtub": None,  # filled from the reference fixture
    }

    scenario = st.fixed_dictionaries(
        {
            "law": st.sampled_from(["uniform", "exponential", "bathtub"]),
            "hours": st.lists(
                st.sampled_from([0.2, 0.25, 0.4, 0.5, 0.75, 1.0, 1.6, 2.5]),
                min_size=1,
                max_size=6,
            ),
            "widths": st.lists(st.integers(1, 3), min_size=6, max_size=6),
            "max_vms": st.integers(3, 5),
            "reuse": st.booleans(),
            "latency": st.sampled_from([0.0, 0.05, 0.2, 0.4]),
            "backfill": st.booleans(),
            "hot_spare_hours": st.sampled_from([0.3, 1.0, 2.0]),
            "checkpoint_interval": st.sampled_from([None, 0.3, 0.6]),
            "run_master": st.booleans(),
            "estimate_window": st.sampled_from([2, 16]),
            "seed": st.integers(0, 2**16),
        }
    )

    def _check(self, reference_dist, s, *, n):
        jobs = [
            GangJob(h, w) for h, w in zip(s["hours"], s["widths"][: len(s["hours"])])
        ]
        latency = s["latency"]
        dist = (
            reference_dist
            if s["law"] == "bathtub"
            else self.LAWS[s["law"]]()
        )
        config = ServiceBatchConfig(
            max_vms=s["max_vms"],
            use_reuse_policy=s["reuse"],
            hot_spare_hours=s["hot_spare_hours"],
            provision_latency=latency,
            run_master=s["run_master"],
            backfill=s["backfill"],
            checkpoint_interval=s["checkpoint_interval"],
            estimate_window=s["estimate_window"],
            # A wide uncheckpointed gang under a short-lived law can
            # legitimately need thousands of attempts (geometric tail);
            # leave max_events as the unfinishable backstop instead of
            # tripping the controller's per-job valve on unlucky seeds.
            max_attempts_per_job=100_000,
        )
        assert_equivalent(
            *run_both(dist, jobs, s["seed"], n=n, config=config)
        )

    @given(s=scenario)
    @settings(max_examples=12, deadline=None)
    def test_fuzz_small(self, reference_dist, s):
        """Tier-1 budget: a taste of the scenario space per run."""
        self._check(reference_dist, s, n=3)

    @pytest.mark.slow
    @given(s=scenario)
    @settings(max_examples=120, deadline=None)
    def test_fuzz_deep(self, reference_dist, s):
        """Scheduled slow-equivalence budget: wide and replicated."""
        self._check(reference_dist, s, n=8)


class TestApiEdges:
    def test_gangjob_and_tuple_inputs_agree(self, reference_dist):
        a = run_service_replications(
            reference_dist, [(1.0, 2), (2.0, 1)], n_replications=4, seed=0
        )
        b = run_service_replications(
            reference_dist,
            [GangJob(1.0, 2), GangJob(2.0, 1)],
            n_replications=4,
            seed=0,
        )
        np.testing.assert_array_equal(a.makespan, b.makespan)

    def test_config_object_and_kwargs_agree(self, reference_dist):
        cfg = ServiceBatchConfig(max_vms=3, backfill=True)
        a = run_service_replications(
            reference_dist, [(1.0, 1)] * 3, config=cfg, n_replications=4, seed=1
        )
        b = run_service_replications(
            reference_dist,
            [(1.0, 1)] * 3,
            max_vms=3,
            backfill=True,
            n_replications=4,
            seed=1,
        )
        np.testing.assert_array_equal(a.makespan, b.makespan)

    def test_service_config_accepted_and_converted(self, reference_dist):
        """A service-layer ServiceConfig maps onto the kernel's knobs."""
        from repro.service import ServiceConfig

        svc_cfg = ServiceConfig(max_vms=3, hot_spare_hours=0.5, backfill=True)
        a = run_service_replications(
            reference_dist, [(1.0, 1)] * 3, config=svc_cfg, n_replications=4, seed=2
        )
        b = run_service_replications(
            reference_dist,
            [(1.0, 1)] * 3,
            max_vms=3,
            hot_spare_hours=0.5,
            backfill=True,
            n_replications=4,
            seed=2,
        )
        np.testing.assert_array_equal(a.makespan, b.makespan)

    def test_dp_checkpointing_maps_to_dp_kernel(self, reference_dist):
        # use_checkpointing with no fixed interval used to be event-only;
        # it now maps onto the batched DP plan walker.
        from repro.service import ServiceConfig

        svc = ServiceConfig(
            max_vms=6,
            use_reuse_policy=False,
            use_checkpointing=True,
            provision_latency=0.2,
            backfill=True,
            run_master=False,
        )
        cfg = ServiceBatchConfig.from_service_config(svc)
        assert cfg.checkpoint == "dp"
        assert cfg.checkpoint_interval is None
        assert cfg.max_vms == 6
        assert not cfg.use_reuse_policy
        assert cfg.provision_latency == 0.2
        assert cfg.backfill and not cfg.run_master
        assert cfg.checkpoint_step == svc.checkpoint_step
        # A config's own fixed interval passes through unchanged.
        own = ServiceBatchConfig.from_service_config(
            ServiceConfig(checkpoint_interval=0.3)
        )
        assert own.checkpoint_interval == 0.3
        out = run_service_replications(
            reference_dist,
            [(1.0, 1)],
            config=ServiceConfig(use_checkpointing=True),
            n_replications=4,
            seed=0,
        )
        assert out.n_replications == 4

    def test_config_and_kwargs_conflict(self, reference_dist):
        with pytest.raises(ValueError, match="not both"):
            run_service_replications(
                reference_dist,
                [(1.0, 1)],
                config=ServiceBatchConfig(),
                max_vms=2,
            )

    def test_zero_replications(self, reference_dist):
        for backend in ("event", "vectorized"):
            out = run_service_replications(
                reference_dist, [(1.0, 1)], n_replications=0, backend=backend
            )
            assert out.n_replications == 0
            assert out.n_rounds == 0

    def test_width_exceeding_fleet_rejected(self, reference_dist):
        with pytest.raises(ValueError, match="exceeds max_vms"):
            run_service_replications(reference_dist, [(1.0, 9)], max_vms=4)

    def test_empty_bag_rejected(self, reference_dist):
        with pytest.raises(ValueError, match="non-empty"):
            run_service_replications(reference_dist, [])

    def test_invalid_backend_rejected(self, reference_dist):
        with pytest.raises(ValueError, match="backend"):
            run_service_replications(reference_dist, [(1.0, 1)], backend="gpu")

    def test_unfinishable_bag_raises_on_both(self):
        """A job longer than the support can never finish uncheckpointed."""
        dist = UniformLifetimeDistribution(6.0)
        for backend in ("event", "vectorized"):
            with pytest.raises(RuntimeError, match="events"):
                run_service_replications(
                    dist,
                    [(30.0, 1)],
                    max_vms=2,
                    n_replications=2,
                    backend=backend,
                    max_events=300,
                )

    def test_outcome_properties(self, reference_dist):
        out = run_service_replications(
            reference_dist, [(1.0, 1)] * 4, max_vms=2, n_replications=8, seed=0
        )
        assert out.n_replications == 8
        assert (out.completed_jobs == 4).all()
        assert out.mean_makespan > 0.0
        assert out.mean_vm_hours > 0.0
        assert out.total_work_hours == pytest.approx(4.0)
        assert 0.0 <= out.failure_fraction <= 1.0
        np.testing.assert_allclose(
            out.total_cost(2.0, 1.0), out.vm_hours * 2.0 + out.master_hours * 1.0
        )
        assert out.on_demand_baseline(3.0) == pytest.approx(12.0)
        crf = out.cost_reduction_factor(0.2, 1.0, master_rate=0.05)
        assert crf.shape == (8,)
        assert np.all(crf > 0.0)
        # Master billing shows up in the factor: dearer master => lower.
        cheap = out.cost_reduction_factor(0.2, 1.0, master_rate=0.0)
        dear = out.cost_reduction_factor(0.2, 1.0, master_rate=0.5)
        assert np.all((0.0 < dear) & (dear < cheap))


@pytest.mark.slow
class TestSlowEquivalence:
    """Higher-replication re-run for the scheduled slow-equivalence job."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_uniform_support_deep(self, seed, config):
        dist = UniformLifetimeDistribution(6.0)
        assert_equivalent(*run_both(dist, BAGS["mixed"], seed, n=32, **config))

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
                n=16,
                max_vms=8,
                provision_latency=0.1,
                checkpoint_interval=0.5,
                backfill=True,
            )
        )
