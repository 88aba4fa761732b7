"""Tests for the headless service policy evaluator.

The evaluator extends the event<->vectorized determinism contract from
checkpoint sweeps to full policy configurations: hot-spare gating, the
batched Eq. 8 reuse decision, and checkpoint-plan execution at
per-replication start ages must produce identical seeded outcomes on
both backends.
"""

import numpy as np
import pytest

from repro.service import (
    BatchComputingService,
    ServiceConfig,
    ServicePolicyEvaluator,
    sweep_configurations,
)
from repro.sim.cloud import CloudProvider
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traces.catalog import default_catalog

N = 400
JOB = 6.0

CONFIGS = [
    ServiceConfig(),
    ServiceConfig(use_reuse_policy=False),
    ServiceConfig(use_checkpointing=True),
    ServiceConfig(use_checkpointing=True, use_reuse_policy=False, provision_latency=0.05),
    ServiceConfig(hot_spare_hours=3.0),
]


def _config_id(cfg: ServiceConfig) -> str:
    return (
        f"reuse{int(cfg.use_reuse_policy)}-ckpt{int(cfg.use_checkpointing)}"
        f"-spare{cfg.hot_spare_hours:g}-lat{cfg.provision_latency:g}"
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_seeded_outcomes(self, reference_dist, config, seed):
        ev = ServicePolicyEvaluator(reference_dist, config)
        event = ev.evaluate(JOB, n_replications=N, seed=seed, backend="event")
        vec = ev.evaluate(JOB, n_replications=N, seed=seed, backend="vectorized")
        np.testing.assert_allclose(
            vec.outcomes.makespan, event.outcomes.makespan, rtol=0.0, atol=1e-9
        )
        np.testing.assert_allclose(
            vec.outcomes.wasted_hours,
            event.outcomes.wasted_hours,
            rtol=0.0,
            atol=1e-9,
        )
        np.testing.assert_array_equal(
            vec.outcomes.n_restarts, event.outcomes.n_restarts
        )
        # The arrival pipeline (ages, gaps, decisions) is backend-independent.
        np.testing.assert_array_equal(vec.start_ages, event.start_ages)
        np.testing.assert_array_equal(vec.reused, event.reused)
        assert vec.failure_fraction == event.failure_fraction

    def test_generator_seed_matches_int_seed(self, reference_dist):
        ev = ServicePolicyEvaluator(reference_dist)
        a = ev.evaluate(JOB, n_replications=N, seed=7)
        b = ev.evaluate(JOB, n_replications=N, seed=np.random.default_rng(7))
        np.testing.assert_array_equal(a.outcomes.makespan, b.outcomes.makespan)


class TestReplicationModel:
    @pytest.fixture(scope="class")
    def result(self, reference_dist):
        return ServicePolicyEvaluator(reference_dist).evaluate(
            JOB, n_replications=4000, seed=0
        )

    def test_monte_carlo_matches_closed_form(self, result):
        """The sampled failure fraction estimates the analytic curve."""
        assert result.failure_fraction == pytest.approx(
            result.expected_failure_fraction, abs=0.03
        )

    def test_hot_spare_window_gates_reuse(self, result):
        """Jobs never reuse a VM whose idle gap exceeded the hold window."""
        hold = result.config.hot_spare_hours
        assert not np.any(result.reused & (result.idle_gaps > hold))
        assert np.all(result.start_ages[~result.reused] == 0.0)
        np.testing.assert_array_equal(
            result.start_ages[result.reused], result.vm_ages[result.reused]
        )
        # With max_idle = 2 * hold, about half the arrivals find a spare.
        assert 0.4 < result.spare_hit_fraction < 0.6

    def test_reuse_policy_beats_memoryless(self, reference_dist):
        """The Fig. 5/6 claim at the evaluator level, under paired draws."""
        on, off = sweep_configurations(
            reference_dist,
            [ServiceConfig(), ServiceConfig(use_reuse_policy=False)],
            JOB,
            n_replications=4000,
            seed=0,
        )
        np.testing.assert_array_equal(on.vm_ages, off.vm_ages)  # paired
        assert on.failure_fraction < off.failure_fraction
        assert on.mean_makespan < off.mean_makespan

    @pytest.mark.parametrize(
        "seed", [None, 0.0, "0"], ids=["none", "float", "str"]
    )
    def test_sweep_rejects_non_integer_seed(self, reference_dist, seed):
        with pytest.raises(TypeError, match="seed must be an int"):
            sweep_configurations(
                reference_dist, [ServiceConfig()], JOB, n_replications=4, seed=seed
            )

    def test_sweep_rejects_shared_generator_before_drawing(self, reference_dist):
        """A shared generator would hand each configuration different
        arrival ages; it is refused before any draw, so the caller's
        generator is left untouched."""
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="seed must be an int"):
            sweep_configurations(
                reference_dist,
                [ServiceConfig(), ServiceConfig(use_reuse_policy=False)],
                JOB,
                n_replications=4,
                seed=rng,
            )
        assert rng.random() == np.random.default_rng(0).random()

    def test_sweep_accepts_numpy_integer_seed(self, reference_dist):
        configs = [ServiceConfig(), ServiceConfig(use_reuse_policy=False)]
        a = sweep_configurations(
            reference_dist, configs, JOB, n_replications=50, seed=np.int64(3)
        )
        b = sweep_configurations(reference_dist, configs, JOB, n_replications=50, seed=3)
        np.testing.assert_array_equal(a[0].vm_ages, a[1].vm_ages)  # paired
        np.testing.assert_array_equal(a[1].outcomes.makespan, b[1].outcomes.makespan)

    def test_checkpointing_reduces_makespan(self, reference_dist):
        """Checkpointed execution wastes less work for long jobs."""
        plain, ckpt = sweep_configurations(
            reference_dist,
            [ServiceConfig(), ServiceConfig(use_checkpointing=True)],
            8.0,
            n_replications=3000,
            seed=1,
        )
        assert len(ckpt.segments) > 1
        assert ckpt.mean_makespan < plain.mean_makespan
        assert ckpt.mean_wasted_hours < plain.mean_wasted_hours

    def test_cost_metrics(self, result):
        spec = default_catalog().spec("n1-highcpu-16")
        factor = result.cost_reduction_factor(
            spec.preemptible_price, spec.on_demand_price
        )
        # Raw discount is ~4.7x; preemption overheads eat some of it.
        assert 3.0 < factor < spec.discount
        assert result.mean_cost_per_job(spec.preemptible_price) == pytest.approx(
            result.mean_makespan * spec.preemptible_price
        )

    def test_summary_renders(self, result):
        text = result.summary()
        assert "P(fail)" in text and "reuse=on" in text

    def test_zero_replications(self, reference_dist):
        out = ServicePolicyEvaluator(reference_dist).evaluate(
            JOB, n_replications=0, seed=0
        )
        assert out.n_replications == 0
        assert out.expected_failure_fraction == 0.0

    def test_validation(self, reference_dist):
        ev = ServicePolicyEvaluator(reference_dist)
        with pytest.raises(ValueError):
            ev.evaluate(0.0)
        with pytest.raises(ValueError):
            ev.evaluate(JOB, n_replications=-1)
        with pytest.raises(ValueError):
            ev.evaluate(JOB, max_idle_hours=-1.0)


class TestPlanSegments:
    def test_uncheckpointed_by_default(self, reference_dist):
        assert ServicePolicyEvaluator(reference_dist).plan_segments(JOB) == (JOB,)

    def test_dp_plan_when_enabled(self, reference_dist):
        ev = ServicePolicyEvaluator(
            reference_dist, ServiceConfig(use_checkpointing=True)
        )
        segments = ev.plan_segments(5.0)
        assert len(segments) > 1
        assert sum(segments) == pytest.approx(5.0)

    def test_tiny_job_stays_single_segment(self, reference_dist):
        ev = ServicePolicyEvaluator(
            reference_dist, ServiceConfig(use_checkpointing=True)
        )
        assert ev.plan_segments(0.05) == (0.05,)


class TestControllerHook:
    def test_policy_evaluator_shares_model_and_config(self):
        catalog = default_catalog()
        sim = Simulator()
        cloud = CloudProvider(sim, catalog, RandomStreams(0))
        model = catalog.distribution("n1-highcpu-16", "us-central1-c")
        config = ServiceConfig(use_checkpointing=True)
        service = BatchComputingService(sim, cloud, model, config)
        ev = service.policy_evaluator()
        assert ev.dist is model
        assert ev.config is config
        hook = ev.evaluate(JOB, n_replications=200, seed=0)
        standalone = ServicePolicyEvaluator(model, config).evaluate(
            JOB, n_replications=200, seed=0
        )
        np.testing.assert_array_equal(
            hook.outcomes.makespan, standalone.outcomes.makespan
        )
