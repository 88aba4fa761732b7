"""Tests for the VM-reuse scheduling policy (paper Section 4.2, Figs. 5-7)."""

import numpy as np
import pytest

from repro.policies.scheduling import (
    MemorylessSchedulingPolicy,
    ModelReusePolicy,
    SchedulingDecision,
    average_failure_probability,
    effective_start_ages,
    job_failure_probability,
    job_failure_probability_batch,
)


@pytest.fixture(scope="module")
def policy(reference_dist):
    return ModelReusePolicy(reference_dist)


@pytest.fixture(scope="module")
def baseline(reference_dist):
    return MemorylessSchedulingPolicy(reference_dist)


class TestFailureProbability:
    def test_fresh_vm_equals_cdf(self, reference_dist):
        assert job_failure_probability(reference_dist, 6.0, 0.0) == pytest.approx(
            float(reference_dist.cdf(6.0))
        )

    def test_certain_failure_past_deadline_window(self, reference_dist):
        """A 6 h job started after hour 18 cannot finish (Fig. 5)."""
        assert job_failure_probability(reference_dist, 6.0, 19.0) == 1.0

    def test_stable_phase_is_safest(self, reference_dist):
        p_fresh = job_failure_probability(reference_dist, 4.0, 0.0)
        p_stable = job_failure_probability(reference_dist, 4.0, 8.0)
        assert p_stable < p_fresh / 5.0


class TestReuseDecision:
    def test_stable_vm_reused(self, policy):
        assert policy.decide(6.0, 8.0) is SchedulingDecision.REUSE

    def test_near_deadline_vm_discarded(self, policy):
        assert policy.decide(6.0, 20.0) is SchedulingDecision.NEW_VM

    def test_dead_vm_discarded(self, policy, reference_dist):
        assert policy.decide(1.0, reference_dist.t_max + 1.0) is SchedulingDecision.NEW_VM

    def test_decision_consistent_with_critical_age(self, policy):
        ca = policy.critical_age(6.0)
        assert policy.decide(6.0, ca - 0.5) is SchedulingDecision.REUSE
        assert policy.decide(6.0, ca + 0.5) is SchedulingDecision.NEW_VM

    def test_critical_age_decreases_with_job_length(self, policy):
        ages = [policy.critical_age(T) for T in (1.0, 4.0, 8.0, 12.0)]
        assert all(a >= b for a, b in zip(ages, ages[1:]))

    def test_six_hour_job_critical_age_matches_paper_scale(self, policy):
        """Paper narrative: switch to fresh VMs in the late-life region
        (around 24 - 6 = 18 h; the Eq. 8 criterion flips a little earlier)."""
        assert 13.0 < policy.critical_age(6.0) < 19.0

    def test_oversized_job_never_reuses(self, policy):
        assert policy.critical_age(25.0) == 0.0

    def test_critical_job_length(self, policy):
        assert policy.critical_job_length(0.0) == float("inf")
        t_star = policy.critical_job_length(12.0)
        assert 5.0 < t_star < 13.0
        assert policy.decide(t_star - 0.5, 12.0) is SchedulingDecision.REUSE
        assert policy.decide(t_star + 0.5, 12.0) is SchedulingDecision.NEW_VM

    def test_invalid_criterion(self, reference_dist):
        with pytest.raises(ValueError):
            ModelReusePolicy(reference_dist, criterion="bogus")


class TestConditionalCriterion:
    def test_coincides_with_paper_at_age_zero(self, reference_dist):
        paper = ModelReusePolicy(reference_dist, criterion="paper")
        cond = ModelReusePolicy(reference_dist, criterion="conditional")
        for T in (1.0, 4.0, 8.0):
            assert paper.reuse_cost(T, 0.0) == pytest.approx(cond.reuse_cost(T, 0.0))

    def test_conditional_keeps_stable_vms_for_short_jobs(self, reference_dist):
        """The literal Eq. 8 form churns fresh VMs for short jobs; the
        conditional form retains stable ones (the service's criterion)."""
        cond = ModelReusePolicy(reference_dist, criterion="conditional")
        assert cond.decide(0.25, 1.0) is SchedulingDecision.REUSE
        assert cond.decide(0.25, 8.0) is SchedulingDecision.REUSE

    def test_both_discard_near_deadline(self, reference_dist):
        for criterion in ("paper", "conditional"):
            p = ModelReusePolicy(reference_dist, criterion=criterion)
            assert p.decide(6.0, 21.0) is SchedulingDecision.NEW_VM

    def test_infinite_cost_past_support(self, reference_dist):
        cond = ModelReusePolicy(reference_dist, criterion="conditional")
        assert cond.reuse_cost(1.0, reference_dist.t_max + 1.0) == float("inf")


class TestFigure5Shape:
    def test_policy_caps_failure_probability(self, policy, baseline, reference_dist):
        """Our policy's curve equals the baseline early, then flattens at
        F(T); the baseline saturates at 1."""
        T = 6.0
        level = float(reference_dist.cdf(T))
        for s in (19.0, 21.0, 23.0):
            assert baseline.failure_probability(T, s) == 1.0
            assert policy.failure_probability(T, s) == pytest.approx(level)
        # Early on, both follow the same conditional probability.
        assert policy.failure_probability(T, 5.0) == pytest.approx(
            baseline.failure_probability(T, 5.0)
        )

    def test_policy_not_worse_outside_transition_window(self, policy, baseline):
        """The makespan criterion optimises expected *loss*, not failure
        probability, so right after the switch age it can briefly exceed
        the memoryless probability; before the switch and in the
        deadline-doomed region it must never be worse."""
        T = 6.0
        ca = policy.critical_age(T)
        for s in np.linspace(0.0, ca - 0.1, 20):
            assert policy.failure_probability(T, float(s)) <= baseline.failure_probability(
                T, float(s)
            ) + 1e-9
        for s in np.linspace(18.1, 24.0, 10):
            assert policy.failure_probability(T, float(s)) <= baseline.failure_probability(
                T, float(s)
            ) + 1e-9


class TestFigure6Average:
    def test_policy_halves_average_failure_probability(self, policy, baseline):
        """Paper: mid-length jobs see ~2x lower failure probability."""
        ours = average_failure_probability(policy, 6.0, num_ages=64)
        base = average_failure_probability(baseline, 6.0, num_ages=64)
        assert base / ours > 1.4

    def test_average_increases_with_job_length(self, baseline):
        probs = [
            average_failure_probability(baseline, T, num_ages=32)
            for T in (2.0, 6.0, 12.0, 20.0)
        ]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_validation(self, policy):
        with pytest.raises(ValueError):
            average_failure_probability(policy, 0.0)
        with pytest.raises(ValueError):
            average_failure_probability(policy, 1.0, max_age=0.0)


class TestBatchDecisions:
    """The vectorised decision layer must match the scalar path exactly."""

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    @pytest.mark.parametrize("job_length", [0.5, 6.0, 12.0])
    def test_decide_batch_matches_scalar(self, reference_dist, criterion, job_length):
        pol = ModelReusePolicy(reference_dist, criterion=criterion)
        ages = np.linspace(0.0, reference_dist.t_max + 2.0, 301)
        batch = pol.decide_batch(job_length, ages)
        scalar = np.array(
            [pol.decide(job_length, float(s)) is SchedulingDecision.REUSE for s in ages]
        )
        np.testing.assert_array_equal(batch, scalar)

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    def test_reuse_cost_batch_matches_scalar(self, reference_dist, criterion):
        pol = ModelReusePolicy(reference_dist, criterion=criterion)
        ages = np.linspace(0.0, reference_dist.t_max + 1.0, 101)
        batch = pol.reuse_cost_batch(6.0, ages)
        scalar = np.array([pol.reuse_cost(6.0, float(s)) for s in ages])
        np.testing.assert_array_equal(batch, scalar)

    def test_memoryless_batch_always_reuses(self, baseline):
        ages = np.linspace(0.0, 30.0, 50)
        assert baseline.decide_batch(6.0, ages).all()

    def test_failure_probability_batch_matches_scalar(self, policy, baseline):
        ages = np.linspace(0.0, 24.0, 97)
        for pol in (policy, baseline):
            batch = pol.failure_probability_batch(6.0, ages)
            scalar = np.array(
                [pol.failure_probability(6.0, float(s)) for s in ages]
            )
            np.testing.assert_array_equal(batch, scalar)

    def test_job_failure_probability_batch_matches_scalar(self, reference_dist):
        ages = np.linspace(0.0, reference_dist.t_max + 1.0, 97)
        batch = job_failure_probability_batch(reference_dist, 6.0, ages)
        scalar = np.array(
            [job_failure_probability(reference_dist, 6.0, float(s)) for s in ages]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_generic_distribution_fallback(self):
        """Laws without a closed-form moment use the scalar loop fallback."""
        from repro.distributions.exponential import ExponentialDistribution

        pol = ModelReusePolicy(ExponentialDistribution(rate=0.5))
        ages = np.linspace(0.0, pol.dist.t_max * 0.9, 25)
        batch = pol.decide_batch(3.0, ages)
        scalar = np.array(
            [pol.decide(3.0, float(s)) is SchedulingDecision.REUSE for s in ages]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_effective_start_ages(self, policy):
        ages = np.linspace(0.0, 24.0, 49)
        eff, reused = effective_start_ages(policy, 6.0, ages)
        np.testing.assert_array_equal(eff[reused], ages[reused])
        assert np.all(eff[~reused] == 0.0)
        # The Fig. 5 shape: reuse up to the critical age, fresh afterwards.
        ca = policy.critical_age(6.0)
        np.testing.assert_array_equal(reused, ages <= ca + 1e-9)

    def test_batch_validation(self, policy, baseline):
        with pytest.raises(ValueError):
            policy.decide_batch(6.0, np.array([-1.0]))
        with pytest.raises(ValueError):
            baseline.decide_batch(6.0, np.array([-1.0]))
        with pytest.raises(ValueError):
            job_failure_probability_batch(policy.dist, 0.0, np.array([1.0]))
        # NaN is rejected like the scalar check_* helpers reject it.
        nan = np.array([2.0, np.nan])
        with pytest.raises(ValueError):
            policy.decide_batch(6.0, nan)
        with pytest.raises(ValueError):
            policy.reuse_cost_batch(6.0, nan)
        with pytest.raises(ValueError):
            baseline.decide_batch(6.0, nan)
        with pytest.raises(ValueError):
            job_failure_probability_batch(policy.dist, 6.0, nan)
        with pytest.raises(ValueError):
            policy.decide_batch(float("nan"), np.array([1.0]))
        with pytest.raises(ValueError):
            job_failure_probability_batch(policy.dist, float("nan"), np.array([1.0]))
