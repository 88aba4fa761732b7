"""The Eq. 8 hot path: fused window terms, batched gap grids, and the
kernels' one-judgment-per-pass contract.

Every fast path here must be *bit-identical* to the composition it
replaces, so the assertions use exact equality (``np.array_equal``,
``==``), never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from repro.core.model import BathtubParams
from repro.distributions.base import LifetimeDistribution
from repro.distributions.bathtub import BathtubDistribution
from repro.distributions.exponential import ExponentialDistribution
from repro.policies.scheduling import ModelReusePolicy
from repro.sim.cluster_vectorized import GangJob
from repro.sim.service_vectorized import ServiceBatchConfig, _ServiceKernel
from repro.sim.tenancy_vectorized import BagSubmission, TenancyConfig, _TenancyKernel


class _ComposedBathtub(BathtubDistribution):
    """The bathtub law with the base-class window-terms composition."""

    reuse_window_terms = LifetimeDistribution.reuse_window_terms


_params = st.builds(
    BathtubParams,
    A=st.floats(0.3, 0.6),
    tau1=st.floats(0.3, 5.0),
    tau2=st.floats(0.3, 2.0),
    b=st.floats(18.0, 26.0),
)


def _ages(draw, t_max: float, lengths: np.ndarray, shape) -> np.ndarray:
    """Ages mixing the edge cases: 0, just below / at / past ``t_max``,
    and ``s + T`` straddling ``t_max`` (against the broadcast length)."""
    T = np.broadcast_to(lengths, shape)
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            out[idx] = draw(st.floats(0.0, 1.2 * t_max))
        elif kind == 1:
            out[idx] = draw(
                st.sampled_from(
                    [0.0, t_max, np.nextafter(t_max, 0.0), t_max - 1e-9,
                     np.nextafter(t_max, np.inf), t_max + 0.5, 3.0 * t_max]
                )
            )
        else:  # window edge straddling t_max
            d = draw(st.sampled_from([-1.0, -1e-9, 0.0, 1e-9, 1.0]))
            out[idx] = max(t_max - float(T[idx]) + d, 0.0)
    return out


def _lengths(draw, shape) -> np.ndarray:
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        out[idx] = draw(
            st.one_of(st.just(1e-6), st.floats(1e-6, 40.0), st.just(25.0))
        )
    return out


@st.composite
def _cases(draw):
    """``(params, lengths, ages)`` in the kernels' ``(k, 1) x (k, S)``
    shape or the scalar-length x age-array shape."""
    params = draw(_params)
    t_max = BathtubDistribution(params).t_max
    if draw(st.booleans()):
        k, S = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        T = _lengths(draw, (k, 1))
        return params, T, _ages(draw, t_max, T, (k, S))
    T = _lengths(draw, ())
    return params, T, _ages(draw, t_max, T, (draw(st.integers(1, 12)),))


class TestFusedWindowTerms:
    @settings(max_examples=150, deadline=None)
    @given(_cases())
    def test_override_matches_base_composition(self, case):
        params, T, s = case
        fused = BathtubDistribution(params).reuse_window_terms(s, T)
        composed = _ComposedBathtub(params).reuse_window_terms(s, T)
        for got, want in zip(fused, composed):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(_cases(), st.sampled_from(["paper", "conditional"]))
    def test_reuse_cost_pairs_matches_base_composition(self, case, criterion):
        params, T, s = case
        fused = ModelReusePolicy(BathtubDistribution(params), criterion)
        composed = ModelReusePolicy(_ComposedBathtub(params), criterion)
        assert np.array_equal(
            fused.reuse_cost_pairs(T, s), composed.reuse_cost_pairs(T, s)
        )

    @settings(max_examples=150, deadline=None)
    @given(_cases(), st.sampled_from(["paper", "conditional"]))
    def test_decide_pairs_fresh_column_matches_two_calls(self, case, criterion):
        """The fresh-VM cost folded into the aged pass decides exactly
        like the separate age-0 evaluation."""
        params, T, s = case
        pol = ModelReusePolicy(BathtubDistribution(params), criterion)
        aged = pol.reuse_cost_pairs(T, s)
        fresh = pol.reuse_cost_pairs(T, np.zeros_like(T))
        want = (aged <= fresh) & (s < pol.dist.t_max)
        assert np.array_equal(pol.decide_pairs(T, s), want)

    def test_scalar_age_with_length_array(self, reference_dist):
        """Scalar x array in the other direction (the critical-length grid)."""
        T = np.linspace(1e-6, reference_dist.t_max, 97)
        for s in (0.0, 5.0, reference_dist.t_max, reference_dist.t_max + 1.0):
            fused = reference_dist.reuse_window_terms(s, T)
            composed = LifetimeDistribution.reuse_window_terms(reference_dist, s, T)
            for got, want in zip(fused, composed):
                assert np.array_equal(got, want)


def _critical_age_loop(pol: ModelReusePolicy, T: float, tol: float = 1e-6) -> float:
    """The scalar-loop reference the batched grid replaced."""
    fresh = pol.reuse_cost(T, 0.0)

    def gap(s):
        return pol.reuse_cost(T, s) - fresh

    hi = pol.dist.t_max - T
    if hi <= 0.0:
        return 0.0
    grid = np.linspace(0.0, hi, 512)
    values = np.array([gap(float(s)) for s in grid])
    nonpos = np.flatnonzero(values <= 0.0)
    if nonpos.size == 0:
        return 0.0
    k = int(nonpos[-1])
    if k == len(grid) - 1 or values[k + 1] <= 0.0:
        return hi
    return float(brentq(gap, float(grid[k]), float(grid[k + 1]), xtol=tol))


def _critical_length_loop(pol: ModelReusePolicy, s: float, tol: float = 1e-6) -> float:
    def gap(T):
        return pol.reuse_cost(T, s) - pol.reuse_cost(T, 0.0)

    lengths = np.linspace(1e-3, pol.dist.t_max, 512)
    values = np.array([gap(float(T)) for T in lengths])
    pos = np.flatnonzero(values > 0.0)
    if pos.size == 0:
        return float("inf")
    k = int(pos[0])
    if k == 0:
        return float(lengths[0])
    return float(brentq(gap, float(lengths[k - 1]), float(lengths[k]), xtol=tol))


class TestCriticalPointsExact:
    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    @pytest.mark.parametrize("T", [0.5, 1.0, 4.0, 6.0, 12.0, 25.0])
    def test_critical_age_matches_scalar_loop(self, reference_dist, criterion, T):
        pol = ModelReusePolicy(reference_dist, criterion)
        assert pol.critical_age(T) == _critical_age_loop(pol, T)

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    @pytest.mark.parametrize("s", [0.0, 0.5, 6.0, 12.0, 18.0, 22.5, 30.0])
    def test_critical_job_length_matches_scalar_loop(
        self, reference_dist, criterion, s
    ):
        pol = ModelReusePolicy(reference_dist, criterion)
        assert pol.critical_job_length(s) == _critical_length_loop(pol, s)

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    def test_generic_law_matches_scalar_loop(self, criterion):
        pol = ModelReusePolicy(ExponentialDistribution(rate=0.5), criterion)
        assert pol.critical_age(3.0) == _critical_age_loop(pol, 3.0)
        assert pol.critical_job_length(2.0) == _critical_length_loop(pol, 2.0)


@pytest.fixture()
def eq8_calls(monkeypatch):
    """Record the ``(job_lengths, vm_ages)`` shapes of every Eq. 8 call."""
    calls = []
    original = ModelReusePolicy.decide_pairs

    def counted(self, job_lengths, vm_ages):
        calls.append((np.shape(job_lengths), np.shape(vm_ages)))
        return original(self, job_lengths, vm_ages)

    monkeypatch.setattr(ModelReusePolicy, "decide_pairs", counted)
    return calls


def _stalled_state(kernel) -> None:
    """Rows 0-1 hold one idle worker each (the head needs two); rows
    2-3 hold none.  Every row's head is stuck."""
    kernel.now[:] = 1.0
    kernel.alive[:2, 0] = True
    kernel.launch[:2, 0] = 0.5
    kernel.vm_pool[:2, 0] = 0
    kernel.death[:2, 0] = 30.0


class TestOneJudgmentPerPass:
    def test_service_stalled_pass(self, reference_dist, eq8_calls):
        jobs = [GangJob(2.0, 2), GangJob(1.0, 1)]
        kernel = _ServiceKernel(
            reference_dist, jobs, ServiceBatchConfig(max_vms=4), 4,
            np.random.default_rng(0), 10_000,
        )
        _stalled_state(kernel)
        kernel._schedule_pass(np.arange(4))
        # One call for the one judged head per row, over the two rows
        # with a free worker only; the stall acts on that judgment.
        assert eq8_calls == [((2, 1), (2, kernel.S))]
        assert (kernel.provisioning > 0).all()

    def test_tenancy_stalled_pass(self, reference_dist, eq8_calls):
        traffic = (BagSubmission(0, 0.0, (GangJob(2.0, 2), GangJob(1.0, 1))),)
        kernel = _TenancyKernel(
            reference_dist, traffic, 1, TenancyConfig(max_vms=4), 4,
            np.random.default_rng(0), 10_000,
        )
        rows = np.arange(4)  # the bag has arrived; job 0 heads it
        kernel._enqueue(rows, np.zeros(4, dtype=np.int64), 0.0)
        kernel._enqueue(rows, np.ones(4, dtype=np.int64), 1.0)
        _stalled_state(kernel)
        kernel._schedule_pass(np.arange(4))
        assert eq8_calls == [((2, 1), (2, kernel.S))]
        assert (kernel.provisioning > 0).all()

    def test_no_free_rows_no_call(self, reference_dist, eq8_calls):
        jobs = [GangJob(2.0, 2)]
        kernel = _ServiceKernel(
            reference_dist, jobs, ServiceBatchConfig(max_vms=4), 3,
            np.random.default_rng(0), 10_000,
        )
        kernel._schedule_pass(np.arange(3))
        assert eq8_calls == []
        assert (kernel.provisioning == 2).all()
