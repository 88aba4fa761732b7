"""The kernels' trailing-window runtime estimate equals ``BagOfJobs``.

The service and tenancy kernels judge Eq. 8 against a bag runtime
estimate that must be bit-equal to the controller's
:meth:`repro.service.bag.BagOfJobs.estimated_runtime`, or the two
backends drift apart.  Both buffer shapes of the one shared update are
fuzzed here with exact equality: one bag per row (service) and one
estimate per row and bag (tenancy).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distributions.exponential import ExponentialDistribution
from repro.service.api import BagRequest, JobRequest
from repro.service.bag import BagOfJobs
from repro.sim.cluster_vectorized import GangJob
from repro.sim.service_vectorized import ServiceBatchConfig, _ServiceKernel
from repro.sim.tenancy_vectorized import BagSubmission, TenancyConfig, _TenancyKernel

DIST = ExponentialDistribution(1.0)
HOURS = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def _bag(hours, window: int) -> BagOfJobs:
    return BagOfJobs(0, BagRequest([JobRequest(h) for h in hours]), window=window)


@st.composite
def _completions(draw, n_rows: int, n_jobs: int):
    """Steps of (completing rows, the job each completes)."""
    steps = []
    for _ in range(draw(st.integers(0, 60))):
        rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, unique=True))
        jobs = [draw(st.integers(0, n_jobs - 1)) for _ in rows]
        steps.append((np.asarray(sorted(rows)), np.asarray(jobs)))
    return steps


class TestEstimateMatchesBagOfJobs:
    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 20),
        n_rows=st.integers(1, 4),
        hours=st.lists(HOURS, min_size=1, max_size=8),
        data=st.data(),
    )
    def test_one_bag_per_row(self, window, n_rows, hours, data):
        jobs = [GangJob(h, 1) for h in hours]
        kernel = _ServiceKernel(
            DIST, jobs, ServiceBatchConfig(max_vms=2, estimate_window=window),
            n_rows, np.random.default_rng(0), 10,
        )
        bags = [_bag(hours, window) for _ in range(n_rows)]
        for rows, jj in data.draw(_completions(n_rows, len(hours))):
            kernel._record_completion(rows, jj)
            for r, j in zip(rows, jj):
                bags[r].record_completion(hours[j])
            want = np.array([bag.estimated_runtime() for bag in bags])
            assert np.array_equal(kernel.est, want)

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 20),
        n_rows=st.integers(1, 3),
        bag_hours=st.lists(
            st.lists(HOURS, min_size=1, max_size=4), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    def test_one_estimate_per_row_and_bag(self, window, n_rows, bag_hours, data):
        traffic = tuple(
            BagSubmission(k, float(k), tuple(GangJob(h, 1) for h in hours))
            for k, hours in enumerate(bag_hours)
        )
        kernel = _TenancyKernel(
            DIST, traffic, len(bag_hours),
            TenancyConfig(max_vms=2, estimate_window=window),
            n_rows, np.random.default_rng(0), 10,
        )
        flat = [h for hours in bag_hours for h in hours]
        bag_of = [k for k, hours in enumerate(bag_hours) for _ in hours]
        bags = [[_bag(hours, window) for hours in bag_hours] for _ in range(n_rows)]
        for rows, jj in data.draw(_completions(n_rows, len(flat))):
            kernel._record_completion(rows, jj)
            for r, j in zip(rows, jj):
                bags[r][bag_of[j]].record_completion(flat[j])
            want = np.array([[bag.estimated_runtime() for bag in row] for row in bags])
            assert np.array_equal(kernel.est, want)
