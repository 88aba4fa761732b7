"""The Eq. 8 hot path: fused window terms, batched gap grids, the
kernels' cell judgment and their one-judgment-per-pass contract.

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
from repro.policies.scheduling import ModelReusePolicy, SchedulingDecision
from repro.sim.cluster_vectorized import ClusterConfig, GangJob, _ClusterKernel
from repro.sim.placement import PoolSpec
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
    """``(params, lengths, ages)`` in the kernels' equal-shape 1-D cell
    shape (each row's length repeated over its free cells, rows with
    none and all-empty calls included), the ``(k, 1) x (k, S)`` row
    shape or the scalar-length x age-array shape."""
    params = draw(_params)
    t_max = BathtubDistribution(params).t_max
    shape = draw(st.sampled_from(["cells", "rows", "scalar"]))
    if shape == "cells":
        rows = _lengths(draw, (draw(st.integers(1, 6)),))
        T = np.repeat(rows, [draw(st.integers(0, 4)) for _ in rows])
        return params, T, _ages(draw, t_max, T, T.shape)
    if shape == "rows":
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
        """The fresh-VM costs, taken once per length and folded into
        the aged pass, decide exactly like the separate age-0
        evaluation at every element."""
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


def _strided(draw, arr: np.ndarray) -> np.ndarray:
    """A non-contiguous view holding ``arr``'s values: every other
    element of a wider buffer, or a double flip (negative strides)."""
    if draw(st.booleans()):
        buf = np.zeros(arr.shape + (2,))
        buf[..., 0] = arr
        return buf[..., 0]
    return np.flip(np.flip(arr).copy())


#: ``(age shape, length shape)`` pairs with no element, in the kernels'
#: cell, row and scalar layouts.
_EMPTY_SHAPES = [
    ((0,), (0,)), ((0,), ()), ((), (0,)), ((3, 0), (3, 1)), ((0, 4), (0, 1))
]


class TestStackedPass:
    """The stacked ``x = (a, c)`` layout of the bathtub override: each
    element's terms do not depend on where the element sits."""

    @settings(max_examples=100, deadline=None)
    @given(_cases())
    def test_each_element_matches_its_one_element_call(self, case):
        params, T, s = case
        dist, ref = BathtubDistribution(params), _ComposedBathtub(params)
        moment, surv, mass = dist.reuse_window_terms(s, T)
        shape = moment.shape
        surv = np.broadcast_to(surv, shape)
        s_b, T_b = np.broadcast_to(s, shape), np.broadcast_to(T, shape)
        for idx in np.ndindex(*shape):
            one = (np.array([s_b[idx]]), np.array([T_b[idx]]))
            got = dist.reuse_window_terms(*one)
            want = ref.reuse_window_terms(*one)
            for term, g, w in zip((moment, surv, mass), got, want):
                assert g[0] == term[idx]
                assert np.array_equal(g, w)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_strided_views_match_contiguous_copies(self, data):
        params, T, s = data.draw(_cases())
        dist = BathtubDistribution(params)
        s_view, T_view = _strided(data.draw, s), _strided(data.draw, T)
        assert np.array_equal(s_view, s) and np.array_equal(T_view, T)
        got = dist.reuse_window_terms(s_view, T_view)
        want = dist.reuse_window_terms(
            np.ascontiguousarray(s), np.ascontiguousarray(T)
        )
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)

    @settings(max_examples=30, deadline=None)
    @given(_params, st.sampled_from(_EMPTY_SHAPES))
    def test_empty_inputs_give_empty_terms_of_the_base_shapes(self, params, shapes):
        s_shape, T_shape = shapes
        s, T = np.zeros(s_shape), np.ones(T_shape)
        got = BathtubDistribution(params).reuse_window_terms(s, T)
        want = _ComposedBathtub(params).reuse_window_terms(s, T)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)
        moment, surv, mass = got
        assert moment.size == mass.size == 0
        assert np.shape(surv) == s_shape  # a scalar age keeps its S(s)


class TestAllAliveFastPath:
    """Both branches of ``reuse_cost_pairs``' all-alive shortcut equal
    the base composition, under both criteria."""

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    def test_every_age_below_t_max(self, reference_dist, criterion):
        t_max = reference_dist.t_max
        s = np.array([0.0, 0.5, 6.0, 18.0, t_max - 1.0, np.nextafter(t_max, 0.0)])
        T = np.array([1.0, 4.0, 4.0, 12.0, 2.0, 0.5])
        fused = ModelReusePolicy(reference_dist, criterion)
        composed = ModelReusePolicy(_ComposedBathtub(reference_dist.model), criterion)
        assert (reference_dist.reuse_window_terms(s, T)[1] > 0.0).all()
        cost = fused.reuse_cost_pairs(T, s)
        assert np.isfinite(cost).all()
        assert np.array_equal(cost, composed.reuse_cost_pairs(T, s))
        assert np.array_equal(fused.decide_pairs(T, s), composed.decide_pairs(T, s))

    @pytest.mark.parametrize("criterion", ["paper", "conditional"])
    @pytest.mark.parametrize("dead", ["at", "past"])
    def test_one_age_at_or_past_t_max(self, reference_dist, criterion, dead):
        t_max = reference_dist.t_max
        edge = t_max if dead == "at" else t_max + 0.5
        s = np.array([0.5, edge, 6.0])
        T = np.array([4.0, 4.0, 4.0])
        fused = ModelReusePolicy(reference_dist, criterion)
        composed = ModelReusePolicy(_ComposedBathtub(reference_dist.model), criterion)
        assert reference_dist.reuse_window_terms(s, T)[1][1] == 0.0
        cost = fused.reuse_cost_pairs(T, s)
        assert np.array_equal(cost, composed.reuse_cost_pairs(T, s))
        if criterion == "conditional":
            assert cost[1] == np.inf and np.isfinite(cost[[0, 2]]).all()
        verdict = fused.decide_pairs(T, s)
        assert np.array_equal(verdict, composed.decide_pairs(T, s))
        assert not verdict[1]
        assert fused.decide(4.0, edge) is SchedulingDecision.NEW_VM


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
        assert eq8_calls == [((2,), (2,))]
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
        assert eq8_calls == [((2,), (2,))]
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


#: Three pool laws with distinct supports (t_max 24.2, 20.9 and 17.9 h).
_POOL_LAWS = tuple(
    BathtubDistribution(BathtubParams(A, tau1, tau2, b))
    for A, tau1, tau2, b in [
        (0.45, 1.0, 0.8, 24.0), (0.35, 3.0, 1.5, 20.0), (0.55, 0.5, 0.5, 18.0)
    ]
)
_CELL_JOBS = [GangJob(2.0, 2), GangJob(1.0, 1), GangJob(5.0, 1)]


def _cell_kernel(kind: str, n_pools: int, latency: float, n: int):
    """A service or cluster kernel over 1 or 3 pools of two slots each."""
    pools = None
    if n_pools > 1:
        pools = tuple(
            PoolSpec(
                f"p{i}", 2, dist=law,
                boot_latency=None if kind == "cluster" else latency * i,
            )
            for i, law in enumerate(_POOL_LAWS[:n_pools])
        )
    size = 2 * n_pools
    rng = np.random.default_rng(0)
    if kind == "cluster":
        cfg = ClusterConfig(pool_size=size, pools=pools)
        return _ClusterKernel(_POOL_LAWS[0], _CELL_JOBS, cfg, n, rng, 10_000)
    cfg = ServiceBatchConfig(max_vms=size, provision_latency=latency, pools=pools)
    return _ServiceKernel(_POOL_LAWS[0], _CELL_JOBS, cfg, n, rng, 10_000)


@st.composite
def _cell_states(draw, kinds=("service", "cluster")):
    """A kernel with a drawn fleet: per cell dead, busy or free, its
    pool, and an age at 0, at the boot-grace edge, just below, at or
    past its pool's ``t_max``, anywhere, or negative (a launch after
    ``now``, which the judged age clamps to 0).  Some rows hold no free
    VM.  Returns ``(kernel, rr, free, T)`` with ``rr`` a drawn subset of
    the rows in drawn order and ``T`` its per-row head lengths, 0 and
    sub-clamp lengths included."""
    kind = draw(st.sampled_from(kinds))
    n_pools = draw(st.sampled_from([1, 3]))
    latency = 0.0 if kind == "cluster" else draw(st.sampled_from([0.0, 0.25, 1.0]))
    n = draw(st.integers(1, 5))
    k = _cell_kernel(kind, n_pools, latency, n)
    for r in range(n):
        k.now[r] = draw(st.sampled_from([0.0, 3.0, 7.5]))
        no_free = draw(st.integers(0, 3)) == 0
        for c in range(k.S):
            p = draw(st.integers(0, n_pools - 1))
            t_max = _POOL_LAWS[p].t_max
            grace = k.latency[p]
            age = draw(
                st.one_of(
                    st.sampled_from(
                        [0.0, grace, np.nextafter(grace, np.inf),
                         np.nextafter(t_max, 0.0), t_max, t_max + 0.5, -0.3]
                    ),
                    st.floats(0.0, 1.2 * t_max),
                )
            )
            state = draw(st.sampled_from(["dead", "busy", "free", "free"]))
            if no_free and state == "free":
                state = "busy"
            k.alive[r, c] = state != "dead"
            k.vm_job[r, c] = 0 if state == "busy" else -1
            k.vm_pool[r, c] = p if state != "dead" else -1
            k.launch[r, c] = k.now[r] - age
        k.progress[r] = [draw(st.floats(0.0, 6.0)) for _ in range(k.J)]
    rr = np.asarray(draw(st.permutations(range(n))))[: draw(st.integers(1, n))]
    free = k.alive[rr] & (k.vm_job[rr] == -1)
    T = np.asarray(
        [
            draw(st.one_of(st.sampled_from([0.0, 1e-9, 1e-6, 25.0]), st.floats(1e-6, 40.0)))
            for _ in rr
        ]
    )
    return k, rr, free, T


def _full_row_pure(kernel, rr, T):
    """Pure Eq. 8 on whole fleet rows, each VM under its pool's law:
    the row judgment the cell path replaced.  ``T`` broadcasts against
    the ``(len(rr), S)`` ages from the left."""
    ages = np.maximum(kernel.now[rr][:, None] - kernel.launch[rr], 0.0)
    vp = kernel.vm_pool[rr]
    if T.ndim == 3:  # (R, J, 1) lengths: per-job rows
        ages, vp = ages[:, None, :], vp[:, None, :]
    pure = np.zeros(np.broadcast_shapes(T.shape, ages.shape), dtype=bool)
    for p, pol in enumerate(kernel.policies):
        pure |= (vp == p) & pol.decide_pairs(T, ages)
    return pure, ages, vp


class TestCellJudgment:
    """The cell judgment equals the full-row judgment it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_cell_states())
    def test_judge_matches_full_row_reference(self, state):
        k, rr, free, T = state
        pure, ages, vp = _full_row_pure(k, rr, np.maximum(T, 1e-6)[:, None])
        grace = False
        if isinstance(k, _ServiceKernel):
            grace = ages <= k.latency[np.clip(vp, 0, None)]
        want = free & (pure | grace)
        assert np.array_equal(k._judge(rr, free, T), want)

    @settings(max_examples=100, deadline=None)
    @given(_cell_states(kinds=("cluster",)))
    def test_cluster_backfill_suit_matches_full_row_reference(self, state):
        """The ``(R, J, S)`` per-job mask: every free cell under every
        job's remaining hours."""
        k, rr, free, _ = state
        T = np.maximum(k.work[None, :] - k.progress[rr], 1e-6)[:, :, None]
        want = free[:, None, :] & _full_row_pure(k, rr, T)[0]
        got = k._backfill_suit(rr, free)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
