"""Unit tests for the pure-Python reference helpers of the compiled walk.

``repro.sim.compiled`` carries the plan walk in plain Python (the
``"python"`` provider) as the reference its C source translates.  The
walk's two search helpers promise to equal NumPy exactly on the walk's
inputs: ``_interp1_py`` replicates ``np.interp`` over the lifetime
law's ppf grid, and ``_find_seg_py``/``_bisect_right_py`` replicate
``np.searchsorted(side="right")`` over the plan's cumulative
wall-clock.  The bucket hint and the average-duration guess are
accelerators only; these tests pin that they never change a result.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim.compiled import (
    _bisect_right_py,
    _find_seg_py,
    _interp1_py,
    _ppf_hint,
)

pytestmark = pytest.mark.compiled


def _cum_w(durations) -> np.ndarray:
    """The walk's cumulative wall-clock ``cum_w`` (``cum_w[0] == 0``)."""
    return np.concatenate([[0.0], np.cumsum(np.asarray(durations, dtype=float))])


def _find_seg_reference(a, v):
    return int(np.searchsorted(a, v, side="right")) - 1


def _check_find_seg(a, queries):
    K = a.size - 1
    inv_d = K / a[K]
    for k, v in queries:
        assert a[k] <= v  # the helper's precondition
        got = _find_seg_py(a, k, K + 1, v, inv_d)
        assert got == _find_seg_reference(a, v), (k, v)


class TestBisectRight:
    def test_matches_searchsorted_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = np.sort(rng.integers(0, 12, size=rng.integers(1, 30))).astype(float)
            lo = int(rng.integers(0, a.size + 1))
            hi = int(rng.integers(lo, a.size + 1))
            v = float(rng.integers(-1, 14))
            want = lo + int(np.searchsorted(a[lo:hi], v, side="right"))
            assert _bisect_right_py(a, lo, hi, v) == want

    def test_empty_window_returns_lo(self):
        a = np.arange(5, dtype=float)
        for lo in range(6):
            assert _bisect_right_py(a, lo, lo, 2.0) == lo


class TestFindSeg:
    def test_even_schedule_matches_searchsorted(self):
        """Equal segments: the average-duration guess lands on target."""
        a = _cum_w(np.full(40, 0.25))
        rng = np.random.default_rng(1)
        queries = []
        for _ in range(500):
            k = int(rng.integers(0, a.size))
            queries.append((k, a[k] + float(rng.uniform(0.0, 12.0))))
        _check_find_seg(a, queries)

    def test_exact_boundaries_resolve_right(self):
        """A budget ending exactly on a boundary completes that segment
        (``side="right"``), from every start index."""
        a = _cum_w(np.full(10, 0.5))
        _check_find_seg(a, [(k, a[j]) for k in range(a.size) for j in range(k, a.size)])

    def test_forward_scan_falls_back_to_bisection(self):
        """Short segments up front make the guess undershoot by far more
        than the 8-step local scan, which then bisects forward."""
        a = _cum_w([0.01] * 60 + [10.0] * 4)
        _check_find_seg(a, [(0, v) for v in np.linspace(0.0, a[-1] + 1.0, 401)])

    def test_backward_scan_falls_back_to_bisection(self):
        """Long segments up front make the guess overshoot by far more
        than the 8-step local scan, which then bisects backward."""
        a = _cum_w([10.0] * 4 + [0.01] * 60)
        _check_find_seg(a, [(0, v) for v in np.linspace(0.0, a[-1] + 1.0, 401)])

    def test_random_schedules_match_searchsorted(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = _cum_w(rng.lognormal(-1.0, 1.5, size=int(rng.integers(1, 80))))
            queries = []
            for _ in range(50):
                k = int(rng.integers(0, a.size))
                queries.append((k, a[k] + float(rng.exponential(a[-1] / 3.0))))
            _check_find_seg(a, queries)


class TestInterp1:
    @pytest.fixture()
    def grid(self, reference_dist):
        qx, qt = (np.ascontiguousarray(t, dtype=float) for t in reference_dist.ppf_table())
        hint, slopes, M = _ppf_hint(SimpleNamespace(), qx, qt)
        return qx, qt, hint, slopes, M

    @staticmethod
    def _check(qx, qt, hint, slopes, M, xs):
        gl = qx.size
        got = np.array([_interp1_py(float(x), qx, qt, gl, hint, slopes, M) for x in xs])
        np.testing.assert_array_equal(got, np.interp(xs, qx, qt))

    def test_matches_np_interp_on_the_ppf_grid(self, grid):
        rng = np.random.default_rng(3)
        self._check(*grid, rng.random(5000))

    def test_exact_nodes_and_bucket_edges(self, grid):
        """Queries on grid nodes and on the hint buckets' edges — where
        float rounding can misplace a bracket — stay exact."""
        qx, qt, hint, slopes, M = grid
        edges = np.arange(M + 1, dtype=float) / M
        self._check(*grid, np.concatenate([qx, edges, np.nextafter(edges, 0.0)]))

    def test_misplaced_hint_never_changes_the_result(self, grid):
        """The bucket bracket is advisory: a hint that is useless (all
        zeros) or shifted by one bucket still yields ``np.interp``."""
        qx, qt, hint, slopes, M = grid
        xs = np.random.default_rng(4).random(2000)
        self._check(qx, qt, np.zeros_like(hint), slopes, M, xs)
        self._check(qx, qt, np.roll(hint, 1), slopes, M, xs)
        self._check(qx, qt, np.roll(hint, -1), slopes, M, xs)

    def test_clamps_outside_the_grid(self):
        qx = np.array([0.1, 0.4, 0.9])
        qt = np.array([1.0, 2.0, 5.0])
        hint, slopes, M = _ppf_hint(SimpleNamespace(), qx, qt)
        self._check(qx, qt, hint, slopes, M, np.array([0.0, 0.05, 0.9, 0.95, 1.0]))


def test_ppf_hint_is_cached_per_grid():
    """The hint tables are cached on the distribution and rebuilt only
    when it hands over a different grid array."""
    holder = SimpleNamespace()
    qx = np.linspace(0.0, 1.0, 11)
    qt = qx**2
    first = _ppf_hint(holder, qx, qt)
    again = _ppf_hint(holder, qx, qt)
    assert again[0] is first[0] and again[1] is first[1]
    other = _ppf_hint(holder, qx.copy(), qt)
    assert other[0] is not first[0]
    np.testing.assert_array_equal(other[0], first[0])
