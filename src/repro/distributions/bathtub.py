"""The paper's constrained-preemption model as a sampling distribution.

Thin adapter exposing :class:`repro.core.model.ConstrainedPreemptionModel`
through the :class:`~repro.distributions.base.LifetimeDistribution`
interface, so the trace generator, the simulator, and the policies all
consume it exactly like any classical law.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.model import BathtubParams, ConstrainedPreemptionModel
from repro.distributions.base import LifetimeDistribution

__all__ = ["BathtubDistribution"]


class BathtubDistribution(LifetimeDistribution):
    """Bathtub lifetimes with CDF of paper Eq. 1 over ``[0, t_max]``."""

    def __init__(self, params: BathtubParams | Mapping[str, float] | ConstrainedPreemptionModel):
        super().__init__()
        if isinstance(params, ConstrainedPreemptionModel):
            self.model = params
        else:
            self.model = ConstrainedPreemptionModel(params)
        self.t_max = self.model.t_max

    @property
    def params(self) -> BathtubParams:
        """The underlying Eq. 1 parameters."""
        return self.model.params

    def cdf(self, t):
        return self.model.cdf(t)

    def pdf(self, t):
        return self.model.pdf(t)

    def sf(self, t):
        return self.model.sf(t)

    def hazard(self, t):
        return self.model.hazard(t)

    def ppf(self, q):
        return self.model.ppf(q)

    def ppf_table(self):
        """The model's exact ``(q, t)`` interpolation grid (see base class)."""
        return self.model._build_ppf_grid()

    def truncated_first_moment(self, a: float, c: float, *, num: int = 0) -> float:
        """Exact closed form via the Eq. 3 antiderivative."""
        return self.model.truncated_first_moment(a, c)

    def truncated_first_moment_batch(self, a, c, *, num: int = 0):
        """Exact closed form over arrays of bounds (one antiderivative pass)."""
        a_arr, c_arr = np.broadcast_arrays(
            np.asarray(a, dtype=float), np.asarray(c, dtype=float)
        )
        a_clip = np.clip(a_arr, 0.0, self.t_max)
        c_clip = np.clip(c_arr, 0.0, self.t_max)
        g = self.model.moment_antiderivative
        out = np.asarray(g(c_clip), dtype=float) - np.asarray(g(a_clip), dtype=float)
        return np.where(c_clip > a_clip, out, 0.0)

    def reuse_window_terms(self, ages, lengths):
        """Fused closed form of the base-class Eq. 8 window terms.

        One stacked pass over ``x``, the window starts
        ``a = min(s, t_max)`` followed by the window ends
        ``c = min(s+T, t_max)``: a single ``np.exp`` call takes all four
        exponent sets, ``e^{-x/tau1}`` and ``e^{(x-b)/tau2}`` at both
        bounds, and the Eq. 3 antiderivative ``G`` and the clipped Eq. 1
        CDF ``F`` are each evaluated once over ``x``, then split back
        into the start's shape (the age's) and the end's (the broadcast
        shape).  Every element goes through the operations of
        :meth:`ConstrainedPreemptionModel.moment_antiderivative` and
        :meth:`ConstrainedPreemptionModel.cdf` in their order, so the
        three terms are bit-identical to the base composition on its
        domain (``s >= 0``, ``T > 0``).  Clipping the start age at
        ``t_max`` leaves ``F(s)`` unchanged: the CDF is pinned to 1 from
        ``t_max`` on.
        """
        p = self.model.params
        A, tau1, tau2, b = p.A, p.tau1, p.tau2, p.b
        t_max = self.t_max
        s = np.asarray(ages, dtype=float)
        a = np.minimum(s, t_max)
        c = np.minimum(s + np.asarray(lengths, dtype=float), t_max)
        x = np.concatenate((a.ravel(), c.ravel()))
        m = x.size
        e = np.exp(np.concatenate((-x / tau1, (x - b) / tau2)))
        e1, e2 = e[:m], e[m:]
        g = A * (-(x + tau1) * e1 + (x - tau2) * e2)
        # np.clip(raw, 0, 1) spelled as its two ufuncs (same bits, less
        # call overhead on the kernels' small arrays).
        f = np.where(
            x >= t_max, 1.0, np.minimum(np.maximum(A * (1.0 - e1 + e2), 0.0), 1.0)
        )
        n = a.size
        g_a, g_c = g[:n].reshape(a.shape), g[n:].reshape(c.shape)
        f_a, f_c = f[:n].reshape(a.shape), f[n:].reshape(c.shape)
        moment = np.where(c > a, g_c - g_a, 0.0)
        return moment, 1.0 - f_a, f_c - f_a

    def mean(self) -> float:
        return self.model.expected_lifetime()

    def sample(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        return self.model.sample(n, rng)
