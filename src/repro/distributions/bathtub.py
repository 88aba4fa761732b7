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

        Four exponentials — ``e^{-x/tau1}`` and ``e^{(x-b)/tau2}`` at
        ``x = min(s, t_max)`` and ``x = min(s+T, t_max)`` — shared
        between the Eq. 3 antiderivative ``G`` and the Eq. 1 CDF ``F``.
        Every expression repeats the operation order of
        :meth:`ConstrainedPreemptionModel.moment_antiderivative` and
        :meth:`ConstrainedPreemptionModel.cdf`, so the three terms are
        bit-identical to the base composition on its domain
        (``s >= 0``, ``T > 0``).  Clipping the start age at ``t_max``
        leaves ``F(s)`` unchanged: the CDF is pinned to 1 from
        ``t_max`` on.
        """
        p = self.model.params
        A, tau1, tau2, b = p.A, p.tau1, p.tau2, p.b
        t_max = self.t_max
        s = np.asarray(ages, dtype=float)
        a = np.minimum(s, t_max)
        c = np.minimum(s + np.asarray(lengths, dtype=float), t_max)
        a1, a2 = np.exp(-a / tau1), np.exp((a - b) / tau2)
        c1, c2 = np.exp(-c / tau1), np.exp((c - b) / tau2)
        g_a = A * (-(a + tau1) * a1 + (a - tau2) * a2)
        g_c = A * (-(c + tau1) * c1 + (c - tau2) * c2)
        moment = np.where(c > a, g_c - g_a, 0.0)
        # np.clip(raw, 0, 1) spelled as its two ufuncs (same bits, less
        # call overhead on the kernels' small arrays).
        f_a = np.where(
            a >= t_max, 1.0, np.minimum(np.maximum(A * (1.0 - a1 + a2), 0.0), 1.0)
        )
        f_c = np.where(
            c >= t_max, 1.0, np.minimum(np.maximum(A * (1.0 - c1 + c2), 0.0), 1.0)
        )
        return moment, 1.0 - f_a, f_c - f_a

    def mean(self) -> float:
        return self.model.expected_lifetime()

    def sample(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        return self.model.sample(n, rng)
