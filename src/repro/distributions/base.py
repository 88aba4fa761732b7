"""Abstract lifetime-distribution interface.

Concrete subclasses implement ``cdf`` and ``pdf``; the base class derives
survival, hazard, sampling (inverse transform through a cached
interpolation table), and truncated first moments numerically.  Subclasses
with closed forms (exponential, bathtub) override the derived methods for
speed and exactness.

Design notes (HPC guide idioms):

* every method is vectorised — scalars in, scalars out; arrays in, arrays
  out — with no Python loops over elements;
* the inverse-CDF table is built lazily once and reused (cache, don't
  recompute);
* numeric moments use a single trapezoid pass over a shared grid.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.integrate import first_moment

__all__ = ["LifetimeDistribution"]

_PPF_TABLE_SIZE = 4097


class LifetimeDistribution(abc.ABC):
    """A distribution of non-negative VM lifetimes with bounded interest window.

    Attributes
    ----------
    t_max:
        Right edge used for sampling tables and numeric moments.  For
        deadline-bounded laws this is the true support edge; for unbounded
        laws (exponential, Weibull, ...) it is a practical horizon far into
        the tail (subclasses choose it so that ``F(t_max) ~ 1``).
    """

    #: Subclasses must set this in ``__init__``.
    t_max: float

    def __init__(self) -> None:
        self._ppf_grid: tuple[np.ndarray, np.ndarray] | None = None

    # -- abstract ------------------------------------------------------
    @abc.abstractmethod
    def cdf(self, t):
        """Cumulative distribution function, clamped to [0, 1]."""

    @abc.abstractmethod
    def pdf(self, t):
        """Probability density function (0 outside the support)."""

    # -- derived -------------------------------------------------------
    def sf(self, t):
        """Survival function ``1 - F(t)``."""
        t_arr = np.asarray(t, dtype=float)
        out = 1.0 - np.asarray(self.cdf(t_arr), dtype=float)
        return out if out.ndim else float(out)

    def hazard(self, t):
        """Hazard rate ``f(t)/S(t)`` (``inf`` where survival is 0)."""
        t_arr = np.asarray(t, dtype=float)
        f = np.asarray(self.pdf(t_arr), dtype=float)
        s = np.asarray(self.sf(t_arr), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > 0.0, f / np.where(s > 0.0, s, 1.0), np.inf)
        return out if out.ndim else float(out)

    def truncated_first_moment(self, a: float, c: float, *, num: int = 4097) -> float:
        """``int_a^c t f(t) dt``; numeric by default, exact in subclasses."""
        a = max(float(a), 0.0)
        c = min(float(c), self.t_max)
        if c <= a:
            return 0.0
        return first_moment(self.pdf, a, c, num=num)

    def truncated_first_moment_batch(self, a, c, *, num: int = 4097):
        """Vectorised ``int_a^c t f(t) dt`` over arrays of bounds.

        The generic implementation loops over the scalar
        :meth:`truncated_first_moment` (one numeric integration per
        element, elementwise identical to the scalar calls); subclasses
        with a closed-form antiderivative override it with one array
        pass.  Used by the batched Eq. 8 reuse decision in
        :mod:`repro.policies.scheduling`.
        """
        a_arr, c_arr = np.broadcast_arrays(
            np.asarray(a, dtype=float), np.asarray(c, dtype=float)
        )
        flat = np.array(
            [
                self.truncated_first_moment(float(x), float(y), num=num)
                for x, y in zip(a_arr.ravel(), c_arr.ravel())
            ],
            dtype=float,
        )
        return flat.reshape(a_arr.shape)

    def reuse_window_terms(self, ages, lengths):
        """The three Eq. 8 terms of a job window, over broadcast arrays.

        For a job of length ``T`` started on a VM aged ``s`` (``s >= 0``,
        ``T > 0``; callers validate), returns ``(moment, surv, mass)``:

        * ``moment`` — ``int_s^{s+T} t f(t) dt`` with both bounds clipped
          to ``[0, t_max]`` (:meth:`truncated_first_moment_batch`);
        * ``surv`` — survival ``S(s)`` at the start age;
        * ``mass`` — the failure mass ``F(min(s+T, t_max)) - F(s)`` of
          the window.

        This composition is the reference every override must match
        bit for bit; laws with a closed form (bathtub) override it with
        one fused pass that shares the transcendental terms.  Consumed
        by :meth:`repro.policies.scheduling.ModelReusePolicy.reuse_cost_pairs`.
        """
        s = np.asarray(ages, dtype=float)
        end = s + np.asarray(lengths, dtype=float)
        moment = np.asarray(self.truncated_first_moment_batch(s, end), dtype=float)
        surv = np.asarray(self.sf(s), dtype=float)
        mass = np.asarray(
            self.cdf(np.minimum(end, self.t_max)), dtype=float
        ) - np.asarray(self.cdf(s), dtype=float)
        return moment, surv, mass

    def mean(self) -> float:
        """Mean lifetime over ``[0, t_max]``."""
        return self.truncated_first_moment(0.0, self.t_max)

    # -- sampling --------------------------------------------------------
    def _build_ppf_grid(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ppf_grid is None:
            t = np.linspace(0.0, self.t_max, _PPF_TABLE_SIZE)
            q = np.asarray(self.cdf(t), dtype=float)
            # Enforce monotonicity against floating-point wobble so that
            # np.interp gives a well-defined inverse.
            q = np.maximum.accumulate(q)
            self._ppf_grid = (q, t)
        return self._ppf_grid

    def ppf(self, q):
        """Inverse CDF via the cached interpolation table."""
        grid_q, grid_t = self._build_ppf_grid()
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0.0) | (q_arr > 1.0)):
            raise ValueError("quantiles must lie in [0, 1]")
        out = np.interp(q_arr, grid_q, grid_t)
        return out if out.ndim else float(out)

    def ppf_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(q, t)`` grid with ``ppf(q) == np.interp(q, *table)``, or ``None``.

        The compiled replication backend (:mod:`repro.sim.compiled`)
        evaluates the inverse CDF inside its inner loop; to stay
        bit-identical to the NumPy kernels it needs the exact
        interpolation table ``ppf`` reads.  Subclasses that override
        :meth:`ppf` with a closed form return ``None`` (the compiled
        path then falls back to Python-side ``ppf`` rows).
        """
        if type(self).ppf is not LifetimeDistribution.ppf:
            return None
        return self._build_ppf_grid()

    def sample(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``n`` lifetimes (inverse-transform sampling)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if rng is None:
            rng = np.random.default_rng()
        return np.asarray(self.ppf(rng.random(n)), dtype=float)

    # -- conveniences ----------------------------------------------------
    def conditional_failure_probability(self, s: float, width: float) -> float:
        """``P(T <= s + width | T > s)``; 1.0 when survival at ``s`` is 0."""
        s = max(float(s), 0.0)
        width = max(float(width), 0.0)
        surv = float(np.asarray(self.sf(s), dtype=float))
        if surv <= 0.0:
            return 1.0
        delta = float(np.asarray(self.cdf(s + width), dtype=float)) - float(
            np.asarray(self.cdf(s), dtype=float)
        )
        return min(max(delta / surv, 0.0), 1.0)
