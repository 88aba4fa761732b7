"""Opt-in compiled inner loop for the replication (plan) kernel.

``backend="vectorized-compiled"`` on :func:`repro.sim.backend.run_replications`
replaces the NumPy round loop of
:func:`repro.sim.vectorized.simulate_plan_vectorized` with a scalar
per-replication walk executed by a *compiled provider*:

``"cc"``
    The same walk translated to C, built once with the system C compiler
    (``cc -O2 -fPIC -shared -ffp-contract=off``) into an in-repo build
    cache and loaded through :mod:`ctypes`.  No third-party dependency.
``"python"``
    The pure-Python walk itself — slow, but always available; the
    compiled-equivalence tests use it so the *logic* is exercised even
    where no C compiler exists.

Bit-compatibility contract
--------------------------
The walk consumes the same round-protocol uniforms (one full-width
``rng.random(n)`` row per round, blocks of rows drawn in row-major order
so the bitstream order is unchanged) and reproduces the NumPy kernel's
arithmetic operation-for-operation: the conditional-quantile map, the
inverse CDF through the distribution's exact ``ppf_table()`` grid
(replicating ``np.interp`` — binary search, ``slope*(x-xp[j])+fp[j]``,
compiled with FP contraction off so no FMA sneaks in), the
``searchsorted(..., side="right")`` segment walk, and the per-round
accumulation order.  Outcomes are therefore *byte-identical* to
``backend="vectorized"``, which the compiled-equivalence tests pin with
exact array equality.

Distributions without an exact interpolation grid (``ppf_table()``
returning ``None``) fall back to mapping each block of uniform rows
through Python-side ``dist.ppf`` — elementwise identical — before the
compiled walk runs the segment arithmetic.

Generator consumption
---------------------
In block mode the generator may advance past the final round (whole
blocks are drawn ahead); entry points therefore enable block mode only
when they constructed the generator themselves from an integer seed.
With a caller-supplied :class:`numpy.random.Generator` or an armed
:class:`~repro.sim.backend.DrawCapture` the walk draws one row at a
time, consuming the generator exactly like the NumPy kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.distributions.base import LifetimeDistribution
from repro.sim.vectorized import conditional_quantiles

__all__ = [
    "COMPILED_BACKEND",
    "COMPILED_PROVIDERS",
    "available_providers",
    "resolve_walk",
    "simulate_plan_compiled",
]

#: The ``backend=`` value that selects this module.
COMPILED_BACKEND = "vectorized-compiled"

#: Provider preference order for automatic resolution ("python" is
#: opt-in only — it exists for logic tests, not for speed).
COMPILED_PROVIDERS = ("cc",)

#: Rows per uniform block in block mode (doubling up to the cap).
_BLOCK_START = 8
_BLOCK_MAX = 256

#: Rows per walk call within a drawn block: at 1k replications a 64-row
#: tile of uniforms is ~512 kB, small enough to stay cache-warm across
#: the replication-major sweep (measured best on the slow-equivalence
#: grid; smaller tiles pay per-call state re-traversal instead).
_TILE_ROWS = 64


# ----------------------------------------------------------------------
# The walk, in pure Python (the reference the C source translates)
# ----------------------------------------------------------------------

def _interp1_py(x, xp, fp, gl, hint, slopes, M):
    """Scalar ``np.interp`` replica over a sorted grid of ``gl`` nodes.

    ``hint`` brackets each of ``M`` uniform buckets of the query domain
    [0, 1] (see :func:`_ppf_hint`) and ``slopes`` holds the
    per-interval slope, precomputed with the same double division
    ``np.interp`` performs per query; both only shorten the search,
    never change the result.
    """
    if x < xp[0]:
        return fp[0]
    if x >= xp[gl - 1]:
        return fp[gl - 1]
    b = int(x * M)
    if b >= M:
        b = M - 1
    lo = hint[b]
    hi = hint[b + 1] + 1
    # The bucket bracket is advisory (float rounding at bucket edges can
    # misplace it by one); fall back to the full range when it misses.
    if xp[lo] > x:
        lo = 0
    if hi >= gl or xp[hi] <= x:
        hi = gl - 1
    # Invariant: xp[lo] <= x < xp[hi].
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if xp[mid] <= x:
            lo = mid
        else:
            hi = mid
    if xp[lo] == x:
        return fp[lo]
    return slopes[lo] * (x - xp[lo]) + fp[lo]


def _bisect_right_py(a, lo, hi, v):
    """``np.searchsorted(a, v, side="right")`` restricted to ``a[lo:hi]``."""
    while lo < hi:
        mid = (lo + hi) >> 1
        if a[mid] <= v:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _find_seg_py(a, k, K1, v, inv_d):
    """Largest j in [k, K1) with a[j] <= v (requires a[k] <= v).

    Equal to ``np.searchsorted(a, v, side="right") - 1`` for the walk's
    inputs.  Starts from an average-duration guess (``inv_d`` is
    ``K / a[K]``), scans locally, and falls back to bisection after a
    few steps so skewed schedules stay O(log K).
    """
    j = k + int((v - a[k]) * inv_d)
    if j > K1 - 1:
        j = K1 - 1
    if j < k:
        j = k
    if a[j] <= v:
        t = 0
        while j + 1 < K1 and a[j + 1] <= v:
            j += 1
            t += 1
            if t == 8:
                return _bisect_right_py(a, j + 1, K1, v) - 1
        return j
    t = 0
    while a[j] > v:
        j -= 1
        t += 1
        if t == 8:
            return _bisect_right_py(a, k + 1, j + 1, v) - 1
    return j


def _walk_block_py(
    u,            # (rows, n) uniforms (or pre-mapped lifetimes)
    rows,
    n,
    qx,           # ppf grid quantiles (unused when pre_mapped)
    qt,           # ppf grid lifetimes
    gl,           # grid length
    hint,         # (M+1,) bucket brackets for interp1
    slopes,       # (gl-1,) precomputed interp slopes
    M,            # bucket count
    pre_mapped,   # 1: u rows already hold lifetimes
    Fs,           # (n,) F(start_age)
    age0,         # (n,) first-VM ages
    cum_w,        # (K+1,) cumulative wall-clock of the plan
    cum_s,        # (K+1,) cumulative durable work
    K,
    inv_d,        # K / cum_w[K]: segment-guess scale for find_seg
    restart_latency,
    global_round,  # round index of u[0]
    seg_idx,
    makespan,
    wasted,
    completed,
    restarts,
    active,       # (n,) uint8
    n_active,
):
    """The walk, one block of rounds; the ``"python"`` provider.

    The loop is replication-major (rounds inner): each replication's
    accumulators live in locals across its rounds and are stored back
    once.  Replications are mutually independent and each one's
    per-round accumulation order is unchanged, so outcomes are
    identical to the round-major NumPy kernel.
    """
    # rows_done = number of rounds the round-major kernel would have
    # executed over this block: the max round any replication
    # consumed (rows, for one that is still active at block end).
    rows_done = 0
    for i in range(n):
        if active[i] == 0:
            continue
        k = seg_idx[i]
        mk = makespan[i]
        wa = wasted[i]
        co = completed[i]
        rs = restarts[i]
        finished = False
        for r in range(rows):
            uv = u[r, i]
            if global_round + r == 0:
                if pre_mapped == 1:
                    death = uv
                else:
                    fs = Fs[i]
                    q = fs + uv * (1.0 - fs)
                    if q > 1.0:
                        q = 1.0
                    death = _interp1_py(q, qx, qt, gl, hint, slopes, M)
                age = age0[i]
            else:
                if pre_mapped == 1:
                    death = uv
                else:
                    death = _interp1_py(uv, qx, qt, gl, hint, slopes, M)
                age = 0.0
            budget = death - age
            if budget < 0.0:
                budget = 0.0
            j = _find_seg_py(cum_w, k, K + 1, cum_w[k] + budget, inv_d)
            if j >= K:
                mk += cum_w[K] - cum_w[k]
                co += cum_s[K] - cum_s[k]
                k = K
                active[i] = 0
                n_active -= 1
                finished = True
                if r + 1 > rows_done:
                    rows_done = r + 1
                break
            mk += budget + restart_latency
            co += cum_s[j] - cum_s[k]
            wa += budget - (cum_w[j] - cum_w[k])
            rs += 1
            k = j
        if not finished:
            rows_done = rows
        seg_idx[i] = k
        makespan[i] = mk
        wasted[i] = wa
        completed[i] = co
        restarts[i] = rs
    return n_active, rows_done


#: Buckets in the interpolation hint table (query domain is [0, 1]).
#: 8x the default grid size, so most buckets pin the segment without any
#: bisection; the table is built once per distribution and cached.
_PPF_HINT_BUCKETS = 32768


def _ppf_hint(
    dist, qx: np.ndarray, qt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Bucket brackets and slopes for the grid, cached on the distribution.

    ``hint[b]`` is the largest grid index at or below ``b/M``, so the
    query window for bucket ``b`` is ``[hint[b], hint[b+1] + 1]`` —
    usually 1–2 entries instead of the full grid.  ``slopes[j]`` is the
    per-interval slope computed with the same double division
    ``np.interp`` performs per query (repeated grid nodes give unused
    slots: the walk's early-exact return means they are never read).
    Purely accelerators — the walk re-checks the bracket and falls back
    to the full range if float rounding at a bucket edge misplaced it.
    """
    M = _PPF_HINT_BUCKETS
    cache = dist.__dict__.get("_compiled_ppf_hint")
    if cache is not None and cache[0] is qx:
        return cache[1], cache[2], M
    edges = np.arange(M + 1, dtype=float) / M
    hint = np.ascontiguousarray(
        np.maximum(np.searchsorted(qx, edges, side="right") - 1, 0),
        dtype=np.int64,
    )
    dx = np.diff(qx)
    dy = np.diff(qt)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.where(dx > 0.0, dy / np.where(dx > 0.0, dx, 1.0), 0.0)
    slopes = np.ascontiguousarray(slopes, dtype=float)
    dist.__dict__["_compiled_ppf_hint"] = (qx, hint, slopes)
    return hint, slopes, M


# ----------------------------------------------------------------------
# Providers
# ----------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>

static double interp1(double x, const double *xp, const double *fp,
                      int64_t gl, const int64_t *hint,
                      const double *slopes, int64_t M) {
    int64_t lo, hi, mid, b;
    if (x < xp[0]) return fp[0];
    if (x >= xp[gl - 1]) return fp[gl - 1];
    b = (int64_t)(x * (double)M);
    if (b >= M) b = M - 1;
    lo = hint[b];
    hi = hint[b + 1] + 1;
    /* The bucket bracket is advisory (float rounding at bucket edges
       can misplace it by one); fall back to the full range if it
       misses so the result always matches a full binary search. */
    if (xp[lo] > x) lo = 0;
    if (hi >= gl || xp[hi] <= x) hi = gl - 1;
    while (hi - lo > 1) {
        mid = (lo + hi) >> 1;
        if (xp[mid] <= x) lo = mid; else hi = mid;
    }
    if (xp[lo] == x) return fp[lo];
    return slopes[lo] * (x - xp[lo]) + fp[lo];
}

static int64_t bisect_right(const double *a, int64_t lo, int64_t hi,
                            double v) {
    int64_t mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (a[mid] <= v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* Largest j in [k, K1) with a[j] <= v (requires a[k] <= v) — equal to
   searchsorted-right minus one.  Average-duration guess plus a short
   local scan; bisection fallback keeps skewed schedules O(log K). */
static int64_t find_seg(const double *a, int64_t k, int64_t K1, double v,
                        double inv_d) {
    int64_t j = k + (int64_t)((v - a[k]) * inv_d);
    int64_t t;
    if (j > K1 - 1) j = K1 - 1;
    if (j < k) j = k;
    if (a[j] <= v) {
        t = 0;
        while (j + 1 < K1 && a[j + 1] <= v) {
            j++;
            if (++t == 8) return bisect_right(a, j + 1, K1, v) - 1;
        }
        return j;
    }
    t = 0;
    while (a[j] > v) {
        j--;
        if (++t == 8) return bisect_right(a, k + 1, j + 1, v) - 1;
    }
    return j;
}

int64_t plan_walk_block(
    const double *u, int64_t rows, int64_t n,
    const double *qx, const double *qt, int64_t gl,
    const int64_t *hint, const double *slopes, int64_t M,
    int64_t pre_mapped,
    const double *Fs, const double *age0,
    const double *cum_w, const double *cum_s, int64_t K,
    double inv_d, double restart_latency, int64_t global_round,
    int64_t *seg_idx, double *makespan, double *wasted, double *completed,
    int64_t *restarts, uint8_t *active, int64_t n_active,
    int64_t *rows_done_out)
{
    int64_t r, i, k, j, rs, finished;
    double uv, death, age, budget, fs, q, mk, wa, co;
    int64_t rows_done = 0;
    /* Replication-major: accumulators stay in registers across a
       replication's rounds; replications are independent and each
       one's accumulation order is unchanged, so outcomes match the
       round-major kernel exactly. */
    for (i = 0; i < n; i++) {
        if (!active[i]) continue;
        k = seg_idx[i];
        mk = makespan[i];
        wa = wasted[i];
        co = completed[i];
        rs = restarts[i];
        finished = 0;
        for (r = 0; r < rows; r++) {
            uv = u[r * n + i];
            if (global_round + r == 0) {
                if (pre_mapped) {
                    death = uv;
                } else {
                    fs = Fs[i];
                    q = fs + uv * (1.0 - fs);
                    if (q > 1.0) q = 1.0;
                    death = interp1(q, qx, qt, gl, hint, slopes, M);
                }
                age = age0[i];
            } else {
                death = pre_mapped
                    ? uv : interp1(uv, qx, qt, gl, hint, slopes, M);
                age = 0.0;
            }
            budget = death - age;
            if (budget < 0.0) budget = 0.0;
            j = find_seg(cum_w, k, K + 1, cum_w[k] + budget, inv_d);
            if (j >= K) {
                mk += cum_w[K] - cum_w[k];
                co += cum_s[K] - cum_s[k];
                k = K;
                active[i] = 0;
                n_active--;
                finished = 1;
                if (r + 1 > rows_done) rows_done = r + 1;
                break;
            }
            mk += budget + restart_latency;
            co += cum_s[j] - cum_s[k];
            wa += budget - (cum_w[j] - cum_w[k]);
            rs += 1;
            k = j;
        }
        if (!finished) rows_done = rows;
        seg_idx[i] = k;
        makespan[i] = mk;
        wasted[i] = wa;
        completed[i] = co;
        restarts[i] = rs;
    }
    *rows_done_out = rows_done;
    return n_active;
}
"""

_D = ctypes.POINTER(ctypes.c_double)
_I = ctypes.POINTER(ctypes.c_int64)
_B = ctypes.POINTER(ctypes.c_uint8)


def _build_dir() -> Path:
    """In-repo build cache for the cc provider's shared object."""
    return Path(__file__).resolve().parents[3] / "build" / "compiled"


def _load_cc():
    """Compile and load the C walk through ctypes (raises on any failure)."""
    cc = os.environ.get("CC", "cc")
    tag = hashlib.sha256(
        (_C_SOURCE + cc + sys.platform).encode()
    ).hexdigest()[:16]
    out_dir = _build_dir()
    lib_path = out_dir / f"plan_walk_{tag}.so"
    if not lib_path.exists():
        out_dir.mkdir(parents=True, exist_ok=True)
        src_path = out_dir / f"plan_walk_{tag}.c"
        src_path.write_text(_C_SOURCE)
        # -ffp-contract=off: no FMA fusion, so the interpolation and the
        # segment arithmetic round exactly like NumPy's element ops.
        tmp_path = lib_path.with_suffix(f".tmp{os.getpid()}.so")
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
             "-o", str(tmp_path), str(src_path)],
            check=True,
            capture_output=True,
        )
        os.replace(tmp_path, lib_path)
    lib = ctypes.CDLL(str(lib_path))
    fn = lib.plan_walk_block
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        _D, ctypes.c_int64, ctypes.c_int64,
        _D, _D, ctypes.c_int64,
        _I, _D, ctypes.c_int64,
        ctypes.c_int64,
        _D, _D,
        _D, _D, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_int64,
        _I, _D, _D, _D,
        _I, _B, ctypes.c_int64,
        _I,
    ]

    def as_d(a):
        return a.ctypes.data_as(_D)

    def as_i(a):
        return a.ctypes.data_as(_I)

    def walk(u, rows, n, qx, qt, gl, hint, slopes, M, pre_mapped, Fs, age0,
             cum_w, cum_s, K, inv_d, restart_latency, global_round, seg_idx,
             makespan, wasted, completed, restarts, active, n_active):
        rows_done = ctypes.c_int64(0)
        remaining = fn(
            as_d(u), rows, n,
            as_d(qx), as_d(qt), gl,
            as_i(hint), as_d(slopes), M,
            pre_mapped,
            as_d(Fs), as_d(age0),
            as_d(cum_w), as_d(cum_s), K,
            inv_d, restart_latency, global_round,
            as_i(seg_idx), as_d(makespan), as_d(wasted), as_d(completed),
            as_i(restarts), active.ctypes.data_as(_B), n_active,
            ctypes.byref(rows_done),
        )
        return remaining, rows_done.value

    return walk


def _load_python():
    return _walk_block_py


#: Loader registry — tests monkeypatch entries to simulate absence.
_LOADERS = {
    "cc": _load_cc,
    "python": _load_python,
}

#: Resolved walks, keyed by provider name.
_PROVIDER_CACHE: dict[str, object] = {}


def available_providers() -> tuple[str, ...]:
    """Names of the compiled providers that load on this machine."""
    out = []
    for name in COMPILED_PROVIDERS:
        try:
            resolve_walk(name)
        except Exception:
            continue
        out.append(name)
    return tuple(out)


def resolve_walk(provider: str | None = None):
    """Return ``(provider_name, walk_callable)`` for the requested provider.

    ``None`` tries the preference order in :data:`COMPILED_PROVIDERS`
    and raises an actionable :class:`ImportError` when none loads.
    """
    if provider is not None:
        if provider not in _LOADERS:
            raise ValueError(
                f"unknown compiled provider {provider!r}; "
                f"choose from {tuple(_LOADERS)}"
            )
        if provider not in _PROVIDER_CACHE:
            _PROVIDER_CACHE[provider] = _LOADERS[provider]()
        return provider, _PROVIDER_CACHE[provider]
    # Auto resolution is cached too, so a failed provider is not
    # re-loaded on every simulate call.
    auto = _PROVIDER_CACHE.get("__auto__")
    if auto is not None:
        return auto
    failures = []
    for name in COMPILED_PROVIDERS:
        try:
            resolved = resolve_walk(name)
        except Exception as exc:  # noqa: BLE001 — report every path
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            _PROVIDER_CACHE["__auto__"] = resolved
            return resolved
    detail = "; ".join(failures)
    raise ImportError(
        "backend='vectorized-compiled' needs an optional compiled "
        f"provider and none is available ({detail}). Make a C compiler "
        "(`cc`, or one named by $CC) available, or use "
        "backend='vectorized', which needs none."
    )


# ----------------------------------------------------------------------
# The kernel wrapper
# ----------------------------------------------------------------------

def simulate_plan_compiled(
    dist: LifetimeDistribution,
    segments: np.ndarray,
    *,
    delta: float,
    start_age,
    restart_latency: float,
    n_replications: int,
    rng,
    max_rounds: int = 10_000,
    provider: str | None = None,
    stream_exact: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Compiled twin of :func:`repro.sim.vectorized.simulate_plan_vectorized`.

    Same signature and return value; outcomes are byte-identical (see
    the module docstring).  ``stream_exact=True`` draws one
    ``rng.random(n)`` row per round — consuming the generator exactly
    like the NumPy kernel, at some speed cost — and is required when the
    caller observes the generator afterwards (a passed-in ``Generator``)
    or records rows (an armed ``DrawCapture``).
    """
    _, walk = resolve_walk(provider)

    segs = np.asarray(segments, dtype=float)
    K = int(segs.size)
    durations = segs.copy()
    if K > 1:
        durations[:-1] += delta
    cum_w = np.concatenate(([0.0], np.cumsum(durations)))
    cum_s = np.concatenate(([0.0], np.cumsum(segs)))

    n = int(n_replications)
    makespan = np.zeros(n)
    wasted = np.zeros(n)
    completed = np.zeros(n)
    restarts = np.zeros(n, dtype=np.int64)
    seg_idx = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=np.uint8)

    # F(start_age) evaluated with the caller's shape (scalar or array)
    # exactly like the NumPy kernel, then broadcast per replication.
    start_arr = np.asarray(start_age, dtype=float)
    F_given = np.asarray(dist.cdf(start_arr), dtype=float)
    Fs = np.ascontiguousarray(np.broadcast_to(F_given, (n,)), dtype=float)
    age0 = np.ascontiguousarray(np.broadcast_to(start_arr, (n,)), dtype=float)

    table = dist.ppf_table() if hasattr(dist, "ppf_table") else None
    if table is not None:
        qx = np.ascontiguousarray(table[0], dtype=float)
        qt = np.ascontiguousarray(table[1], dtype=float)
        gl = int(qx.size)
        pre_mapped = 0
        hint, slopes, M = _ppf_hint(dist, qx, qt)
    else:
        qx = qt = np.zeros(1)
        gl = 1
        pre_mapped = 1
        hint = np.zeros(2, dtype=np.int64)
        slopes = np.zeros(1)
        M = 1
    total_w = float(cum_w[K]) if K else 0.0
    inv_d = K / total_w if total_w > 0.0 else 0.0

    n_active = n
    round_idx = 0
    if stream_exact:
        block = 1
    else:
        # Size the first block from the expected round count (total
        # wall-clock over mean lifetime, plus slack for the slowest
        # replication) so block mode rarely overdraws the generator;
        # stragglers then fall back to the doubling schedule.
        mean_life = dist.__dict__.get("_compiled_mean_life")
        if mean_life is None:
            try:
                mean_life = float(dist.mean())
            except Exception:  # noqa: BLE001 — estimation only
                mean_life = 0.0
            dist.__dict__["_compiled_mean_life"] = mean_life
        if np.isfinite(mean_life) and mean_life > 0.0 and total_w > 0.0:
            est = total_w / mean_life
            block = int(est + 4.0 * est**0.5 + float(_BLOCK_START))
        else:
            block = _BLOCK_START
        # Bound first-block memory to ~32 MB of uniforms.
        block = max(_BLOCK_START, min(block, max(4_000_000 // max(n, 1), 1)))
    while n_active:
        if round_idx >= max_rounds:
            raise RuntimeError(
                f"{n_active} replications unfinished after {max_rounds} "
                "rounds; schedule cannot finish under this lifetime law"
            )
        rows = min(block, max_rounds - round_idx)
        if stream_exact:
            u = np.ascontiguousarray(rng.random(n)).reshape(1, n)
            rows = 1
        else:
            u = rng.random((rows, n))
        if pre_mapped:
            # No exact grid: map uniforms through Python-side ppf rows
            # (elementwise identical to the NumPy kernel's calls).
            if round_idx == 0:
                u[0] = conditional_quantiles(u[0], F_given)
            u = np.asarray(dist.ppf(u), dtype=float)
        u = np.ascontiguousarray(u)
        # Walk the drawn block in row tiles so the uniforms stay
        # cache-warm; each tile resumes where the previous one stopped
        # (``round_idx`` carries the absolute round of the tile's first
        # row, so accounting matches a single whole-block call).
        for off in range(0, rows, _TILE_ROWS):
            t_rows = min(_TILE_ROWS, rows - off)
            n_active, rows_done = walk(
                u[off : off + t_rows], t_rows, n, qx, qt, gl, hint, slopes,
                M, pre_mapped, Fs, age0, cum_w, cum_s, K, inv_d,
                float(restart_latency), round_idx, seg_idx, makespan,
                wasted, completed, restarts, active, n_active,
            )
            round_idx += int(rows_done)
            if not n_active:
                break
        if not stream_exact:
            # After the estimated first block only stragglers remain:
            # restart the doubling schedule from small blocks.
            block = _BLOCK_START * 2 if block > _BLOCK_MAX else min(
                block * 2, _BLOCK_MAX
            )

    return makespan, wasted, completed, restarts, round_idx
