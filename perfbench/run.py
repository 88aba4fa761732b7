"""Benchmark of the Monte-Carlo sweep entry points of ``repro.sim.backend``.

Run from the repository root::

    python3 perfbench/run.py --workload tenancy-poisson --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

One workload runs in this process: set-up (imports, the lifetime law, the
workload input made from ``--seed``, a warm-up call), a cross-backend
check on a small slice, then timed sweeps for ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs traced sweeps instead and reports the per-layer metrics (see
``perfbench/README.md``).  Every time is scaled to a reference core
speed (``perfbench/clock.py``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_T0 = time.perf_counter()
# One BLAS/OpenMP thread, set before NumPy is imported: the sweeps are
# single-process by design, and a thread pool would time the OS
# scheduler on a small machine.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning)

from clock import CoreClock  # noqa: E402

# The clock's tick needs NumPy, so its import is the one raw time in setup_s.
_NUMPY_S = time.perf_counter() - _T0
CLOCK = CoreClock()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Declares the metrics each mode reports, with their units.
SPEC_PATH = HERE.parent / "BENCHMARK.json"

#: Set-up repeats per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Timed sweeps (traced-loop rounds with ``--trace 1``) per run at least:
#: two, so their digests and layer counts can be compared.
MIN_SWEEPS = 2
#: Cross-backend contract on makespans (hours).
MAKESPAN_ATOL = 1e-9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long the timed sweeps run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test input sizes (for perfbench/test_smoke.py)")
    return p.parse_args(argv)


class Checks:
    """Counts the run's operations (sweeps and cross-checks) and the
    ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)


def digest(out) -> str:
    h = hashlib.sha256(np.ascontiguousarray(out.makespan, dtype=float).tobytes())
    h.update(np.ascontiguousarray(out.n_events, dtype=np.int64).tobytes())
    return h.hexdigest()


def sweep(checks: Checks, label: str, call, reference: str | None = None):
    """One checked operation, timed with the cyclic GC collected and
    paused.  It fails on a raise (``max_events`` exhausted, a kernel
    invariant), a non-finite makespan, or an outcome digest other than
    ``reference``.  Returns the outcomes (None on a raise) and the
    :class:`clock.Timing`."""
    gc.collect()
    gc.disable()
    try:
        with CLOCK.timed() as timing:
            out = call()
    except RuntimeError as exc:
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    finally:
        gc.enable()
    if out is not None:
        problems = []
        if not np.all(np.isfinite(out.makespan)):
            problems.append("non-finite makespan")
        if reference is not None and digest(out) != reference:
            problems.append("outcomes differ from the first sweep's")
    checks.record(label, problems)
    return out, timing


def cross_check(checks: Checks, label: str, vec, ev) -> None:
    """The backends' contract: makespans within 1e-9 h, equal n_events."""
    if vec is None or ev is None:
        return
    problems = []
    gap = float(np.max(np.abs(vec.makespan - ev.makespan)))
    if not gap <= MAKESPAN_ATOL:
        problems.append(f"backends disagree on makespan by {gap:.3g} h")
    if not np.array_equal(vec.n_events, ev.n_events):
        problems.append("backends disagree on n_events")
    checks.record(label, problems)


def check_slice(checks: Checks, case) -> tuple[float, float]:
    """Vectorized vs event oracle on the slice; returns both times."""
    vec, vec_t = sweep(checks, "slice", lambda: case.slice_sweep(backend="vectorized"))
    ev, ev_t = sweep(checks, "slice/event", lambda: case.slice_sweep(backend="event"))
    cross_check(checks, "slice vectorized vs event", vec, ev)
    return vec_t.seconds, ev_t.seconds


def peak_rss_mb() -> float:
    from repro.obs import peak_rss_bytes

    return peak_rss_bytes() / 2**20


def run_workload(args) -> tuple[dict, Checks]:
    with CLOCK.timed() as imports:
        import repro.sim.checkpoint_vectorized  # noqa: F401  (imported lazily by the kernels)
        from repro.obs import NULL_TRACER
        from layers import LayerProbes
        from workloads import WORKLOADS

    import_s = _NUMPY_S + imports.seconds
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            return trace_run(args, workload, seed, Path(tmp), checks)
        setups = []
        for _ in range(SETUP_REPEATS):
            with CLOCK.timed() as setup:
                case = workload.build(seed, Path(tmp), LayerProbes(NULL_TRACER), args.tiny)
                sweep(checks, "warm-up", case.slice_sweep)
            setups.append(setup.seconds)
        check_slice(checks, case)
        times, reference, events = [], None, 0
        start = time.perf_counter()
        for i in itertools.count():
            if i >= MIN_SWEEPS and time.perf_counter() - start >= args.seconds:
                break
            out, timing = sweep(checks, "sweep", case.sweep, reference)
            if out is not None:
                print(f"# sweep {i}: {timing.seconds:.4f} s scaled, "
                      f"{timing.wall_s:.4f} s wall at speed {timing.speed:.3f}")
                times.append(timing.seconds)
                reference = reference or digest(out)
                events = int(out.n_events.sum())
    if not times:
        return {}, checks
    sweep_s = statistics.median(times)
    return {
        "sweep_s": sweep_s,
        "rep_events_per_s": events / sweep_s,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }, checks


def trace_run(args, workload, seed, workdir, checks) -> tuple[dict, Checks]:
    """Untraced, instrumented and traced sweeps in turn: the layer
    metrics come from the traced sweeps, the overheads from the ratios."""
    from repro.obs import Instrumentation, Tracer
    from layers import LayerProbes

    tracer = Tracer()
    setup = LayerProbes(tracer)
    with CLOCK.timed() as setup_timing:
        with tracer.span("setup", "bench"), setup.installed():
            case = workload.build(seed, workdir, setup, args.tiny)
    sweep(checks, "warm-up", case.slice_sweep)
    with tracer.span("check_slice", "bench"):
        slice_vec_s, slice_ev_s = check_slice(checks, case)

    plain, instr, traced = [], [], []
    reference = counts = out = None
    start = time.perf_counter()
    while len(traced) < MIN_SWEEPS or time.perf_counter() - start < args.seconds:
        out, plain_t = sweep(checks, "sweep", case.sweep, reference)
        reference = reference or (out and digest(out))
        inst_out, inst_t = sweep(
            checks, "instrumented sweep",
            lambda: case.sweep(instrument=Instrumentation(tracer=Tracer())), reference,
        )
        probes = LayerProbes(tracer)
        with tracer.span("traced_sweep", "bench"), probes.installed():
            tr_out, tr_t = sweep(
                checks, "traced sweep",
                lambda: case.sweep(instrument=Instrumentation(tracer=tracer)), reference,
            )
        if None in (out, inst_out, tr_out):
            return {}, checks
        plain.append(plain_t.seconds)
        instr.append(inst_t.seconds)
        sweep_counts = layer_counts(probes, tr_out.stats)
        checks.record("layer counts", [] if counts in (None, sweep_counts) else [
            "traced sweeps of one seed gave different counts"
        ])
        counts = sweep_counts
        traced.append(layer_times(probes, tr_out.stats, tr_t))

    plain_s = statistics.median(plain)
    if workload.name == "swf-serial":
        # The event oracle on the whole trace: the n=1 race the compiled
        # round loop is meant to win.
        with tracer.span("event_sweep", "bench"):
            ev, event_t = sweep(checks, "event sweep", lambda: case.sweep(backend="event"))
        cross_check(checks, "full trace vectorized vs event", out, ev)
        event_s, vec_s = event_t.seconds, plain_s
    else:
        event_s, vec_s = slice_ev_s, slice_vec_s
    times = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    tr_s = times.pop("sweep_s")
    # Set-up layer times, scaled by the core speed over the set-up.
    parse_s = setup.get("traces.parse").seconds * setup_timing.speed
    metrics = {
        "traffic.sample_s": setup.get("traffic.sample").seconds * setup_timing.speed,
        "traces.parse_s": parse_s,
        "traces.to_traffic_s": (
            setup.get("traces.to_traffic").seconds * setup_timing.speed - parse_s
        ),
        **counts,
        **times,
        "eq8.cells_per_call": counts["eq8.cells"] / max(counts["eq8.calls"], 1),
        "eq8.share": times["eq8.s"] / tr_s,
        "kernel.round_ms": 1e3 * plain_s / max(counts["kernel.rounds"], 1),
        "event.sweep_s": event_s,
        "event.vs_vectorized": event_s / vec_s,
        "trace.instrument_frac": statistics.median(instr) / plain_s - 1.0,
        "trace.overhead_frac": tr_s / plain_s - 1.0,
    }
    tracer.write(OUT / f"{workload.name}-seed{seed}.trace.json")
    return metrics, checks


def layer_counts(probes, stats) -> dict:
    """Per-sweep counts; they repeat exactly for a fixed seed."""
    eq8 = probes.get("eq8")
    channels = stats.channel_events
    return {
        "eq8.calls": eq8.calls,
        "eq8.cells": eq8.cells,
        "dist.cdf_calls": probes.get("dist.cdf").calls,
        "dist.ppf_calls": probes.get("dist.ppf").calls,
        "dp.begin_calls": probes.get("dp.begin").calls,
        "dp.next_take_calls": probes.get("dp.next_take").calls,
        "kernel.rounds": stats.n_rounds,
        **{
            f"kernel.events.{ch}": channels.get(ch, 0)
            for ch in ("death", "comp", "boot", "reap", "arr")
        },
        "kernel.rng_rows": stats.rng_rows,
        "kernel.stall_terminations": stats.stall_terminations,
        "kernel.peak_queue_depth": stats.peak_queue_depth,
    }


def layer_times(probes, stats, timing) -> dict:
    """Layer times of one traced sweep, scaled by the core speed over
    the sweep; probes time only outer calls, so the layers never overlap."""
    def layer_s(*names):
        return timing.speed * sum(probes.get(n).seconds for n in names)

    eq8_s = layer_s("eq8")
    dp_s = layer_s("dp.table", "dp.begin", "dp.next_take")
    ppf_s = layer_s("dist.ppf")
    return {
        "sweep_s": timing.seconds,
        "eq8.s": eq8_s,
        "dist.cdf_self_s": layer_s("dist.cdf"),
        "dist.ppf_s": ppf_s,
        "dp.s": dp_s,
        "kernel.self_s": timing.seconds - eq8_s - dp_s - ppf_s,
        "backend.merge_s": timing.speed * stats.phase_seconds.get("merge", 0.0),
    }


def report(name: str, metrics: dict, units: dict, checks: Checks) -> dict:
    result = {
        "correct": checks.failed == 0 and set(metrics) == set(units),
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics
        },
    }
    print(f"# {name}: {checks.attempted} operations, {checks.failed} failed")
    for problem in checks.problems:
        print(f"#   FAILED {problem}")
    for k, m in result["metrics"].items():
        print(f"{name:16s} {k:26s} {m['value']:14.6g} {m['unit']}")
    return result


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics, checks = run_workload(args)
    print(json.dumps(report(args.workload, metrics, units, checks)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
