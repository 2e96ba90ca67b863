"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload heat_halo --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Their times are scaled to a host of fixed speed, read from reference
work of the workload's kind timed between operations
(``perfbench/pace.py`` says why and how); the raw wall-time figures are
printed on the lines before the result.
``--trace 1`` gives the per-layer metrics instead: operations cycle
through untraced, traced and unpinned. The traced ones record spans
around each layer's public entry points (``perfbench/spans.py``; their
slowdown over the untraced ones is ``trace.overhead_frac``) and the
spans are written to ``perfbench/out/``. The unpinned ones run on every
CPU (their slowdown is ``cpu.unpinned_slowdown_frac``). Metric names and
units are the ones ``BENCHMARK.json`` lists. The last line of standard
output is one JSON object; the exit code is 0 only if every output
matched its oracle. Everything else runs on one CPU
(:func:`pin_to_one_cpu` says why).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from perfbench.pace import Pace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: setup_s is the median of this many set-ups in one run.
SETUP_REPEATS = 5


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on one CPU.

    The interpreter lock already serialises the workloads' Python
    threads, so a second CPU adds little but lets the host's scheduling
    of virtual CPUs into every thread hand-off. On a 2-vCPU virtual
    machine with a busy host, back-to-back runs of one seed measured the
    open-loop serve latency p50 at 5.7-5.8 ms pinned and 13-43 ms
    unpinned, and heat_halo at 0.35-0.44 s per op pinned and 1.9-2.6 s
    unpinned.

    That hand-off cost is the program's, and the end-to-end metrics do
    not see it. The traced run measures it: ``cpu.unpinned_slowdown_frac``
    is how much slower the same operations run on every CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@contextlib.contextmanager
def unpinned(cpus: set[int]):
    """Threads started inside the block may run on any of ``cpus``.

    Affinity is per thread and inherited by the threads a thread starts,
    so this widens it for the calling thread only and narrows it again
    on the way out. The program's rank, executor and service threads
    are started per operation, so they all run on ``cpus``.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def slowdown(slow: list[float], base: list[float]) -> float:
    """Median of ``slow`` over median of ``base``, minus 1 (0 if either is empty)."""
    from perfbench.stats import median

    return median(slow) / median(base) - 1.0 if slow and base else 0.0


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool


def timed_setup(pace: Pace, setup: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``setup`` with a reference timing on each side; return its
    scaled time and its result."""
    pace.measure()
    t0 = time.perf_counter()
    out = setup()
    t1 = time.perf_counter()
    pace.measure()
    return pace.scaled(t0, t1), out


def run_batch(
    name: str, seed: int, seconds: float, trace: bool, import_s: float, cpus: set[int],
    pace: Pace,
) -> Outcome:
    from perfbench import spans
    from perfbench.loadgen import Window, serve_layer_metrics
    from perfbench.stats import chunked_percentile, median, peak_rss_mb, slices_for, tail_label
    from perfbench.workloads import BATCH

    w = BATCH[name]
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        def setup() -> tuple:
            inputs = w.make_inputs(seed)
            return inputs, w.op(inputs)

        setup_s, (inputs, warm) = timed_setup(pace, setup)
        setups.append(setup_s)
    expected = w.oracle(inputs)
    items = w.items(inputs)
    warm_ok = w.same(warm, expected)

    # Each op runs in one mode: plain, traced or unpinned (the last two
    # only with tracing on).
    times: dict[str, list[float]] = {"plain": [], "traced": [], "unpinned": []}
    starts = []  # of the plain ops, for scaling
    modes = ("plain", "traced", "unpinned") if trace else ("plain",)
    rec = spans.Recorder()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        mode = modes[attempted % len(modes)]
        if not trace:
            pace.tick()
        undo = spans.install(rec) if mode == "traced" else None
        try:
            t0 = time.perf_counter()
            if mode == "traced":
                with rec.span("op", "op"):
                    out = w.op(inputs)
            elif mode == "unpinned":
                with unpinned(cpus):
                    out = w.op(inputs)
            else:
                out = w.op(inputs)
            dt = time.perf_counter() - t0
            ok = w.same(out, expected)
        except Exception:  # a failed operation; keep measuring
            traceback.print_exc(file=sys.stderr)
            ok = False
        finally:
            if undo is not None:
                undo()
        attempted += 1
        if ok:
            times[mode].append(dt)
            if mode == "plain":
                starts.append(t0)
        else:
            failed += 1

    ops = times["plain"]
    wall_rate = items * len(ops) / sum(ops) if ops else 0.0
    print(
        f"{name}: {items} items/op, {len(ops)} untraced op(s), wall op time p50 "
        f"{median(ops) * 1000.0:.1f} ms, {wall_rate:.0f} items/s "
        f"(highest supported percentile in each of {slices_for(len(ops), 95.0)} slices: "
        f"{tail_label(len(ops) // slices_for(len(ops), 95.0))}), {failed} of {attempted} failed"
    )
    if trace:
        metrics = spans.layer_metrics(rec, len(times["traced"]))
        metrics.update(serve_layer_metrics(Window(), []))
        metrics["trace.overhead_frac"] = slowdown(times["traced"], ops)
        metrics["cpu.unpinned_slowdown_frac"] = slowdown(times["unpinned"], ops)
        rec.dump(BENCH_DIR / "out" / f"spans-{name}-seed{seed}.jsonl")
    else:
        print(f"{name}: host ran the reference {pace.host_factor():.2f}x its nominal time")
        ms = [pace.scaled(t0, t0 + dt) * 1000.0 for t0, dt in zip(starts, ops)]
        metrics = {
            "setup_s": import_s + median(setups),
            # Items over the time the ops took, scaled.
            "items_per_s": items * len(ms) * 1000.0 / sum(ms) if ms else 0.0,
            "latency_p50_ms": median(ms),
            "latency_p95_ms": chunked_percentile(ms, 95.0),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
    return Outcome(metrics, attempted, failed, warm_ok and failed == 0)


def run_serve(
    seed: int, seconds: float, trace: bool, import_s: float, cpus: set[int], pace: Pace
) -> Outcome:
    from perfbench import loadgen, spans
    from perfbench.stats import median, peak_rss_mb

    window_s = seconds / 3 if trace else seconds
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        def setup() -> tuple:
            jobs = loadgen.serve_inputs(seed)
            return jobs, loadgen.start_service(jobs)

        setup_s, (jobs, service) = timed_setup(pace, setup)
        service.shutdown()
        setups.append(setup_s)
    oracle = loadgen.serve_oracle(jobs)

    windows = [loadgen.serve_window(jobs, oracle, window_s, None if trace else pace)]
    if trace:
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            windows.append(loadgen.serve_window(jobs, oracle, window_s))
        finally:
            undo()
        with unpinned(cpus):  # the services' workers start here
            windows.append(loadgen.serve_window(jobs, oracle, window_s))
    for win in windows:
        print(loadgen.describe(win))

    first = windows[0]
    if trace:
        traced, spread = windows[1], windows[2]
        metrics = spans.layer_metrics(rec, traced.attempted)
        metrics.update(loadgen.serve_layer_metrics(traced, rec.spans))
        metrics["trace.overhead_frac"] = slowdown(traced.latencies, first.latencies)
        metrics["cpu.unpinned_slowdown_frac"] = slowdown(spread.latencies, first.latencies)
        rec.dump(BENCH_DIR / "out" / f"spans-serve_closed-seed{seed}.jsonl")
    else:
        print(f"serve_closed: host ran the reference {pace.host_factor():.2f}x its nominal time")
        metrics = {"setup_s": import_s + median(setups)}
        metrics.update(loadgen.latency_metrics(first, pace))
        metrics["ok_frac"] = 1.0 - first.failed / first.attempted
        metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(
        metrics,
        sum(w.attempted for w in windows),
        sum(w.failed for w in windows),
        all(w.mismatched == 0 and w.errored == 0 for w in windows),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    pin_to_one_cpu()
    # Spark spills to the temp directory: keep it inside the checkout.
    scratch = BENCH_DIR / "out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.pace import Pace

    serve = args.workload == "serve_closed"
    t0 = time.perf_counter()
    from perfbench import loadgen, workloads

    for module in loadgen.MODULES if serve else workloads.BATCH[args.workload].modules:
        importlib.import_module(module)
    t1 = time.perf_counter()
    pace = Pace(loadgen.REFERENCE if serve else workloads.BATCH[args.workload].reference)
    for _ in range(3):  # after the imports: a reference may use numpy
        pace.measure()
    import_s = pace.scaled(t0, t1)
    if serve:
        outcome = run_serve(args.seed, args.seconds, bool(args.trace), import_s, cpus, pace)
    else:
        outcome = run_batch(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, cpus, pace
        )

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(outcome.metrics) != names:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(outcome.metrics) ^ names)}"
        )
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
