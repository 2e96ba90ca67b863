"""The benchmark's own tests: inputs, percentile rule, self-time fold,
failure accounting, and that tracing leaves the program as it found it.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import loadgen, pace, spans, workloads  # noqa: E402
from perfbench.stats import (  # noqa: E402
    chunked_percentile, percentile, slices_for, supported_percentile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# inputs come from the seed alone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.BATCH))
def test_batch_inputs_are_a_function_of_the_seed(name):
    make = workloads.BATCH[name].make_inputs
    assert digest(make(3)) == digest(make(3))
    assert digest(make(3)) != digest(make(4))


def test_serve_jobs_are_a_function_of_the_seed():
    assert loadgen.serve_inputs(3) == loadgen.serve_inputs(3)
    assert loadgen.serve_inputs(3) != loadgen.serve_inputs(4)
    jobs = loadgen.serve_inputs(3)
    assert len(jobs) == loadgen.POOL
    # Both tenants are interleaved through the pool, not one after the other.
    first_quarter = {job.tenant for job in jobs[: len(jobs) // 4]}
    assert first_quarter == {f"tenant{t}" for t in range(loadgen.TENANTS)}


def test_every_seed_mixes_the_serve_workloads_in_equal_shares():
    from collections import Counter

    for seed in (3, 4, 5):
        jobs = loadgen.serve_inputs(seed)
        assert set(Counter(job.workload for job in jobs).values()) == {loadgen.POOL // 3}
        assert len({(job.workload, job.seed) for job in jobs}) == loadgen.POOL


def digest(inputs):
    from repro.trace.history import result_digest

    return result_digest(inputs)


# ----------------------------------------------------------------------
# the highest percentile with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("n", "expected"),
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_supported_percentile(n, expected):
    assert supported_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    assert percentile([], 95.0) == 0.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile(list(range(101)), 95.0) == 95.0


def test_chunked_percentile_is_the_median_of_the_slices_tails():
    steady = [1.0] * 100
    slow = [1.0] * 80 + [9.0] * 20  # one slow stretch at the end of the run
    assert chunked_percentile(steady + steady + slow, 95.0, 3) == 1.0
    assert percentile(steady + steady + slow, 95.0) > 1.0
    assert chunked_percentile(slow + slow + steady, 95.0, 3) == 9.0
    assert chunked_percentile([3.0, 1.0], 50.0, 3) == 2.0  # too few to slice


def test_each_default_slice_keeps_ten_samples_beyond_the_percentile():
    assert [slices_for(n, 95.0) for n in (0, 199, 200, 399, 400, 2000)] == [1, 1, 1, 1, 2, 10]
    assert supported_percentile(2000 // slices_for(2000, 95.0)) == 95.0
    assert slices_for(1000, 99.0) == 1 and slices_for(1000, 50.0) == 50
    # Two slow stretches of 200 samples among six: the median slice is steady.
    run = [1.0] * 200 + [9.0] * 200 + [1.0] * 600 + [9.0] * 200
    assert percentile(run, 95.0) == 9.0
    assert chunked_percentile(run, 95.0) == 1.0


# ----------------------------------------------------------------------
# the self-time fold
# ----------------------------------------------------------------------
def _span(sid, layer, start, end, parent=None, leaves=None):
    return spans.Span(sid, f"s{sid}", layer, start, parent, rid=1, end=end,
                      leaves=leaves or {})


def test_self_time_subtracts_the_union_of_children_and_leaf_time():
    tree = [
        # root [0, 10] with 1 s of its own leaf calls
        _span(1, "op", 0.0, 10.0, leaves={"kernel.locate_nta": [5, 1.0]}),
        # two children on other threads, overlapping over [3, 4]
        _span(2, "executor", 1.0, 4.0, parent=1),
        _span(3, "executor", 3.0, 6.0, parent=1, leaves={"mpi.send": [2, 0.5]}),
        # a grandchild, and a child that sticks out past its parent's end
        _span(4, "spark.sched", 2.0, 3.0, parent=2),
        _span(5, "task", 5.5, 7.0, parent=3),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0 - 0.5 - 0.5)  # child clipped to [5.5, 6]
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.5)
    layers = spans.self_time_by_layer(tree)
    assert layers["op"] == pytest.approx(4.0)
    assert layers["executor"] == pytest.approx(4.0)
    assert layers["kernel"] == pytest.approx(1.0)
    assert layers["mpi.p2p"] == pytest.approx(0.5)
    assert layers["spark.sched"] == pytest.approx(1.0)
    assert layers["task"] == pytest.approx(1.5)
    assert layers["serve"] == 0.0


def test_self_time_is_never_negative():
    over = [_span(1, "op", 0.0, 1.0, leaves={"mpi.recv": [1, 2.0]})]
    assert spans.self_times(over) == {1: 0.0}


def test_recorder_links_parents_and_request_ids_across_threads():
    rec = spans.Recorder()
    with rec.span("op", "op") as root:
        with rec.span("child", "executor") as child:
            rec.leaf("kernel.tokenize", 0.25)

        def other():
            with rec.span("task", "task", parent=child):
                pass

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
    with rec.span("next", "op") as second:
        pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["child"].parent == root.sid
    assert by_name["task"].parent == child.sid
    assert {s.rid for s in (root, child, by_name["task"])} == {root.rid}
    assert second.rid != root.rid
    assert by_name["child"].leaves == {"kernel.tokenize": [1, 0.25]}


# ----------------------------------------------------------------------
# scaling times by the host's reference speed
# ----------------------------------------------------------------------
def _pace(stamps, times):
    p = pace.Pace("python")
    p.stamps, p.times = list(stamps), list(times)
    return p


def test_scale_is_nominal_over_the_reference_next_to_the_interval():
    # The host runs the reference at nominal speed, then at half speed.
    n = pace.REFERENCES["python"][1]
    p = _pace([0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2, 5.3], [n] * 4 + [2 * n] * 4)
    assert p.scale(0.12, 0.18) == pytest.approx(1.0)  # between two at nominal speed
    assert p.scale(5.05, 5.25) == pytest.approx(0.5)  # one within, one on each side
    assert p.scaled(5.15, 5.25) == pytest.approx(0.05)
    # The host changed speed in between: the mean of the two neighbours.
    assert p.scale(2.0, 2.2) == pytest.approx(1.0 / 1.5)
    # Before the first run or after the last: the nearest ones.
    assert p.scale(-1.0, -0.5) == pytest.approx(1.0)
    assert p.scale(9.0, 9.5) == pytest.approx(0.5)


@pytest.mark.parametrize("kind", sorted(pace.REFERENCES))
def test_every_reference_is_fixed_work_that_scales_the_times_after_it(kind):
    p = pace.Pace(kind)
    for _ in range(5):
        p.measure()
    t0 = time.perf_counter()
    assert p.scaled(t0, t0 + 0.01) == pytest.approx(0.01 * p.scale(t0, t0))
    assert p.host_factor() > 0
    work = pace.REFERENCES[kind][0]
    assert work() == work()


def test_every_workload_names_a_reference():
    kinds = {w.reference for w in workloads.BATCH.values()} | {loadgen.REFERENCE}
    assert kinds <= set(pace.REFERENCES)


# ----------------------------------------------------------------------
# failure accounting in the closed loop
# ----------------------------------------------------------------------
class _Handle:
    def __init__(self, state, result=None):
        self.state = state
        self._result = result

    def wait(self, timeout=None):
        return True

    def result(self):
        return self._result


class _FakeService:
    """Runs each job inline; its fate is set by the order it was sent in
    (``ok`` past the end of ``fates``)."""

    def __init__(self, fates):
        self.fates = fates
        self.calls = 0
        self.lock = threading.Lock()
        self.metrics = SimpleNamespace(submitted=0, completed=0, retries=0, shed=0,
                                       rejected_full=0, rejected_circuit=0)
        self.stopped = False

    def shutdown(self):
        self.stopped = True

    def submit(self, tenant, fn, *, name, priority):
        from repro.serve import JobContext, QueueFullError

        with self.lock:  # one client thread per job in flight
            fate = self.fates[self.calls] if self.calls < len(self.fates) else "ok"
            self.calls += 1
        if fate == "rejected":
            self.metrics.rejected_full += 1
            raise QueueFullError(tenant, 1, 1, 0.0)
        if fate == "shed":
            self.metrics.shed += 1
            return _Handle("shed")
        if fate == "raised":
            return _Handle("failed")
        if fate == "slow":
            time.sleep(0.2)
        out = fn(JobContext(tenant, name, self.calls, threading.Event()))
        self.metrics.completed += 1
        return _Handle("done", {"wrong": 1} if fate == "wrong" else out)


def test_rejected_shed_raised_wrong_and_late_jobs_all_count_as_failed(monkeypatch):
    fates = ["ok", "rejected", "shed", "raised", "wrong", "slow", "ok"]
    monkeypatch.setattr(loadgen, "LATENCY_LIMIT_S", 0.15)
    monkeypatch.setattr(loadgen, "CLIENTS", len(fates))  # all sent before the first wait
    jobs = tuple(j for j in loadgen.serve_inputs(5) if j.workload != "nyc")[: len(fates)]
    oracle = loadgen.serve_oracle(jobs)
    win = loadgen.closed_loop(_FakeService(fates), jobs, oracle, seconds=0.0)
    assert (win.rejected, win.not_done, win.errored, win.mismatched, win.over_limit) == (
        1, 1, 1, 1, 1)
    assert win.failed == 5
    assert win.attempted == len(fates)
    assert len(win.latencies) == 2
    layer = loadgen.serve_layer_metrics(win, [])
    assert layer["serve.rejected"] == pytest.approx(1 / len(fates))
    assert layer["serve.shed"] == pytest.approx(1 / len(fates))


def test_a_rejected_job_is_replaced_while_the_window_is_open(monkeypatch):
    monkeypatch.setattr(loadgen, "CLIENTS", 1)
    jobs = tuple(j for j in loadgen.serve_inputs(5) if j.workload != "nyc")[:4]
    win = loadgen.closed_loop(_FakeService(["rejected"]), jobs, loadgen.serve_oracle(jobs), 0.05)
    assert win.rejected == 1
    assert win.attempted >= 2
    assert len(win.latencies) == win.attempted - 1


def test_a_slow_job_does_not_hold_back_the_other_clients(monkeypatch):
    monkeypatch.setattr(loadgen, "CLIENTS", 2)
    monkeypatch.setattr(loadgen, "LATENCY_LIMIT_S", 10.0)
    jobs = tuple(j for j in loadgen.serve_inputs(5) if j.workload != "nyc")[:4]
    # The first job sleeps 0.2 s, past the end of the window; a loop
    # that waited on it would send nothing more.
    win = loadgen.closed_loop(_FakeService(["slow"]), jobs, loadgen.serve_oracle(jobs), 0.15)
    assert win.failed == 0
    assert win.attempted >= 3  # the other client kept sending meanwhile
    assert max(win.latencies) >= 0.2


def test_each_service_serves_a_fixed_number_of_jobs_then_is_replaced(monkeypatch):
    services = []

    def start(jobs):
        services.append(_FakeService([]))
        return services[-1]

    monkeypatch.setattr(loadgen, "JOBS_PER_SERVICE", 3)
    monkeypatch.setattr(loadgen, "start_service", start)
    jobs = tuple(j for j in loadgen.serve_inputs(5) if j.workload != "nyc")[:4]
    p = pace.Pace(loadgen.REFERENCE)
    win = loadgen.serve_window(jobs, loadgen.serve_oracle(jobs), 0.1, p)
    assert len(services) >= 2 and all(s.stopped for s in services)
    assert all(s.calls <= 3 for s in services)
    assert win.serve_counts["completed"] == win.attempted == len(win.samples)
    assert len(win.busy) == len(services) and p.times
    metrics = loadgen.latency_metrics(win, p)
    assert metrics["items_per_s"] > 0 and metrics["latency_p50_ms"] > 0


# ----------------------------------------------------------------------
# tracing: names match BENCHMARK.json, and undo restores the program
# ----------------------------------------------------------------------
def test_trace_metrics_are_exactly_the_declared_per_layer_metrics():
    names = set(spans.layer_metrics(spans.Recorder(), 1))
    names |= set(loadgen.serve_layer_metrics(loadgen.Window(), []))
    names |= {"trace.overhead_frac", "cpu.unpinned_slowdown_frac"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_install_then_undo_restores_every_entry_point():
    import importlib

    from repro.core.executor import SerialExecutor, ThreadExecutor
    from repro.mpi.comm import Communicator
    from repro.mpi.runtime import MessageStats
    from repro.serve import JobService
    from repro.spark import HashPartitioner, ShuffleBlockStore, SparkContext

    mpi2d = importlib.import_module("repro.heat.mpi2d")
    nyc = importlib.import_module("repro.pipeline.nyc")
    wc = importlib.import_module("repro.knn.wordcount")
    owners = [JobService, SparkContext, ThreadExecutor, SerialExecutor, HashPartitioner,
              ShuffleBlockStore, Communicator, MessageStats]
    before = [dict(vars(o)) for o in owners]
    funcs = (mpi2d.run_spmd, nyc.locate_nta, wc.tokenize)
    undo = spans.install(spans.Recorder())
    assert mpi2d.run_spmd is not funcs[0] and nyc.locate_nta is not funcs[1]
    undo()
    assert [dict(vars(o)) for o in owners] == before
    assert (mpi2d.run_spmd, nyc.locate_nta, wc.tokenize) == funcs


def test_traced_halo_exchange_counts_messages_and_stays_exact():
    from repro.heat.mpi2d import run_mpi_2d, solve_serial_2d

    u0 = workloads.heat_inputs(1)[:16, :16].copy()
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        with rec.span("op", "op"):
            out = run_mpi_2d(2, u0, workloads.HEAT_ALPHA, 20)
    finally:
        undo()
    assert np.array_equal(out, solve_serial_2d(u0, workloads.HEAT_ALPHA, 20))
    m = spans.layer_metrics(rec, 1)
    assert m["mpi.messages"] == 2 * 20
    assert m["mpi.send_s"] > 0 and m["mpi.recv_s"] > 0 and m["kernel.stencil_s"] > 0
    assert m["spark.contexts"] == 0 and m["executor.maps"] == 0


def test_traced_spilling_wordcount_counts_spill_files_and_stays_exact():
    from repro.knn.wordcount import wordcount_spark

    lines = workloads.wordcount_inputs(2)[:4000]
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        with rec.span("op", "op"):
            counts = wordcount_spark(lines, num_workers=2, memory_budget=20_000)
    finally:
        undo()
    assert counts == workloads.wordcount_oracle(lines)
    m = spans.layer_metrics(rec, 1)
    assert m["shuffle.spill_files"] > 0 and m["shuffle.merge_passes"] > 0
    assert m["spark.contexts"] == 1 and m["mpi.messages"] == 0
    assert m["shuffle.partition_calls"] == sum(len(line.split()) for line in lines)
    assert m["kernel.tokenize_s"] > 0 and m["shuffle.read_s"] > 0
