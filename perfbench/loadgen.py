"""serve_closed: a closed loop of tenants' jobs through a :class:`JobService`.

``CLIENTS`` client threads each send a job, wait for its reply and send
the next. A job's latency runs from when it was sent to when its body
returned. The jobs cycle through ``POOL`` of ``generate_traffic(seed)``
for two tenants (tiny wordcount, k-means and NYC jobs); the service runs
them on two workers. Each service serves ``JOBS_PER_SERVICE`` jobs and
is replaced by a fresh one (:func:`serve_window`): a service keeps a
record of every job it ran, so its memory and per-job cost grow with
the jobs served, and a fixed count keeps both the same on a fast host
and a slow one.

One client: on one CPU the service is already at its throughput with
one job in flight, and each client more adds only queueing. Ten-second
runs on four seeds gave, for 1/2/3/4 clients, 154-205 / 167-188 /
148-190 / 154-187 jobs/s with latency p50 3.2-4.6 / 8.7-10.0 /
13.2-17.9 / 17.8-22.1 ms: latency grew as clients over throughput.
With one client a job's latency is its service time (admission, context
set-up, executor dispatch, the job), which is what this workload is for.

An open loop at a fixed rate was tried first and dropped: on a 2-vCPU
virtual machine with a busy host, its latency percentiles moved by up
to 4x between runs of the same code.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.pace import Pace
from perfbench.stats import chunked_percentile, median, percentile, slices_for, tail_label

CLIENTS = 1  # jobs in flight: see the module docstring
TENANTS = 2
SERVE_WORKERS = 2
POOL = 201  # distinct jobs the loop cycles through, 67 of each workload
JOBS_PER_SERVICE = 1000
#: A job that finishes later than this after it was sent counts as failed.
LATENCY_LIMIT_S = 1.0
WAIT_TIMEOUT_S = 60.0
#: The kind of work its times are scaled by (see perfbench.pace).
REFERENCE = "python"
#: What a run of this workload imports (timed as part of set-up).
MODULES = ("repro.serve", "repro.spark", "repro.trace.history")


def serve_inputs(seed: int) -> tuple:
    """``POOL`` jobs of the seed's tenant-interleaved mix, the same number
    of each workload, taken in turn.

    The three workloads' service times sit about 2x apart (k-means below
    wordcount below NYC), so the latency median falls in whichever
    workload holds the middle of the mix. A mix drawn freely per seed
    moved it from 2.6 to 4.0 ms between seeds; equal shares keep it in
    the middle workload and leave the seed the order, tenants,
    priorities and job seeds.
    """
    from repro.serve import generate_traffic
    from repro.serve.traffic import TRAFFIC_WORKLOADS

    # A non-zero gap interleaves the tenants; without it the mix sorts by name.
    jobs = generate_traffic(seed, tenants=TENANTS, jobs_per_tenant=POOL, mean_gap=1.0)
    by_workload = {w: [j for j in jobs if j.workload == w] for w in TRAFFIC_WORKLOADS}
    turns = zip(*by_workload.values())
    return tuple(job for turn in turns for job in turn)[:POOL]


def serve_oracle(jobs: tuple) -> dict[tuple[str, int], str]:
    """Digest of each job run solo, outside any service, per (workload, seed)."""
    from repro.serve import run_solo
    from repro.trace.history import result_digest

    return {(j.workload, j.seed): result_digest(run_solo(j)) for j in jobs}


def start_service(jobs: tuple) -> Any:
    """A fresh service, warmed with one job of each workload in the mix."""
    from repro.serve import JobService, job_body

    service = JobService(SERVE_WORKERS)
    first = {}
    for job in jobs:
        first.setdefault(job.workload, job)
    for job in first.values():
        service.submit(job.tenant, job_body(job), name=f"warm-{job.name}").result(timeout=30)
    return service


@dataclass
class Window:
    """What one closed-loop window measured."""

    attempted: int = 0
    #: (sent, latency) of each job that finished within the limit, in send order
    samples: list[tuple[float, float]] = field(default_factory=list)
    sent: dict[str, float] = field(default_factory=dict)  # job name -> send time
    rejected: int = 0
    errored: int = 0  # the job body raised
    not_done: int = 0  # shed, cancelled, expired or timed out
    mismatched: int = 0
    over_limit: int = 0
    #: (start, last job finished) of each closed loop that finished a job
    busy: list[tuple[float, float]] = field(default_factory=list)
    #: growth of the services' own counters over the loops
    serve_counts: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.rejected + self.errored + self.not_done + self.mismatched + self.over_limit

    @property
    def latencies(self) -> list[float]:
        return [lat for _, lat in self.samples]


_SERVE_COUNTS = ("submitted", "completed", "retries", "shed", "rejected")


def _serve_counts(service: Any) -> dict[str, int]:
    m = service.metrics
    return {
        "submitted": m.submitted, "completed": m.completed, "retries": m.retries,
        "shed": m.shed, "rejected": m.rejected_full + m.rejected_circuit,
    }


def serve_window(jobs: tuple, oracle: dict, seconds: float, pace: Pace | None = None) -> Window:
    """A closed loop for ``seconds``, on a fresh service every
    ``JOBS_PER_SERVICE`` jobs. Starting and stopping services is not
    part of any latency or of the busy time."""
    win = Window()
    deadline = time.perf_counter() + seconds
    while True:
        service = start_service(jobs)
        try:
            closed_loop(service, jobs, oracle, deadline - time.perf_counter(), win=win,
                        max_jobs=JOBS_PER_SERVICE, pace=pace)
        finally:
            service.shutdown()
        if time.perf_counter() >= deadline:
            return win


def closed_loop(
    service: Any, jobs: tuple, oracle: dict, seconds: float, *, win: Window | None = None,
    max_jobs: int | None = None, pace: Pace | None = None,
) -> Window:
    """Keep ``CLIENTS`` jobs in flight for ``seconds`` or until ``max_jobs``
    were sent, then check every result; add it all to ``win``.

    Each client is a thread that sends a job, waits for it and sends the
    next, so a job that finishes (or is rejected) is replaced at once
    whatever the other clients' jobs are doing. Every client sends at
    least once, even into a window that has already closed. With a
    ``pace``, each client times the host's reference before it sends
    (at most every ``pace.EVERY_S``); with one client no job is in
    flight then.
    """
    from repro.serve import CircuitOpenError, QueueFullError, job_body

    win = Window() if win is None else win
    before = _serve_counts(service)
    settled = []  # (job, handle, [sent, body returned]) of every admitted job
    lock = threading.Lock()
    numbers = itertools.count()
    deadline = time.perf_counter() + seconds

    def send(i: int) -> tuple | None:
        job = jobs[i % len(jobs)]
        name = f"{job.name}#{i}"
        stamps = [0.0, None]
        body = job_body(job)

        def timed(ctx: Any) -> Any:
            out = body(ctx)
            stamps[1] = time.perf_counter()
            return out

        stamps[0] = time.perf_counter()
        with lock:
            win.attempted += 1
            win.sent[name] = stamps[0]
        try:
            handle = service.submit(job.tenant, timed, name=name, priority=job.priority)
        except (QueueFullError, CircuitOpenError):
            with lock:
                win.rejected += 1
            return None
        return job, handle, stamps

    def client() -> None:
        while True:
            if pace is not None:
                pace.tick()
            i = next(numbers)
            entry = send(i)
            if entry is not None:
                entry[1].wait(timeout=WAIT_TIMEOUT_S)
                with lock:
                    settled.append(entry)
            if time.perf_counter() >= deadline or (max_jobs is not None and i + 1 >= max_jobs):
                return

    t0 = time.perf_counter()
    clients = [threading.Thread(target=client, name=f"client-{c}") for c in range(CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    after = _serve_counts(service)
    for k in _SERVE_COUNTS:
        win.serve_counts[k] = win.serve_counts.get(k, 0) + after[k] - before[k]
    _settle(win, settled, oracle, t0)
    return win


def _settle(win: Window, settled: list, oracle: dict, t0: float) -> None:
    """Check each admitted job against its oracle digest and the limit."""
    from repro.trace.history import result_digest

    finished = []
    settled.sort(key=lambda entry: entry[2][0])
    for job, handle, (start, end) in settled:
        if handle.state == "failed":
            win.errored += 1
        elif handle.state != "done" or end is None:
            win.not_done += 1
        elif result_digest(handle.result()) != oracle[(job.workload, job.seed)]:
            win.mismatched += 1
        elif end - start > LATENCY_LIMIT_S:
            win.over_limit += 1
        else:
            win.samples.append((start, end - start))
            finished.append(end)
    if finished:
        win.busy.append((t0, max(finished)))


def latency_metrics(win: Window, pace: Pace) -> dict[str, float]:
    """Latency percentiles and jobs/s, scaled to the nominal host (see
    :mod:`perfbench.pace`)."""
    ms = [pace.scaled(sent, sent + lat) * 1000.0 for sent, lat in win.samples]
    busy = sum(pace.scaled(a, b) for a, b in win.busy)
    return {
        "latency_p50_ms": median(ms),
        "latency_p95_ms": chunked_percentile(ms, 95.0),
        "items_per_s": len(win.samples) / busy if busy else 0.0,
    }


def throughput(win: Window) -> float:
    """Jobs finished per second of wall time the loops ran."""
    busy = sum(b - a for a, b in win.busy)
    return len(win.samples) / busy if busy else 0.0


def describe(win: Window) -> str:
    """One human-readable line: sample count, the tail it supports, failures."""
    n = len(win.latencies)
    return (
        f"serve_closed: {CLIENTS} jobs in flight, {throughput(win):.1f} jobs/s, {n} latency "
        f"samples (highest supported percentile in each of {slices_for(n, 95.0)} slices: "
        f"{tail_label(n // slices_for(n, 95.0))}), failed "
        f"{win.failed} of {win.attempted} (rejected {win.rejected}, raised {win.errored}, "
        f"not done {win.not_done}, mismatched {win.mismatched}, "
        f"over {LATENCY_LIMIT_S * 1000:.0f} ms {win.over_limit})"
    )


def serve_layer_metrics(win: Window, spans: list) -> dict[str, float]:
    """The serve per-layer metrics of one traced window (all 0 for an
    empty window, as on a workload that sends no jobs)."""
    submit_ms = [s.duration * 1000.0 for s in spans if s.name == "serve.submit"]
    jobs = [s for s in spans if s.name == "serve.job" and s.attrs.get("job") in win.sent]
    wait_ms = [(s.start - win.sent[s.attrs["job"]]) * 1000.0 for s in jobs]
    delta = {k: win.serve_counts.get(k, 0) for k in _SERVE_COUNTS}
    ops = max(1, win.attempted)
    return {
        "serve.submit_ms_p50": median(submit_ms),
        "serve.queue_wait_ms_p50": median(wait_ms),
        "serve.queue_wait_ms_p95": percentile(wait_ms, 95.0),
        "serve.service_ms_p50": median([s.duration * 1000.0 for s in jobs]),
        "serve.rejected": delta["rejected"] / ops,
        "serve.shed": delta["shed"] / ops,
        "serve.retries": delta["retries"] / ops,
        "serve.completed_share": delta["completed"] / ops,
    }
