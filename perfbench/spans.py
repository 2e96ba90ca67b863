"""Spans recorded from outside the program, and their fold into layer self time.

The traced run wraps each layer's public entry points (see
:func:`install`). Every wrapped call either opens a :class:`Span` —
name, layer, start, end, the span that caused it, and the request id
shared by every span of one operation — or, for calls made once per
record (partitioner, kernels, MPI point-to-point), adds its duration to
a per-span *leaf* tally so that a 100k-record operation does not make
100k span objects. Spans stay in memory until :meth:`Recorder.dump`.

Self time (:func:`self_time_by_layer`): a span's duration minus the part
of its interval that its child spans cover (children may run on other
threads and overlap each other, so their intervals are unioned) minus
its leaf time. Leaf calls run on the span's own thread and contain no
spans, so they are disjoint from everything else the span covers.
Times are wall-clock: a thread that waits for the interpreter lock inside
a call is charged to that call, so per-layer figures are thread-seconds
and add up to more than an operation's wall time when threads overlap.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import weakref
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Layer of each leaf tally, by leaf name.
LEAF_LAYERS = {
    "shuffle.partition": "spark.shuffle",
    "shuffle.read": "spark.shuffle",
    "kernel.locate_nta": "kernel",
    "kernel.tokenize": "kernel",
    "mpi.send": "mpi.p2p",
    "mpi.recv": "mpi.p2p",
}

#: Every layer a span or leaf can belong to, in the order they are reported.
#: ``op`` is the benchmark's own span around one batch operation: its self
#: time is the part no wrapped entry point covers. ``task`` is code that a
#: layer runs for its caller (executor task bodies, served job bodies),
#: outside any other wrapped call.
LAYERS = (
    "op", "serve", "spark.sched", "executor", "task", "spark.shuffle", "kernel", "mpi.p2p",
)


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: int | None
    rid: int
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    #: leaf name -> [calls, seconds], touched only by the span's own thread.
    leaves: dict[str, list] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: request id -> shuffle keys partitioned for that request.
        self.keys: dict[int, set] = {}
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, layer: str, *, parent: Span | None = None, **attrs: Any):
        """Open a span on this thread; ``parent`` defaults to the thread's
        innermost open span, and a span with no parent starts a new request."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        rid = parent.rid if parent is not None else next(self._rids)
        s = Span(next(self._ids), name, layer, time.perf_counter(),
                 parent.sid if parent is not None else None, rid, attrs=attrs)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def leaf(self, name: str, seconds: float) -> None:
        s = self.current()
        if s is None:
            return
        tally = s.leaves.get(name)
        if tally is None:
            s.leaves[name] = [1, seconds]
        else:
            tally[0] += 1
            tally[1] += seconds

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def dump(self, path: Path) -> None:
        """Write every span (leaf tallies inline) as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer, "rid": s.rid,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "attrs": {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))},
                    "leaves": s.leaves,
                }) + "\n")


# ----------------------------------------------------------------------
# the fold
# ----------------------------------------------------------------------
def _covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> self time (never negative)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        leaf = sum(t[1] for t in s.leaves.values())
        covered = _covered(s.start, s.end, children.get(s.sid, ()))
        out[s.sid] = max(0.0, s.duration - covered - leaf)
    return out


def self_time_by_layer(spans: Iterable[Span]) -> dict[str, float]:
    """Layer -> summed self time of its spans plus its leaf time."""
    spans = list(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        for name, (_calls, seconds) in s.leaves.items():
            layer = LEAF_LAYERS[name]
            totals[layer] = totals.get(layer, 0.0) + seconds
    selfs = self_times(spans)
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + selfs[s.sid]
    return totals


def leaf_totals(spans: Iterable[Span]) -> dict[str, list]:
    """Leaf name -> [calls, seconds] over all spans."""
    out: dict[str, list] = {}
    for s in spans:
        for name, (calls, seconds) in s.leaves.items():
            tally = out.setdefault(name, [0, 0.0])
            tally[0] += calls
            tally[1] += seconds
    return out


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """The spark, executor, shuffle, kernel, MPI and self-time metrics of a
    traced run, each per operation (a batch iteration or a served job)."""
    per = 1.0 / max(1, ops)
    by_name: dict[str, list[Span]] = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    leaves = leaf_totals(rec.spans)
    counts = rec.counts

    def total(*names: str) -> float:
        return sum(s.duration for name in names for s in by_name.get(name, ()))

    def leaf(name: str, i: int) -> float:
        return leaves.get(name, [0, 0.0])[i]

    maps = by_name.get("executor.map", [])
    task_time: dict[int, float] = {}
    for t in by_name.get("executor.task", []):
        task_time[t.parent] = task_time.get(t.parent, 0.0) + t.duration
    idle = sum(m.duration * m.attrs["workers"] - task_time.get(m.sid, 0.0) for m in maps)

    slowest_rank: dict[int, float] = {}
    for r in by_name.get("mpi.rank", []):
        slowest_rank[r.parent] = max(slowest_rank.get(r.parent, 0.0), r.duration)
    launch = sum(s.duration - slowest_rank.get(s.sid, 0.0) for s in by_name.get("mpi.run_spmd", []))
    selfs = self_times(rec.spans)

    calls = leaf("shuffle.partition", 0)
    distinct = sum(len(keys) for keys in rec.keys.values())
    out = {
        "spark.contexts": len(by_name.get("spark.context_init", [])) * per,
        "spark.context_s": total("spark.context_init", "spark.context_stop") * per,
        "spark.jobs": counts.get("spark.jobs", 0) * per,
        "spark.tasks": counts.get("spark.tasks", 0) * per,
        "spark.job_s": total("spark.run_job") * per,
        "executor.maps": len(maps) * per,
        "executor.tasks": len(by_name.get("executor.task", [])) * per,
        "executor.map_s": total("executor.map") * per,
        "executor.task_s": total("executor.task") * per,
        "executor.idle_s": idle * per,
        "shuffle.partition_calls": calls * per,
        "shuffle.distinct_keys": distinct * per,
        "shuffle.key_repeat_share": 1.0 - distinct / calls if calls else 0.0,
        "shuffle.partition_s": leaf("shuffle.partition", 1) * per,
        "shuffle.records": counts.get("shuffle.records", 0) * per,
        "shuffle.write_s": total("shuffle.write") * per,
        "shuffle.read_s": leaf("shuffle.read", 1) * per,
        "shuffle.spill_files": counts.get("shuffle.spill_files", 0) * per,
        "shuffle.spill_bytes": counts.get("shuffle.spill_bytes", 0) * per,
        "shuffle.merge_passes": counts.get("shuffle.merge_passes", 0) * per,
        "kernel.locate_nta_s": leaf("kernel.locate_nta", 1) * per,
        "kernel.tokenize_s": leaf("kernel.tokenize", 1) * per,
        "kernel.stencil_s": sum(selfs[r.sid] for r in by_name.get("mpi.rank", [])) * per,
        "mpi.messages": counts.get("mpi.messages", 0) * per,
        "mpi.bytes": counts.get("mpi.bytes", 0) * per,
        "mpi.send_s": leaf("mpi.send", 1) * per,
        "mpi.recv_s": leaf("mpi.recv", 1) * per,
        "mpi.spmd_s": total("mpi.run_spmd") * per,
        "mpi.launch_s": launch * per,
    }
    for layer, seconds in self_time_by_layer(rec.spans).items():
        out[f"self_s.{layer}"] = seconds * per
    return out


# ----------------------------------------------------------------------
# wrappers around the layers' public entry points
# ----------------------------------------------------------------------
class _Patches:
    """Attribute replacements that :meth:`undo` puts back exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, orig: Callable, wrapper: Callable) -> None:
        """Rebind every module-level name bound to ``orig`` (callers that
        did ``from module import fn`` look it up in their own module)."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is orig:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _leaf(rec: Recorder, name: str, fn: Callable) -> Callable:
    """``fn``, with the time of each call added to leaf ``name`` of the
    calling thread's innermost span."""
    leaf, clock = rec.leaf, time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            leaf(name, clock() - t0)

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced entry point to record into ``rec``; returns the undo."""
    from repro.core.executor import SerialExecutor, ThreadExecutor
    from repro.mpi.comm import Communicator
    from repro.serve import JobService
    from repro.spark import HashPartitioner, ShuffleBlockStore, SparkContext

    # Callers that bind run_spmd, locate_nta or tokenize by name must be
    # imported before those names are rebound. ``repro.knn.wordcount`` is
    # imported by path: ``repro.knn`` re-exports a function of that name.
    importlib.import_module("repro.heat.mpi2d")
    runtime = importlib.import_module("repro.mpi.runtime")
    nyc = importlib.import_module("repro.pipeline.nyc")
    wordcount = importlib.import_module("repro.knn.wordcount")

    p = _Patches()

    def spanned(cls: type, attr: str, name: str, layer: str) -> None:
        orig = cls.__dict__[attr]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with rec.span(name, layer):
                return orig(*args, **kwargs)

        p.set(cls, attr, wrapper)

    def leafed(cls: type, attr: str, name: str) -> None:
        p.set(cls, attr, _leaf(rec, name, cls.__dict__[attr]))

    # --- serve: admission and the submitted job body -------------------
    submit = JobService.__dict__["submit"]

    def traced_submit(self: Any, tenant: str, fn: Callable, **kwargs: Any) -> Any:
        with rec.span("serve.submit", "serve", job=kwargs.get("name")) as s:
            def body(ctx: Any) -> Any:
                with rec.span("serve.job", "task", parent=s, job=kwargs.get("name")):
                    return fn(ctx)

            return submit(self, tenant, body, **kwargs)

    p.set(JobService, "submit", traced_submit)

    # --- spark.sched: context lifetime and actions; counts from JobMetrics
    spanned(SparkContext, "__init__", "spark.context_init", "spark.sched")
    spanned(SparkContext, "run_job", "spark.run_job", "spark.sched")
    stop = SparkContext.__dict__["stop"]
    harvested: weakref.WeakSet = weakref.WeakSet()

    def traced_stop(self: Any) -> None:
        with rec.span("spark.context_stop", "spark.sched"):
            stop(self)
        if self in harvested:
            return  # stop() is idempotent; count each context once
        harvested.add(self)
        m = self.metrics
        rec.count("spark.jobs", m.jobs)
        rec.count("spark.tasks", m.tasks)
        rec.count("shuffle.records", m.shuffle_records)
        for key in ("spill_files", "spill_bytes", "merge_passes"):
            rec.count(f"shuffle.{key}", m.extra.get(f"spark.{key}", 0))

    p.set(SparkContext, "stop", traced_stop)

    # --- executor: the map and each task it runs -----------------------
    def traced_map(cls: type) -> None:
        orig = cls.__dict__["map"]

        def wrapper(self: Any, fn: Callable, items: Any) -> Any:
            with rec.span("executor.map", "executor", workers=self.num_workers) as m:
                def task(i: int, item: Any) -> Any:
                    with rec.span("executor.task", "task", parent=m):
                        return fn(i, item)

                return orig(self, task, items)

        p.set(cls, "map", wrapper)

    traced_map(ThreadExecutor)
    traced_map(SerialExecutor)

    # --- spark.shuffle: partitioner, block store -----------------------
    timed_partition = _leaf(rec, "shuffle.partition", HashPartitioner.__dict__["partition"])

    def traced_partition(self: Any, key: Any) -> int:
        s = rec.current()
        if s is not None:
            keys = rec.keys.get(s.rid) or rec.keys.setdefault(s.rid, set())
            keys.add(key)
        return timed_partition(self, key)

    p.set(HashPartitioner, "partition", traced_partition)
    spanned(ShuffleBlockStore, "put", "shuffle.write", "spark.shuffle")
    get = ShuffleBlockStore.__dict__["get"]
    iter_blocks = ShuffleBlockStore.__dict__["iter_blocks"]
    timed_get = _leaf(rec, "shuffle.read", get)
    timed_next = _leaf(rec, "shuffle.read", next)
    reading = threading.local()

    def traced_get(self: Any, map_task: int, reduce_part: int) -> Any:
        # iter_blocks() reads through get(); that time is already counted.
        fn = get if getattr(reading, "on", False) else timed_get
        return fn(self, map_task, reduce_part)

    def traced_iter_blocks(self: Any, reduce_part: int) -> Iterator:
        # Time only the producer's share of each step, not the consumer's.
        it = iter_blocks(self, reduce_part)
        while True:
            reading.on = True
            try:
                item = timed_next(it)
            except StopIteration:
                return
            finally:
                reading.on = False
            yield item

    p.set(ShuffleBlockStore, "get", traced_get)
    p.set(ShuffleBlockStore, "iter_blocks", traced_iter_blocks)

    # --- kernels ------------------------------------------------------
    for orig, name in ((nyc.locate_nta, "kernel.locate_nta"),
                       (wordcount.tokenize, "kernel.tokenize")):
        p.function(orig, _leaf(rec, name, orig))

    # --- mpi.p2p: send/recv, message stats, the SPMD launch -------------
    leafed(Communicator, "send", "mpi.send")
    leafed(Communicator, "recv_with_status", "mpi.recv")
    record = runtime.MessageStats.__dict__["record"]

    def traced_record(self: Any, nbytes: int, **kwargs: Any) -> None:
        rec.count("mpi.messages")
        rec.count("mpi.bytes", nbytes)
        record(self, nbytes, **kwargs)

    p.set(runtime.MessageStats, "record", traced_record)
    run_spmd = runtime.run_spmd

    def traced_run_spmd(size: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        with rec.span("mpi.run_spmd", "mpi.p2p", ranks=size) as launch:
            def rank_body(comm: Any, *a: Any, **k: Any) -> Any:
                with rec.span("mpi.rank", "kernel", parent=launch):
                    return fn(comm, *a, **k)

            return run_spmd(size, rank_body, *args, **kwargs)

    p.function(run_spmd, traced_run_spmd)
    return p.undo
