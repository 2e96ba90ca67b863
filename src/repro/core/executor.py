"""Pluggable executor backends: serial, thread, and process parallelism.

Every engine in the reproduction fans embarrassingly-parallel work over
local workers — Spark tasks over partitions, MapReduce map/reduce tasks
within a rank, the k-means assignment step over point chunks, HPO
trials over the grid. This module gives them one shared substrate with
three interchangeable backends:

- :class:`SerialExecutor` — a plain loop on the calling thread.
  Zero concurrency, zero overhead; the determinism baseline.
- :class:`ThreadExecutor` — fork-join over contiguous item blocks, one
  per worker, with the calling thread running block 0 and fresh
  threads for the rest (fresh threads keep nested maps deadlock-free).
  Real concurrency for GIL-releasing kernels (numpy, IO); serialized
  for pure-Python loops.
- :class:`ProcessExecutor` — real CPU parallelism on a **persistent
  pool** of ``multiprocessing`` workers: processes spawn once per
  executor lifetime, jobs are dispatched warm over per-worker task
  queues, numpy datasets travel zero-copy as shared-memory descriptors
  (:meth:`Executor.publish`), and small jobs fuse into one chunk per
  worker so dispatch never costs more than one message per worker.

The three backends are **result-identical by construction**: tasks are
pure functions of ``(index, item)``, results are merged in index order,
and per-task seeds come from :func:`derive_task_seed` — a pure function
of ``(base_seed, index)`` — so no backend can leak scheduling order
into the output. ``tests/core/test_executor_determinism.py`` sweeps
seeds over all three backends for k-means, MapReduce wordcount, and
accumulator-carrying Spark jobs to hold that line.

Process-backend ground rules (docs/executors.md has the full story):

- A job whose ``(fn, items)`` payload pickles (module-level functions,
  ``functools.partial``, plain-data items, :class:`DataRef` descriptors)
  runs on the persistent pool — the fast path. Payloads that do *not*
  pickle (closures over driver state: RDD lineage, broadcast tables)
  fall back to the legacy fork-per-map path under the ``fork`` start
  method, where workers inherit the closure through process memory;
  under ``spawn`` they raise a clear error (``cloudpickle`` widens what
  qualifies when importable).
- Large picklable payloads also prefer the fork path — inheriting a
  100 MB items list is free, shipping it per worker is not. Publish
  big numpy inputs with :meth:`Executor.publish` instead and pass index
  ranges; the descriptors keep pooled payloads tiny.
- Task *results* (and task exceptions) always travel back by pickle,
  under either path — keep them plain data, or write them into a
  ``writable=True`` published segment over disjoint index ranges.
- A worker that dies without delivering its results (segfault,
  ``os._exit``, OOM kill) surfaces as :class:`WorkerCrashError`
  carrying the completed results and the missing task indices, so
  schedulers (e.g. the Spark context) can re-execute the lost tasks
  and record the crash in their fault reports. The pool retires the
  dead worker and respawns the slot on the next map.
- ``close()``/``stop()`` terminates the pool and unlinks every segment
  this executor published; KeyboardInterrupt mid-map kills the pool
  promptly (no orphans) and an ``atexit`` sweep in :mod:`repro.core.shm`
  backstops segment cleanup on any exit path.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
import weakref
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro.sanitizer.runtime import get_sanitizer
from repro.trace.tracer import get_tracer
from repro.util.partition import block_partition
from repro.util.validation import require_positive_int

__all__ = [
    "BACKENDS",
    "DataRef",
    "Executor",
    "InlineArrayRef",
    "SerialExecutor",
    "SharedArrayRef",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "derive_task_seed",
    "TaskFailedError",
    "WorkerCrashError",
]

#: The recognized backend names, in determinism-baseline-first order.
BACKENDS = ("serial", "thread", "process")

_MASK64 = (1 << 64) - 1

#: Pooled payloads above this size prefer fork-inheritance (zero-copy)
#: over being shipped once per worker through the task queues.
_POOL_PAYLOAD_LIMIT = 4 << 20


def derive_task_seed(base_seed: int, index: int) -> int:
    """A per-task seed that is a pure function of ``(base_seed, index)``.

    SplitMix64 finalizer over the combined words: well-mixed (adjacent
    indices give unrelated seeds), backend- and scheduling-independent,
    and identical on every platform — the shared-seed plumbing that
    keeps stochastic tasks bit-identical across ``serial``/``thread``/
    ``process`` backends.
    """
    x = ((base_seed & _MASK64) * 0x9E3779B97F4A7C15 + (index & _MASK64) + 1) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _seeded_call(
    fn: Callable[[int, Any, int], Any], base_seed: int, index: int, item: Any
) -> Any:
    """The :meth:`Executor.map_seeded` shim — module-level (not a
    closure) so a seeded job pickles whenever its ``fn`` does and stays
    eligible for the persistent pool."""
    return fn(index, item, derive_task_seed(base_seed, index))


class TaskFailedError(RuntimeError):
    """A task raised in a worker and its exception could not be re-raised.

    Raised by :class:`ProcessExecutor` when the original exception does
    not survive the trip back through pickle; carries the failing task
    ``index`` and the worker-side ``traceback_text``. (When the original
    exception *does* unpickle, it is re-raised as-is, matching the
    serial and thread backends.)
    """

    def __init__(self, index: int, message: str, traceback_text: str = "") -> None:
        super().__init__(
            f"task {index} failed in worker: {message}"
            + (f"\n--- worker traceback ---\n{traceback_text}" if traceback_text else "")
        )
        self.index = index
        self.traceback_text = traceback_text


class WorkerCrashError(RuntimeError):
    """A worker process died without delivering all its task results.

    ``completed`` maps task index -> result for everything that made it
    back (from all workers); ``missing`` is the sorted tuple of indices
    whose results were lost. Schedulers catch this to re-execute the
    missing tasks and feed their fault-report paths.
    """

    def __init__(
        self,
        worker: int,
        exitcode: int | None,
        completed: dict[int, Any],
        missing: tuple[int, ...],
    ) -> None:
        super().__init__(
            f"worker {worker} crashed (exitcode={exitcode}) with "
            f"{len(missing)} task result(s) undelivered: {list(missing)[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
        self.worker = worker
        self.exitcode = exitcode
        self.completed = completed
        self.missing = missing


# ----------------------------------------------------------------------
# zero-copy data references
# ----------------------------------------------------------------------

class DataRef:
    """A backend-uniform handle to a published read-mostly numpy array.

    Obtained from :meth:`Executor.publish`; tasks call :meth:`array` to
    get the data wherever they run. On the serial/thread backends the
    ref *is* the original array (nothing to share); on the process
    backend it pickles as a shared-memory descriptor and workers attach
    zero-copy. Refs published with ``writable=True`` are result
    windows: tasks may write **disjoint** index ranges and the driver
    sees the writes after ``map`` returns.
    """

    def array(self) -> Any:
        raise NotImplementedError


class InlineArrayRef(DataRef):
    """The serial/thread (and owner-process) ref: the array itself."""

    __slots__ = ("_array",)

    def __init__(self, array: Any) -> None:
        self._array = array

    def array(self) -> Any:
        return self._array


class SharedArrayRef(DataRef):
    """The process-backend ref: ``(segment, dtype, shape)`` on the wire.

    In the owning process it resolves to the owner's live view; after
    pickling into a worker it attaches the named segment (cached per
    worker process) — read-only unless published ``writable=True``.
    """

    def __init__(self, segment: Any, *, writable: bool = False) -> None:
        self._descriptor = segment.descriptor
        self._writable = writable
        self._segment = segment  # owner-side only; not pickled

    @property
    def descriptor(self) -> Any:
        return self._descriptor

    @property
    def segment_name(self) -> str:
        return self._descriptor.segment

    def array(self) -> Any:
        if self._segment is not None:
            return self._segment.array()
        from repro.core.shm import attach_array

        return attach_array(self._descriptor, writable=self._writable)

    def __getstate__(self) -> dict[str, Any]:
        return {"descriptor": self._descriptor, "writable": self._writable}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._descriptor = state["descriptor"]
        self._writable = state["writable"]
        self._segment = None

    def __repr__(self) -> str:
        return f"SharedArrayRef({self._descriptor!r}, writable={self._writable})"


class Executor(ABC):
    """Ordered map over independent tasks: ``fn(index, item)`` per item.

    Contract shared by all backends (what the determinism tests pin):

    - results are returned **in item order**, never completion order;
    - ``fn`` must be a pure function of its arguments (plus read-only
      shared state) — backends may run it anywhere, in any order;
    - a task exception propagates to the caller (lowest failing index
      wins when several fail);
    - :meth:`map_seeded` hands task ``i`` the seed
      ``derive_task_seed(base_seed, i)`` regardless of backend.

    Executors are context managers; only :class:`ProcessExecutor`-style
    backends with real resources do anything on close.
    """

    name: str = "abstract"

    def __init__(self, num_workers: int = 4) -> None:
        self.num_workers = require_positive_int("num_workers", num_workers)

    @abstractmethod
    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        """Run ``fn(i, items[i])`` for every i; results in index order."""

    def map_seeded(
        self, fn: Callable[[int, Any, int], Any], items: Sequence[Any], base_seed: int
    ) -> list[Any]:
        """:meth:`map` with a derived per-task seed as a third argument."""
        return self.map(functools.partial(_seeded_call, fn, base_seed), items)

    def publish(self, array: Any, *, writable: bool = False) -> DataRef:
        """Make ``array`` reachable by tasks zero-copy; returns a ref.

        Uniform semantics across backends: the published buffer is a
        *snapshot* independent of the caller's array (don't mutate an
        array while it is published read-only). The default
        (serial/thread) implementation wraps read-only publications
        as-is — tasks on the caller's threads already share the address
        space — and copies ``writable=True`` ones, matching the
        process backend's copy-into-segment (so publishing one source
        array into two writable buffers yields two buffers everywhere).
        Release with :meth:`unpublish` (or :meth:`close`, which
        releases everything still published).
        """
        return InlineArrayRef(array.copy() if writable else array)

    def unpublish(self, ref: DataRef) -> None:
        """Release one published ref (no-op for inline refs; idempotent)."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def stop(self) -> None:
        """Alias of :meth:`close` — engine-style lifecycle symmetry."""
        self.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_workers={self.num_workers})"


class SerialExecutor(Executor):
    """The baseline: a plain loop on the calling thread."""

    name = "serial"

    def __init__(self, num_workers: int = 1) -> None:
        super().__init__(num_workers)

    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        with get_tracer().span(
            "executor.map", category="executor", scope="executor.serial",
            backend=self.name, tasks=len(items),
        ):
            return [fn(i, item) for i, item in enumerate(items)]


class ThreadExecutor(Executor):
    """Fork-join over block-partitioned threads, the caller as thread 0.

    ``block_partition(n, min(num_workers, n))`` splits the items; each
    worker walks its contiguous block in index order, and a failure
    stops only the rest of its own block. The calling thread runs
    block 0 itself (OpenMP's rule: the thread that meets the region is
    thread 0 of the team), so a map starts ``min(num_workers, n) - 1``
    fresh threads and a 1-item map starts none. Fresh threads per map
    keep nested maps (a task that itself maps — e.g. a Spark shuffle
    materializing inside a job) deadlock-free: no map ever waits on a
    shared pool. After every worker has joined, the original exception
    object of the lowest failing index is re-raised.

    Under an active sanitizer every block, block 0 included, runs on
    its own registered thread: ``thread_begin``/``thread_end`` rebind
    the thread-local tid, which must not clobber the caller's, and the
    team's fork/join happens-before edges stay explicit.
    """

    name = "thread"

    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        if not items:
            return []
        n = len(items)
        num_workers = min(self.num_workers, n)
        with get_tracer().span(
            "executor.map", category="executor", scope="executor.thread",
            backend=self.name, tasks=n, workers=self.num_workers,
        ):
            blocks = block_partition(n, num_workers)
            results: list[Any] = [None] * n
            errors: list[BaseException | None] = [None] * num_workers
            sanitizer = get_sanitizer()
            team = None if sanitizer is None else sanitizer.team_begin(num_workers, kind="exec")

            def run_block(worker: int) -> None:
                try:
                    if team is not None:
                        sanitizer.thread_begin(team, worker)
                    for i in blocks[worker]:
                        results[i] = fn(i, items[i])
                except BaseException as exc:  # noqa: BLE001 - reported to caller below
                    errors[worker] = exc
                finally:
                    if team is not None:
                        try:
                            sanitizer.thread_end(team, worker)
                        except BaseException as exc:  # noqa: BLE001 - deadlock found at teardown
                            if errors[worker] is None:
                                errors[worker] = exc

            threads = [
                threading.Thread(target=run_block, args=(w,), name=f"exec-{w}", daemon=True)
                for w in range(0 if team is not None else 1, num_workers)
            ]
            for t in threads:
                t.start()
            if team is None:
                run_block(0)
            for t in threads:
                t.join()
            if team is not None:
                sanitizer.team_end(team)
            for exc in errors:
                if exc is not None:
                    raise exc
            return results


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------

#: Jobs awaiting pickup by freshly forked workers (the legacy fallback
#: path for unpicklable payloads). Under the ``fork`` start method the
#: (fn, items) payload is *inherited* through process memory rather
#: than pickled, which is what lets closures over driver state (RDD
#: lineage, broadcast tables) run in workers unmodified. Keyed by a job
#: token so concurrent maps (Spark jobs run from many threads) never
#: collide; entries are removed once workers have forked.
_FORK_JOBS: dict[int, tuple[Callable[[int, Any], Any], Sequence[Any]]] = {}
_FORK_LOCK = threading.Lock()
_FORK_TOKENS = iter(range(1, 1 << 62))


def _encode_error(exc: BaseException) -> tuple[bytes | None, str, str]:
    """(pickled exception or None, message, traceback) for the trip home."""
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = None
    return payload, f"{type(exc).__name__}: {exc}", traceback.format_exc()


def _run_chunk(
    fn: Callable[[int, Any], Any], items: Sequence[Any], lo: int, hi: int
) -> list[tuple[int, bool, Any]]:
    out: list[tuple[int, bool, Any]] = []
    for i in range(lo, hi):
        try:
            out.append((i, True, fn(i, items[i])))
        except BaseException as exc:  # noqa: BLE001 - shipped back to the driver
            out.append((i, False, _encode_error(exc)))
    return out


def _put_chunk(
    result_queue: Any, worker_id: int, job_id: int, chunk_id: int,
    results: list[tuple[int, bool, Any]],
) -> None:
    """Ship one chunk's results home; unpicklable results degrade to errors."""
    try:
        result_queue.put(("chunk", worker_id, job_id, chunk_id, results))
    except Exception as exc:  # unpicklable result: report, don't die
        substitute = [
            (i, False, (None, f"result of task {i} could not be pickled: {exc}", ""))
            for i, _ok, _val in results
        ]
        result_queue.put(("chunk", worker_id, job_id, chunk_id, substitute))


def _fork_worker_main(
    worker_id: int,
    job_token: int,
    chunks: list[tuple[int, int, int]],
    result_queue: Any,
) -> None:
    """Legacy fork-path worker body: run inherited chunks, then sign off."""
    from repro.core import shm as shm_mod

    shm_mod.forget_inherited_state()
    fn, items = _FORK_JOBS[job_token]  # inherited via fork
    for chunk_id, lo, hi in chunks:
        _put_chunk(result_queue, worker_id, 0, chunk_id, _run_chunk(fn, items, lo, hi))
    result_queue.put(("done", worker_id, 0))


def _pool_worker_main(worker_id: int, task_queue: Any, result_queue: Any) -> None:
    """Persistent pool worker: serve jobs until told to stop.

    Each job message carries the pickled ``(fn, items)`` payload once
    (tiny when inputs travel as :class:`SharedArrayRef` descriptors)
    plus this worker's chunk list; chunk results stream home as they
    complete, and a ``done`` message ends the job. Shared-memory
    attachments are cached across jobs and closed on the way out.
    """
    from repro.core import shm as shm_mod

    shm_mod.forget_inherited_state()
    try:
        while True:
            message = task_queue.get()
            if message[0] == "stop":
                break
            _kind, job_id, payload, chunks = message
            try:
                fn, items = _loads_payload(payload)
            except BaseException as exc:  # noqa: BLE001 - reported per task
                encoded = _encode_error(exc)
                for chunk_id, lo, hi in chunks:
                    result_queue.put((
                        "chunk", worker_id, job_id, chunk_id,
                        [(i, False, encoded) for i in range(lo, hi)],
                    ))
                result_queue.put(("done", worker_id, job_id))
                continue
            for chunk_id, lo, hi in chunks:
                _put_chunk(
                    result_queue, worker_id, job_id, chunk_id,
                    _run_chunk(fn, items, lo, hi),
                )
            result_queue.put(("done", worker_id, job_id))
    finally:
        shm_mod.release_attachments()


def _shutdown_pool(
    lock: threading.RLock,
    workers: list[Any],
    task_queues: list[Any],
    result_box: list[Any],
    segments: dict[str, Any],
) -> None:
    """Stop pool workers, drop queues, unlink segments (idempotent).

    Module-level over the executor's *containers* (not the executor)
    so a ``weakref.finalize`` can run it when an un-closed executor is
    garbage-collected — the same backstop ``multiprocessing.Pool``
    uses, keeping dropped pools from idling forever.
    """
    with lock:
        for w in range(len(workers)):
            proc, task_queue = workers[w], task_queues[w]
            if proc is not None and proc.is_alive() and task_queue is not None:
                try:
                    task_queue.put(("stop",))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for w in range(len(workers)):
            proc = workers[w]
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM-proof task
                proc.kill()
                proc.join(timeout=0.5)
            workers[w] = None
            task_queue, task_queues[w] = task_queues[w], None
            if task_queue is not None:
                task_queue.cancel_join_thread()
                task_queue.close()
        result_queue, result_box[0] = result_box[0], None
        if result_queue is not None:
            result_queue.cancel_join_thread()
            result_queue.close()
        leftovers = list(segments.values())
        segments.clear()
    for segment in leftovers:
        segment.unlink()


def _dumps_payload(fn: Callable[[int, Any], Any], items: Sequence[Any]) -> bytes:
    try:
        return pickle.dumps((fn, items))
    except Exception:
        try:
            import cloudpickle
        except ImportError:
            raise ValueError(
                "ProcessExecutor with the 'spawn' start method needs a picklable "
                "(fn, items) payload (and cloudpickle is not installed to widen "
                "that); use start_method='fork' or module-level functions"
            ) from None
        return cloudpickle.dumps((fn, items))


def _loads_payload(payload: bytes | None) -> tuple[Callable[[int, Any], Any], Sequence[Any]]:
    assert payload is not None
    return pickle.loads(payload)


class ProcessExecutor(Executor):
    """Real CPU parallelism: a persistent worker pool with zero-copy data.

    Workers spawn **once per executor lifetime** (lazily, on the first
    pooled map) and are reused warm across jobs — the fork-per-map tax
    the seed benchmarks measured is paid once, not per call. Each map
    picks its dispatch path:

    - **pool** — the ``(fn, items)`` payload pickles and is small:
      it is sent once per worker over that worker's task queue, chunks
      stream back over a shared result queue. Publish numpy inputs with
      :meth:`publish` so the payload stays descriptor-sized.
    - **fork** (legacy fallback, ``fork`` platforms only) — the payload
      does not pickle (driver-state closures) or is large enough that
      inheritance is cheaper: fresh workers fork for this map and
      inherit the payload through process memory, exactly the pre-pool
      behaviour.

    ``chunks_per_worker`` controls batching on both paths: the item
    range splits into at most ``num_workers * chunks_per_worker``
    contiguous blocks (assigned round-robin), and **chunk fusion**
    collapses small jobs to one chunk per worker so a 4-task job costs
    4 messages, not 16. The chunk->index mapping is static, so results
    are bit-identical to serial regardless of path or scheduling.

    A crashed worker surfaces as :class:`WorkerCrashError`; the dead
    slot respawns on the next map. KeyboardInterrupt kills the pool
    promptly (no orphaned children). ``close()``/``stop()`` terminates
    the pool and unlinks every published segment; both are idempotent.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int = 4,
        *,
        chunks_per_worker: int = 4,
        start_method: str | None = None,
    ) -> None:
        super().__init__(num_workers)
        self.chunks_per_worker = require_positive_int("chunks_per_worker", chunks_per_worker)
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else "spawn"
        if start_method not in available:
            raise ValueError(
                f"start_method {start_method!r} not available on this platform "
                f"(have {available})"
            )
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._owner_pid = os.getpid()
        self._pool_lock = threading.RLock()
        self._workers: list[Any] = [None] * self.num_workers
        self._task_queues: list[Any] = [None] * self.num_workers
        self._result_box: list[Any] = [None]
        self._job_ids = itertools.count(1)
        self._segments: dict[str, Any] = {}
        self._closed = False
        # GC backstop: an executor dropped without close() still stops
        # its pool and unlinks its segments (cf. multiprocessing.Pool).
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._pool_lock,
            self._workers, self._task_queues, self._result_box, self._segments,
        )

    @property
    def _result_queue(self) -> Any:
        return self._result_box[0]

    @_result_queue.setter
    def _result_queue(self, value: Any) -> None:
        self._result_box[0] = value

    # ------------------------------------------------------------------
    # zero-copy publication
    # ------------------------------------------------------------------
    def publish(self, array: Any, *, writable: bool = False) -> DataRef:
        """Copy ``array`` into a shared-memory segment; tasks attach free.

        The returned ref pickles as a ``(segment, dtype, shape)``
        descriptor. The segment lives until :meth:`unpublish` or
        :meth:`close`; with ``writable=True`` tasks may write disjoint
        index ranges and the driver sees the writes after ``map``.
        """
        if os.getpid() != self._owner_pid:
            # Nested use inside one of our own workers: the address
            # space is already shared (fork) or private (downgraded
            # serial map) — no segment needed either way.
            return InlineArrayRef(array)
        from repro.core.shm import publish_array

        with self._pool_lock:
            self._check_open()
            segment = publish_array(array)
            self._segments[segment.name] = segment
        return SharedArrayRef(segment, writable=writable)

    def unpublish(self, ref: DataRef) -> None:
        name = getattr(ref, "segment_name", None)
        if name is None:
            return
        with self._pool_lock:
            segment = self._segments.pop(name, None)
        if segment is not None:
            segment.unlink()

    # ------------------------------------------------------------------
    # map
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        n = len(items)
        if n == 0:
            return []
        if os.getpid() != self._owner_pid:
            # Nested map inside one of our own workers: daemonic
            # processes cannot fork children, so compute inline — the
            # same results, no scheduling.
            return [fn(i, item) for i, item in enumerate(items)]
        self._check_open()
        payload = self._encode_job(fn, items)
        mode = "pool" if payload is not None else "fork"
        with get_tracer().span(
            "executor.map", category="executor", scope="executor.process",
            backend=self.name, tasks=n, workers=self.num_workers,
            start_method=self.start_method, mode=mode,
        ):
            if payload is None:
                return self._map_fork(fn, items, n)
            return self._map_pool(payload, n)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self!r} has been closed; create a fresh executor")

    def _encode_job(
        self, fn: Callable[[int, Any], Any], items: Sequence[Any]
    ) -> bytes | None:
        """The pooled payload, or None when the fork path should run.

        Under ``spawn`` there is no fork fallback, so an unpicklable
        payload raises the clear error from :func:`_dumps_payload`.
        """
        if self.start_method != "fork":
            return _dumps_payload(fn, items)
        try:
            payload = pickle.dumps((fn, items))
        except Exception:
            return None
        if len(payload) > _POOL_PAYLOAD_LIMIT:
            return None  # inherit big payloads instead of shipping them
        return payload

    def _chunk_assignments(self, n: int) -> list[list[tuple[int, int, int]]]:
        """Static chunk plan: fused for small jobs, round-robin always.

        The mapping is a pure function of ``(n, num_workers,
        chunks_per_worker)`` — never of the dispatch path or schedule —
        which is what keeps results bit-identical to serial.
        """
        num_workers = min(self.num_workers, n)
        limit = num_workers * self.chunks_per_worker
        # Chunk fusion: a job with fewer items than the chunk budget
        # collapses to one contiguous chunk per worker (<= one dispatch
        # and one result message per worker).
        num_chunks = num_workers if n <= limit else limit
        bounds = [
            (c, r.start, r.stop) for c, r in enumerate(block_partition(n, num_chunks))
        ]
        assignments: list[list[tuple[int, int, int]]] = [[] for _ in range(self.num_workers)]
        for chunk in bounds:
            assignments[chunk[0] % num_workers].append(chunk)
        return assignments

    def _finalize(
        self,
        results: dict[int, Any],
        errors: dict[int, tuple[bytes | None, str, str]],
        crashed: list[tuple[int, int | None]],
        n: int,
    ) -> list[Any]:
        """Shared error/crash/result policy for both dispatch paths."""
        if errors:
            index = min(errors)
            exc_payload, message, tb_text = errors[index]
            if exc_payload is not None:
                try:
                    raise pickle.loads(exc_payload)
                except TaskFailedError:
                    raise
                except Exception as original:
                    if f"{type(original).__name__}: {original}" == message:
                        raise original from None
            raise TaskFailedError(index, message, tb_text)
        if crashed:
            worker_id, exitcode = crashed[0]
            missing = tuple(i for i in range(n) if i not in results)
            raise WorkerCrashError(worker_id, exitcode, results, missing)
        return [results[i] for i in range(n)]

    # ------------------------------------------------------------------
    # pooled dispatch
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        """Spawn missing workers (first map, or respawn after a crash)."""
        if self._result_queue is None:
            self._result_queue = self._ctx.Queue()
        for w in range(self.num_workers):
            proc = self._workers[w]
            if proc is not None and proc.is_alive():
                continue
            task_queue = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_pool_worker_main,
                args=(w, task_queue, self._result_queue),
                name=f"executor-worker-{w}",
                daemon=True,
            )
            proc.start()
            self._workers[w] = proc
            self._task_queues[w] = task_queue

    def _map_pool(self, payload: bytes, n: int) -> list[Any]:
        with self._pool_lock:
            self._check_open()
            self._ensure_pool()
            job_id = next(self._job_ids)
            assignments = self._chunk_assignments(n)
            active = {w for w in range(self.num_workers) if assignments[w]}
            for w in sorted(active):
                self._task_queues[w].put(("job", job_id, payload, assignments[w]))
            try:
                results, errors, crashed = self._collect_pool(job_id, active)
            except BaseException:
                # KeyboardInterrupt / cancellation mid-collect: workers
                # may be wedged in a task — kill the pool now, re-raise
                # with no orphans. The next map respawns a fresh pool.
                self._kill_pool()
                raise
        return self._finalize(results, errors, crashed, n)

    def _collect_pool(
        self, job_id: int, pending: set[int]
    ) -> tuple[dict[int, Any], dict[int, tuple[bytes | None, str, str]], list[tuple[int, int | None]]]:
        """Drain this job's results until every active worker signed off
        or died; dead workers are retired (respawned on the next map)."""
        results: dict[int, Any] = {}
        errors: dict[int, tuple[bytes | None, str, str]] = {}
        crashed: list[tuple[int, int | None]] = []
        while pending:
            try:
                message = self._result_queue.get(timeout=0.05)
            except queue_mod.Empty:
                for w in sorted(pending):
                    proc = self._workers[w]
                    if proc is not None and proc.is_alive():
                        continue
                    # Late messages may still sit in the pipe: give the
                    # queue one grace pass before declaring the loss.
                    deadline = time.monotonic() + 0.25
                    drained = False
                    while time.monotonic() < deadline:
                        try:
                            late = self._result_queue.get(timeout=0.05)
                        except queue_mod.Empty:
                            continue
                        self._apply(late, job_id, results, errors, pending)
                        drained = True
                        break
                    if drained and w not in pending:
                        continue
                    if not drained:
                        pending.discard(w)
                        crashed.append((w, proc.exitcode if proc is not None else None))
                        self._retire_worker(w)
                continue
            self._apply(message, job_id, results, errors, pending)
        return results, errors, crashed

    @staticmethod
    def _apply(
        message: tuple[Any, ...],
        job_id: int,
        results: dict[int, Any],
        errors: dict[int, tuple[bytes | None, str, str]],
        pending: set[int],
    ) -> None:
        kind = message[0]
        if message[2] != job_id:
            return  # stale message from an interrupted earlier job
        if kind == "chunk":
            for index, ok, value in message[4]:
                if ok:
                    results[index] = value
                else:
                    errors[index] = value
        elif kind == "done":
            pending.discard(message[1])

    def _retire_worker(self, w: int) -> None:
        """Forget a dead worker's slot so the next map respawns it."""
        proc, self._workers[w] = self._workers[w], None
        task_queue, self._task_queues[w] = self._task_queues[w], None
        if proc is not None:
            proc.join(timeout=0.1)
        if task_queue is not None:
            task_queue.cancel_join_thread()
            task_queue.close()

    def _kill_pool(self) -> None:
        """Terminate every pool worker promptly (interrupt/cancel path)."""
        for w in range(self.num_workers):
            proc = self._workers[w]
            if proc is None:
                continue
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM-proof task
                proc.kill()
                proc.join(timeout=1.0)
            self._workers[w] = None
            task_queue, self._task_queues[w] = self._task_queues[w], None
            if task_queue is not None:
                task_queue.cancel_join_thread()
                task_queue.close()
        if self._result_queue is not None:
            # The feeder thread may hold buffered results for dead
            # readers; don't let its join block the unwind.
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
            self._result_queue = None

    # ------------------------------------------------------------------
    # legacy fork dispatch (unpicklable / oversized payloads)
    # ------------------------------------------------------------------
    def _map_fork(
        self, fn: Callable[[int, Any], Any], items: Sequence[Any], n: int
    ) -> list[Any]:
        assignments = self._chunk_assignments(n)
        num_active = sum(1 for a in assignments if a)

        token = next(_FORK_TOKENS)
        with _FORK_LOCK:
            _FORK_JOBS[token] = (fn, items)

        result_queue = self._ctx.Queue()
        workers = [
            self._ctx.Process(
                target=_fork_worker_main,
                args=(w, token, assignments[w], result_queue),
                name=f"executor-worker-{w}",
                daemon=True,
            )
            for w in range(num_active)
        ]
        try:
            for p in workers:
                p.start()
        finally:
            # Forked children hold their inherited copy; drop ours.
            with _FORK_LOCK:
                _FORK_JOBS.pop(token, None)

        interrupted = False
        try:
            results, errors, crashed = self._collect_fork(workers, result_queue)
        except BaseException:
            # KeyboardInterrupt / cancellation mid-collect: the workers
            # may be wedged in a task, so don't grant them the graceful
            # join window — terminate now and re-raise with no orphans.
            interrupted = True
            raise
        finally:
            for p in workers:
                if interrupted:
                    if p.is_alive():
                        p.terminate()
                    p.join(timeout=1.0)
                    if p.is_alive():  # pragma: no cover - SIGTERM-proof task
                        p.kill()
                        p.join(timeout=1.0)
                else:
                    p.join(timeout=5.0)
                    if p.is_alive():  # pragma: no cover - stuck worker backstop
                        p.terminate()
                        p.join(timeout=1.0)
            result_queue.close()
            if interrupted:
                # The feeder thread may hold buffered results for dead
                # readers; don't let its join block the unwind.
                result_queue.cancel_join_thread()

        return self._finalize(results, errors, crashed, n)

    def _collect_fork(
        self, workers: list[Any], result_queue: Any
    ) -> tuple[dict[int, Any], dict[int, tuple[bytes | None, str, str]], list[tuple[int, int | None]]]:
        """Drain chunk results until every fork worker signed off or died."""
        results: dict[int, Any] = {}
        errors: dict[int, tuple[bytes | None, str, str]] = {}
        pending = set(range(len(workers)))
        crashed: list[tuple[int, int | None]] = []
        while pending:
            try:
                message = result_queue.get(timeout=0.05)
            except queue_mod.Empty:
                for w in sorted(pending):
                    proc = workers[w]
                    if not proc.is_alive():
                        deadline = time.monotonic() + 0.25
                        drained = False
                        while time.monotonic() < deadline:
                            try:
                                late = result_queue.get(timeout=0.05)
                            except queue_mod.Empty:
                                continue
                            self._apply(late, 0, results, errors, pending)
                            drained = True
                            break
                        if drained and w not in pending:
                            continue
                        if not drained:
                            pending.discard(w)
                            crashed.append((w, proc.exitcode))
                continue
            self._apply(message, 0, results, errors, pending)
        return results, errors, crashed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the pool and unlink every published segment (idempotent)."""
        with self._pool_lock:
            self._closed = True
        _shutdown_pool(
            self._pool_lock,
            self._workers, self._task_queues, self._result_box, self._segments,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_workers={self.num_workers}, "
            f"start_method={self.start_method!r})"
        )


def get_executor(
    backend: "str | Executor", num_workers: int = 4, **kwargs: Any
) -> Executor:
    """Resolve a backend name (or pass an :class:`Executor` through).

    ``kwargs`` are forwarded to the backend constructor (e.g.
    ``chunks_per_worker``/``start_method`` for ``"process"``).
    """
    if isinstance(backend, Executor):
        return backend
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(num_workers, **kwargs)
    if backend == "process":
        return ProcessExecutor(num_workers, **kwargs)
    raise ValueError(f"backend must be one of {BACKENDS} or an Executor, got {backend!r}")
