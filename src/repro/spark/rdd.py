"""RDDs: lazy, immutable, partitioned collections with lineage.

Transformations build a DAG of RDD objects; nothing runs until an
action. Wide (shuffle) boundaries are explicit :class:`ShuffledRDD`
nodes, so :mod:`repro.spark.dag` can show students exactly where their
pipeline pays for communication — the central design skill the course
teaches (paper §4).
"""

from __future__ import annotations

import heapq
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.rng.counter import CounterRNG
from repro.spark.partitioner import HashPartitioner, RangePartitioner
from repro.spark.shuffle import CorruptShuffleBlockError, LostSpillFileError

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext

__all__ = [
    "RDD",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "ShuffledRDD",
    "NarrowDependency",
    "ShuffleDependency",
]


#: Placeholder for a checkpoint slot that hasn't materialized yet
#: (``None`` can't serve: an empty partition is valid data).
_MISSING = object()


class NarrowDependency:
    """Child partition i depends on a bounded set of parent partitions."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class ShuffleDependency:
    """Child partitions depend on *all* parent partitions (a wide dep)."""

    def __init__(self, parent: "RDD", partitioner: Any) -> None:
        self.parent = parent
        self.partitioner = partitioner


class RDD:
    """Base class: lineage node + the full transformation/action API."""

    def __init__(self, ctx: "SparkContext", num_partitions: int, deps: Sequence[Any]) -> None:
        self.ctx = ctx
        self.num_partitions = num_partitions
        self.deps = list(deps)
        self.id = ctx._next_rdd_id()
        #: The partitioner this RDD's pairs are known to be laid out by
        #: (None = unknown). Set by shuffles; preserved by map_values/
        #: flat_map_values; lets later same-partitioner aggregations skip
        #: their shuffle (Spark's co-partitioning optimization).
        self.partitioner: Any = None
        self._cached: list[list[Any]] | None = None
        self._persist = False
        self._checkpoint = False
        self._ckpt_data: list[Any] | None = None
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # execution plumbing
    # ------------------------------------------------------------------
    def compute(self, split: int) -> list[Any]:  # pragma: no cover - abstract
        """Materialize partition ``split`` (subclass responsibility)."""
        raise NotImplementedError

    def partition(self, split: int) -> list[Any]:
        """Partition ``split``, consulting/populating the cache if persisted."""
        if self._checkpoint:
            return self._checkpointed_partition(split)
        if not self._persist:
            return self.compute(split)
        with self._cache_lock:
            if self._cached is None:
                self._cached = [None] * self.num_partitions  # type: ignore[list-item]
        cached = self._cached
        if cached[split] is None:
            data = self.compute(split)
            with self._cache_lock:
                if cached[split] is None:
                    cached[split] = data
                    self.ctx.metrics.partitions_cached += 1
        return cached[split]  # type: ignore[return-value]

    def persist(self) -> "RDD":
        """Keep computed partitions in memory for reuse (Spark's ``cache``)."""
        self._persist = True
        return self

    cache = persist

    def unpersist(self) -> "RDD":
        """Drop any cached partitions and stop caching."""
        with self._cache_lock:
            self._persist = False
            self._cached = None
        return self

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> "RDD":
        """Mark this RDD as a durable recomputation barrier.

        Like ``persist``, partitions are materialized lazily on first
        use and served from memory after — but a checkpoint additionally
        **truncates lineage**: once every partition is stored, ``deps``
        is cleared, so neither lineage walks (:mod:`repro.spark.dag`)
        nor fault recovery ever recompute past it. ``persist`` is a hint
        (droppable, lineage intact); ``checkpoint`` is a promise.
        """
        self._checkpoint = True
        return self

    @property
    def is_checkpointed(self) -> bool:
        """Whether every partition has been checkpoint-materialized."""
        with self._cache_lock:
            data = self._ckpt_data
            return data is not None and all(d is not _MISSING for d in data)

    @property
    def is_recompute_barrier(self) -> bool:
        """Whether fault recovery stops here instead of recursing deeper
        (the RDD is marked for checkpointing or persisted)."""
        return self._checkpoint or self._persist

    def _uncached_splits(self) -> list[int]:
        """Partitions the persist/checkpoint cache does not hold yet
        (empty when the RDD isn't persisted or checkpointed at all).

        Used by the process backend to find what must be materialized
        driver-side before forking workers (a fill computed inside a
        worker would die with it).
        """
        with self._cache_lock:
            if self._checkpoint:
                if self._ckpt_data is None:
                    return list(range(self.num_partitions))
                return [i for i, d in enumerate(self._ckpt_data) if d is _MISSING]
            if self._persist:
                if self._cached is None:
                    return list(range(self.num_partitions))
                return [i for i, d in enumerate(self._cached) if d is None]
            return []

    def _install_partition(self, split: int, data: list[Any]) -> None:
        """Driver-side install of an externally computed partition into the
        persist/checkpoint cache (the process backend's cache-fill path —
        same bookkeeping as computing it through :meth:`partition`)."""
        if self._checkpoint:
            with self._cache_lock:
                if self._ckpt_data is None:
                    self._ckpt_data = [_MISSING] * self.num_partitions
                if self._ckpt_data[split] is not _MISSING:
                    return
                self._ckpt_data[split] = data
                complete = all(d is not _MISSING for d in self._ckpt_data)
            self.ctx.metrics.bump("spark.checkpointed_partitions")
            if complete:
                self.deps = []
                from repro.trace.tracer import get_tracer

                get_tracer().instant(
                    "checkpoint_complete", category="spark.fault", rdd=self.id
                )
            return
        if not self._persist:
            return
        with self._cache_lock:
            if self._cached is None:
                self._cached = [None] * self.num_partitions  # type: ignore[list-item]
            if self._cached[split] is None:
                self._cached[split] = data
                self.ctx.metrics.partitions_cached += 1

    def _checkpointed_partition(self, split: int) -> list[Any]:
        with self._cache_lock:
            if self._ckpt_data is None:
                self._ckpt_data = [_MISSING] * self.num_partitions
            data = self._ckpt_data[split]
        if data is not _MISSING:
            return data
        computed = self.compute(split)
        with self._cache_lock:
            if self._ckpt_data[split] is _MISSING:
                self._ckpt_data[split] = computed
                self.ctx.metrics.bump("spark.checkpointed_partitions")
                if all(d is not _MISSING for d in self._ckpt_data):
                    # Checkpoint complete: truncate lineage for good.
                    self.deps = []
                    from repro.trace.tracer import get_tracer

                    get_tracer().instant(
                        "checkpoint_complete", category="spark.fault", rdd=self.id
                    )
            else:
                computed = self._ckpt_data[split]
        return computed

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------
    def map_partitions_with_index(
        self, f: Callable[[int, list[Any]], Iterable[Any]]
    ) -> "RDD":
        """Transform each partition's element list (with its index)."""
        return MapPartitionsRDD(self, f)

    def map_partitions(self, f: Callable[[list[Any]], Iterable[Any]]) -> "RDD":
        """Transform each partition's element list."""
        return MapPartitionsRDD(self, lambda _i, part: f(part))

    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to every element."""
        return self.map_partitions(lambda part: [f(x) for x in part])

    def flat_map(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        """Apply ``f`` and flatten the resulting iterables."""
        return self.map_partitions(lambda part: [y for x in part for y in f(x)])

    def filter(self, pred: Callable[[Any], bool]) -> "RDD":
        """Keep elements where ``pred`` is true."""
        return self.map_partitions(lambda part: [x for x in part if pred(x)])

    def glom(self) -> "RDD":
        """Each partition becomes a single list element."""
        return self.map_partitions(lambda part: [list(part)])

    def key_by(self, f: Callable[[Any], Any]) -> "RDD":
        """Element ``x`` becomes ``(f(x), x)``."""
        return self.map(lambda x: (f(x), x))

    def map_values(self, f: Callable[[Any], Any]) -> "RDD":
        """Pair RDD: transform values, keep keys and partitioning."""
        out = self.map(lambda kv: (kv[0], f(kv[1])))
        out.partitioner = self.partitioner  # keys untouched: layout survives
        return out

    def flat_map_values(self, f: Callable[[Any], Iterable[Any]]) -> "RDD":
        """Pair RDD: expand each value into several pairs with the same key."""
        out = self.flat_map(lambda kv: [(kv[0], v) for v in f(kv[1])])
        out.partitioner = self.partitioner
        return out

    def keys(self) -> "RDD":
        """Pair RDD: the keys."""
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        """Pair RDD: the values."""
        return self.map(lambda kv: kv[1])

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no dedup, like Spark)."""
        return UnionRDD(self.ctx, [self, other])

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Deterministic Bernoulli sample: element kept iff its counter-RNG
        draw (indexed by partition and position) falls below ``fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def sampler(index: int, part: list[Any]) -> list[Any]:
            rng = CounterRNG(seed=seed, stream=index)
            return [x for i, x in enumerate(part) if rng.uniform(i) < fraction]

        return self.map_partitions_with_index(sampler)

    def zip_with_index(self) -> "RDD":
        """Pair each element with its global index (triggers a size job)."""
        sizes = self.ctx.run_job(self, lambda _i, part: len(part))
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)

        def indexer(index: int, part: list[Any]) -> list[Any]:
            base = offsets[index]
            return [(x, base + i) for i, x in enumerate(part)]

        return self.map_partitions_with_index(indexer)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count without a shuffle (merges adjacent blocks)."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        return CoalescedRDD(self, min(num_partitions, self.num_partitions))

    def zip(self, other: "RDD") -> "RDD":
        """Pair up elements positionally: ``(self[i], other[i])``.

        Like Spark, requires identical partition counts *and* per-
        partition sizes (checked at compute time).
        """
        if other.num_partitions != self.num_partitions:
            raise ValueError(
                f"zip needs equal partition counts: {self.num_partitions} vs {other.num_partitions}"
            )
        return ZippedRDD(self, other)

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs ``(a, b)``: the cross product (|self|·|other| elements)."""
        return CartesianRDD(self, other)

    def group_by(self, key_fn: Callable[[Any], Any], num_partitions: int | None = None) -> "RDD":
        """Group whole elements by ``key_fn``: ``(key, [elements])``."""
        return self.key_by(key_fn).group_by_key(num_partitions)

    def fold_by_key(
        self, zero: Any, f: Callable[[Any, Any], Any], num_partitions: int | None = None
    ) -> "RDD":
        """Per-key fold with a zero element (deep-copied per key)."""
        import copy

        return self.combine_by_key(
            lambda v: f(copy.deepcopy(zero), v), f, f, num_partitions
        )

    # ------------------------------------------------------------------
    # wide (shuffle) transformations
    # ------------------------------------------------------------------
    def partition_by(self, partitioner: Any) -> "RDD":
        """Pair RDD: route each pair to ``partitioner.partition(key)``."""
        return ShuffledRDD(
            self,
            partitioner,
            create=lambda v: [v],
            merge_value=lambda acc, v: (acc.append(v), acc)[1],
            merge_combiners=lambda a, b: a + b,
            map_side_combine=False,
            flatten_values=True,
        )

    def combine_by_key(
        self,
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        *,
        map_side_combine: bool = True,
    ) -> "RDD":
        """The general aggregation: per-key combiners, optionally pre-merged
        map-side (the shuffle-volume optimization).

        If this RDD is already laid out by an equal partitioner
        (``self.partitioner``), the shuffle is skipped entirely and the
        combine runs partition-locally — Spark's co-partitioning
        optimization, visible in ``ctx.metrics.shuffles``.
        """
        partitioner = HashPartitioner(num_partitions or self.num_partitions)
        if self.partitioner is not None and self.partitioner == partitioner:
            def local_combine(part: list[Any]) -> list[Any]:
                merged: dict[Any, Any] = {}
                order: list[Any] = []
                for key, value in part:
                    if key in merged:
                        merged[key] = merge_value(merged[key], value)
                    else:
                        merged[key] = create(value)
                        order.append(key)
                return [(k, merged[k]) for k in order]

            out = self.map_partitions(local_combine)
            out.partitioner = partitioner
            return out
        return ShuffledRDD(
            self,
            partitioner,
            create=create,
            merge_value=merge_value,
            merge_combiners=merge_combiners,
            map_side_combine=map_side_combine,
        )

    def reduce_by_key(
        self, f: Callable[[Any, Any], Any], num_partitions: int | None = None
    ) -> "RDD":
        """Merge values per key with ``f`` (map-side combined). Keys equal
        across types (``1``, ``1.0``, ``True``) are merged per map task, as
        a ``dict`` merges them; mixing them is otherwise unsupported."""
        return self.combine_by_key(lambda v: v, f, f, num_partitions)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        """Collect all values per key into a list (no map-side combine —
        grouping gains nothing from it, exactly Spark's behaviour)."""
        return self.combine_by_key(
            lambda v: [v],
            lambda acc, v: (acc.append(v), acc)[1],
            lambda a, b: a + b,
            num_partitions,
            map_side_combine=False,
        )

    def aggregate_by_key(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
    ) -> "RDD":
        """Per-key fold with a zero element (copied per key via closure)."""
        import copy

        return self.combine_by_key(
            lambda v: seq_fn(copy.deepcopy(zero), v), seq_fn, comb_fn, num_partitions
        )

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        """Unique elements (one shuffle)."""
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .keys()
        )

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Pair RDDs: ``(key, (self_values, other_values))`` for keys in either."""
        nparts = num_partitions or max(self.num_partitions, other.num_partitions)
        tagged = self.map_values(lambda v: (0, v)).union(other.map_values(lambda v: (1, v)))

        def create(tv: tuple[int, Any]) -> tuple[list[Any], list[Any]]:
            groups: tuple[list[Any], list[Any]] = ([], [])
            groups[tv[0]].append(tv[1])
            return groups

        def merge_value(groups, tv):
            groups[tv[0]].append(tv[1])
            return groups

        def merge_combiners(a, b):
            return (a[0] + b[0], a[1] + b[1])

        return tagged.combine_by_key(
            create, merge_value, merge_combiners, nparts, map_side_combine=False
        )

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join: ``(key, (left_value, right_value))`` per matching pair."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: [(lv, rv) for lv in groups[0] for rv in groups[1]]
        )

    def broadcast_join(self, other: "RDD") -> "RDD":
        """Inner join against a *small* pair RDD without any shuffle.

        The classic join-strategy optimization the course teaches: when
        one side fits in memory, collect it once, broadcast the lookup
        table, and stream the big side through a narrow map — zero
        shuffle records versus two full shuffles for the cogroup-based
        :meth:`join`. Output pairs match :meth:`join` exactly (asserted
        in tests); only the plan differs.
        """
        from repro.spark.broadcast import Broadcast

        table: dict[Any, list[Any]] = {}
        for key, value in other.collect():
            table.setdefault(key, []).append(value)
        lookup = Broadcast(table)
        return self.flat_map(
            lambda kv: [
                (kv[0], (kv[1], rv)) for rv in lookup.value.get(kv[0], [])
            ]
        )

    def left_outer_join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Left join: right value is ``None`` when the key has no match."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: [
                (lv, rv) for lv in groups[0] for rv in (groups[1] or [None])
            ]
        )

    def right_outer_join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Right join: left value is ``None`` when the key has no match."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: [
                (lv, rv) for rv in groups[1] for lv in (groups[0] or [None])
            ]
        )

    def full_outer_join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Full outer join: missing sides are ``None``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: [
                (lv, rv)
                for lv in (groups[0] or [None])
                for rv in (groups[1] or [None])
            ]
        )

    def subtract_by_key(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Pairs whose key does not appear in ``other``."""
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: groups[0] if not groups[1] else []
        )

    def intersection(self, other: "RDD") -> "RDD":
        """Distinct elements present in both RDDs."""
        left = self.map(lambda x: (x, None))
        right = other.map(lambda x: (x, None))
        return left.cogroup(right).filter(
            lambda kv: bool(kv[1][0]) and bool(kv[1][1])
        ).keys()

    def subtract(self, other: "RDD") -> "RDD":
        """Elements of self not present in other (keeps duplicates of self)."""
        left = self.map(lambda x: (x, None))
        right = other.map(lambda x: (x, None))
        return left.subtract_by_key(right).keys()

    def repartition(self, num_partitions: int) -> "RDD":
        """Change partition count via a round-robin shuffle."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")

        def tag(index: int, part: list[Any]) -> list[Any]:
            return [((index + i) % num_partitions, x) for i, x in enumerate(part)]

        tagged = self.map_partitions_with_index(tag)
        routed = tagged.partition_by(_ModPartitioner(num_partitions))
        return routed.values()

    def sort_by(
        self,
        key_fn: Callable[[Any], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD":
        """Globally sort by ``key_fn`` via range partitioning + local sorts."""
        nparts = num_partitions or self.num_partitions
        keyed = self.key_by(key_fn)
        all_keys = keyed.keys().collect()
        partitioner = RangePartitioner.from_keys(all_keys, nparts, ascending=ascending)
        routed = keyed.partition_by(partitioner)
        ordered = routed.map_partitions(
            lambda part: sorted(part, key=lambda kv: kv[0], reverse=not ascending)
        )
        return ordered.values()

    def sort_by_key(self, ascending: bool = True, num_partitions: int | None = None) -> "RDD":
        """Pair RDD: global sort by key."""
        nparts = num_partitions or self.num_partitions
        all_keys = self.keys().collect()
        partitioner = RangePartitioner.from_keys(all_keys, nparts, ascending=ascending)
        routed = self.partition_by(partitioner)
        return routed.map_partitions(
            lambda part: sorted(part, key=lambda kv: kv[0], reverse=not ascending)
        )

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def collect(self) -> list[Any]:
        """All elements, in partition order."""
        parts = self.ctx.run_job(self, lambda _i, part: list(part))
        return [x for part in parts for x in part]

    def collect_as_map(self) -> dict[Any, Any]:
        """Pair RDD: collected into a dict (later pairs win on duplicates)."""
        return dict(self.collect())

    def count(self) -> int:
        """Number of elements."""
        return sum(self.ctx.run_job(self, lambda _i, part: len(part)))

    def first(self) -> Any:
        """First element (IndexError on empty RDD)."""
        taken = self.take(1)
        if not taken:
            raise IndexError("first() on an empty RDD")
        return taken[0]

    def take(self, n: int) -> list[Any]:
        """First ``n`` elements, computing partitions only as needed."""
        if n <= 0:
            return []
        out: list[Any] = []
        for split in range(self.num_partitions):
            out.extend(self.partition(split))
            if len(out) >= n:
                break
        return out[:n]

    def top(self, n: int, key: Callable[[Any], Any] | None = None) -> list[Any]:
        """Largest ``n`` elements, descending."""
        data = self.collect()
        return heapq.nlargest(n, data, key=key)

    def take_ordered(self, n: int, key: Callable[[Any], Any] | None = None) -> list[Any]:
        """Smallest ``n`` elements, ascending."""
        data = self.collect()
        return heapq.nsmallest(n, data, key=key)

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        """Fold all elements with ``f`` (ValueError on empty RDD)."""
        parts = self.ctx.run_job(
            self, lambda _i, part: _fold_or_none(part, f)
        )
        nonempty = [p for p in parts if p is not _EMPTY]
        if not nonempty:
            raise ValueError("reduce() on an empty RDD")
        acc = nonempty[0]
        for p in nonempty[1:]:
            acc = f(acc, p)
        return acc

    def fold(self, zero: Any, f: Callable[[Any, Any], Any]) -> Any:
        """Fold with a zero element applied per partition and at merge."""
        parts = self.ctx.run_job(
            self, lambda _i, part: _fold_with_zero(part, zero, f)
        )
        acc = zero
        for p in parts:
            acc = f(acc, p)
        return acc

    def aggregate(
        self, zero: Any, seq_fn: Callable[[Any, Any], Any], comb_fn: Callable[[Any, Any], Any]
    ) -> Any:
        """Generalized fold with distinct in-partition and merge functions."""
        import copy

        def seq_part(_i: int, part: list[Any]) -> Any:
            acc = copy.deepcopy(zero)
            for x in part:
                acc = seq_fn(acc, x)
            return acc

        parts = self.ctx.run_job(self, seq_part)
        acc = copy.deepcopy(zero)
        for p in parts:
            acc = comb_fn(acc, p)
        return acc

    def sum(self) -> Any:
        """Sum of elements (0 for empty)."""
        return self.fold(0, lambda a, b: a + b)

    def mean(self) -> float:
        """Arithmetic mean (ValueError on empty RDD)."""
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if count == 0:
            raise ValueError("mean() on an empty RDD")
        return total / count

    def min(self) -> Any:
        """Smallest element."""
        return self.reduce(lambda a, b: b if b < a else a)

    def max(self) -> Any:
        """Largest element."""
        return self.reduce(lambda a, b: b if b > a else a)

    def count_by_key(self) -> dict[Any, int]:
        """Pair RDD: occurrences per key (driver-side dict)."""
        counts: dict[Any, int] = {}
        for k, _ in self.collect():
            counts[k] = counts.get(k, 0) + 1
        return counts

    def count_by_value(self) -> dict[Any, int]:
        """Occurrences per distinct element."""
        counts: dict[Any, int] = {}
        for x in self.collect():
            counts[x] = counts.get(x, 0) + 1
        return counts

    def foreach(self, f: Callable[[Any], None]) -> None:
        """Run ``f`` for its side effects on every element."""
        self.ctx.run_job(self, lambda _i, part: [f(x) for x in part] and None)

    def save_as_text_file(self, directory) -> None:
        """Write one ``part-NNNNN`` file per partition (str() per element).

        The HDFS-output stand-in; read back with
        :meth:`SparkContext.text_file` over the part files.
        """
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        def write_part(index: int, part: list[Any]) -> None:
            path = directory / f"part-{index:05d}"
            path.write_text("".join(f"{x}\n" for x in part))

        self.ctx.run_job(self, write_part)
        (directory / "_SUCCESS").write_text("")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id}, partitions={self.num_partitions})"


class _ModPartitioner:
    """Integer keys routed by value modulo — exact round-robin balance."""

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = num_partitions

    def partition(self, key: int) -> int:
        return key % self.num_partitions


_EMPTY = object()


def _fold_or_none(part: list[Any], f: Callable[[Any, Any], Any]) -> Any:
    if not part:
        return _EMPTY
    acc = part[0]
    for x in part[1:]:
        acc = f(acc, x)
    return acc


def _fold_with_zero(part: list[Any], zero: Any, f: Callable[[Any, Any], Any]) -> Any:
    import copy

    acc = copy.deepcopy(zero)
    for x in part:
        acc = f(acc, x)
    return acc


class ParallelCollectionRDD(RDD):
    """Leaf RDD over driver-provided data, pre-sliced into partitions."""

    def __init__(self, ctx: "SparkContext", slices: list[list[Any]]) -> None:
        super().__init__(ctx, len(slices), deps=[])
        self._slices = slices

    def compute(self, split: int) -> list[Any]:
        return list(self._slices[split])


class MapPartitionsRDD(RDD):
    """Narrow transformation of one parent partition."""

    def __init__(self, parent: RDD, f: Callable[[int, list[Any]], Iterable[Any]]) -> None:
        super().__init__(parent.ctx, parent.num_partitions, deps=[NarrowDependency(parent)])
        self._parent = parent
        self._f = f

    def compute(self, split: int) -> list[Any]:
        return list(self._f(split, self._parent.partition(split)))


class UnionRDD(RDD):
    """Concatenation: child partitions are the parents' partitions in order."""

    def __init__(self, ctx: "SparkContext", parents: list[RDD]) -> None:
        total = sum(p.num_partitions for p in parents)
        super().__init__(ctx, total, deps=[NarrowDependency(p) for p in parents])
        self._parents = parents

    def compute(self, split: int) -> list[Any]:
        for parent in self._parents:
            if split < parent.num_partitions:
                return parent.partition(split)
            split -= parent.num_partitions
        raise IndexError("partition index out of range")


class CoalescedRDD(RDD):
    """Merge adjacent parent partitions into fewer child partitions."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        super().__init__(parent.ctx, num_partitions, deps=[NarrowDependency(parent)])
        self._parent = parent

    def compute(self, split: int) -> list[Any]:
        from repro.util.partition import block_bounds

        lo, hi = block_bounds(self._parent.num_partitions, self.num_partitions, split)
        out: list[Any] = []
        for p in range(lo, hi):
            out.extend(self._parent.partition(p))
        return out


class ZippedRDD(RDD):
    """Positional pairing of two equally-partitioned RDDs."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.ctx,
            left.num_partitions,
            deps=[NarrowDependency(left), NarrowDependency(right)],
        )
        self._left = left
        self._right = right

    def compute(self, split: int) -> list[Any]:
        a = self._left.partition(split)
        b = self._right.partition(split)
        if len(a) != len(b):
            raise ValueError(
                f"zip partition {split}: sizes differ ({len(a)} vs {len(b)})"
            )
        return list(zip(a, b))


class CartesianRDD(RDD):
    """Cross product: child partition (i, j) = left part i × right part j."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.ctx,
            left.num_partitions * right.num_partitions,
            deps=[NarrowDependency(left), NarrowDependency(right)],
        )
        self._left = left
        self._right = right

    def compute(self, split: int) -> list[Any]:
        li, ri = divmod(split, self._right.num_partitions)
        return [
            (a, b)
            for a in self._left.partition(li)
            for b in self._right.partition(ri)
        ]


class ShuffledRDD(RDD):
    """A wide transformation: hash/range-routed, per-key combined pairs.

    The map side buckets (and optionally pre-combines) every parent
    partition's pairs into a :class:`~repro.spark.shuffle.ShuffleBlockStore`;
    the reduce side fetches and merges bucket streams in map-task order.
    All shuffle traffic is counted in ``ctx.metrics`` so tests and
    benchmarks can observe the effect of map-side combining.

    Under a fault plan the store is checksummed, and a fetch that
    detects corruption triggers **lineage recovery**: the owning map
    task is recomputed from ``self._parent`` (recursing up the DAG as
    needed, stopping at persisted/checkpointed RDDs) and its blocks
    re-stored — real Spark's lost-partition model.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Any,
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        *,
        map_side_combine: bool,
        flatten_values: bool = False,
    ) -> None:
        super().__init__(
            parent.ctx, partitioner.num_partitions, deps=[ShuffleDependency(parent, partitioner)]
        )
        self.partitioner = partitioner  # output is laid out by construction
        self._parent = parent
        self._partitioner = partitioner
        self._create = create
        self._merge_value = merge_value
        self._merge_combiners = merge_combiners
        self._map_side_combine = map_side_combine
        self._flatten_values = flatten_values
        self._shuffle_lock = threading.Lock()
        self._recompute_lock = threading.Lock()
        self._store: Any = None
        self._shuffle_index: int | None = None
        self._map_job_id: int | None = None

    def _map_one(self, _i: int, part: list[Any]) -> list[list[tuple[Any, Any]]]:
        """The map-task body: combine one parent partition's pairs per key
        (if map-side combining), *then* route each key once into its reduce
        partition's bucket, in first-appearance order. Also the unit of
        lineage recovery: a lost map output is rebuilt by re-running this."""
        partition = self._partitioner.partition
        buckets: list[list[tuple[Any, Any]]] = [[] for _ in range(self.num_partitions)]
        if self._map_side_combine:
            combined: dict[Any, Any] = {}
            for key, value in part:
                if key in combined:
                    combined[key] = self._merge_value(combined[key], value)
                else:
                    combined[key] = self._create(value)
            part = combined.items()
        for key, value in part:
            buckets[partition(key)].append((key, value))
        return buckets

    def _materialize_shuffle(self) -> Any:
        """Run the map side once, into a block store keyed by map task."""
        with self._shuffle_lock:
            if self._store is not None:
                return self._store
            ctx = self.ctx
            job_id, outputs = ctx._execute_job(self._parent, self._map_one)
            shipped = sum(len(bucket) for task in outputs for bucket in task)
            ctx.metrics.shuffle_records += shipped
            ctx.metrics.shuffles += 1
            # The shuffle is numbered *after* its map job (nested parent
            # shuffles materialize — and number themselves — during it)
            # but *before* any put: spills fire during puts and their
            # fault events are addressed by (shuffle, spill file).
            index = ctx._next_shuffle_index()
            store = ctx._create_shuffle_store(
                index, self._parent.num_partitions, self.num_partitions
            )
            for map_task, buckets in enumerate(outputs):
                store.put(map_task, buckets)
            self._map_job_id = job_id
            self._shuffle_index = index
            # Inject any scheduled resident-block corruption — after the
            # blocks exist, before any fetch.
            ctx._inject_shuffle_corruption(store, index)
            self._store = store
            return store

    def _recover_map_output(self, store: Any, map_task: int) -> None:
        """Recompute one lost/corrupt map output from the lineage DAG.

        Serialized so concurrent reduce tasks hitting the same bad block
        recover it once; the parent-partition recursion stops at
        persisted/checkpointed RDDs (recomputation barriers) and cascades
        through upstream shuffles' own recovery if *their* blocks are
        also corrupt. The rebuilt map task's accumulator updates are
        discarded by the exactly-once commit (its logical task already
        committed during materialization), keeping diagnostics
        bit-identical.
        """
        from repro.spark.accumulators import task_updates
        from repro.trace.tracer import get_tracer

        ctx = self.ctx
        with self._recompute_lock:
            bad = store.corrupted_blocks(map_task)
            if not bad:
                return  # another task already recovered this map output
            tracer = get_tracer()
            ctx.metrics.bump("spark.corrupt_blocks_detected", len(bad))
            tracer.instant(
                "corrupt_block", category="spark.fault",
                shuffle=self._shuffle_index, map_task=map_task, blocks=len(bad),
            )
            with task_updates() as sink:
                buckets = self._map_one(map_task, self._parent.partition(map_task))
            assert self._map_job_id is not None
            ctx._commit_task((self._map_job_id, map_task), sink)
            # pin: a recomputed output must stay resident — re-spilling it
            # could land it back on the fault that just destroyed it.
            store.put(map_task, buckets, pin=True)
            ctx.metrics.bump("spark.recomputed_partitions")
            if ctx.fault_report is not None:
                ctx.fault_report.record_recompute(self._shuffle_index or 0, map_task)
            tracer.instant(
                "recompute", category="spark.fault",
                shuffle=self._shuffle_index, map_task=map_task,
            )

    def _recover_spill_file(self, store: Any, err: LostSpillFileError) -> None:
        """Recompute every map output that lived in a lost spill run.

        Whole-file granularity: one bad byte poisons the run, so all of
        ``err.map_tasks`` are rebuilt from lineage (honoring
        persist()/checkpoint() barriers, exactly like resident-block
        recovery) and re-stored *pinned* resident. If the fault plan
        schedules repeat attempts against this file, each one destroys
        the recomputed data again; more than ``ctx.max_task_retries``
        such failures escalates to :class:`SparkJobFailedError` carrying
        the fault report that names the lost file.
        """
        from repro.spark.accumulators import task_updates
        from repro.spark.faults import SparkJobFailedError
        from repro.trace.tracer import get_tracer

        ctx = self.ctx
        shuffle = self._shuffle_index or 0
        with self._recompute_lock:
            if not store.file_needs_recovery(err.slot):
                return  # another reduce task already recovered this run
            tracer = get_tracer()
            ctx.metrics.bump("spark.lost_spill_files")
            if ctx.fault_report is not None:
                ctx.fault_report.record_spill_loss(shuffle, err.slot, err.reason, err.path)
            tracer.instant(
                "lost_spill_file", category="spark.fault",
                shuffle=shuffle, file=err.slot,
                reason=err.reason, map_tasks=len(err.map_tasks),
            )
            failures = 1  # the loss itself
            while ctx._spill_refire(shuffle, err.slot):
                failures += 1
                if ctx.fault_report is not None:
                    ctx.fault_report.record_retry(self._map_job_id or 0, err.map_tasks[0])
                if failures > ctx.max_task_retries:
                    assert ctx.fault_report is not None
                    raise SparkJobFailedError(
                        self._map_job_id or 0,
                        err.map_tasks[0],
                        failures,
                        ctx.fault_report,
                    ) from err
            assert self._map_job_id is not None
            for map_task in err.map_tasks:
                with task_updates() as sink:
                    buckets = self._map_one(map_task, self._parent.partition(map_task))
                ctx._commit_task((self._map_job_id, map_task), sink)
                store.put(map_task, buckets, pin=True)
                ctx.metrics.bump("spark.recomputed_partitions")
                if ctx.fault_report is not None:
                    ctx.fault_report.record_recompute(shuffle, map_task)
            store.mark_file_recovered(err.slot)
            ctx.metrics.bump("spark.spill_recoveries")
            if ctx.fault_report is not None:
                ctx.fault_report.record_spill_recovery(shuffle, err.slot)
            tracer.instant(
                "spill_recovery", category="spark.fault",
                shuffle=shuffle, file=err.slot, map_tasks=len(err.map_tasks),
            )

    def compute(self, split: int) -> list[Any]:
        store = self._materialize_shuffle()
        # The merge restarts from scratch after recovery: merge functions
        # never mutate stored blocks, so a clean re-read over the healed
        # store is bit-identical to an undisturbed pass.
        while True:
            try:
                return self._merge_split(store, split)
            except CorruptShuffleBlockError as err:
                self._recover_map_output(store, err.map_task)
            except LostSpillFileError as err:
                self._recover_spill_file(store, err)

    def _merge_split(self, store: Any, split: int) -> list[Any]:
        """One clean merge pass over reduce partition ``split``."""
        merged: dict[Any, Any] = {}
        order: list[Any] = []
        for _map_task, block in store.iter_blocks(split):
            for key, value in block:
                if key in merged:
                    if self._map_side_combine:
                        merged[key] = self._merge_combiners(merged[key], value)
                    else:
                        merged[key] = self._merge_value(merged[key], value)
                else:
                    merged[key] = value if self._map_side_combine else self._create(value)
                    order.append(key)
        if self._flatten_values:
            return [(k, v) for k in order for v in merged[k]]
        return [(k, merged[k]) for k in order]
