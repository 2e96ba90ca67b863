"""Map-side combine: combine per key first, then route each key once.

``ShuffledRDD._map_one`` pre-combines a map task's pairs into one
insertion-ordered dict and only then hashes each distinct key to its
reduce bucket. For same-type keys this must leave every bucket exactly
as routing each record first and combining per destination did — same
keys, values and first-appearance order, same ``create``/``merge_value``
call sequence — so spill bytes, CRCs and lineage recovery stay
bit-identical. The oracle below is that route-then-combine loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark import SparkContext


def route_then_combine(rdd, part):
    """The per-record routing loop, kept as the oracle."""
    nparts = rdd.num_partitions
    buckets = [[] for _ in range(nparts)]
    combined = {}
    order = [[] for _ in range(nparts)]
    for key, value in part:
        dest = rdd._partitioner.partition(key)
        dest_map = combined.setdefault(dest, {})
        if key in dest_map:
            dest_map[key] = rdd._merge_value(dest_map[key], value)
        else:
            dest_map[key] = rdd._create(value)
            order[dest].append(key)
    for dest, dest_map in combined.items():
        buckets[dest] = [(k, dest_map[k]) for k in order[dest]]
    return buckets


def logged_shuffle(sc, pairs, nparts, calls):
    """A combining shuffle whose create/merge_value calls append to ``calls``."""

    def create(v):
        calls.append(("create", v))
        return [v]

    def merge_value(acc, v):
        calls.append(("merge", v))
        return acc + [v]

    return sc.parallelize(pairs, 1).combine_by_key(create, merge_value, list.__add__, nparts)


KEYS = st.one_of(
    st.lists(st.tuples(st.text(max_size=3), st.integers(-9, 9)), max_size=60),
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-9, 9)), max_size=60),
)


@given(KEYS, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_buckets_match_route_then_combine(pairs, nparts):
    with SparkContext(num_workers=1) as sc:
        new_calls, old_calls = [], []
        new = logged_shuffle(sc, pairs, nparts, new_calls)._map_one(0, pairs)
        old = route_then_combine(logged_shuffle(sc, pairs, nparts, old_calls), pairs)
    assert new == old
    assert new_calls == old_calls


def test_each_distinct_key_is_routed_once():
    pairs = [(w, 1) for w in "a b a c b a d a".split()]
    with SparkContext(num_workers=1) as sc:
        rdd = sc.parallelize(pairs, 1).reduce_by_key(lambda a, b: a + b, 3)
        seen = []
        partition = rdd._partitioner.partition
        rdd._partitioner.partition = lambda key: (seen.append(key), partition(key))[1]
        buckets = rdd._map_one(0, pairs)
    assert seen == ["a", "b", "c", "d"]
    assert sorted(kv for b in buckets for kv in b) == [("a", 4), ("b", 2), ("c", 1), ("d", 1)]


def keyed_aggregations(sc, pairs, nparts):
    rdd = sc.parallelize(pairs, 4)
    return [
        rdd.reduce_by_key(lambda a, b: a + b, nparts).collect(),
        rdd.aggregate_by_key([], lambda acc, v: acc + [v], list.__add__, nparts).collect(),
        rdd.combine_by_key(lambda v: (v, 1), lambda a, v: (a[0] + v, a[1] + 1),
                           lambda a, b: (a[0] + b[0], a[1] + b[1]), nparts).collect(),
    ]


@given(KEYS, st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_spilling_aggregations_equal_in_memory(pairs, nparts):
    with SparkContext(num_workers=2) as sc:
        expect = keyed_aggregations(sc, pairs, nparts)
    with SparkContext(num_workers=2, memory_budget=64) as sc:
        assert keyed_aggregations(sc, pairs, nparts) == expect


def test_spilling_aggregations_equal_in_memory_when_the_budget_bites():
    pairs = [(f"w{i % 97}", i) for i in range(3000)]
    with SparkContext(num_workers=2) as sc:
        expect = keyed_aggregations(sc, pairs, 3)
    with SparkContext(num_workers=2, memory_budget=2_000) as sc:
        assert keyed_aggregations(sc, pairs, 3) == expect
        assert sc.metrics.extra.get("spark.spill_files", 0) >= 1


class TestMixedTypeEqualKeys:
    """``1``, ``1.0`` and ``True`` compare equal but hash apart.

    Within one map task the combine dict merges them under the first-seen
    key, as ``dict`` and ``collections.Counter`` do, whatever the number
    of reduce partitions.
    """

    DATA = [(1, 1), (1.0, 10), (True, 100), (2, 1), (2.0, 5)]

    def test_merged_per_map_task_whatever_the_partition_count(self):
        for nparts in range(1, 6):
            with SparkContext(num_workers=2) as sc:
                rdd = sc.parallelize(self.DATA, 1).reduce_by_key(lambda a, b: a + b, nparts)
                got = sorted(rdd.collect())
            assert got == [(1, 111), (2, 6)]
            assert [type(k) for k, _ in got] == [int, int]  # the first-seen key is kept
