"""Golden values for the shuffle hash.

``stable_hash`` decides which rank or reduce partition owns every key in
the MPI MapReduce engine and in the Spark simulator, so its digest must
never drift: a changed value silently moves keys, reorders pairs and
changes every tie-broken result. These values were computed once and are
checked verbatim, through both the fast one-part path (exact ``str`` and
``int``) and the general tagged encoding.
"""

import pytest

from repro.mapreduce.hashing import partition_for, stable_hash
from repro.spark import HashPartitioner

GOLDEN = [
    ("str_empty", "", 16593940277942513374),
    ("str_ascii", "hello", 15768710110751428397),
    ("str_non_ascii", "naïve 東京 🙂", 1525861040280339959),
    ("int_zero", 0, 8859566273657638067),
    ("int_negative", -42, 7088438107299150231),
    ("int_above_2_64", 2**64 + 7, 11065298403716544340),
    ("true", True, 11037929603529112794),
    ("false", False, 10627274567523206935),
    ("float_zero", 0.0, 15985256667540909495),
    ("float_negative_zero", -0.0, 10615535831619864250),
    ("float_inf", float("inf"), 7930387929389954809),
    ("float_nan", float("nan"), 18070600788480697249),
    ("bytes", b"\x00ab\xff", 7696398470128883266),
    ("none", None, 6753767377493465268),
    ("tuple_nested", ("a", (1, (2.5, None)), b"z", True), 819238653626359976),
    ("tuple_empty", (), 3356187105515937909),
    ("pickled_fallback", frozenset(), 10236176431601839528),
]

#: HashPartitioner(n).partition of each GOLDEN key, in GOLDEN order.
PLACEMENT = {
    2: [0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0],
    3: [1, 2, 2, 2, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 2, 0, 1],
    7: [0, 0, 0, 4, 0, 3, 6, 6, 5, 0, 4, 2, 3, 2, 2, 6, 5],
}


@pytest.mark.parametrize("key, expected", [(k, h) for _, k, h in GOLDEN],
                         ids=[name for name, _, _ in GOLDEN])
def test_stable_hash_is_pinned(key, expected):
    assert stable_hash(key) == expected


@pytest.mark.parametrize("n", sorted(PLACEMENT))
def test_hash_partitioner_placement_is_pinned(n):
    keys = [k for _, k, _ in GOLDEN]
    assert [HashPartitioner(n).partition(k) for k in keys] == PLACEMENT[n]
    assert [partition_for(k, n) for k in keys] == PLACEMENT[n]


def test_subclasses_take_the_tagged_path():
    # bool is an int subclass; a str subclass must hash like its text.
    class Word(str):
        pass

    assert stable_hash(True) != stable_hash(1)
    assert stable_hash(Word("hello")) == stable_hash("hello")
