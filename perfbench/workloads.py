"""The two batch workloads: inputs from a seed, one operation, an oracle.

Each workload hands the program only generated inputs and checks every
output against an oracle that does not use the engine under test. Sizes,
worker counts and the reason each workload exists are recorded in
``BENCHMARK.json``; the constants below are the same numbers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

WORKERS = 2  # Spark workers and MPI ranks, sized for a two-core machine

WC_WORDS = 5_000
WC_WORDS_PER_LINE = 10
WC_ZIPF = 1.2
#: Small enough that every run spills its shuffle to disk and merges it back.
WC_MEMORY_BUDGET = 6_000

HEAT_SIDE = 64
HEAT_STEPS = 200
HEAT_ALPHA = 0.2


@dataclass(frozen=True)
class Batch:
    """One batch workload: ``op(inputs)`` is the timed operation."""

    modules: tuple[str, ...]
    reference: str  # the kind of work in perfbench.pace.REFERENCES it is timed against
    make_inputs: Callable[[int], Any]
    op: Callable[[Any], Any]
    oracle: Callable[[Any], Any]
    same: Callable[[Any, Any], bool]
    items: Callable[[Any], int]


# ----------------------------------------------------------------------
# wordcount_spill: an out-of-core shuffle with a trivial kernel
# ----------------------------------------------------------------------
def wordcount_inputs(seed: int) -> list[str]:
    ranks = np.random.default_rng(seed).zipf(WC_ZIPF, size=WC_WORDS).tolist()
    words = [f"w{r}" for r in ranks]
    return [
        " ".join(words[i : i + WC_WORDS_PER_LINE]) for i in range(0, WC_WORDS, WC_WORDS_PER_LINE)
    ]


def wordcount_op(lines: list[str]) -> dict[str, int]:
    from repro.knn.wordcount import wordcount_spark

    return wordcount_spark(lines, num_workers=WORKERS, memory_budget=WC_MEMORY_BUDGET)


def wordcount_oracle(lines: list[str]) -> dict[str, int]:
    # The generator emits lowercase alphanumeric words, which the
    # engine's tokenizer keeps as they are.
    return dict(Counter(word for line in lines for word in line.split()))


# ----------------------------------------------------------------------
# heat_halo: halo exchange between two MPI ranks
# ----------------------------------------------------------------------
def heat_inputs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((HEAT_SIDE, HEAT_SIDE))


def heat_op(u0: np.ndarray) -> np.ndarray:
    from repro.heat.mpi2d import run_mpi_2d

    return run_mpi_2d(WORKERS, u0, HEAT_ALPHA, HEAT_STEPS)


def heat_oracle(u0: np.ndarray) -> np.ndarray:
    from repro.heat.mpi2d import solve_serial_2d

    return solve_serial_2d(u0, HEAT_ALPHA, HEAT_STEPS)


BATCH = {
    "wordcount_spill": Batch(
        ("repro.knn.wordcount", "repro.spark"), "python",
        wordcount_inputs, wordcount_op, wordcount_oracle, lambda a, b: a == b,
        lambda _lines: WC_WORDS,
    ),
    "heat_halo": Batch(
        ("repro.heat.mpi2d", "repro.mpi"), "numpy_threads",
        heat_inputs, heat_op, heat_oracle, np.array_equal,
        lambda u0: (u0.shape[0] - 2) * (u0.shape[1] - 2) * HEAT_STEPS,
    ),
}
