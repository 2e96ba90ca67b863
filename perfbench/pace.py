"""Host speed, read from fixed reference work timed between operations.

The benchmark runs on a few virtual CPUs of a shared host whose speed
swings by up to 2x for seconds to minutes at a time, as other tenants
come and go. On a 2-vCPU virtual machine, one pure-Python loop took
106-187 ms within one minute, and five 30-s runs of each workload whose
wall-time medians spread by 0.38-0.44 of their median (IQR over the
median) included whole runs that never saw the host at full speed. No
statistic of wall times within a run can undo a run that was slow from
start to end.

So every timed figure is also taken against a reference: fixed work
of the kind the workload does, timed between its operations
(:data:`REFERENCES`). Kinds of work slow down by different amounts
when the host does, so each workload has its own. heat_halo's
operations are small numpy stencil steps with a thread hand-off between
ranks after each; its reference is the same. wordcount_spill and
serve_closed spend their time in interpreted Python; theirs is a
pure-Python word count. Ten 40-s runs per workload with one mix of all
three kinds as the reference for every workload left the scaled
latency medians of wordcount_spill and serve_closed about 10% lower on
runs where the host was near its full speed than on runs where it was
at half speed, and heat_halo flat; five runs with the word count alone
as the reference left wordcount_spill and serve_closed flat and
heat_halo 10% lower at half speed.

The benchmark runs the reference every ``EVERY_S`` seconds between
operations, never during one. An operation's time is scaled by
the reference's nominal time (its time on this benchmark's 2-vCPU
host at its fastest) over its time next to the operation, the median
of the runs just before it, during it and just after it
(:meth:`Pace.scale`): the time the operation would have taken on that
host at that speed. Taking only the neighbours, not the median over a
second around the operation, follows the host's faster swings: on a
3-minute probe it brought the coefficient of variation of heat_halo's
p95 over 10-s slices from 0.080 to 0.055. A change to the program moves its
operations and not the reference, so it moves the scaled figures as
much as the raw ones; the host moves both together and cancels out.
"""

from __future__ import annotations

import bisect
import queue
import statistics
import threading
import time
from collections.abc import Callable

#: The reference runs at most this often (a few per cent of a run).
EVERY_S = 0.1

_TEXT = [f"w{(i * 7919) % 1013} x{i % 97}" for i in range(4000)]
_STEPS = 60


def word_count() -> list[tuple[str, int]]:
    """Count the words of a fixed text with a dict."""
    counts: dict[str, int] = {}
    for line in _TEXT:
        for word in line.split():
            counts[word] = counts.get(word, 0) + 1
    return sorted(counts.items())


def stencil_handoffs() -> float:
    """Small numpy stencil steps, each followed by a hand-off to another
    thread and back through queues."""
    import numpy as np  # here, so that importing this module stays cheap

    there: queue.Queue = queue.Queue()
    back: queue.Queue = queue.Queue()

    def echo() -> None:
        for _ in range(_STEPS):
            back.put(there.get())

    peer = threading.Thread(target=echo, name="pace-echo")
    peer.start()
    u = np.linspace(0.0, 1.0, 34 * 66).reshape(34, 66)
    for i in range(_STEPS):
        inner = u[1:-1, 1:-1]
        u[1:-1, 1:-1] = inner + 0.2 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4.0 * inner
        )
        there.put(i)
        back.get()
    peer.join()
    return float(u.sum())


#: The reference of each kind of work, by the name a workload gives, with
#: its nominal time: scaled times read as on a host that runs it that fast.
REFERENCES: dict[str, tuple[Callable[[], object], float]] = {
    "python": (word_count, 0.0015),
    "numpy_threads": (stencil_handoffs, 0.0025),
}


class Pace:
    """Reference timings taken through a run, and the scale they give."""

    def __init__(self, kind: str) -> None:
        self.reference, self.nominal = REFERENCES[kind]
        self.stamps: list[float] = []  # midpoint of each reference run, ascending
        self.times: list[float] = []  # its duration
        self._last = float("-inf")

    def measure(self) -> None:
        """Time the reference now."""
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2.0)
        self.times.append(t1 - t0)
        self._last = t1

    def tick(self) -> None:
        """Time the reference if ``EVERY_S`` has passed since it last ran."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """The nominal time over the median time of the reference runs within
        ``[start, end]`` and the nearest one on either side of it."""
        if not self.times:
            raise RuntimeError("no reference timing taken yet")
        lo = max(0, bisect.bisect_left(self.stamps, start) - 1)
        hi = min(len(self.times), bisect.bisect_right(self.stamps, end) + 1)
        return self.nominal / statistics.median(self.times[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The interval's length, scaled to the nominal host."""
        return (end - start) * self.scale(start, end)

    def host_factor(self) -> float:
        """Median reference time over the nominal one: how slow the host ran."""
        return statistics.median(self.times) / self.nominal if self.times else 0.0
