"""Machine-speed sampling with a fixed reference chunk.

On a shared host the same code runs at very different speeds from one
second to the next and from one minute to the next: on the 2-core machine
this benchmark was written on, ``exhaustive_search(4, 9)`` took anywhere
from 10 s to 19 s, with no steal time reported.  The benchmark therefore
times a fixed chunk of work (table lookups for CPU speed, a fresh mapping
touched page by page for page-fault speed) from a ``SIGALRM`` handler every
``interval`` seconds while the ops run, and reports each op's time scaled
to the speed at which the chunk takes ``REF_S``: ``scaled = raw * REF_S /
chunk``, with ``chunk`` the median chunk time in a window around the op.
The chunk never calls the package, so a change to the package moves scaled
times as it moves raw ones on a steady machine.  The handler's own time is
subtracted from the op it interrupted, and raw times are reported
alongside.
"""

from __future__ import annotations

import bisect
import gc
import mmap
import signal
import statistics
import time

REF_S = 0.0007
_TABLE = {i: (i * 7919) % 2503 for i in range(2500)}
_PAGES = 64


def _chunk() -> int:
    # lookups and integer work on a table built once, then a fresh anonymous
    # mapping touched page by page: CPU speed and page-fault speed, the two
    # that vary on a shared host, without depending on the state of the
    # interrupted op's heap
    table = _TABLE
    total = 0
    for i in range(1500):
        total += table[i] ^ table[(i * 31) % 2500]
    with mmap.mmap(-1, _PAGES * mmap.PAGESIZE) as fresh:
        for pos in range(0, _PAGES * mmap.PAGESIZE, mmap.PAGESIZE):
            fresh[pos] = 1
    return total


def probe(repeats: int = 5) -> float:
    """Median wall time of the reference chunk."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the reference chunk from a SIGALRM handler while in a ``with`` block.

    Interval timers are not inherited across fork, so worker processes
    that the package starts are not interrupted.
    """

    def __init__(self, interval: float = 0.05, window: float = 0.5):
        self.interval = interval
        self.window = window
        self.stamps = []
        self.chunks = []
        self.spent = 0.0  # seconds spent in the handler, to subtract from ops
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _chunk()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.stamps.append(t1)
        self.chunks.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median chunk time sampled from ``start - window`` to ``end + window``."""
        lo = bisect.bisect_left(self.stamps, start - self.window)
        hi = bisect.bisect_right(self.stamps, end + self.window)
        if lo == hi:  # no sample in the window: use the nearest one after it
            lo, hi = min(lo, len(self.stamps) - 1), min(lo, len(self.stamps) - 1) + 1
        return REF_S / statistics.median(self.chunks[lo:hi])
