"""How fast the host ran during a pass, to take its swings out of the times.

The benchmark's host is shared: other tenants' load on its cores and caches
makes the same pure-Python work take up to twice as long from one second to
the next, and thread CPU time swings with wall time, so neither is steady on
its own.  A sampler thread runs a fixed slice of the benchmark's own work
(tuple composition, hashing and set insertion, the operations quandlekit's
permutation code is made of) every ``PERIOD_S`` seconds and records the
slice's thread CPU time.  The mean slice time over a pass, divided by
``QUIET_SLICE_S``, is the pass's slowdown; a time divided by its slowdown is
what it would have read on the quiet host.  The slice is benchmark code, so
a change to quandlekit does not move it.

The sampler takes about 2 % of a pass's time, the same share in every pass.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.1
# The slice's thread CPU time on an Intel Xeon at 2.1 GHz (CPython 3.11)
# when nothing else contends for the host.  A fixed scale; the spread of
# the adjusted times does not depend on it.
QUIET_SLICE_S = 0.0016
SETUP_SLICES = 60

_DEGREE = 13
_ROUNDS = 14
_PERMS = [tuple((k * i + 3) % _DEGREE for i in range(_DEGREE)) for k in range(1, _DEGREE)]


def _slice() -> int:
    seen = set()
    for _ in range(_ROUNDS):
        for p in _PERMS:
            for q in _PERMS:
                seen.add(tuple(p[j] for j in q))
    return len(seen)


def time_slice() -> float:
    t0 = time.thread_time()
    _slice()
    return time.thread_time() - t0


def slowdown_now() -> float:
    """The slowdown measured by running SETUP_SLICES slices back to back, now."""
    return statistics.fmean(time_slice() for _ in range(SETUP_SLICES)) / QUIET_SLICE_S


class Sampler:
    """Runs a slice every PERIOD_S seconds in a thread, while in a with block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        self.samples.append(time_slice())
        while not self._stop.wait(PERIOD_S):
            self.samples.append(time_slice())

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / QUIET_SLICE_S
