"""Reference-speed clock: timings that follow the program, not the host's load.

On a shared host the speed of one core drifts by tens of per cent within
minutes, and at times by a factor of two, while the code under test stays the
same; the core's process CPU time drifts with it, and the other core's speed
hardly tracks it.  So a pass
samples the speed of its own core while it runs: every INTERVAL_S a timer
signal runs a fixed pure-Python reference loop inside the pass's process
(between two bytecodes of whatever the pass is doing, library calls
included) and records how long it took.  `SpeedProbe.clock` then maps a
`perf_counter` reading to *reference seconds*: wall time outside the probe's
own loops, each stretch scaled by REFERENCE_S over the loop time measured
around it.  A reference second is a second on a core on which the loop takes
REFERENCE_S (about the loop's time on a lightly loaded 2-core x86-64 VM,
Python 3.11), so the figures read close to wall seconds, and a change that
makes the library faster or slower moves them as it moves wall time.  The
probe costs about 2-3 % of a pass, spread evenly over it.

On that VM, over passes of the same code, this cut the spread of a pass's
time from about 25 % to about 3 %; slow single queries keep more (about 6 %),
because the loop tracks the library's speed only approximately.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from bisect import bisect_right
from time import perf_counter
from typing import Callable

INTERVAL_S = 0.05
REFERENCE_S = 0.0012
# loop samples each stretch's speed is the median of (about half a second)
SMOOTH = 9


class _Poly:
    """Polynomial over F_7 as a coefficient tuple; the reference loop's
    interpreter work (calls, attribute access, tuples, dicts)."""

    __slots__ = ("c",)

    def __init__(self, c: tuple):
        self.c = c

    def mul(self, other: "_Poly") -> "_Poly":
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] = (out[i + j] + x * y) % 7
        return _Poly(tuple(out))


_rng = random.Random(0)
_POLYS = [_Poly(tuple(_rng.randrange(7) for _ in range(5))) for _ in range(16)]


def reference_loop() -> int:
    """Fixed interpreter work of the benchmark's own: all products of 16
    small polynomials, counted in a dict.  On the groups and structure
    passes it tracked the library's speed on a loaded host better than an
    arithmetic loop or scattered reads of a large buffer did."""
    seen: dict = {}
    for a in _POLYS:
        for b in _POLYS:
            c = a.mul(b).c
            seen[c] = seen.get(c, 0) + 1
    return len(seen)


class SpeedProbe:
    """Context manager that samples the core's speed while it is open; one
    sample is taken on entry and one on exit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None) -> None:
        # a garbage collection of the pass's heap must not land in a sample,
        # where it would be both taken for slowness and left out of the pass
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_loop()
        self.samples.append((start, perf_counter()))
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def loop_seconds(self) -> list[float]:
        return [b - a for a, b in self.samples]

    def clock(self) -> Callable[[float], float]:
        """Map a perf_counter reading taken while the probe was open to
        reference seconds since the first sample.  The map does not decrease,
        so it keeps the order of timestamps and the nesting of spans."""
        starts = [a for a, _ in self.samples]
        ends = [b for _, b in self.samples]
        loops = self.loop_seconds()
        half = SMOOTH // 2
        weight = [REFERENCE_S / statistics.median(loops[max(0, j - half):j + half + 1])
                  for j in range(len(loops))]
        # reference time at the end of each sample; a sample itself adds none
        at_end = [0.0]
        for j in range(1, len(loops)):
            at_end.append(at_end[-1] + (starts[j] - ends[j - 1]) * weight[j - 1])

        def to_reference(t: float) -> float:
            j = bisect_right(starts, t) - 1
            if j < 0:
                return (t - starts[0]) * weight[0]
            return at_end[j] + max(0.0, t - ends[j]) * weight[j]

        return to_reference
