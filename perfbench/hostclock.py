"""Wall-clock timing rescaled to a reference host speed.

Shared hosts change speed under a benchmark.  On the 2-vCPU virtual
machine this benchmark was set up on, a fixed pure-Python loop ran 25 %
either side of its median within seconds, and the median itself moved by
1.5x over tens of minutes as neighbouring load came and went.  Raw wall
times inherit all of that.

:class:`HostClock` therefore cuts the timed work into segments with short
probes (the same fixed loop, best of three) and rescales each segment to
the speed at which the probe takes :data:`NOMINAL_PROBE_S`::

    scaled = raw * NOMINAL_PROBE_S / mean(probe before, probe after)

The workloads place segment boundaries densely (every slice of a scene
window, every slice of an exhibit's ``Simulator.run``), so the probes on
either side of a segment see the speed it ran at.  Probe time is excluded
from both clocks.  Raw and scaled totals are both kept; the end-to-end
metrics use the scaled ones.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Tuple

__all__ = ["HostClock", "NOMINAL_PROBE_S"]

clock = time.perf_counter

#: Probe time at the reference speed (a typical value on the 2.1 GHz Xeon
#: the benchmark was set up on).
NOMINAL_PROBE_S = 2.5e-3

#: :meth:`HostClock.tick` ends a segment only once it is this long, which
#: bounds the probing overhead to a few percent.
MIN_SEGMENT_S = 0.1

_PROBE_ITERATIONS = 30_000


def _spin() -> int:
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        acc += i ^ (i >> 3)
    return acc


class HostClock:
    """Raw and speed-scaled clocks that exclude their own probes."""

    def __init__(self) -> None:
        #: ``(raw seconds, probe before, probe after)`` per segment.
        self.segments: List[Tuple[float, float, float]] = []
        self.raw = 0.0
        self.scaled = 0.0
        self._probe_s = self._probe()
        self._start = clock()

    @staticmethod
    def _probe() -> float:
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            _spin()
            best = min(best, clock() - t0)
        return best

    def mark(self) -> Tuple[float, float]:
        """End the current segment; return the ``(raw, scaled)`` totals."""
        raw = clock() - self._start
        after = self._probe()
        self.segments.append((raw, self._probe_s, after))
        self.raw += raw
        self.scaled += raw * 2.0 * NOMINAL_PROBE_S / (self._probe_s + after)
        self._probe_s = after
        self._start = clock()
        return self.raw, self.scaled

    def tick(self) -> None:
        """End the current segment if it has run for ``MIN_SEGMENT_S``."""
        if clock() - self._start >= MIN_SEGMENT_S:
            self.mark()

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn`` as its own segment(s); ``(result, raw s, scaled s)``."""
        raw0, scaled0 = self.mark()
        result = fn()
        raw1, scaled1 = self.mark()
        return result, raw1 - raw0, scaled1 - scaled0

    def scale(self) -> float:
        """Reference-speed factor over every probe so far (median)."""
        probes = sorted(after for _, _, after in self.segments)
        return NOMINAL_PROBE_S / probes[len(probes) // 2] if probes else 1.0
