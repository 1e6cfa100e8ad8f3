"""Event objects and the pending-event queue for the discrete-event kernel.

The queue is a binary heap keyed by ``(time, priority, sequence)``.  The
sequence number makes ordering total and deterministic: two events scheduled
for the same instant with the same priority fire in scheduling order, which
keeps runs bit-reproducible for a fixed seed.

Cancellation is *lazy*: cancelled events stay in the heap but are skipped when
popped.  This keeps cancellation O(1), which matters because CSMA backoff and
reception bookkeeping cancel events constantly.  To stop cancelled entries
from bloating the heap (and taxing every subsequent push/pop with extra
comparisons), the queue *compacts* itself whenever more than
:attr:`EventQueue.COMPACT_DEAD_FRACTION` of a heap larger than
:attr:`EventQueue.COMPACT_MIN_SIZE` is dead: live events are filtered out and
re-heapified, which preserves the total ``(time, priority, seq)`` order
exactly.

One heap serves the whole scene.  Per-band sub-heaps were tried and removed:
on the 50k-mote and dense benchmark scenes their churn isolation measured
within run-to-run noise of a single heap (DESIGN.md §15).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-breaker for events at the same instant; lower fires first.
    callback:
        Zero-argument callable invoked when the event fires.
    tag:
        Optional label used in traces and error messages.
    """

    __slots__ = ("time", "priority", "seq", "callback", "tag", "_cancelled", "_fired")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        tag: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.tag = tag
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Mark the event so it will be skipped when it reaches the head."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __lt__(self, other: "Event") -> bool:
        # Tuple-free: this comparator runs O(n log n) times per simulation
        # inside heappush/heappop, and building two throwaway tuples per
        # call measurably shows up in kernel profiles.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        tag = f" tag={self.tag!r}" if self.tag else ""
        return f"<Event t={self.time:.9f} prio={self.priority}{tag} {state}>"


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    #: Heaps at or below this size are never compacted (the filter pass is
    #: not worth it).
    COMPACT_MIN_SIZE = 64
    #: Compact when more than this fraction of the heap is cancelled.
    COMPACT_DEAD_FRACTION = 0.5

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._live = 0
        #: Cancelled-but-still-heaped entries; drives the compaction
        #: trigger without O(n) scans.
        self._dead = 0
        #: Total compaction passes over the queue's lifetime (obs gauge).
        self.compactions = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def live(self) -> int:
        """Live event count (gauge-friendly alias of ``len``)."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return its handle."""
        event = Event(time, priority, next(self._counter), callback, tag)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel an event previously returned by :meth:`push`.

        Cancelling an already-cancelled or already-fired event is a no-op.
        When the cancelled fraction of the heap exceeds
        :attr:`COMPACT_DEAD_FRACTION`, the heap is compacted (dead entries
        dropped, then re-heapified).
        """
        if event._cancelled or event._fired:
            return
        event._cancelled = True
        self._live -= 1
        dead = self._dead = self._dead + 1
        size = len(self._heap)
        if size > self.COMPACT_MIN_SIZE and dead > size * self.COMPACT_DEAD_FRACTION:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Ordering is untouched: the heap property is re-established over the
        same total order (``Event.__lt__``), so the pop sequence of live
        events is identical before and after compaction.
        """
        self._heap = [event for event in self._heap if not event._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        event = self.pop_due(float("inf"))
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_due(self, until: float) -> Optional[Event]:
        """Pop the earliest live event at or before ``until``, else ``None``.

        Fuses the ``peek_time`` + ``pop`` pair the kernel run loop would
        otherwise perform.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head._cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if head.time > until:
                return None
            heapq.heappop(heap)
            head._fired = True
            self._live -= 1
            return head
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0]._cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0].time if heap else None

    # ------------------------------------------------------------------
    # Audit / maintenance
    # ------------------------------------------------------------------
    def scan_live(self) -> int:
        """Count live events by a full scan of the heap (O(n)).

        Audit hook for the invariant layer
        (:mod:`repro.check.invariants`): the lazily-maintained
        :attr:`_live` counter drives ``__len__``/``__bool__`` and hence
        the run loop's termination, so a drifted counter would silently
        truncate or overrun a simulation.  ``scan_live`` recomputes the
        ground truth so the checker can compare.
        """
        return sum(1 for event in self._heap if not event._cancelled)

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._dead = 0
        self._live = 0
