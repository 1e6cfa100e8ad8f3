"""The discrete-event simulator: a clock plus an event queue.

All model components (radios, MACs, traffic sources) hold a reference to one
:class:`Simulator` and interact with simulated time exclusively through it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event, EventQueue
from .session import active_session
from .trace import Trace

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.sim.trace.Trace` recording structured events.
        When omitted a disabled trace is created so call sites never branch.
    checks:
        Optional :class:`~repro.check.invariants.InvariantChecker`.
        Model layers reach it through the public :attr:`checks` attribute
        (``None`` when disabled), so the disabled cost is one attribute
        load and an ``is None`` test per hook site.
    obs:
        Optional :class:`~repro.obs.recorder.Observability` telemetry
        recorder.  Model layers reach it through the public :attr:`obs`
        attribute under the same ``is None`` discipline as ``checks``;
        the recorder is bound to this simulator (scheduling its periodic
        gauge sampler, when one is configured).

    Ambient sessions
    ----------------
    The constructor is the one reader of the ambient
    :class:`~repro.sim.session.Session`: a simulator built inside one
    joins it (:meth:`~repro.sim.session.Session.join`) before filling in
    its defaults.  A :class:`~repro.check.runtime.CheckSession` supplies
    an enabled trace, its checker and the :attr:`reference` flag the
    :class:`~repro.phy.medium.Medium` follows; an
    :class:`~repro.obs.runtime.ObsSession` supplies a recorder.  Every
    simulated world therefore honours the session, however the exhibit
    builds it; arguments the caller gave win.
    """

    def __init__(
        self, trace: Optional[Trace] = None, checks: Any = None,
        obs: Any = None,
    ) -> None:
        #: Current simulation time in seconds.  A plain attribute rather
        #: than a property: it is read on every event dispatch and inside
        #: every PHY/MAC hot path, where descriptor overhead is measurable.
        #: Only the kernel writes it.
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.trace = trace
        self.checks = checks
        self.obs = obs
        #: Whether media built on this simulator default to the
        #: reference path (set by a reference ``CheckSession``).
        self.reference = False
        session = active_session()
        if session is not None:
            session.join(self)
        if self.trace is None:
            self.trace = Trace(enabled=False)
        else:
            self.trace.bind_clock(lambda: self.now)
        if self.obs is not None:
            self.obs.bind(self)

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self._queue.push(self.now + delay, callback, priority, tag)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} s; clock already at {self.now} s"
            )
        return self._queue.push(time, callback, priority, tag)

    @property
    def event_queue(self) -> EventQueue:
        """The underlying queue (read-only access for gauges and audits)."""
        return self._queue

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already fired/cancelled)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Run events in order until the clock reaches ``until`` seconds.

        The clock is left exactly at ``until`` even if the queue drains
        earlier, so back-to-back ``run`` calls compose naturally.
        """
        if until < self.now:
            raise SimulationError(
                f"run until {until} s is in the past (now {self.now} s)"
            )
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            queue = self._queue
            checks = self.checks
            if checks is None:
                # Hot loop: kept free of per-event instrumentation.
                while True:
                    event = queue.pop_due(until)
                    if event is None:
                        break
                    self.now = event.time
                    event.callback()
            else:
                while True:
                    event = queue.pop_due(until)
                    if event is None:
                        break
                    checks.on_event(event, self.now, queue)
                    self.now = event.time
                    event.callback()
            self.now = until
        finally:
            self._running = False

    def run_until_idle(self, max_time: Optional[float] = None) -> None:
        """Run until the event queue drains (or ``max_time`` is reached)."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            queue = self._queue
            checks = self.checks
            horizon = float("inf") if max_time is None else max_time
            while queue:
                event = queue.pop_due(horizon)
                if event is None:
                    break
                if checks is not None:
                    checks.on_event(event, self.now, queue)
                self.now = event.time
                event.callback()
            if max_time is not None and self.now < max_time and not self._queue:
                self.now = max_time
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)
