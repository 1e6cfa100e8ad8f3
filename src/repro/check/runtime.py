"""The check session: what the differential oracle arms on every world.

A :class:`CheckSession` is an ambient :class:`~repro.sim.session.Session`:
every :class:`~repro.sim.simulator.Simulator` built while it is active
joins it, however the exhibit builds its world.  The simulator

- gets an enabled :class:`~repro.sim.trace.Trace` (when the caller
  supplied none), which the session collects on :attr:`~CheckSession.
  traces`;
- arms the session's :class:`~repro.check.invariants.InvariantChecker`
  (when the caller armed none);
- carries the session's ``reference`` flag, which the
  :class:`~repro.phy.medium.Medium` built on it follows.
"""

from __future__ import annotations

from typing import Any, List

from ..sim.session import Session
from ..sim.trace import Trace

__all__ = ["CheckSession"]


class CheckSession(Session):
    """One instrumented run: trace capture + path selection + checks.

    Parameters
    ----------
    reference:
        When ``True`` every medium built inside the session runs the
        reference path (``Medium(reference=True)``: brute-force fan-out
        plus per-probe mask re-evaluation in the radio power sums)
        instead of the fast path.
    checker:
        Optional :class:`~repro.check.invariants.InvariantChecker`
        armed on every simulator built inside the session.
    """

    def __init__(self, reference: bool = False, checker: Any = None) -> None:
        self.reference = bool(reference)
        self.checker = checker
        #: Traces of the simulators created inside the session, in
        #: construction order (one exhibit may build several rigs).
        self.traces: List[Trace] = []

    def join(self, sim: Any) -> None:
        if sim.trace is None:
            sim.trace = Trace(enabled=True)
        self.traces.append(sim.trace)
        if sim.checks is None:
            sim.checks = self.checker
        sim.reference = self.reference
