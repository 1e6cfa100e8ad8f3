"""Ambient check-session plumbing (import-light, no repro imports).

The differential oracle needs to re-run an *unmodified* exhibit under
instrumentation: traces captured, the medium forced onto its brute-force
reference path, runtime invariants armed.  Exhibit ``run()`` callables
build their simulated worlds internally — through
:class:`~repro.net.deployment.Deployment` or directly, like the 802.11b
two-link rig — so the instrumentation cannot be threaded through arguments
without touching every figure module.  Instead a :class:`CheckSession` is
installed as an ambient context, and the two kernel constructors consult
:func:`active_session`:

- :class:`~repro.sim.simulator.Simulator` attaches an enabled
  :class:`~repro.sim.trace.Trace` (when the caller did not supply one),
  registers it on the session and arms the session's
  :class:`~repro.check.invariants.InvariantChecker`;
- :class:`~repro.phy.medium.Medium` takes the session's ``reference``
  flag, so a reference session runs every world on the reference path.

Sessions do not nest and are process-local (the campaign executor's
worker processes never inherit one), so a plain module global is
sufficient — no thread-local machinery.
"""

from __future__ import annotations

from typing import Any, List, Optional

__all__ = ["CheckSession", "active_session"]

_ACTIVE: Optional["CheckSession"] = None


class CheckSession:
    """One instrumented run: trace capture + path selection + checks.

    Parameters
    ----------
    reference:
        When ``True`` every medium built inside the session runs the
        reference path (``Medium(reference=True)``: brute-force fan-out
        plus per-probe mask re-evaluation in the radio power sums)
        instead of the fast path.
    capture_traces:
        Attach an enabled trace to every simulator built inside the
        session and collect them (in construction order) on
        :attr:`traces`.
    checker:
        Optional :class:`~repro.check.invariants.InvariantChecker`
        armed on every simulator built inside the session.
    """

    def __init__(
        self,
        reference: bool = False,
        capture_traces: bool = True,
        checker: Any = None,
    ) -> None:
        self.reference = bool(reference)
        self.capture_traces = bool(capture_traces)
        self.checker = checker
        #: Traces of the simulators created inside the session, in
        #: construction order (one exhibit may build several rigs).
        self.traces: List[Any] = []

    # ------------------------------------------------------------------
    def attach_trace(self, trace: Any) -> None:
        """Record one simulator's trace (called by ``Simulator``)."""
        self.traces.append(trace)

    # ------------------------------------------------------------------
    def __enter__(self) -> "CheckSession":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("check sessions do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None


def active_session() -> Optional[CheckSession]:
    """The currently installed session, or ``None``."""
    return _ACTIVE
