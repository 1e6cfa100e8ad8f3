"""The ambient session slot, read by :class:`~repro.sim.simulator.Simulator`.

Exhibit ``run()`` callables build their simulated worlds internally —
through :class:`~repro.net.deployment.Deployment` or directly, like the
802.11b two-link rig — so instrumentation cannot be threaded through
arguments without touching every figure module.  A :class:`Session` is
installed as an ambient context instead, and ``Simulator.__init__`` is
the one reader: it hands itself to :meth:`Session.join` before filling in
its own defaults, so every world joins however it is built.  The two
kinds are :class:`~repro.check.runtime.CheckSession` (trace capture,
reference path, invariants) and :class:`~repro.obs.runtime.ObsSession`
(one telemetry recorder per simulator).

Sessions do not nest and are process-local (campaign worker processes
install their own), so one module global suffices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["Session", "active_session"]

_ACTIVE: Optional["Session"] = None


class Session:
    """One ambient session; its kinds override ``join`` and ``close``."""

    def join(self, sim: "Simulator") -> None:
        """Configure a simulator built inside the session.

        Called by ``Simulator.__init__`` after it stored the caller's
        ``trace``/``checks``/``obs`` (``None`` where not given) and
        before it fills in its defaults.
        """

    def close(self) -> None:
        """Called once when the session exits."""

    def __enter__(self) -> "Session":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError(
                f"sessions do not nest: a {type(_ACTIVE).__name__} is "
                f"already active"
            )
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None
        self.close()


def active_session() -> Optional[Session]:
    """The currently installed session, or ``None``."""
    return _ACTIVE
