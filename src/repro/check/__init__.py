"""repro.check — runtime invariants, differential oracle, determinism.

Every kernel hot path (link-gain culling, batched fan-out, incremental
power accumulators, per-link fading streams) shadows a retained
brute-force reference.  This package is the
correctness layer that continuously cross-checks them:

- :mod:`repro.check.invariants` — opt-in runtime invariants
  (``Simulator(checks=InvariantChecker())``, or a ``CheckSession``
  with a checker, as ``check diff`` arms on both legs): event-time
  monotonicity, non-negative power accumulators with periodic
  brute-force resampling, per-frame bit conservation and CCA-threshold
  sanity.  Violations raise :class:`InvariantViolation` with a
  first-divergence report.
- :mod:`repro.check.oracle` — the differential oracle
  (``python -m repro check diff <exhibit>``): runs an exhibit on the
  fast path and on the reference path (``Medium(reference=True)``:
  brute-force fan-out and accumulators) and diffs the traces event by
  event.
- :mod:`repro.check.determinism` — the determinism checker
  (``python -m repro check determinism <exhibit>``): same seed twice,
  and ``--jobs 1`` vs ``--jobs N`` through the campaign engine, must
  produce byte-identical ``ResultTable`` JSON.
- :mod:`repro.check.runtime` — :class:`CheckSession`, the ambient
  :class:`~repro.sim.session.Session` every simulator built inside it
  joins (enabled trace, armed checker, reference-path flag);
- :mod:`repro.check.faults` — test-only fault injection used to prove
  the invariant layer actually catches corruption.

Import note: this package ``__init__`` stays import-light.  The
heavyweight modules (oracle, determinism — which pull in the experiment
registry) are exposed lazily via module ``__getattr__``.
"""

from __future__ import annotations

from .invariants import CheckConfig, InvariantChecker, InvariantViolation
from .runtime import CheckSession

__all__ = [
    "CheckConfig",
    "CheckSession",
    "DiffReport",
    "DeterminismReport",
    "InvariantChecker",
    "InvariantViolation",
    "check_determinism",
    "diff_exhibit",
]

_LAZY = {
    "DiffReport": ("repro.check.oracle", "DiffReport"),
    "diff_exhibit": ("repro.check.oracle", "diff_exhibit"),
    "DeterminismReport": ("repro.check.determinism", "DeterminismReport"),
    "check_determinism": ("repro.check.determinism", "check_determinism"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
