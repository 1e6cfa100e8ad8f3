"""repro.perf — kernel profiling tooling.

Two entry points:

- :mod:`repro.perf.profiler` — ``repro perf profile <exhibit>`` (or
  ``--scene N``): run one registered exhibit, or a synthetic dense scene,
  under :mod:`cProfile` and print the top-N hotspots, so "where does the
  time go" is one command away;
- :class:`repro.perf.profiler.FlightRecorder` — periodic low-overhead
  process snapshots (CPU, RSS, GC, caller gauges) for long-lived
  services; the campaign server runs one and serves its ring at
  ``GET /debug/profile``.

Timing and regression gating live outside the package: the repository
benchmark is ``perfbench/run.py`` (workloads and metrics in
``BENCHMARK.json``), and ``benchmarks/perf_gate.py`` compares a change
against its base tree on it.
"""

from .profiler import FlightRecorder, profile_exhibit, profile_scene

__all__ = [
    "FlightRecorder",
    "profile_exhibit",
    "profile_scene",
]
