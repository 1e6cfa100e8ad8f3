"""The benchmark's three workloads.

Each workload is a batch job.  A repetition runs it to completion from a
fresh world and reports

- the set-up time and the timed windows, raw and rescaled to the
  reference host speed (see :mod:`hostclock`);
- one :class:`Op` per operation (an exhibit job or a scene window), with
  its output check and a fingerprint of exact counts and digests.

A repetition runs either untraced (``tracer=None``) or under a
:class:`tracer.Tracer`; the code path is the same, so every count and
digest must repeat between the two.

The program only ever receives the exhibit or scene seed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

__all__ = ["Op", "Rep", "WORKLOADS", "EXHIBITS", "make_workload"]

#: Exhibits of ``exhibits_fast``, in run order.
EXHIBITS = ("fig04", "fig02", "fig19", "fig25", "fig27", "fig28", "convergecast")

#: MacStats counters summed into every fingerprint.
MAC_FIELDS = ("sent", "cca_attempts", "cca_busy", "access_failures", "delivered")

#: Counters the instrumented repetition adds to each fingerprint.
TRACED_COUNTS = ("radio.signal_ends", "sim.events", "reception.finalized")

#: Slices each scene window, and each ``Simulator.run`` call of an
#: exhibit, is cut into, so host-speed probes can sit between them (see
#: :mod:`hostclock`).  Cutting a run at intermediate times dispatches the
#: same events in the same order.
SLICES = 30


@dataclass
class Op:
    """One operation: an exhibit job or a scene window."""

    name: str
    ok: bool = True
    error: str = ""
    fingerprint: Dict[str, Any] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.ok = False
        self.error = self.error or why


@dataclass
class Rep:
    """What one repetition measured.

    ``raw`` and ``scaled`` hold seconds for ``setup`` (scenes only),
    ``first`` (first-result window), ``steady`` and ``wall`` (the whole
    timed part); ``phase_s`` the raw wall of each tracer phase.
    """

    raw: Dict[str, float] = field(default_factory=dict)
    scaled: Dict[str, float] = field(default_factory=dict)
    phase_s: Dict[str, float] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)
    #: Raw per-exhibit job wall (exhibits_fast only).
    job_s: Dict[str, float] = field(default_factory=dict)
    #: MacStats totals at the end of the repetition.
    mac: Dict[str, int] = field(default_factory=dict)

    def add(self, key: str, raw: float, scaled: float) -> None:
        self.raw[key] = self.raw.get(key, 0.0) + raw
        self.scaled[key] = self.scaled.get(key, 0.0) + scaled


def _mac_totals(stats_objects) -> Dict[str, int]:
    totals = dict.fromkeys(MAC_FIELDS, 0)
    for stats in stats_objects:
        for name in MAC_FIELDS:
            totals[name] += getattr(stats, name)
    return totals


def _counter_snapshot(tracer) -> Dict[str, int]:
    if tracer is None:
        return {}
    return {name: tracer.counter(name) for name in TRACED_COUNTS}


def _counter_delta(tracer, before: Dict[str, int]) -> Dict[str, int]:
    now = _counter_snapshot(tracer)
    return {name: now[name] - before.get(name, 0) for name in now}


def _set_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.set_phase(phase)


# ----------------------------------------------------------------------
# exhibits_fast
# ----------------------------------------------------------------------
def _design_pps(table) -> Dict[str, float]:
    """``overall_pps`` keyed by the leading words of the design label."""
    out = {}
    for row in table.rows:
        for key in ("ZigBee", "w/o DCN", "with DCN", "DCN"):
            if row["design"].startswith(key):
                out[key] = row["overall_pps"]
                break
    return out


def _check_fig04(table) -> str:
    """The CPRR calibration bands of ``tests/phy/test_calibration.py``."""
    rows = {row["cfd_mhz"]: row for row in table.rows}
    for cfd in (4.0, 5.0):
        for column in ("normal_cprr", "attacker_cprr"):
            if rows[cfd][column] < 0.985:
                return f"fig04 {column} at {cfd} MHz below 0.985"
    bands = {3.0: (0.93, 1.0), 2.0: (0.55, 0.85), 1.0: (0.0, 0.30)}
    for cfd, (low, high) in bands.items():
        value = rows[cfd]["normal_cprr"]
        if not low <= value <= high:
            return f"fig04 normal_cprr {value:.3f} at {cfd} MHz outside [{low}, {high}]"
    return ""


def _check_fig19(table) -> str:
    pps = _design_pps(table)
    if not pps["DCN"] > pps["ZigBee"]:
        return "fig19: DCN overall_pps not above ZigBee"
    return ""


def _check_fig25(table) -> str:
    pps = _design_pps(table)
    if not pps["with DCN"] > pps["w/o DCN"] > pps["ZigBee"]:
        return "fig25: expected with DCN > w/o DCN > ZigBee"
    return ""


def _check_fig27(table) -> str:
    # Case III at the fast profile: with-vs-without DCN flips on about half
    # of all seeds (the paper's own margin is +6.2 %), so only the channel
    # packing gain is checked.
    pps = _design_pps(table)
    if not pps["w/o DCN"] > pps["ZigBee"]:
        return "fig27: expected w/o DCN > ZigBee"
    return ""


def _check_convergecast(table) -> str:
    if any(value != 100.0 for value in table.column("joined_pct")):
        return "convergecast: a grid did not reach joined_pct 100"
    return ""


CHECKS: Dict[str, Callable] = {
    "fig04": _check_fig04,
    "fig19": _check_fig19,
    "fig25": _check_fig25,
    "fig27": _check_fig27,
    "convergecast": _check_convergecast,
}


def _import_repro() -> None:
    """Import ``repro``, its registry and the campaign modules from scratch.

    Every ``repro`` module is dropped from ``sys.modules`` first, so each
    call re-executes the package; third-party modules such as numpy stay
    loaded after the first call.
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    importlib.import_module("repro")
    importlib.import_module("repro.experiments.registry")
    importlib.import_module("repro.campaign")


class ExhibitsFast:
    """Seven fast-profile exhibits through ``run_campaign(jobs=1, cache=False)``,
    the path ``report --fast --jobs 1 --no-cache`` takes (without retries)."""

    min_reps = 1
    phases = {"first": "jobs", "steady": "jobs"}
    import_rounds = 5

    def __init__(self, host) -> None:
        self.host = host

    def prepare(self) -> List[float]:
        """Set-up samples: one cold import, then re-imports (scaled s)."""
        return [self.host.time(_import_repro)[2] for _ in range(self.import_rounds)]

    def rep(self, seed: int, tracer=None) -> Rep:
        from repro.campaign import JobSpec, run_campaign
        from repro.campaign.executor import run_registry_job
        from repro.net.deployment import Deployment
        from repro.sim.simulator import Simulator

        host = self.host
        rep = Rep()
        specs = [JobSpec.make(eid, seed=seed, fast=True) for eid in EXHIBITS]
        stats: List[Any] = []
        per_job: Dict[str, Dict[str, Any]] = {}

        # Collect each deployment's MacStats objects, not the deployment:
        # holding worlds alive would inflate peak memory.
        original_init = Deployment.__dict__["__init__"]

        def collecting_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            stats.extend(node.mac.stats for node in self.nodes.values())

        def runner(spec):
            eid = spec.exhibit_id
            stats.clear()
            before = _counter_snapshot(tracer)
            if tracer is None:
                job = lambda: run_registry_job(spec)  # noqa: E731
            else:
                span = tracer.container(f"exhibit.{eid}")
                job = lambda: span.run(lambda: run_registry_job(spec))  # noqa: E731
            table, raw, scaled = host.time(job)
            rep.job_s[eid] = raw
            rep.add("wall", raw, scaled)
            if eid == EXHIBITS[0]:
                rep.add("first", raw, scaled)
            per_job[eid] = {
                "mac": _mac_totals(stats),
                "counts": _counter_delta(tracer, before),
            }
            stats.clear()
            return table

        base_run = Simulator.__dict__["run"]

        def sliced_run(self, until):
            start = self.now
            for i in range(1, SLICES):
                base_run(self, start + (until - start) * i / SLICES)
                host.tick()
            base_run(self, until)

        Deployment.__init__ = collecting_init
        Simulator.run = sliced_run
        try:
            _set_phase(tracer, "jobs")
            gc.collect()
            result = run_campaign(specs, jobs=1, cache=False, retries=0,
                                  runner=runner)
        finally:
            Deployment.__init__ = original_init
            Simulator.run = base_run
        rep.add("steady", rep.raw.get("wall", 0.0), rep.scaled.get("wall", 0.0))
        rep.phase_s = {"jobs": rep.raw.get("wall", 0.0)}
        rep.mac = dict.fromkeys(MAC_FIELDS, 0)
        for spec in specs:
            eid = spec.exhibit_id
            op = Op(eid)
            outcome = result.outcome(eid, seed)
            if not outcome.ok:
                op.fail(f"{eid} failed: {outcome.error}")
            else:
                table = outcome.table
                op.fingerprint["sha256"] = hashlib.sha256(
                    table.to_json().encode("utf-8")
                ).hexdigest()
                check = CHECKS.get(eid)
                why = check(table) if check is not None else ""
                if why:
                    op.fail(why)
            job = per_job.get(eid, {})
            op.fingerprint.update(job.get("mac", {}))
            op.fingerprint.update(job.get("counts", {}))
            for key, value in job.get("mac", {}).items():
                rep.mac[key] += value
            rep.ops.append(op)
        return rep


# ----------------------------------------------------------------------
# Scenes
# ----------------------------------------------------------------------
class Scene:
    """A ``large_scene`` with saturated senders, timed in two windows.

    Set-up is ``large_scene`` plus ``start_traffic``.  The first window
    covers the first ``first_s`` of simulated time, extended in 1 ms steps
    until every active sender has completed a frame (failing past
    ``FIRST_CAP_S``); the lazy link-cache and fading-stream builds land in
    it.  A fixed length keeps it comparable across seeds; the extension
    covers the rare seed whose contention starves a sender for longer.
    The steady window covers ``steady_s`` more on warm caches.  Windows are
    cut into slices for the host-speed probes.  Garbage is collected
    before set-up and before each window, outside the timing.
    """

    min_reps = 1
    phases = {"first": "first_tx", "steady": "steady"}
    FIRST_STEP_S = 0.001
    FIRST_CAP_S = 0.2

    def __init__(self, host, n_motes: int, links: int,
                 first_s: float, steady_s: float) -> None:
        self.host = host
        self.n_motes = n_motes
        self.links = links
        self.first_s = first_s
        self.steady_s = steady_s

    def prepare(self) -> List[float]:
        importlib.import_module("repro")
        importlib.import_module("repro.experiments.scenarios")
        return []

    def rep(self, seed: int, tracer=None) -> Rep:
        from repro.experiments.scenarios import large_scene

        def build():
            deployment = large_scene(
                self.n_motes,
                seed=seed,
                active_links_per_network=self.links,
                area_m2_per_mote=400.0,
            )
            deployment.start_traffic()
            return deployment

        host = self.host
        rep = Rep()
        gc.collect()
        _set_phase(tracer, "setup")
        deployment, raw, scaled = host.time(build)
        rep.add("setup", raw, scaled)
        rep.phase_s["setup"] = raw
        senders = [
            source.node
            for network in deployment.networks
            for source in network.sources
        ]
        nodes = list(deployment.nodes.values())
        sim = deployment.sim

        def sliced(start, length):
            for i in range(1, SLICES):
                sim.run(start + length * i / SLICES)
                host.tick()
            sim.run(start + length)

        def first_window():
            sliced(0.0, self.first_s)
            while any(node.mac.stats.sent < 1 for node in senders):
                if sim.now >= self.FIRST_CAP_S:
                    raise RuntimeError(
                        f"a sender sent nothing in {self.FIRST_CAP_S} s"
                    )
                sim.run(sim.now + self.FIRST_STEP_S)
                host.tick()

        def steady_window():
            sliced(sim.now, self.steady_s)

        windows = (
            ("first_tx", "first", first_window),
            ("steady", "steady", steady_window),
        )
        for phase, key, window in windows:
            op = Op(phase)
            rep.ops.append(op)
            before = _counter_snapshot(tracer)
            gc.collect()
            _set_phase(tracer, phase)
            raw0, scaled0 = host.mark()
            try:
                window()
            except Exception as exc:  # recorded as a failed operation
                op.fail(f"{phase}: {type(exc).__name__}: {exc}")
            finally:
                raw1, scaled1 = host.mark()
                _set_phase(tracer, "between")
                rep.add(key, raw1 - raw0, scaled1 - scaled0)
                rep.add("wall", raw1 - raw0, scaled1 - scaled0)
                rep.phase_s[phase] = raw1 - raw0
            if not op.ok:
                break
            op.fingerprint["sim_now"] = sim.now
            op.fingerprint.update(_mac_totals(node.mac.stats for node in nodes))
            op.fingerprint.update(_counter_delta(tracer, before))
            if phase == "steady" and op.fingerprint["sent"] <= rep.ops[0].fingerprint["sent"]:
                op.fail("no frame completed in the steady window")
        for missing in ("first_tx", "steady")[len(rep.ops):]:
            rep.ops.append(Op(missing, ok=False, error="not reached"))
        rep.mac = _mac_totals(node.mac.stats for node in nodes)
        return rep


WORKLOADS = {
    "exhibits_fast": ExhibitsFast,
    "scene_50k": lambda host: Scene(host, 50_000, 1, 0.010, 0.060),
    "scene_dense": lambda host: Scene(host, 2_000, 8, 0.012, 0.016),
}


def make_workload(name: str, host):
    return WORKLOADS[name](host)
