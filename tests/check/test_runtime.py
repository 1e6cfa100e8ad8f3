"""CheckSession plumbing: ambient activation and kernel wiring."""

import pytest

from repro.check.invariants import InvariantChecker
from repro.check.runtime import CheckSession
from repro.net.deployment import Deployment
from repro.net.topology import fixed_power, one_region_topology
from repro.obs.runtime import ObsSession
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.spectrum import EVALUATION_BAND, ChannelPlan
from repro.sim.rng import RngStreams
from repro.sim.session import active_session
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace


def make_specs(seed=1, cfd=5.0):
    plan = ChannelPlan.inclusive(EVALUATION_BAND, cfd)
    rng = RngStreams(seed).stream("topology")
    return one_region_topology(plan, rng, power=fixed_power(0.0))


def test_no_session_by_default():
    assert active_session() is None


def test_session_lifecycle():
    session = CheckSession()
    with session:
        assert active_session() is session
    assert active_session() is None


def test_sessions_do_not_nest():
    with CheckSession():
        with pytest.raises(RuntimeError, match="nest"):
            CheckSession().__enter__()
    assert active_session() is None


@pytest.mark.parametrize("outer,inner", [
    (CheckSession, ObsSession), (ObsSession, CheckSession),
])
def test_kinds_do_not_nest_in_each_other(outer, inner):
    with outer() as session:
        with pytest.raises(RuntimeError, match="nest"):
            inner().__enter__()
        assert active_session() is session
    assert active_session() is None


def test_session_cleared_on_exception():
    with pytest.raises(ValueError):
        with CheckSession():
            raise ValueError("boom")
    assert active_session() is None


def test_deployment_outside_session_untouched():
    deployment = Deployment(make_specs(), seed=1)
    assert deployment.sim.trace.enabled is False  # default disabled trace
    assert deployment.sim.checks is None
    assert deployment.medium.reference is False
    assert deployment.medium._link_cache is not None


def test_deployment_inside_session_captures_trace():
    session = CheckSession()
    with session:
        deployment = Deployment(make_specs(), seed=1)
    assert len(session.traces) == 1
    assert session.traces[0] is deployment.sim.trace
    assert deployment.sim.trace.enabled


def test_reference_session_switches_medium_paths():
    with CheckSession(reference=True) as session:
        deployment = Deployment(make_specs(), seed=1)
    assert deployment.medium.reference is True
    assert deployment.medium._link_cache is None  # brute-force fan-out
    assert all(node.radio._reference for node in deployment.nodes.values())
    with CheckSession(reference=False):
        fast = Deployment(make_specs(), seed=1)
    assert fast.medium.reference is False
    assert fast.medium._link_cache is not None


def test_session_checker_armed_on_simulator():
    checker = InvariantChecker()
    with CheckSession(checker=checker):
        deployment = Deployment(make_specs(), seed=1)
    assert deployment.sim.checks is checker


def test_explicit_reference_wins_over_session():
    with CheckSession(reference=True):
        sim = Simulator()
        medium = Medium(sim, FixedRssMatrix(), reference=False)
    assert medium.reference is False
    assert medium._link_cache is not None


def test_directly_built_world_joins_session():
    """Worlds built without a Deployment (e.g. the 802.11b two-link rig)
    honour the session too: trace capture, checker and reference path."""
    checker = InvariantChecker()
    with CheckSession(reference=True, checker=checker) as session:
        sim = Simulator()
        medium = Medium(sim, FixedRssMatrix())
    assert session.traces == [sim.trace]
    assert sim.trace.enabled
    assert sim.checks is checker
    assert medium.reference is True


def test_explicit_trace_and_checker_win_but_trace_is_collected():
    trace = Trace(enabled=True)
    own = InvariantChecker()
    with CheckSession(reference=True, checker=InvariantChecker()) as session:
        sim = Simulator(trace=trace, checks=own)
    assert session.traces == [trace]
    assert sim.trace is trace
    assert sim.checks is own
    assert sim.reference is True
