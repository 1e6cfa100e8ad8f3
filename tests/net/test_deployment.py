"""Integration tests for Deployment and traffic sources."""

import pytest

from repro.core.dcn import DcnCcaPolicy
from repro.mac.cca import FixedCcaThreshold
from repro.net.deployment import Deployment, zigbee_policy_factory
from repro.net.topology import one_region_topology, fixed_power
from repro.net.traffic import AttackerSource, PoissonSource, SaturatedSource
from repro.phy.spectrum import EVALUATION_BAND, ChannelPlan
from repro.sim.rng import RngStreams


def make_specs(seed=1, cfd=5.0):
    plan = ChannelPlan.inclusive(EVALUATION_BAND, cfd)
    rng = RngStreams(seed).stream("topology")
    return one_region_topology(plan, rng, power=fixed_power(0.0))


def test_deployment_builds_all_nodes():
    deployment = Deployment(make_specs(), seed=1)
    assert len(deployment.networks) == 4
    assert len(deployment.nodes) == 16
    for network in deployment.networks:
        assert len(network.senders()) == 2
        assert len(network.receivers()) == 2


def test_lookup_helpers():
    deployment = Deployment(make_specs(), seed=1)
    assert deployment.network("N0").label == "N0"
    with pytest.raises(KeyError):
        deployment.network("N9")
    node = deployment.node("N0.s0")
    assert node.name == "N0.s0"


def test_duplicate_node_names_rejected():
    specs = make_specs()
    with pytest.raises(ValueError):
        Deployment(list(specs) + [specs[0]], seed=1)


def test_policy_factory_applied_per_node():
    calls = []

    def factory(label, node):
        calls.append((label, node))
        return FixedCcaThreshold(-60.0) if label == "N0" else FixedCcaThreshold(-77.0)

    deployment = Deployment(make_specs(), seed=1, policy_factory=factory)
    assert len(calls) == 16
    assert deployment.node("N0.s0").mac.cca_policy.threshold_dbm() == -60.0
    assert deployment.node("N1.s0").mac.cca_policy.threshold_dbm() == -77.0


def test_saturated_traffic_flows():
    deployment = Deployment(make_specs(), seed=1)
    deployment.start_traffic()
    deployment.sim.run(1.0)
    delivered = sum(n.mac.stats.delivered for n in deployment.nodes.values())
    assert delivered > 100


def test_stop_traffic_halts_flow():
    deployment = Deployment(make_specs(), seed=1)
    deployment.start_traffic()
    deployment.sim.run(0.5)
    deployment.stop_traffic()
    deployment.sim.run(1.0)
    snapshot = sum(n.mac.stats.delivered for n in deployment.nodes.values())
    deployment.sim.run(2.0)
    after = sum(n.mac.stats.delivered for n in deployment.nodes.values())
    assert after == snapshot


def test_deterministic_given_seed():
    def run(seed):
        deployment = Deployment(make_specs(), seed=seed)
        deployment.start_traffic()
        deployment.sim.run(1.0)
        return tuple(
            n.mac.stats.delivered for n in deployment.nodes.values()
        )

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_dcn_policies_independent_per_node():
    deployment = Deployment(
        make_specs(), seed=1, policy_factory=lambda l, n: DcnCcaPolicy()
    )
    a = deployment.node("N0.s0").mac.cca_policy
    b = deployment.node("N0.s1").mac.cca_policy
    assert a is not b


def test_poisson_source_rate():
    deployment = Deployment(make_specs(), seed=1, saturate_senders=False)
    node = deployment.node("N0.s0")
    rng = RngStreams(99).stream("poisson")
    source = PoissonSource(node, "N0.r0", rate_pps=50.0, rng=rng)
    source.start()
    deployment.sim.run(10.0)
    assert 300 < source.generated < 700  # ~500 expected


def test_attacker_source_interval():
    deployment = Deployment(make_specs(), seed=1, saturate_senders=False)
    node = deployment.node("N0.s0")
    source = AttackerSource(node, None, interval_s=0.01)
    source.start()
    deployment.sim.run(1.0)
    assert source.generated == pytest.approx(100, abs=2)
    source.stop()
    deployment.sim.run(2.0)
    assert source.generated <= 102


def test_source_validation():
    deployment = Deployment(make_specs(), seed=1, saturate_senders=False)
    node = deployment.node("N0.s0")
    with pytest.raises(ValueError):
        AttackerSource(node, None, interval_s=0.0)
    with pytest.raises(ValueError):
        PoissonSource(node, None, rate_pps=0.0, rng=RngStreams(1).stream("x"))


def _per_node_streams(deployment):
    return sorted(
        name
        for name in deployment.rng._streams
        if name.startswith(("biterrors.", "mac."))
    )


def test_per_node_streams_are_built_on_first_draw(monkeypatch):
    from repro.experiments.scenarios import large_scene
    from repro.mac.csma import CsmaTransaction
    from repro.phy.reception import Reception

    locked, started = set(), set()
    reception_init = Reception.__init__
    transaction_init = CsmaTransaction.__init__

    def recording_reception(self, radio, *args, **kwargs):
        locked.add(radio.name)
        reception_init(self, radio, *args, **kwargs)

    def recording_transaction(self, sim, radio, *args, **kwargs):
        started.add(radio.name)
        transaction_init(self, sim, radio, *args, **kwargs)

    monkeypatch.setattr(Reception, "__init__", recording_reception)
    monkeypatch.setattr(CsmaTransaction, "__init__", recording_transaction)

    def expected():
        return sorted(
            [f"biterrors.{name}" for name in locked]
            + [f"mac.{name}" for name in started]
        )

    deployment = large_scene(2_000)
    # Building the scene creates no per-radio bit-error or per-node MAC
    # stream; starting traffic creates only the senders' MAC streams.
    assert _per_node_streams(deployment) == []
    deployment.start_traffic()
    assert len(started) == 16 and not locked
    assert _per_node_streams(deployment) == expected()
    deployment.sim.run(0.005)
    assert locked
    assert _per_node_streams(deployment) == expected()
