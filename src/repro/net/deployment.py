"""Deployment: turn topology specs into a running simulated world.

A :class:`Deployment` owns the simulator, the medium, every node and every
traffic source.  CCA policies are created per node through a factory so
experiments can give different networks different schemes (e.g. "DCN only
on N0", Fig. 14/15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..mac.cca import CcaPolicy, FixedCcaThreshold
from ..mac.params import MacParams
from ..phy.fading import FadingModel, LogNormalFading
from ..phy.mask import SpectralMask, default_mask
from ..phy.propagation import LogDistancePathLoss, PathLossModel
from ..phy.radio import RadioConfig
from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from ..sim.trace import Trace
from .node import Node
from .topology import NetworkSpec
from .traffic import DEFAULT_PAYLOAD_BYTES, SaturatedSource, TrafficSource

__all__ = ["PolicyFactory", "zigbee_policy_factory", "Network", "Deployment"]

#: Given (network_label, node_name) return the CCA policy for that node.
PolicyFactory = Callable[[str, str], CcaPolicy]


def zigbee_policy_factory(threshold_dbm: float = -77.0) -> PolicyFactory:
    """Every node uses the fixed default threshold (the ZigBee design)."""

    def _factory(_label: str, _node: str) -> CcaPolicy:
        return FixedCcaThreshold(threshold_dbm)

    return _factory


@dataclass
class Network:
    """Runtime view of one channel-sharing group."""

    spec: NetworkSpec
    nodes: List[Node] = field(default_factory=list)
    sources: List[TrafficSource] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def channel_mhz(self) -> float:
        return self.spec.channel_mhz

    def receivers(self) -> List[Node]:
        names = set(self.spec.receivers)
        return [node for node in self.nodes if node.name in names]

    def senders(self) -> List[Node]:
        names = set(self.spec.senders)
        return [node for node in self.nodes if node.name in names]


class Deployment:
    """A complete simulated testbed.

    Parameters
    ----------
    specs:
        Network specifications (from :mod:`repro.net.topology`).
    seed:
        Root seed for all randomness in the run.
    policy_factory:
        CCA policy per (network label, node name); defaults to the fixed
        ZigBee threshold everywhere.
    path_loss / fading / mask:
        Channel models; defaults are the paper-calibrated ones.
    mac_params / payload_bytes:
        MAC configuration and application payload for traffic sources.
    saturate_senders:
        When True (default) every link sender gets a
        :class:`~repro.net.traffic.SaturatedSource` started at t = 0.
    trace / obs:
        Optional :class:`~repro.sim.trace.Trace` and
        :class:`~repro.obs.recorder.Observability` recorder, handed to the
        simulator.  Left ``None``, they come from the active ambient
        session, if any: the :class:`~repro.sim.simulator.Simulator` joins
        it (check or obs), as it does in any other world.
    """

    def __init__(
        self,
        specs: Sequence[NetworkSpec],
        seed: int = 0,
        policy_factory: Optional[PolicyFactory] = None,
        path_loss: Optional[PathLossModel] = None,
        fading: Optional[FadingModel] = None,
        mask: Optional[SpectralMask] = None,
        mac_params: Optional[MacParams] = None,
        payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
        saturate_senders: bool = True,
        radio_config: Optional[RadioConfig] = None,
        trace: Optional[Trace] = None,
        obs=None,
    ) -> None:
        from ..phy.medium import Medium  # local import to avoid cycles

        self.sim = Simulator(trace=trace, obs=obs)
        self.rng = RngStreams(seed)
        self.path_loss = path_loss if path_loss is not None else LogDistancePathLoss()
        self.fading = fading if fading is not None else LogNormalFading(sigma_db=4.0)
        self.mask = mask if mask is not None else default_mask()
        self.mac_params = mac_params if mac_params is not None else MacParams()
        self.payload_bytes = payload_bytes
        policy_factory = (
            policy_factory if policy_factory is not None else zigbee_policy_factory()
        )
        self.medium = Medium(
            sim=self.sim,
            path_loss=self.path_loss,
            fading=self.fading,
            rng=self.rng,
        )
        self.networks: List[Network] = []
        self.nodes: Dict[str, Node] = {}
        for spec in specs:
            network = Network(spec=spec)
            for node_spec in spec.nodes:
                node = Node(
                    sim=self.sim,
                    medium=self.medium,
                    rng=self.rng,
                    name=node_spec.name,
                    position=node_spec.position,
                    channel_mhz=spec.channel_mhz,
                    tx_power_dbm=node_spec.tx_power_dbm,
                    mac_params=self.mac_params,
                    cca_policy=policy_factory(spec.label, node_spec.name),
                    radio_config=radio_config,
                    mask=self.mask,
                )
                network.nodes.append(node)
                if node.name in self.nodes:
                    raise ValueError(f"duplicate node name {node.name!r}")
                self.nodes[node.name] = node
            if saturate_senders:
                for link in spec.links:
                    source = SaturatedSource(
                        node=self.nodes[link.sender],
                        destination=link.receiver,
                        payload_bytes=payload_bytes,
                    )
                    network.sources.append(source)
            self.networks.append(network)

    # ------------------------------------------------------------------
    def start_traffic(self) -> None:
        """Start every attached traffic source (idempotent per source)."""
        for network in self.networks:
            for source in network.sources:
                source.start()

    def stop_traffic(self) -> None:
        for network in self.networks:
            for source in network.sources:
                source.stop()

    def quiesce(self) -> None:
        """Stop traffic and detach every CCA policy's self-scheduled timers.

        After this, no component re-arms periodic events, so
        ``sim.run_until_idle()`` terminates once in-flight frames drain —
        required for DCN deployments, whose Case-II timer otherwise
        re-arms forever.
        """
        self.stop_traffic()
        for node in self.nodes.values():
            node.mac.cca_policy.detach()

    def network(self, label: str) -> Network:
        for network in self.networks:
            if network.label == label:
                return network
        raise KeyError(f"no network labelled {label!r}")

    def node(self, name: str) -> Node:
        return self.nodes[name]
