"""A sensor node: radio + MAC at a position, with an identity.

Nodes are deliberately thin — behaviour lives in the MAC/radio and in the
traffic source attached by the deployment.  The node's job is wiring and
naming.
"""

from __future__ import annotations

from typing import Optional

from ..mac.cca import CcaPolicy, FixedCcaThreshold
from ..mac.mac import Mac
from ..mac.params import MacParams
from ..phy.mask import SpectralMask
from ..phy.medium import Medium
from ..phy.propagation import Position
from ..phy.radio import Radio, RadioConfig
from ..sim.rng import RngStreams
from ..sim.simulator import Simulator

__all__ = ["Node"]


class Node:
    """One mote: a radio and a MAC bound to it."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        rng: RngStreams,
        name: str,
        position: Position,
        channel_mhz: float,
        tx_power_dbm: float,
        mac_params: Optional[MacParams] = None,
        cca_policy: Optional[CcaPolicy] = None,
        radio_config: Optional[RadioConfig] = None,
        mask: Optional[SpectralMask] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.position = position
        self.radio = Radio(
            sim=sim,
            medium=medium,
            name=name,
            position=position,
            channel_mhz=channel_mhz,
            tx_power_dbm=tx_power_dbm,
            mask=mask,
            config=radio_config,
            rng=rng,
        )
        self.mac = Mac(
            sim=sim,
            radio=self.radio,
            rng=rng,
            params=mac_params,
            cca_policy=cca_policy if cca_policy is not None else FixedCcaThreshold(),
        )

    @property
    def channel_mhz(self) -> float:
        return self.radio.channel_mhz

    @property
    def tx_power_dbm(self) -> float:
        return self.radio.tx_power_dbm

    @property
    def stats(self):
        return self.mac.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.name} @{self.position} ch={self.channel_mhz} MHz "
            f"p={self.tx_power_dbm:g} dBm>"
        )
