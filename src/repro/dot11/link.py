"""The Fig. 2 two-link channel-separation experiment.

Two saturated links; link A stays on the lowest channel, link B moves one
channel index at a time.  The metric is total throughput normalised by
twice the throughput of a single isolated link — 1.0 means perfect
concurrency, ~0.5 means the links are effectively sharing one channel.

The 802.11b variant uses :class:`~repro.dot11.phy11b.Dot11Radio` (which
false-locks on overlapped-channel packets); the 802.15.4 variant uses the
standard substrate.  Identical harness, different receiver physics — the
difference in the resulting curves is the paper's Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..mac.cca import FixedCcaThreshold
from ..mac.mac import Mac
from ..mac.params import MacParams
from ..phy.constants import CHANNEL_SPACING_MHZ, channel_center_mhz
from ..phy.fading import LogNormalFading
from ..phy.medium import Medium
from ..phy.propagation import LogDistancePathLoss
from ..phy.radio import Radio
from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from .phy11b import (
    DOT11B_BIT_RATE_BPS,
    DOT11B_CHANNEL_SPACING_MHZ,
    Dot11Radio,
    dot11b_channel_mhz,
    dot11b_mac_params,
)

__all__ = ["SeparationResult", "run_separation", "run_dot15_separation"]


@dataclass(frozen=True)
class SeparationResult:
    """Outcome for one channel separation."""

    separation_channels: int
    link_a_pps: float
    link_b_pps: float
    isolated_pps: float

    @property
    def normalized_throughput(self) -> float:
        if self.isolated_pps <= 0:
            return 0.0
        return (self.link_a_pps + self.link_b_pps) / (2.0 * self.isolated_pps)


class _TwoLinkWorld:
    """Two sender->receiver links a couple of metres apart."""

    def __init__(
        self,
        seed: int,
        dot11: bool,
        channel_a_mhz: float,
        channel_b_mhz: float,
    ) -> None:
        self.sim = Simulator()
        self.rng = RngStreams(seed)
        self.medium = Medium(
            sim=self.sim,
            path_loss=LogDistancePathLoss(),
            fading=LogNormalFading(sigma_db=3.0),
            rng=self.rng,
        )
        radio_cls = Dot11Radio if dot11 else Radio
        mac_params = dot11b_mac_params() if dot11 else MacParams()
        positions = {
            "a.s": (0.0, 0.0),
            "a.r": (1.5, 0.0),
            "b.s": (1.5, 2.0),
            "b.r": (0.0, 2.0),
        }
        channels = {
            "a.s": channel_a_mhz,
            "a.r": channel_a_mhz,
            "b.s": channel_b_mhz,
            "b.r": channel_b_mhz,
        }
        tx_power = 15.0 if dot11 else 0.0  # typical 802.11b output power
        self.macs = {}
        for name, pos in positions.items():
            radio = radio_cls(
                sim=self.sim,
                medium=self.medium,
                name=name,
                position=pos,
                channel_mhz=channels[name],
                tx_power_dbm=tx_power,
                rng=self.rng,
            )
            self.macs[name] = Mac(
                sim=self.sim,
                radio=radio,
                rng=self.rng,
                params=mac_params,
                cca_policy=FixedCcaThreshold(-77.0),
            )
        self.dot11 = dot11

    def run_saturated(self, duration_s: float, warmup_s: float = 0.5):
        from ..net.traffic import SaturatedSource

        bit_rate = DOT11B_BIT_RATE_BPS if self.dot11 else None

        class _NodeShim:
            def __init__(self, mac):
                self.mac = mac
                self.name = mac.name
                self.sim = mac.sim

        sources = [
            SaturatedSource(
                _NodeShim(self.macs["a.s"]), "a.r", bit_rate_bps=bit_rate
            ),
            SaturatedSource(
                _NodeShim(self.macs["b.s"]), "b.r", bit_rate_bps=bit_rate
            ),
        ]
        for source in sources:
            source.start()
        self.sim.run(warmup_s)
        base_a = self.macs["a.r"].stats.delivered
        base_b = self.macs["b.r"].stats.delivered
        self.sim.run(self.sim.now + duration_s)
        a_pps = (self.macs["a.r"].stats.delivered - base_a) / duration_s
        b_pps = (self.macs["b.r"].stats.delivered - base_b) / duration_s
        return a_pps, b_pps


def _isolated_rate(seed: int, dot11: bool, duration_s: float) -> float:
    """Throughput of link A alone, with link B parked far away in spectrum
    and space (no interaction)."""
    if dot11:
        world = _TwoLinkWorld(
            seed, True, dot11b_channel_mhz(1), dot11b_channel_mhz(1) + 500.0
        )
    else:
        world = _TwoLinkWorld(
            seed, False, channel_center_mhz(11), channel_center_mhz(11) + 500.0
        )
    a_pps, _ = world.run_saturated(duration_s)
    return a_pps


def run_separation(
    separations: List[int],
    seed: int = 1,
    duration_s: float = 5.0,
    dot11: bool = True,
) -> List[SeparationResult]:
    """Normalized two-link throughput per channel-index separation."""
    isolated = _isolated_rate(seed, dot11, duration_s)
    results = []
    for separation in separations:
        if dot11:
            chan_a = dot11b_channel_mhz(1)
            chan_b = chan_a + separation * DOT11B_CHANNEL_SPACING_MHZ
        else:
            chan_a = channel_center_mhz(11)
            chan_b = chan_a + separation * CHANNEL_SPACING_MHZ
        world = _TwoLinkWorld(seed, dot11, chan_a, chan_b)
        a_pps, b_pps = world.run_saturated(duration_s)
        results.append(
            SeparationResult(
                separation_channels=separation,
                link_a_pps=a_pps,
                link_b_pps=b_pps,
                isolated_pps=isolated,
            )
        )
    return results


def run_dot15_separation(
    separations: List[int], seed: int = 1, duration_s: float = 5.0
) -> List[SeparationResult]:
    """The 802.15.4 half of Fig. 2."""
    return run_separation(separations, seed=seed, duration_s=duration_s, dot11=False)
