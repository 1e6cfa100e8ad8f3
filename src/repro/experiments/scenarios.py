"""Paper-configuration builders shared by the figure experiments.

Geometry
--------
The paper's testbed is 35 MicaZ motes in an indoor lab.  We reproduce three
placement regimes (all tunable per call):

- **standard testbed** (Figs. 1, 13-21, 30, Table I): each network (channel)
  forms a small cluster of 2 links; clusters sit a few metres apart in one
  room.  Intra-network RSS is strong (~-45 dBm), inter-network leakage at
  CFD = 3 MHz lands in the -60..-75 dBm range — above the -77 dBm default
  CCA threshold (so the fixed design defers to it) but below the co-channel
  RSS DCN derives its threshold from (so DCN clears it).
- **Section III/IV link rigs** (Figs. 3-10, 28, 29): purpose-built
  single-link configurations with explicitly placed interferers.
- **Cases I-III** (Figs. 22-27): the paper's three network configurations
  with per-node random power in [-22, 0] dBm.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.dcn import DcnCcaPolicy
from ..core.adjustor import AdjustorConfig
from ..mac.cca import CcaPolicy, DisabledCca, FixedCcaThreshold
from ..mac.params import MacParams
from ..net.deployment import Deployment, PolicyFactory, zigbee_policy_factory
from ..net.routing import RoutingConfig, RoutingFabric
from ..net.topology import (
    LinkSpec,
    NetworkSpec,
    NodeSpec,
    fixed_power,
    grid_topology,
    one_region_topology,
    random_power,
    random_topology,
    scale_topology,
    separated_clusters_topology,
)
from ..phy.spectrum import EVALUATION_BAND, MOTIVATION_BAND, Band, ChannelPlan
from ..sim.rng import RngStreams

__all__ = [
    "STANDARD_REGION_RADIUS_M",
    "STANDARD_LINK_DISTANCE_M",
    "dcn_policy_factory",
    "dcn_only_on",
    "five_network_plan",
    "evaluation_plan",
    "motivation_plan",
    "wideband_plan",
    "standard_testbed",
    "evaluation_testbed",
    "scene_plan",
    "large_scene",
    "cprr_rig",
    "section_iv_rig",
    "case_one",
    "case_two",
    "case_three",
    "CONVERGECAST_DESIGNS",
    "convergecast_testbed",
]

# Geometry of the standard testbed (calibrated against Figs. 14/15/17/18):
# all networks share one region — links scattered in a 3.5 m-radius room —
# so that at CFD = 3 MHz the inter-channel leakage at senders straddles the
# -77 dBm default CCA threshold (partial blocking without DCN) and at
# CFD = 2 MHz nearby cross-channel nodes corrupt a visible share of packets.
STANDARD_REGION_RADIUS_M = 3.5
STANDARD_LINK_DISTANCE_M = 1.5


# ---------------------------------------------------------------------------
# Policy factories
# ---------------------------------------------------------------------------
def dcn_policy_factory(config: Optional[AdjustorConfig] = None) -> PolicyFactory:
    """Every node: DCN."""

    def _factory(_label: str, _node: str) -> CcaPolicy:
        return DcnCcaPolicy(config)

    return _factory


def dcn_only_on(
    labels: Sequence[str],
    config: Optional[AdjustorConfig] = None,
    fixed_threshold_dbm: float = -77.0,
) -> PolicyFactory:
    """DCN on the named networks, fixed threshold elsewhere (Fig. 14/15)."""
    label_set = set(labels)

    def _factory(label: str, _node: str) -> CcaPolicy:
        if label in label_set:
            return DcnCcaPolicy(config)
        return FixedCcaThreshold(fixed_threshold_dbm)

    return _factory


# ---------------------------------------------------------------------------
# Channel plans
# ---------------------------------------------------------------------------
def motivation_plan(cfd_mhz: float) -> ChannelPlan:
    """Fig. 1: slot allocation over the 12 MHz motivation band."""
    return ChannelPlan.slot(MOTIVATION_BAND, cfd_mhz)


def five_network_plan(cfd_mhz: float) -> ChannelPlan:
    """Fig. 13: five networks around a common centre; N0 in the middle,
    N1/N2 adjacent, N3/N4 at the boundary frequencies."""
    mid = 2465.0
    centers = [
        mid,
        mid - cfd_mhz,
        mid + cfd_mhz,
        mid - 2 * cfd_mhz,
        mid + 2 * cfd_mhz,
    ]
    return ChannelPlan.explicit(centers, cfd_mhz)


def evaluation_plan(cfd_mhz: float = 3.0) -> ChannelPlan:
    """Section VI-B: inclusive allocation over 2458-2473 MHz."""
    return ChannelPlan.inclusive(EVALUATION_BAND, cfd_mhz)


def wideband_plan(cfd_mhz: float = 3.0, width_mhz: float = 18.0) -> ChannelPlan:
    """Section VII-B: a wider band (18 MHz -> 7 channels at 3 MHz)."""
    band = Band(2455.0, 2455.0 + width_mhz)
    return ChannelPlan.inclusive(band, cfd_mhz)


def scene_plan() -> ChannelPlan:
    """The scale-scene channel plan: the full 2.4 GHz band at 5 MHz
    spacing (16 channels, 2405-2480 MHz) — wide enough that far-apart
    channels barely interact through the spectral mask."""
    return ChannelPlan.inclusive(Band(2405.0, 2480.0), 5.0)


def large_scene(
    n_motes: int = 1000,
    seed: int = 1,
    active_links_per_network: int = 1,
    area_m2_per_mote: float = 20.0,
) -> Deployment:
    """A synthetic dense deployment for benchmarking and profiling.

    ``n_motes`` motes spread over :func:`scene_plan`'s 16 channels at
    constant spatial density (see
    :func:`~repro.net.topology.scale_topology`); one saturated link per
    channel by default, everyone else idle but audible.  Not a paper
    configuration — this is the ``perf profile --scene N`` /
    ``fanout_1k`` / ``mini_run_5k`` workload.
    """
    rng = RngStreams(seed).stream("topology")
    specs = scale_topology(
        scene_plan(),
        rng,
        n_motes,
        active_links_per_network=active_links_per_network,
        area_m2_per_mote=area_m2_per_mote,
    )
    return Deployment(specs, seed=seed)


# ---------------------------------------------------------------------------
# Standard testbed
# ---------------------------------------------------------------------------
def standard_testbed(
    plan: ChannelPlan,
    seed: int,
    policy_factory: Optional[PolicyFactory] = None,
    power_dbm: float = 0.0,
    links_per_network: int = 2,
    region_radius_m: float = STANDARD_REGION_RADIUS_M,
    link_distance_m: float = STANDARD_LINK_DISTANCE_M,
    power_overrides: Optional[dict] = None,
    **deployment_kwargs,
) -> Deployment:
    """The Figs. 13-21 rig: all networks' links scattered in one room.

    ``power_overrides`` maps network labels to a transmit power (dBm) that
    replaces ``power_dbm`` for every node of that network (used by Fig. 20's
    N0 power sweep).
    """
    rng = RngStreams(seed).stream("topology")
    specs = one_region_topology(
        plan,
        rng,
        links_per_network=links_per_network,
        region_radius_m=region_radius_m,
        link_distance_m=link_distance_m,
        power=fixed_power(power_dbm),
    )
    if power_overrides:
        specs = [_override_power(s, power_overrides) for s in specs]
    return Deployment(
        specs,
        seed=seed,
        policy_factory=policy_factory,
        **deployment_kwargs,
    )


def evaluation_testbed(
    plan: ChannelPlan,
    seed: int,
    policy_factory: Optional[PolicyFactory] = None,
    power_dbm: float = 0.0,
    links_per_network: int = 2,
    cluster_spacing_m: float = 3.5,
    cluster_radius_m: float = 0.8,
    link_distance_m: float = 1.2,
    power_overrides: Optional[dict] = None,
    **deployment_kwargs,
) -> Deployment:
    """The Section VI-B rig (Figs. 19-21, Table I, Fig. 30).

    Networks are deployed as groups on a symmetric ring — every network
    experiences a comparable interference environment, which is what makes
    the paper's Table I fairness numbers so tight.  Intra-network RSS is
    strong, so DCN's derived threshold clears all CFD = 3 MHz leakage and
    each channel runs at its full single-channel rate.
    """
    rng = RngStreams(seed).stream("topology")
    specs = separated_clusters_topology(
        plan,
        rng,
        links_per_network=links_per_network,
        cluster_spacing_m=cluster_spacing_m,
        cluster_radius_m=cluster_radius_m,
        link_distance_m=link_distance_m,
        power=fixed_power(power_dbm),
    )
    if power_overrides:
        specs = [_override_power(s, power_overrides) for s in specs]
    return Deployment(
        specs,
        seed=seed,
        policy_factory=policy_factory,
        **deployment_kwargs,
    )


def _override_power(spec: NetworkSpec, overrides: dict) -> NetworkSpec:
    if spec.label not in overrides:
        return spec
    power = overrides[spec.label]
    nodes = tuple(
        NodeSpec(n.name, n.position, power) for n in spec.nodes
    )
    return NetworkSpec(spec.label, spec.channel_mhz, nodes, spec.links)


# ---------------------------------------------------------------------------
# Section III: the CPRR (attacker) rig — Figs. 3 and 4
# ---------------------------------------------------------------------------
def cprr_rig(
    cfd_mhz: float,
    seed: int,
    power_dbm: float = 0.0,
    link_distance_m: float = 1.5,
    attacker_gap_m: float = 1.2,
    **deployment_kwargs,
) -> Deployment:
    """Two links on channels ``cfd_mhz`` apart, carrier sensing disabled.

    Geometry follows Fig. 3: the normal link S->R, and the attacker link
    A->RA with A sitting ``attacker_gap_m`` from R (slightly hotter at R
    than S itself — the worst case for the normal link).  Both senders run
    without CSMA; the traffic sources are attached by the fig04 experiment
    (the attacker blasts 1 packet / 3 ms).
    """
    base = 2460.0
    normal = NetworkSpec(
        label="normal",
        channel_mhz=base,
        nodes=(
            NodeSpec("normal.s0", (0.0, 0.0), power_dbm),
            NodeSpec("normal.r0", (link_distance_m, 0.0), power_dbm),
        ),
        links=(LinkSpec("normal.s0", "normal.r0"),),
    )
    # Symmetric cross layout: each receiver sits attacker_gap_m from the
    # *other* link's sender, so both links suffer comparable interference
    # (the paper's Fig. 4 reports both CPRR curves falling together).
    attacker = NetworkSpec(
        label="attacker",
        channel_mhz=base + cfd_mhz,
        nodes=(
            NodeSpec("attacker.s0", (link_distance_m, attacker_gap_m), power_dbm),
            NodeSpec("attacker.r0", (0.0, attacker_gap_m), power_dbm),
        ),
        links=(LinkSpec("attacker.s0", "attacker.r0"),),
    )
    return Deployment(
        [normal, attacker],
        seed=seed,
        policy_factory=lambda _l, _n: DisabledCca(),
        mac_params=MacParams(csma_enabled=False),
        saturate_senders=False,
        **deployment_kwargs,
    )


# ---------------------------------------------------------------------------
# Section IV: the CCA-threshold link rig — Figs. 5-10, 28, 29
# ---------------------------------------------------------------------------
def section_iv_rig(
    seed: int,
    link_cca_policy: CcaPolicy,
    link_power_dbm: float = 0.0,
    n_co_channel_links: int = 0,
    cfd_mhz: float = 3.0,
    interferer_power_dbm: float = 0.0,
    interferer_distance_m: float = 1.5,
    link_distance_m: float = 0.5,
    co_channel_ring_m: float = 1.5,
    **deployment_kwargs,
) -> Deployment:
    """The Fig. 5 configuration, optionally with co-channel competitors.

    One probe link S->R at the centre channel.  Four interfering networks
    at ±cfd and ±2·cfd MHz (one saturated link each, fixed -77 dBm CCA)
    placed ``interferer_distance_m`` from the probe.  Optionally
    ``n_co_channel_links`` additional same-channel links on a ring of
    radius ``co_channel_ring_m`` (Fig. 8's "3 additional links").

    Only the probe link's CCA policy varies; everything else keeps the
    ZigBee default, exactly as in the paper's Section IV experiments.
    """
    base = 2465.0
    specs: List[NetworkSpec] = []

    mid_x = link_distance_m / 2.0
    probe_nodes = [
        NodeSpec("probe.s0", (0.0, 0.0), link_power_dbm),
        NodeSpec("probe.r0", (link_distance_m, 0.0), link_power_dbm),
    ]
    probe_links = [LinkSpec("probe.s0", "probe.r0")]
    # Co-channel competitors on a ring centred at the link midpoint: every
    # competitor is comparably audible at both S (min-RSS line of Fig. 8)
    # and R (collision damage when the threshold is over-relaxed).
    for index in range(n_co_channel_links):
        angle = 2.0 * math.pi * (index + 0.25) / max(n_co_channel_links, 1)
        cx = mid_x + co_channel_ring_m * math.cos(angle)
        cy = co_channel_ring_m * math.sin(angle)
        sender = f"probe.s{index + 1}"
        receiver = f"probe.r{index + 1}"
        probe_nodes.append(NodeSpec(sender, (cx, cy), interferer_power_dbm))
        probe_nodes.append(
            NodeSpec(receiver, (cx + link_distance_m, cy), interferer_power_dbm)
        )
        probe_links.append(LinkSpec(sender, receiver))
    specs.append(
        NetworkSpec("probe", base, tuple(probe_nodes), tuple(probe_links))
    )

    offsets = (-2 * cfd_mhz, -cfd_mhz, cfd_mhz, 2 * cfd_mhz)
    for index, offset in enumerate(offsets):
        angle = 2.0 * math.pi * index / len(offsets) + math.pi / 4.0
        cx = mid_x + interferer_distance_m * math.cos(angle)
        cy = interferer_distance_m * math.sin(angle)
        label = f"I{index}"
        specs.append(
            NetworkSpec(
                label=label,
                channel_mhz=base + offset,
                nodes=(
                    NodeSpec(f"{label}.s0", (cx, cy), interferer_power_dbm),
                    NodeSpec(
                        f"{label}.r0", (cx + link_distance_m, cy),
                        interferer_power_dbm,
                    ),
                ),
                links=(LinkSpec(f"{label}.s0", f"{label}.r0"),),
            )
        )

    def _policy(label: str, node: str) -> CcaPolicy:
        if node == "probe.s0":
            return link_cca_policy
        return FixedCcaThreshold(-77.0)

    return Deployment(specs, seed=seed, policy_factory=_policy, **deployment_kwargs)


# ---------------------------------------------------------------------------
# Convergecast testbed (multi-hop routing over repro.net.routing)
# ---------------------------------------------------------------------------
#: design name -> (channel distance MHz, use DCN CCA).  "orthogonal" is the
#: conservative 5 MHz plan; "zigbee" packs channels at 3 MHz but keeps the
#: fixed -77 dBm threshold (adjacent-channel leakage from the co-deployed
#: network lands above it -> false blocking); "dcn" runs the same 3 MHz plan
#: with the adaptive threshold.
CONVERGECAST_DESIGNS = {
    "orthogonal": (5.0, False),
    "zigbee": (3.0, False),
    "dcn": (3.0, True),
}


def convergecast_testbed(
    design: str,
    seed: int,
    rows: int = 3,
    cols: int = 3,
    pitch_m: float = 30.0,
    interleave_m: float = 1.0,
    base_mhz: float = 2460.0,
    routing_config: Optional["RoutingConfig"] = None,
    **deployment_kwargs,
):
    """Two interleaved multi-hop grids on adjacent channels.

    Grid A sits at the origin, grid B is offset by ``interleave_m`` on
    both axes, so every node has a *foreign-network* node a metre or two
    away while its own next hop is a full ``pitch_m`` (default 30 m)
    out.  That reverses the single-hop testbeds' RSS ordering — here the
    adjacent-channel leakage (strong, from the interleaved neighbour) is
    *louder* than the co-channel signal (weak, from a distant next hop),
    which is exactly the regime where the fixed CCA threshold false-
    blocks on a 3 MHz plan and the orthogonal 5 MHz plan or DCN's
    adaptive threshold wins back the channel.

    Returns ``(deployment, fabric)`` — the fabric is constructed but not
    started, so exhibits control warm-up and traffic timing.  ACKs are
    enabled: multi-hop forwarding without per-hop retransmission loses
    too many frames to measure anything but the MAC.
    """
    try:
        cfd_mhz, use_dcn = CONVERGECAST_DESIGNS[design]
    except KeyError:
        raise ValueError(
            f"unknown design {design!r}; "
            f"known: {sorted(CONVERGECAST_DESIGNS)}"
        ) from None
    specs = [
        grid_topology(
            rows, cols, pitch_m, base_mhz, label="A",
        ),
        grid_topology(
            rows, cols, pitch_m, base_mhz + cfd_mhz, label="B",
            origin=(interleave_m, interleave_m),
        ),
    ]
    deployment_kwargs.setdefault("mac_params", MacParams(ack_enabled=True))
    deployment = Deployment(
        specs,
        seed=seed,
        policy_factory=(
            dcn_policy_factory() if use_dcn else zigbee_policy_factory()
        ),
        saturate_senders=False,
        **deployment_kwargs,
    )
    fabric = RoutingFabric(deployment, config=routing_config)
    return deployment, fabric


# ---------------------------------------------------------------------------
# Cases I-III (Figs. 22-27)
# ---------------------------------------------------------------------------
def case_one(
    plan: ChannelPlan,
    seed: int,
    policy_factory: Optional[PolicyFactory] = None,
    **deployment_kwargs,
) -> Deployment:
    """Case I: all networks in one interfering region, random powers."""
    rng = RngStreams(seed).stream("topology")
    specs = one_region_topology(
        plan,
        rng,
        region_radius_m=1.5,
        link_distance_m=0.8,
        power=random_power(-22.0, 0.0),
    )
    return Deployment(
        specs, seed=seed, policy_factory=policy_factory, **deployment_kwargs
    )


def case_two(
    plan: ChannelPlan,
    seed: int,
    policy_factory: Optional[PolicyFactory] = None,
    **deployment_kwargs,
) -> Deployment:
    """Case II: networks clustered per channel ("office rooms")."""
    rng = RngStreams(seed).stream("topology")
    specs = separated_clusters_topology(
        plan,
        rng,
        cluster_spacing_m=1.5,
        cluster_radius_m=0.8,
        link_distance_m=1.0,
        power=random_power(-22.0, 0.0),
    )
    return Deployment(
        specs, seed=seed, policy_factory=policy_factory, **deployment_kwargs
    )


def case_three(
    plan: ChannelPlan,
    seed: int,
    policy_factory: Optional[PolicyFactory] = None,
    **deployment_kwargs,
) -> Deployment:
    """Case III: all nodes random over a large region, random powers."""
    rng = RngStreams(seed).stream("topology")
    specs = random_topology(
        plan,
        rng,
        region_size_m=4.5,
        power=random_power(-22.0, 0.0),
    )
    return Deployment(
        specs, seed=seed, policy_factory=policy_factory, **deployment_kwargs
    )
