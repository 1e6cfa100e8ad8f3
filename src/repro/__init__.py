"""repro — reproduction of *Design of Non-orthogonal Multi-channel Sensor
Networks* (Xu, Luo, Zhang — ICDCS 2010).

The package implements, from scratch:

- a discrete-event simulation kernel (:mod:`repro.sim`),
- a CC2420-parameterised 802.15.4 PHY with calibrated spectral-leakage /
  SINR / BER models (:mod:`repro.phy`),
- an unslotted CSMA/CA MAC with pluggable CCA policies (:mod:`repro.mac`),
- the paper's contribution — **DCN**, the dynamic CCA-threshold scheme for
  non-orthogonal transmission (:mod:`repro.core`),
- network/node/topology/deployment layers plus multi-hop cluster-tree +
  mesh routing with convergecast workloads (:mod:`repro.net`),
- a simplified 802.11b contrast substrate (:mod:`repro.dot11`),
- an experiment harness reproducing every table and figure of the paper's
  evaluation (:mod:`repro.experiments`),
- a parallel experiment-campaign engine with result caching, retries and
  per-seed aggregation (:mod:`repro.campaign`),
- kernel profiling tooling (:mod:`repro.perf`),
- a correctness layer: runtime invariants, a fast-vs-reference
  differential oracle, and a determinism checker (:mod:`repro.check`), and
- an observability layer: metrics registry, span timelines, JSONL export
  and Perfetto-compatible trace output (:mod:`repro.obs`).
"""

from . import check, core, dot11, experiments, mac, net, obs, phy, sim

# 0.8.0: unified service telemetry — /metrics Prometheus exposition,
# cross-process trace propagation (campaign → job → span) and the live
# obs dashboard.  Exhibit physics are untouched, but worker results now
# carry trace exports next to their metrics snapshots; the bump keeps
# pre-telemetry cache entries from replaying without them.
__version__ = "0.8.0"

from . import campaign, perf  # noqa: E402  (the cache keys on __version__)

__all__ = [
    "campaign",
    "check",
    "core",
    "dot11",
    "experiments",
    "mac",
    "net",
    "obs",
    "perf",
    "phy",
    "sim",
    "__version__",
]
