"""Fixed-seed outputs pinned to exact values.

The differential oracle (``repro check diff``) compares the fast path with
the reference path of the *same* tree, so it cannot see a change that moves
both legs alike.  These tests pin what a fixed seed produces today.  A
failure means the simulated outcome changed: if that change is deliberate,
bump ``repro.__version__``, regenerate EXPERIMENTS.md, state the reason in
CHANGES.md and re-pin the values below.
"""

import hashlib

from repro.campaign import JobSpec
from repro.campaign.executor import run_registry_job
from repro.experiments.scenarios import large_scene
from repro.mac.stats import MacStats
from repro.phy.frame import reset_frame_ids
from repro.phy.reception import Reception

BUMP_HINT = (
    "fixed-seed output changed; a deliberate change needs a version bump, "
    "a regenerated EXPERIMENTS.md and re-pinned values here"
)

MAC_FIELDS = ("sent", "cca_attempts", "cca_busy", "access_failures", "delivered")

#: ``large_scene(SCENE_MOTES, active_links_per_network=SCENE_LINKS, seed=1)``
#: run for ``SCENE_WINDOW_S`` of simulated time: 64 saturated senders with
#: busy CCAs, access failures and errored bits, in about a second of wall.
SCENE_MOTES = 250
SCENE_LINKS = 4
SCENE_WINDOW_S = 0.03
SCENE_MAC_SHA256 = (
    "eb15bd14f3339771e653e45fd3c457cd5530ef4b3e005a95133035a44affa0de"
)
SCENE_FINALIZED = 1286
SCENE_ERRORED_BITS = 104729

#: sha256 of ``fig04 --fast`` (seed 1) ``ResultTable.to_json()``.
FIG04_FAST_SHA256 = (
    "ca28a806c22f58781db8683d74589b63c1ba55f4e57764246087d1d75db7af93"
)


def _mac_digest(nodes) -> str:
    digest = hashlib.sha256()
    for name in sorted(nodes):
        stats: MacStats = nodes[name].mac.stats
        row = ",".join(str(getattr(stats, field)) for field in MAC_FIELDS)
        digest.update(f"{name}:{row}\n".encode("utf-8"))
    return digest.hexdigest()


def test_scene_mac_stats_and_receptions_pinned(monkeypatch):
    totals = {"finalized": 0, "errored_bits": 0}
    finalize = Reception.finalize

    def counting_finalize(self):
        outcome = finalize(self)
        totals["finalized"] += 1
        totals["errored_bits"] += outcome.errored_bits
        return outcome

    monkeypatch.setattr(Reception, "finalize", counting_finalize)
    reset_frame_ids()
    deployment = large_scene(
        SCENE_MOTES, active_links_per_network=SCENE_LINKS, seed=1
    )
    deployment.start_traffic()
    deployment.sim.run(SCENE_WINDOW_S)
    observed = (
        _mac_digest(deployment.nodes),
        totals["finalized"],
        totals["errored_bits"],
    )
    assert observed == (
        SCENE_MAC_SHA256,
        SCENE_FINALIZED,
        SCENE_ERRORED_BITS,
    ), BUMP_HINT


def test_fig04_fast_table_pinned():
    table = run_registry_job(JobSpec.make("fig04", seed=1, fast=True))
    observed = hashlib.sha256(table.to_json().encode("utf-8")).hexdigest()
    assert observed == FIG04_FAST_SHA256, BUMP_HINT
