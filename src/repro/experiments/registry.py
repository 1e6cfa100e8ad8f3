"""Experiment registry: exhibit id -> runnable.

Every paper exhibit (and each ablation) is addressable by a short id, so
benches, EXPERIMENTS.md generation and the command line can enumerate them:

>>> from repro.experiments.registry import get, all_ids
>>> table = get("fig04").run(seed=1, fast=True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..experiments.results import ResultTable
from .figures import (
    ablations,
    convergecast,
    fig01,
    fig02,
    fig04,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig25,
    fig26,
    fig27,
    fig28,
    fig29,
    fig30,
    table1,
)

__all__ = ["Experiment", "get", "all_ids", "REGISTRY"]

Runner = Callable[..., ResultTable]


@dataclass(frozen=True)
class Experiment:
    """A registered exhibit reproduction."""

    id: str
    paper_exhibit: str
    description: str
    run: Runner


REGISTRY: Dict[str, Experiment] = {}


def _register(id: str, paper_exhibit: str, description: str, run: Runner) -> None:
    if id in REGISTRY:
        raise ValueError(f"duplicate experiment id {id!r}")
    REGISTRY[id] = Experiment(id, paper_exhibit, description, run)


_register("fig01", "Fig. 1", "Bandwidth throughput vs CFD (12 MHz band)", fig01.run)
_register("fig02", "Fig. 2", "802.11b vs 802.15.4 channel-separation contrast", fig02.run)
_register("fig04", "Fig. 4", "Collided-packet receive rate vs CFD", fig04.run)
_register("fig06", "Fig. 6", "Link throughput vs CCA threshold (no co-channel)", fig06.run)
_register("fig07", "Fig. 7", "Overall throughput vs CCA threshold (no co-channel)", fig07.run)
_register("fig08", "Fig. 8", "Link throughput vs CCA threshold (with co-channel)", fig08.run)
_register("fig09", "Fig. 9", "Link throughput vs CCA threshold per tx power", fig09.run)
_register("fig10", "Fig. 10", "Link PRR vs tx power under relaxed CCA", fig10.run)
_register("fig14", "Fig. 14", "N0 throughput, DCN only on N0", fig14.run)
_register("fig15", "Fig. 15", "Other networks' throughput, DCN only on N0", fig15.run)
_register("fig16", "Fig. 16", "Per-network throughput, CFD=2 MHz, DCN on all", fig16.run)
_register("fig17", "Fig. 17", "Per-network throughput, CFD=3 MHz, DCN on all", fig17.run)
_register("fig18", "Fig. 18", "Overall throughput, CFD 2 vs 3, DCN on all", fig18.run)
_register("fig19", "Fig. 19", "ZigBee design vs DCN design (15 MHz band)", fig19.run)
_register("fig20", "Fig. 20", "N0 throughput vs its transmit power", fig20.run)
_register("fig21", "Fig. 21", "Other networks vs N0 transmit power", fig21.run)
_register("table1", "Table I", "Fairness across the six DCN networks", table1.run)
_register("fig25", "Fig. 25", "Case I: one interfering region", fig25.run)
_register("fig26", "Fig. 26", "Case II: separated clusters", fig26.run)
_register("fig27", "Fig. 27", "Case III: random topology", fig27.run)
_register("fig28", "Fig. 28", "Packet recovery under severe interference", fig28.run)
_register("fig29", "Fig. 29", "Error-bit CDF of CRC-failed packets", fig29.run)
_register("fig30", "Fig. 30", "Wider band (18 MHz, 7 channels)", fig30.run)
_register("ablation_margin", "(beyond paper)", "DCN threshold safety-margin sweep", ablations.run_margin)
_register("ablation_tu", "(beyond paper)", "DCN updating-window T_U sweep", ablations.run_tu)
_register("ablation_ti", "(beyond paper)", "DCN initializing-phase T_I sweep", ablations.run_ti)
_register("ablation_oracle", "Sec. VII-C", "DCN vs oracle CCA upper bound", ablations.run_oracle)
_register("ablation_mode2", "Sec. VII-C", "DCN vs CCA mode-2 carrier sense", ablations.run_mode2)
_register("ablation_energy", "(beyond paper)", "Energy cost of DCN (CC2420 model)", ablations.run_energy)
_register("ablation_orthogonal", "(beyond paper)", "Orthogonal vs ZigBee vs DCN channel plans", ablations.run_orthogonal)
_register("convergecast", "(beyond paper)", "Multi-hop convergecast delay/delivery across channel designs", convergecast.run)


def get(experiment_id: str) -> Experiment:
    """Look up an experiment by id."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None


def all_ids() -> List[str]:
    return list(REGISTRY)
