"""The medium's link cache: struct-of-arrays fan-out batches.

Node positions are static for the lifetime of a run, so the mean link budget
between two radios never changes.  :class:`VectorizedLinkCache` exploits
this twice:

1. **mean-RSS memoisation** — the path-loss model is consulted once per
   ``(source, receiver, tx power, channel)`` instead of once per frame;
2. **audible-set culling** — receivers whose *best-case* RSS (mean plus the
   fading model's maximum possible gain, :meth:`FadingModel.max_gain_db`)
   cannot clear the medium's ``delivery_floor_dbm`` are dropped from the
   fan-out entirely, so transmission cost scales with the number of audible
   receivers, not with the size of the network.

Culling is exact: a culled receiver could not have been delivered a signal
under *any* fading draw, and fading draws come from per-link streams, so
skipping a link never shifts another link's draws.  The medium's brute-force
reference path (``Medium(reference=True)``) applies the same cull per frame
before it draws, so a link culled in one batch but audible in another
advances its stream identically on both paths, and the two produce the
same traces, which ``repro check diff`` gates.

Every ``(source, tx power, channel)`` gets one :class:`FanoutBatch` of
per-receiver delivery columns, built in one step on its first
transmission: :class:`RadioArrays` keeps a contiguous numpy mirror of the
radio positions, the mean link budget for the whole registry is evaluated
in one call, the survivors are confirmed through the scalar model
(DESIGN.md §13), and each survivor's gains, lock verdict and
:class:`~repro.phy.fading.LinkDraws` are gathered.  ``Medium.
begin_transmission`` then draws all fading samples of a transmission at
once.  Each link's :class:`~repro.phy.fading.LinkDraws` has one owner, the
cache's never-cleared link table, so a link shared by two batches (two tx
powers or channels), or rebuilt after a registration or invalidation,
continues its draw sequence where it left off.

Exactness
---------
Batched transcendentals (``np.log10``/``np.hypot``) may differ from libm by
a few ulp, so batch results are used **only to preselect candidates** with
a guard band (:data:`PRESELECT_GUARD_DB`) nine orders of magnitude wider
than any SIMD rounding difference; every cached ``mean_rss`` is re-derived
through ``received_power_dbm`` (the scalar path).  A radio kept by the
scalar cull condition ``mean + headroom >= floor`` therefore can never be
dropped by the preselection ``approx + headroom >= floor - guard``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .fading import LinkDraws

if TYPE_CHECKING:  # pragma: no cover
    from .medium import Medium
    from .radio import Radio

__all__ = [
    "RadioArrays",
    "VectorizedLinkCache",
    "FanoutBatch",
    "PRESELECT_GUARD_DB",
]

#: Guard band (dB) subtracted from the cull floor during batched
#: preselection.  SIMD-vs-libm rounding differences are a few ulp
#: (~1e-13 dB at typical RSS magnitudes); 1e-6 dB leaves nine orders of
#: magnitude of margin while culling everything meaningfully inaudible.
PRESELECT_GUARD_DB = 1e-6


class FanoutBatch:
    """Per-(source, tx power, channel) precomputed delivery columns.

    Everything the delivery loop in ``Medium.begin_transmission`` needs
    per fan-out entry, gathered once and reused for every frame, one
    entry per audible receiver in registration order:

    - ``links``: each receiver's :class:`~repro.phy.fading.LinkDraws`,
      the same object in every batch of the same source;
    - ``means`` as a float64 array so the per-packet RSS (`mean + draw`)
      computes in one vector add (IEEE elementwise add — bit-identical to
      the scalar sums);
    - ``decode_gains`` / ``sense_gains`` pulled from each receiver's own
      ``_gains_for`` memo, the exact floats ``Radio.on_signal_start``
      would look up;
    - ``lockable`` flags: each receiver's own ``_lockable`` verdict for
      the transmission channel (co-channel for the 802.15.4 radio).
    """

    __slots__ = (
        "radios", "links", "means", "decode_gains", "sense_gains", "lockable",
    )

    def __init__(
        self,
        radios: List["Radio"],
        links: List[LinkDraws],
        means: np.ndarray,
        decode_gains: List[float],
        sense_gains: List[float],
        lockable: List[bool],
    ) -> None:
        self.radios = radios
        self.links = links
        self.means = means
        self.decode_gains = decode_gains
        self.sense_gains = sense_gains
        self.lockable = lockable


class RadioArrays:
    """Contiguous struct-of-arrays mirror of a medium's radio registry.

    Holds positions in a flat float64 array (grown amortised-O(1))
    alongside the radio objects in registration order, so batched kernels
    can run over the whole registry without touching per-object Python
    attributes.
    """

    __slots__ = ("radios", "_xy", "_count")

    def __init__(self) -> None:
        self.radios: List["Radio"] = []
        self._xy = np.empty((16, 2))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def xy(self) -> np.ndarray:
        """Positions, shape ``(n, 2)`` (a view; do not mutate)."""
        return self._xy[: self._count]

    def append(self, radio: "Radio") -> None:
        n = self._count
        if n == len(self._xy):
            self._xy = np.resize(self._xy, (2 * n, 2))
        self._xy[n, 0] = radio.position[0]
        self._xy[n, 1] = radio.position[1]
        self.radios.append(radio)
        self._count = n + 1

    def refresh(self) -> None:
        """Re-copy positions from the radio objects.

        Called on cache invalidation so explicit position changes (the one
        sanctioned mutation, via ``Medium.invalidate_link_cache``) are
        reflected in the array."""
        xy = self._xy
        for i, radio in enumerate(self.radios):
            xy[i, 0] = radio.position[0]
            xy[i, 1] = radio.position[1]


class VectorizedLinkCache:
    """Static link budgets and fan-out batches, one owner per link.

    Built lazily: the batch for a ``(source, tx power, channel)`` is
    computed on its first transmission and reused for every subsequent
    frame.  Registering a radio drops every batch (:meth:`register_radio`);
    moving a radio requires an explicit :meth:`invalidate` (positions are
    assumed static).  Neither touches the link table, which holds every
    link's fading state for the cache's lifetime.
    """

    __slots__ = ("_medium", "arrays", "_batches", "_links")

    def __init__(self, medium: "Medium") -> None:
        self._medium = medium
        self.arrays = RadioArrays()
        #: (id(source), tx power, channel) -> delivery columns.
        self._batches: Dict[Tuple[int, float, float], FanoutBatch] = {}
        #: (id(source), id(receiver)) -> that link's fading draws.  Never
        #: cleared; the registry holds every radio for the medium's
        #: lifetime, so no id is recycled while its entry is alive.
        self._links: Dict[Tuple[int, int], LinkDraws] = {}

    # -- registry maintenance ------------------------------------------
    def register_radio(self, radio: "Radio") -> None:
        """Mirror a newly registered radio and drop every batch.

        A rebuild walks the registry in registration order, so the
        newcomer lands at the end of every batch it belongs to, and the
        links already in the batch keep their draws.
        """
        self.arrays.append(radio)
        self._batches.clear()

    def invalidate(self) -> None:
        """Drop every batch (e.g. after a position change)."""
        self._batches.clear()
        self.arrays.refresh()

    # -- fan-out hot path -----------------------------------------------
    def fanout_batch(
        self, source: "Radio", tx_power_dbm: float, channel_mhz: float
    ) -> FanoutBatch:
        """Delivery columns for one ``(source, tx power, channel)``."""
        key = (id(source), tx_power_dbm, channel_mhz)
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = self._build(
                source, tx_power_dbm, channel_mhz
            )
        return batch

    def _build(
        self, source: "Radio", tx_power_dbm: float, channel_mhz: float
    ) -> FanoutBatch:
        medium = self._medium
        path_loss = medium.path_loss
        floor = medium.delivery_floor_dbm
        headroom = medium.fading.max_gain_db()
        arrays = self.arrays
        if headroom == float("inf"):
            # Unbounded fading disables culling: every radio is audible.
            candidates = range(len(arrays))
        else:
            approx = path_loss.received_power_dbm_batch(
                tx_power_dbm, source.position, arrays.xy
            )
            candidates = np.nonzero(
                approx >= (floor - headroom) - PRESELECT_GUARD_DB
            )[0].tolist()
        registry = arrays.radios
        source_id = id(source)
        all_links = self._links
        radios: List["Radio"] = []
        means: List[float] = []
        links: List[LinkDraws] = []
        decode_gains: List[float] = []
        sense_gains: List[float] = []
        lockable: List[bool] = []
        missing: List[int] = []
        for i in candidates:
            radio = registry[i]
            if radio is source:
                continue
            # Exact confirmation: the cached mean comes from the scalar
            # model, the one the reference path evaluates per frame.
            mean_rss = path_loss.received_power_dbm(
                tx_power_dbm, source.position, radio.position
            )
            if mean_rss + headroom < floor:
                continue
            link = all_links.get((source_id, id(radio)))
            if link is None:
                missing.append(len(radios))
            radios.append(radio)
            means.append(mean_rss)
            links.append(link)
            gains = radio._gains_for(channel_mhz)
            decode_gains.append(gains[0])
            sense_gains.append(gains[1])
            lockable.append(radio._lockable(channel_mhz))
        if missing:
            # Batched stream creation: one vectorized seed derivation for
            # all new links instead of one SeedSequence each (the dominant
            # first-transmission cost at 10^5-link scale).  stream_many is
            # bit-identical to per-name stream() and shares its cache.
            prefix = f"fading.{source.name}."
            streams = medium.rng.stream_many(
                [prefix + radios[j].name for j in missing]
            )
            for j, stream in zip(missing, streams):
                link = links[j] = LinkDraws(stream)
                all_links[(source_id, id(radios[j]))] = link
        return FanoutBatch(
            radios,
            links,
            np.array(means, dtype=np.float64),
            decode_gains,
            sense_gains,
            lockable,
        )
