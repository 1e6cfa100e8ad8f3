"""The shared wireless medium.

The medium knows every radio, the path-loss model and the fading model.
When a radio begins transmitting, the medium computes the received power at
every *audible* radio (path loss + per-packet fading), delivers a
``signal start`` notification immediately and schedules the matching
``signal end``.  Radios decide for themselves what a signal means to them
(lockable co-channel frame vs. inter-channel interference) — the medium is
channel-agnostic and simply carries centre frequencies around.

One fast path, one reference path (DESIGN.md §9)
------------------------------------------------
``begin_transmission`` has exactly two delivery loops:

- the **fast path** takes the transmission's
  :class:`~repro.phy.vectorized.FanoutBatch` from the
  :class:`~repro.phy.vectorized.VectorizedLinkCache` (static mean RSS,
  culled audible set, per-receiver mask gains), draws every fading sample
  of the fan-out in one batch and hands each surviving receiver its
  precomputed gains through :meth:`Radio.start_signal
  <repro.phy.radio.Radio.start_signal>`;
- the **reference path** (``Medium(reference=True)``) scans every radio
  through the scalar path-loss model with one scalar fading draw per link
  that the cull below keeps, delivers through :meth:`Radio.on_signal_start
  <repro.phy.radio.Radio.on_signal_start>`, and its radios re-derive every
  power probe from the spectral masks.

Both paths end in the same ``Radio.start_signal``, so the power sum that
CCA senses is written in one place.  Both apply the same exact cull before
drawing: a receiver whose mean RSS plus the fading model's largest gain
(:meth:`FadingModel.max_gain_db`) misses the floor could not clear it under
any draw, so neither path draws for it.  Fading draws come from **per-link
RNG streams** (named ``fading.{src}.{dst}``), so skipping a link never
shifts another's draws, and a link culled at one tx power but audible at
another advances its stream by the same frames on both paths.  The two
paths therefore produce identical traces, which ``repro check diff``
gates.

Event ordering: at identical timestamps, signal *ends* fire before signal
*starts* (priority 0 vs 1) so that back-to-back transmissions do not appear
to overlap for an instant.  All per-receiver end notifications of one
transmission are delivered by a single batched event (they are scheduled
consecutively, so batching preserves the total order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from .fading import FadingModel, NoFading
from .frame import Frame
from .propagation import PathLossModel

if TYPE_CHECKING:  # pragma: no cover
    from .radio import Radio
    from .vectorized import VectorizedLinkCache

__all__ = [
    "Transmission",
    "Signal",
    "Medium",
    "PRIORITY_SIGNAL_END",
    "PRIORITY_SIGNAL_START",
]

PRIORITY_SIGNAL_END = 0
PRIORITY_SIGNAL_START = 1


@dataclass(slots=True)
class Transmission:
    """One frame on the air, as seen by the transmitter."""

    source: "Radio"
    frame: Frame
    channel_mhz: float
    tx_power_dbm: float
    start_time: float
    end_time: float

    @property
    def airtime_s(self) -> float:
        return self.end_time - self.start_time


class Signal:
    """A transmission as observed by one receiver (with its own RSS).

    ``decode_mw`` / ``sense_mw`` are the receiver-cached post-mask
    contributions of this signal to the decode-path and sensing-path
    in-channel power sums (set by :meth:`Radio.start_signal`); caching them
    here makes the incremental power accumulators O(1) per probe.
    """

    __slots__ = (
        "transmission",
        "rx_power_dbm",
        "rx_power_mw",
        "channel_mhz",
        "decode_mw",
        "sense_mw",
    )

    def __init__(self, transmission: Transmission, rx_power_dbm: float) -> None:
        self.transmission = transmission
        self.rx_power_dbm = rx_power_dbm
        # Inlined dbm_to_mw (same expression, bit for bit): one Signal is
        # built per (transmission, audible receiver) pair, so the
        # function-call overhead is hot.
        self.rx_power_mw = 10.0 ** (rx_power_dbm / 10.0)
        # Copied out of the transmission: read on every mask-gain lookup
        # and co-channel check, where a property indirection is measurable.
        self.channel_mhz = transmission.channel_mhz
        self.decode_mw = 0.0
        self.sense_mw = 0.0

    @property
    def frame(self) -> Frame:
        return self.transmission.frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Signal frame={self.frame.frame_id} ch={self.channel_mhz} MHz "
            f"rss={self.rx_power_dbm:.1f} dBm>"
        )


class Medium:
    """Registry of radios plus signal delivery.

    Parameters
    ----------
    sim:
        The simulation kernel.
    path_loss:
        Large-scale propagation model.
    fading:
        Per-packet variation model (defaults to none).
    rng:
        Named RNG streams; fading draws come from per-link streams named
        ``fading.{source}.{receiver}``.
    delivery_floor_dbm:
        Signals below this received power are not delivered at all (they
        would be ~20 dB under the noise floor); keeps event counts linear in
        the number of *audible* receivers.
    reference:
        Run the reference path: every transmission scans all radios through
        the scalar path-loss model, and every radio answers its power
        probes by full per-call mask re-evaluation.  ``None`` (the
        default) follows ``sim.reference``, which a reference
        :class:`~repro.check.runtime.CheckSession` sets on every simulator
        built inside it.  The differential oracle (``python -m repro
        check diff``) runs exhibits on both paths and requires identical
        traces.
    """

    def __init__(
        self,
        sim: Simulator,
        path_loss: PathLossModel,
        fading: Optional[FadingModel] = None,
        rng: Optional[RngStreams] = None,
        delivery_floor_dbm: float = -115.0,
        reference: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.path_loss = path_loss
        self.fading = fading if fading is not None else NoFading()
        self.rng = rng if rng is not None else RngStreams(0)
        self.delivery_floor_dbm = delivery_floor_dbm
        if reference is None:
            reference = sim.reference
        self.reference = bool(reference)
        self._radios: List["Radio"] = []
        self._radio_ids: set = set()
        self._radios_snapshot: Optional[Tuple["Radio", ...]] = None
        self._link_cache: Optional["VectorizedLinkCache"] = None
        if not self.reference:
            # Deferred so ``import repro`` does not pay for the module.
            from .vectorized import VectorizedLinkCache

            self._link_cache = VectorizedLinkCache(self)

    # ------------------------------------------------------------------
    def register(self, radio: "Radio") -> None:
        """Add a radio to the medium.  Called by ``Radio.__init__``."""
        if id(radio) in self._radio_ids:
            raise ValueError(f"radio {radio.name!r} registered twice")
        self._radio_ids.add(id(radio))
        self._radios.append(radio)
        self._radios_snapshot = None
        if self._link_cache is not None:
            # The new radio may be audible to already-cached sources:
            # the cache drops its batches and rebuilds them on demand.
            self._link_cache.register_radio(radio)

    @property
    def radios(self) -> Tuple["Radio", ...]:
        """All registered radios (immutable snapshot, cached between
        registrations so hot loops do not copy the list on every access)."""
        snapshot = self._radios_snapshot
        if snapshot is None:
            snapshot = self._radios_snapshot = tuple(self._radios)
        return snapshot

    def invalidate_link_cache(self) -> None:
        """Drop cached link budgets after a radio position change."""
        if self._link_cache is not None:
            self._link_cache.invalidate()

    # ------------------------------------------------------------------
    def begin_transmission(
        self,
        source: "Radio",
        frame: Frame,
        channel_mhz: float,
        tx_power_dbm: float,
        on_complete: Callable[[Transmission], None],
    ) -> Transmission:
        """Put ``frame`` on the air and fan it out to audible receivers.

        ``on_complete`` fires at end-of-airtime, *after* receivers have been
        told the signal ended (same timestamp, later priority ordering is
        guaranteed by scheduling receiver ends first).
        """
        sim = self.sim
        now = sim.now
        airtime = frame.airtime_s
        transmission = Transmission(
            source=source,
            frame=frame,
            channel_mhz=channel_mhz,
            tx_power_dbm=tx_power_dbm,
            start_time=now,
            end_time=now + airtime,
        )
        trace = sim.trace
        if trace.enabled:
            trace.emit(
                "tx_start",
                source=source.name,
                frame=frame.frame_id,
                channel=channel_mhz,
                power=tx_power_dbm,
                airtime=airtime,
            )
        obs = sim.obs
        if obs is not None:
            obs.on_transmission(source.name, channel_mhz, airtime)
        floor = self.delivery_floor_dbm
        delivered: List[Tuple["Radio", Signal]] = []
        cache = self._link_cache
        if cache is not None:
            # Fast path: one fading draw batch and one vector add for the
            # per-packet RSS column, then one radio call per survivor with
            # the batch's precomputed gains.  The floats are the ones the
            # reference loop below computes, operand for operand.
            batch = cache.fanout_batch(source, tx_power_dbm, channel_mhz)
            radios = batch.radios
            if radios:
                draws = self.fading.sample_db_many(batch.links)
                rss_arr = batch.means + np.asarray(draws)
                keep = rss_arr >= floor
                if keep.all():
                    indices = range(len(radios))
                else:
                    indices = np.nonzero(keep)[0].tolist()
                rss_values = rss_arr.tolist()
                decode_gains = batch.decode_gains
                sense_gains = batch.sense_gains
                lockable = batch.lockable
                append = delivered.append
                new_signal = Signal.__new__
                for i in indices:
                    radio = radios[i]
                    rss = rss_values[i]
                    # Signal.__init__ inlined (same expressions, minus the
                    # zeroed power caches start_signal overwrites): one
                    # Python frame per delivered signal is measurable here.
                    signal = new_signal(Signal)
                    signal.transmission = transmission
                    signal.rx_power_dbm = rss
                    signal.rx_power_mw = 10.0 ** (rss / 10.0)
                    signal.channel_mhz = channel_mhz
                    radio.start_signal(
                        signal, decode_gains[i], sense_gains[i], lockable[i]
                    )
                    append((radio, signal))
        else:
            # Reference path: every radio, the scalar path-loss model and
            # one scalar fading draw per link that the exact cull keeps.
            path_loss = self.path_loss
            fading = self.fading
            headroom = fading.max_gain_db()
            stream = self.rng.stream
            prefix = f"fading.{source.name}."
            for radio in self._radios:
                if radio is source:
                    continue
                mean_rss = path_loss.received_power_dbm(
                    tx_power_dbm, source.position, radio.position
                )
                if mean_rss + headroom < floor:
                    continue
                rss = mean_rss + fading.sample_db(stream(prefix + radio.name))
                if rss < floor:
                    continue
                signal = Signal(transmission, rss)
                radio.on_signal_start(signal)
                delivered.append((radio, signal))
        if delivered:
            # One batched end event for the whole fan-out: the per-receiver
            # notifications would have been scheduled consecutively (same
            # time, same priority, adjacent sequence numbers), so invoking
            # them in order from a single event preserves the total order
            # while keeping heap traffic O(1) per transmission.
            def _end_all() -> None:
                for radio, signal in delivered:
                    radio.on_signal_end(signal)

            sim.schedule(
                airtime, _end_all, priority=PRIORITY_SIGNAL_END, tag="signal_end"
            )
        sim.schedule(
            airtime,
            lambda: on_complete(transmission),
            priority=PRIORITY_SIGNAL_END + 1,
            tag="tx_end",
        )
        return transmission
