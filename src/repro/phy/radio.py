"""The radio: a CC2420-like transceiver state machine.

Responsibilities:

- **Sensing** — in-channel power (the instantaneous CCA energy measurement):
  the sum of every audible signal's power after spectral-mask attenuation
  toward the radio's channel, plus the noise floor.
- **Transmitting** — hands frames to the :class:`~repro.phy.medium.Medium`;
  a transmitting radio is deaf (half-duplex).
- **Receiving** — locks onto co-channel frames whose preamble is decodable
  (RSS above sensitivity and lock-time SINR above the capture threshold);
  off-channel frames are *never* lockable.  This asymmetry is the paper's
  central 802.15.4-vs-802.11 observation (Fig. 2): an 802.15.4 receiver
  cannot decode a packet even 1 MHz off its centre frequency, so
  neighbouring-channel energy acts as tolerable noise rather than hijacking
  the demodulator.

MAC layers subscribe via :meth:`Radio.add_frame_listener` and receive every
finished :class:`~repro.phy.errors.FrameReception` (CRC-good or not —
snooping CRC-failed frames still yields their RSSI, which the DCN
CCA-Adjustor uses).
"""

from __future__ import annotations

import enum
from math import log10 as _log10
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from ..sim.units import dbm_to_mw, mw_to_dbm
from .constants import NOISE_FLOOR_DBM, RX_SENSITIVITY_DBM
from .energy import EnergyAccumulator
from .errors import FrameReception
from .frame import Frame
from .mask import SpectralMask, default_cca_mask, default_mask
from .medium import Medium, Signal, Transmission
from .propagation import Position
from .reception import Reception

__all__ = ["RadioState", "RadioConfig", "Radio"]

FrameListener = Callable[[FrameReception], None]


class RadioState(enum.Enum):
    """Transceiver state: listening (IDLE), transmitting (TX) or OFF."""

    IDLE = "idle"  # listening
    TX = "tx"
    OFF = "off"


@dataclass(frozen=True)
class RadioConfig:
    """Receiver characteristics (CC2420 defaults)."""

    sensitivity_dbm: float = RX_SENSITIVITY_DBM
    noise_floor_dbm: float = NOISE_FLOOR_DBM
    #: Minimum SINR at lock time for the preamble/SFD to synchronise.
    capture_threshold_db: float = -1.0
    #: Signals within this offset of the radio's centre count as co-channel.
    co_channel_tolerance_mhz: float = 0.5


class Radio:
    """One transceiver bound to a medium, a position and a channel.

    ``rng`` is the :class:`~repro.sim.rng.RngStreams` the radio draws its
    bit errors from (``medium.rng`` when omitted).  The radio asks it for
    its ``biterrors.{name}`` stream only when it locks its first frame;
    streams are keyed by name alone, so when that happens does not change
    a single draw.  ``mask`` and ``cca_mask`` default to the CC2420
    decode and sensing masks: one instance each, shared by every radio
    built without a mask.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        position: Position,
        channel_mhz: float,
        tx_power_dbm: float,
        mask: Optional[SpectralMask] = None,
        cca_mask: Optional[SpectralMask] = None,
        config: Optional[RadioConfig] = None,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.name = name
        self.position = position
        self.channel_mhz = channel_mhz
        self.tx_power_dbm = tx_power_dbm
        self.mask = mask if mask is not None else default_mask()
        #: The CCA/RSSI sensing path rejects off-channel energy a few dB
        #: more sharply than the demodulator's interference coupling.
        self.cca_mask = cca_mask if cca_mask is not None else default_cca_mask(self.mask)
        self.config = config if config is not None else RadioConfig()
        #: Hot-path copies of the (frozen) config scalars: the lock
        #: decision tree reads them once per delivered signal, where the
        #: dataclass attribute indirection is measurable.
        self._sensitivity_dbm = self.config.sensitivity_dbm
        self._capture_threshold_db = self.config.capture_threshold_db
        self._co_channel_tolerance_mhz = self.config.co_channel_tolerance_mhz
        #: Source of the ``biterrors.{name}`` stream, fetched when a
        #: reception is first created (most radios of a large scene never
        #: lock a frame) and then kept in ``_bit_stream``.
        self._rng = rng if rng is not None else medium.rng
        self._bit_stream = None
        self.state = RadioState.IDLE
        self.active_signals: List[Signal] = []
        self.current_reception: Optional[Reception] = None
        self._frame_listeners: List[FrameListener] = []
        self._noise_mw = dbm_to_mw(self.config.noise_floor_dbm)
        #: Memoised per-offset linear gains: signal centre frequency ->
        #: ``(decode_gain, sense_gain)``.  Channel offsets form a small
        #: discrete set, so the mask curves are evaluated once per offset
        #: instead of once per probe.
        self._gain_memo: dict = {}
        #: Cached sensing-path interference sum (mW, excludes noise), or
        #: ``None`` when stale.  :meth:`start_signal` extends a current
        #: sum in O(1); :meth:`_remove_signal` only marks it stale, and
        #: :meth:`_sense_sum` re-sums the active list on the next probe.
        self._sense_sum_mw: Optional[float] = 0.0
        self.energy = EnergyAccumulator(tx_power_dbm=tx_power_dbm)
        #: Reference-path toggle (``Medium.reference``): when True the
        #: power probes re-derive every contribution from the spectral
        #: masks per call instead of using the memoised gains and the
        #: incremental sum, for the differential oracle
        #: (``python -m repro check diff``).
        self._reference = medium.reference
        #: The sim's trace sink is fixed at construction; caching the
        #: object saves two attribute hops per delivered signal.
        self._trace = sim.trace
        medium.register(self)
        if sim.obs is not None:
            sim.obs.register_radio(self)

    # ------------------------------------------------------------------
    # Listener plumbing
    # ------------------------------------------------------------------
    def add_frame_listener(self, listener: FrameListener) -> None:
        self._frame_listeners.append(listener)

    def _dispatch_reception(self, outcome: FrameReception) -> None:
        if self._trace.enabled:
            self.sim.trace.emit(
                "rx_done",
                radio=self.name,
                frame=outcome.frame.frame_id,
                crc=outcome.crc_ok,
                rssi=round(outcome.rssi_dbm, 2),
                errors=outcome.errored_bits,
            )
        for listener in self._frame_listeners:
            listener(outcome)

    # ------------------------------------------------------------------
    # Signal bookkeeping (incremental power accumulators)
    # ------------------------------------------------------------------
    def _gains_for(self, channel_mhz: float) -> tuple:
        """Linear ``(decode, sense)`` gains for a signal at ``channel_mhz``."""
        gains = self._gain_memo.get(channel_mhz)
        if gains is None:
            offset = channel_mhz - self.channel_mhz
            gains = (
                10.0 ** (-self.mask.leakage_db(offset) / 10.0),
                10.0 ** (-self.cca_mask.leakage_db(offset) / 10.0),
            )
            self._gain_memo[channel_mhz] = gains
        return gains

    def _lockable(self, channel_mhz: float) -> bool:
        """Whether a signal at ``channel_mhz`` may be locked onto at all.

        The 802.15.4 receiver locks only co-channel signals; subclasses with
        other lock semantics override this together with
        :meth:`_maybe_lock`.
        """
        offset = channel_mhz - self.channel_mhz
        return (offset if offset >= 0.0 else -offset) <= self._co_channel_tolerance_mhz

    def start_signal(
        self,
        signal: Signal,
        decode_gain: float,
        sense_gain: float,
        lockable: bool,
    ) -> None:
        """A signal starts at this radio: account for it, then maybe lock.

        The one home of the power bookkeeping.  ``decode_gain`` /
        ``sense_gain`` are this radio's :meth:`_gains_for` values and
        ``lockable`` its :meth:`_lockable` verdict for the signal's
        channel; the medium's fast path passes them precomputed per
        fan-out entry, :meth:`on_signal_start` looks them up.  The signal's
        post-mask contributions are cached on it and, when the cached
        sensing-path sum is current, added to it (O(1); a stale sum stays
        stale).  An ongoing reception first closes its elapsed segment
        under the *old* interference set and keeps its lock; otherwise a
        lockable signal goes up the lock ladder.
        """
        reception = self.current_reception
        if reception is not None:
            reception.on_interference_change()
        rx_power_mw = signal.rx_power_mw
        signal.decode_mw = rx_power_mw * decode_gain
        sense_mw = rx_power_mw * sense_gain
        signal.sense_mw = sense_mw
        self.active_signals.append(signal)
        sense_sum = self._sense_sum_mw
        if sense_sum is not None:
            self._sense_sum_mw = sense_sum + sense_mw
        checks = self.sim.checks
        if checks is not None:
            checks.on_accumulator_update(self)
        if reception is None and lockable:
            self._maybe_lock(signal)

    def _remove_signal(self, signal: Signal) -> None:
        """Stop tracking ``signal`` and mark the sensing-path sum stale.

        No subtraction (hence no cancellation drift) and no re-sum here:
        signals end hundreds of times per CCA probe on a dense scene, so
        the re-sum waits for :meth:`_sense_sum`.  An emptied list has the
        exact sum ``0.0``.
        """
        signals = self.active_signals
        signals.remove(signal)
        self._sense_sum_mw = None if signals else 0.0
        checks = self.sim.checks
        if checks is not None:
            checks.on_accumulator_update(self)

    def _sense_sum(self) -> float:
        """The sensing-path sum (mW, excludes noise), re-summed if stale.

        The re-sum is a plain left-to-right loop from ``0.0`` in
        active-list order, the float order :meth:`start_signal` extends
        and :meth:`resample_sense_power_mw` follows, so the cached value
        is bitwise the full re-sum whenever it is read.  Not ``sum()``:
        from Python 3.12 it compensates rounding and would differ.
        """
        total = self._sense_sum_mw
        if total is None:
            total = 0.0
            for signal in self.active_signals:
                total += signal.sense_mw
            self._sense_sum_mw = total
        return total

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def in_channel_power_mw(self, exclude: Optional[Signal] = None) -> float:
        """Decode-path in-channel power (mW) including the noise floor.

        Each active signal is attenuated by the demodulator-coupling mask
        according to its centre-frequency offset from this radio's channel
        (contribution cached at signal start).  This is the interference
        term of reception SINR.
        """
        if self._reference:
            return self.resample_in_channel_power_mw(exclude)
        total = self._noise_mw
        for signal in self.active_signals:
            if signal is exclude:
                continue
            total += signal.decode_mw
        return total

    def sensed_power_mw(self) -> float:
        """Sensing-path in-channel power (mW): what CCA/RSSI measures.

        The per-signal contributions are cached at signal start.  The
        probe is O(1) while signals only start; the first probe after a
        signal end re-sums the active list once (see :meth:`_sense_sum`).
        """
        if self._reference:
            return self.resample_sense_power_mw()
        return self._noise_mw + self._sense_sum()

    # ------------------------------------------------------------------
    # Reference resampling (pre-PR-2 algorithms, kept live)
    # ------------------------------------------------------------------
    def resample_sense_power_mw(self) -> float:
        """Sensing-path power by full mask re-evaluation.

        The reference algorithm behind :meth:`sensed_power_mw`: every
        active signal's CCA-mask leakage is recomputed per call and the
        contributions are summed in active-list order with the noise
        floor added last — the exact float-operation order the
        incremental accumulator maintains, so a healthy accumulator
        matches this *bit for bit*.  Used by the invariant layer's
        periodic resample and by the ``check diff`` reference path.
        """
        total = 0.0
        for signal in self.active_signals:
            leakage_db = self.cca_mask.leakage_db(
                signal.channel_mhz - self.channel_mhz
            )
            total += signal.rx_power_mw * (10.0 ** (-leakage_db / 10.0))
        return self._noise_mw + total

    def resample_in_channel_power_mw(
        self, exclude: Optional[Signal] = None
    ) -> float:
        """Decode-path power by full mask re-evaluation (reference).

        Float-order-identical to :meth:`in_channel_power_mw` (noise
        floor first, contributions in active-list order), with each
        per-signal gain re-derived from the decode mask instead of the
        memoised ``decode_mw`` cache.
        """
        total = self._noise_mw
        for signal in self.active_signals:
            if signal is exclude:
                continue
            leakage_db = self.mask.leakage_db(
                signal.channel_mhz - self.channel_mhz
            )
            total += signal.rx_power_mw * (10.0 ** (-leakage_db / 10.0))
        return total

    def sense_power_dbm(self) -> float:
        """Instantaneous sensed power in dBm."""
        return mw_to_dbm(self.sensed_power_mw())

    def cca_busy(self, threshold_dbm: float) -> bool:
        """Energy-detection CCA: busy when in-channel power > threshold."""
        return self.sense_power_dbm() > threshold_dbm

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(
        self, frame: Frame, on_complete: Callable[[Transmission], None]
    ) -> Transmission:
        """Start transmitting ``frame`` at this radio's channel and power.

        Any in-progress reception is abandoned (half-duplex radio).  The
        radio returns to IDLE and ``on_complete`` fires at end-of-airtime.
        """
        if self.state is RadioState.TX:
            raise RuntimeError(f"radio {self.name!r} is already transmitting")
        if self.state is RadioState.OFF:
            raise RuntimeError(f"radio {self.name!r} is off")
        obs = self.sim.obs
        if self.current_reception is not None:
            if obs is not None:
                obs.on_rx_abort(
                    self.name, self.current_reception.start_time, self.sim.now
                )
            self.current_reception.abort()
            self.current_reception = None
            if self.sim.trace.enabled:
                self.sim.trace.emit("rx_aborted_by_tx", radio=self.name)
        self.state = RadioState.TX
        self.energy.transition("tx", self.sim.now)
        tx_start = self.sim.now

        def _finish(transmission: Transmission) -> None:
            self.state = RadioState.IDLE
            self.energy.transition("idle", self.sim.now)
            if obs is not None:
                obs.on_tx(self.name, tx_start, self.sim.now, frame.frame_id)
            on_complete(transmission)

        return self.medium.begin_transmission(
            self, frame, self.channel_mhz, self.tx_power_dbm, _finish
        )

    # ------------------------------------------------------------------
    # Medium callbacks
    # ------------------------------------------------------------------
    def on_signal_start(self, signal: Signal) -> None:
        channel_mhz = signal.channel_mhz
        decode_gain, sense_gain = self._gains_for(channel_mhz)
        self.start_signal(
            signal, decode_gain, sense_gain, self._lockable(channel_mhz)
        )

    def _maybe_lock(self, signal: Signal) -> None:
        """Lock ladder for a just-added lockable signal.

        The state/sensitivity/SINR checks are pure predicates with no
        observable effects before the first trace emit.
        """
        if self.state is not RadioState.IDLE:
            return
        if signal.rx_power_dbm < self._sensitivity_dbm:
            return
        if self._lock_sinr_db(signal) < self._capture_threshold_db:
            if self._trace.enabled:
                self.sim.trace.emit(
                    "preamble_missed",
                    radio=self.name,
                    frame=signal.frame.frame_id,
                    rssi=round(signal.rx_power_dbm, 2),
                )
            return
        self.current_reception = Reception(self, signal, self._bit_rng())
        if self._trace.enabled:
            self.sim.trace.emit(
                "rx_lock", radio=self.name, frame=signal.frame.frame_id
            )

    def on_signal_end(self, signal: Signal) -> None:
        reception = self.current_reception
        if reception is not None:
            if reception.signal is signal:
                # Close the final segment while the signal still counts as
                # "active minus itself" — remove it afterwards.
                outcome = reception.finalize()
                self.current_reception = None
                self._remove_signal(signal)
                obs = self.sim.obs
                if obs is not None:
                    obs.on_rx(
                        self.name, reception.start_time, self.sim.now,
                        outcome.frame.frame_id, outcome.crc_ok,
                        outcome.rssi_dbm,
                    )
                self._dispatch_reception(outcome)
                return
            # Close the elapsed segment while the ending signal still
            # counts as interference.
            reception.on_interference_change()
        self._remove_signal(signal)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bit_rng(self):
        """This radio's bit-error stream (created on the first lock)."""
        stream = self._bit_stream
        if stream is None:
            stream = self._bit_stream = self._rng.stream(f"biterrors.{self.name}")
        return stream

    def _is_co_channel(self, signal: Signal) -> bool:
        offset = abs(signal.channel_mhz - self.channel_mhz)
        return offset <= self.config.co_channel_tolerance_mhz

    def _lock_sinr_db(self, signal: Signal) -> float:
        # Fast path: at lock time the candidate signal is already in the
        # active list, so a singleton list means the excluded loop would
        # contribute nothing — the interference term is exactly the noise
        # floor (bit-identical to the general path).
        active = self.active_signals
        if (
            len(active) == 1
            and active[0] is signal
            and not self._reference
        ):
            interference_mw = self._noise_mw
        else:
            interference_mw = self.in_channel_power_mw(exclude=signal)
        if interference_mw <= 0.0:
            return 100.0
        # Inlined linear_to_db (same expression, bit for bit): hot.
        return 10.0 * _log10(signal.rx_power_mw / interference_mw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Radio {self.name} ch={self.channel_mhz} MHz "
            f"p={self.tx_power_dbm} dBm {self.state.value}>"
        )
