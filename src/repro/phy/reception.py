"""Per-frame reception bookkeeping: segment SINR -> sampled bit errors.

A :class:`Reception` is created when a radio locks onto a co-channel frame.
The interference environment is piecewise-constant between signal start/end
events, so the reception is tracked as a sequence of *segments*: whenever
the interference changes, the elapsed segment is closed — its SINR is
computed, mapped to a BER, and the number of errored bits in the segment is
drawn from a binomial distribution.  On finalisation the accumulated error
count decides CRC success and yields the error-bit fraction used by the
packet-recovery analysis.
"""

from __future__ import annotations

from math import log10 as _log10
from typing import TYPE_CHECKING, Callable

import numpy as np

from .constants import BIT_RATE_BPS
from .errors import FrameReception
from .medium import Signal
from .modulation import oqpsk_ber

if TYPE_CHECKING:  # pragma: no cover
    from .radio import Radio

__all__ = ["Reception"]

BerModel = Callable[[float], float]


class Reception:
    """Tracks one locked frame at one radio until it completes or aborts."""

    __slots__ = (
        "radio",
        "signal",
        "rng",
        "ber_model",
        "bit_rate_bps",
        "start_time",
        "errored_bits",
        "sampled_bits",
        "_segment_start",
        "_finished",
    )

    def __init__(
        self,
        radio: "Radio",
        signal: Signal,
        rng: np.random.Generator,
        ber_model: BerModel = oqpsk_ber,
        bit_rate_bps: int = BIT_RATE_BPS,
    ) -> None:
        self.radio = radio
        self.signal = signal
        self.rng = rng
        self.ber_model = ber_model
        self.bit_rate_bps = bit_rate_bps
        self.start_time = radio.sim.now
        self.errored_bits = 0
        self.sampled_bits = 0
        self._segment_start = self.start_time
        self._finished = False

    # ------------------------------------------------------------------
    def on_interference_change(self) -> None:
        """The interference environment changed: close the current segment."""
        self._close_segment(self.radio.sim.now)

    def finalize(self) -> FrameReception:
        """The locked signal ended normally: produce the outcome."""
        radio = self.radio
        now = radio.sim.now
        self._close_segment(now)
        self._finished = True
        signal = self.signal
        errored_bits = self.errored_bits
        # Positional field order: frame, rssi_dbm, crc_ok, errored_bits,
        # total_bits, start_time, end_time (kwargs cost on a hot ctor).
        outcome = FrameReception(
            signal.transmission.frame,
            signal.rx_power_dbm,
            errored_bits == 0,
            errored_bits,
            self.sampled_bits,
            self.start_time,
            now,
        )
        checks = radio.sim.checks
        if checks is not None:
            # Bit conservation: a completed frame must have sampled
            # exactly round(airtime * bit_rate) bits.
            checks.on_frame_complete(self, outcome)
        return outcome

    def abort(self) -> None:
        """Reception abandoned (e.g. the radio switched to transmit)."""
        self._finished = True

    # ------------------------------------------------------------------
    def _close_segment(self, now: float) -> None:
        if self._finished:
            return
        segment_start = self._segment_start
        self._segment_start = now
        if now <= segment_start:
            return
        # Account bits against the *frame timeline*, not per segment:
        # rounding each segment independently lets fractional bits drift
        # (over- or under-counting the frame total when interference
        # changes many times mid-frame).  Instead, each segment samples
        # exactly the bits between the rounded cumulative elapsed-bit
        # counts, so the sampled total of a completed frame always equals
        # round(airtime * bit_rate) — the frame's true on-air bit length.
        # round() on a float with no ndigits already returns an int.
        cumulative_bits = round((now - self.start_time) * self.bit_rate_bps)
        n_bits = cumulative_bits - self.sampled_bits
        if n_bits <= 0:
            return
        ber = self.ber_model(self._current_sinr_db())
        self.sampled_bits = cumulative_bits
        if ber > 0.0:
            self.errored_bits += int(self.rng.binomial(n_bits, min(ber, 1.0)))

    def _current_sinr_db(self) -> float:
        radio = self.radio
        signal = self.signal
        # Fast path: the locked signal is always active during reception,
        # so a singleton active list means it *is* the excluded signal and
        # the interference term is exactly the noise floor (the loop in
        # in_channel_power_mw would add nothing) — bit-identical, minus
        # the call and loop overhead on the hottest per-segment probe.
        active = radio.active_signals
        if (
            len(active) == 1
            and active[0] is signal
            and not radio._reference
        ):
            interference_mw = radio._noise_mw
        else:
            interference_mw = radio.in_channel_power_mw(exclude=signal)
        if interference_mw <= 0.0:
            return 100.0
        # Inlined linear_to_db (same expression, bit for bit): hot.
        return 10.0 * _log10(signal.rx_power_mw / interference_mw)
