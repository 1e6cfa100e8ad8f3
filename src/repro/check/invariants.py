"""Runtime invariants: conservation laws the kernel must never break.

Armed either explicitly (``Simulator(checks=InvariantChecker())``) or
ambiently, by an active :class:`~repro.check.runtime.CheckSession` with a
checker (``repro check diff`` arms one on both legs).  Hook points live in
the model layers:

===========================  =============================================
hook                         invariant
===========================  =============================================
``on_event``                 event-time monotonicity: the kernel never
                             dispatches an event scheduled before the
                             current clock; periodically cross-checks the
                             event queue's live-event counter against a
                             full heap scan.
``on_accumulator_update``    the radio's incremental sensing-path power
                             sum is never negative, and every
                             ``resample_every`` updates it is resampled
                             against the brute-force mask re-evaluation,
                             bit for bit (the accumulators are exact by
                             design); the decode-path sum is
                             cross-checked at the same cadence.
``on_frame_complete``        per-transmission bit conservation: a
                             completed frame samples exactly
                             ``round(airtime · bit_rate)`` bits, and
                             ``0 ≤ errored ≤ total`` (delivered + lost
                             bits add up to the frame's on-air length).
``on_adjustor_threshold``    CCA-threshold sanity: never NaN/±inf and
                             never above the strongest co-channel RSSI
                             observed so far minus the safety margin.
===========================  =============================================

A violated invariant raises :class:`InvariantViolation` carrying a
first-divergence report (who, when, expected vs observed) — the checks
are assertions about *model* correctness, so the simulation must die
loudly rather than record a wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "CheckConfig",
    "InvariantChecker",
    "InvariantViolation",
]

#: Slack (dB) for the threshold-vs-strongest-RSSI comparison.
THRESHOLD_SLACK_DB = 1e-9


class InvariantViolation(RuntimeError):
    """A runtime invariant failed; the message is the divergence report."""


@dataclass(frozen=True)
class CheckConfig:
    """Tunables of the invariant layer."""

    #: Brute-force accumulator resample cadence, in accumulator updates
    #: per radio (1 = every update; raise to amortise the O(n·mask)
    #: resample on big rigs).
    resample_every: int = 32
    #: Event-queue live-count audit cadence, in dispatched events.
    queue_audit_every: int = 4096

    def __post_init__(self) -> None:
        if self.resample_every < 1:
            raise ValueError("resample_every must be >= 1")
        if self.queue_audit_every < 1:
            raise ValueError("queue_audit_every must be >= 1")


class InvariantChecker:
    """Stateful hook sink; one instance audits one (or more) simulators.

    The checker is deliberately duck-typed against the model layers (it
    receives radios / receptions / adjustors and reads their public
    state) so this module stays import-light and usable from the
    simulator without cycles.
    """

    def __init__(self, config: Optional[CheckConfig] = None) -> None:
        self.config = config if config is not None else CheckConfig()
        #: Per-invariant pass counters, for reporting.
        self.counters: Dict[str, int] = {
            "events": 0,
            "queue_audits": 0,
            "accumulator_updates": 0,
            "accumulator_resamples": 0,
            "frames": 0,
            "thresholds": 0,
        }
        self._accum_updates: Dict[int, int] = {}
        self._max_rssi: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def on_event(self, event: Any, now: float, queue: Any = None) -> None:
        """Dispatched-event hook: monotonicity + periodic queue audit."""
        self.counters["events"] += 1
        if event.time < now:
            raise InvariantViolation(
                f"event-time monotonicity violated: event "
                f"{event!r} dispatched at clock {now:.9f} s "
                f"({now - event.time:.3e} s in the past)"
            )
        if (
            queue is not None
            and self.counters["events"] % self.config.queue_audit_every == 0
        ):
            self.counters["queue_audits"] += 1
            scanned = queue.scan_live()
            if scanned != len(queue):
                raise InvariantViolation(
                    f"event-queue live counter diverged: counter says "
                    f"{len(queue)} live events, heap scan found {scanned}"
                )

    # ------------------------------------------------------------------
    # PHY hooks
    # ------------------------------------------------------------------
    def on_accumulator_update(self, radio: Any) -> None:
        """Signal add/remove hook: non-negativity + periodic resample.

        The non-negativity check reads the cached sensing-path sum only
        when it holds a value: re-summing a stale one here would give
        checked runs an eager path that unchecked runs never take.
        """
        self.counters["accumulator_updates"] += 1
        sense_sum = radio._sense_sum_mw
        if sense_sum is not None and sense_sum < 0.0:
            raise InvariantViolation(
                f"negative sensing-path accumulator on radio "
                f"{radio.name!r} at t={radio.sim.now:.9f} s: "
                f"{sense_sum!r} mW "
                f"({len(radio.active_signals)} active signals)"
            )
        key = id(radio)
        count = self._accum_updates.get(key, 0) + 1
        self._accum_updates[key] = count
        if count % self.config.resample_every == 0:
            self.resample_radio(radio)

    def resample_radio(self, radio: Any) -> None:
        """Cross-check both power accumulators against brute force now."""
        self.counters["accumulator_resamples"] += 1
        self._compare(
            radio,
            "sensing-path",
            incremental=radio.sensed_power_mw(),
            reference=radio.resample_sense_power_mw(),
        )
        self._compare(
            radio,
            "decode-path",
            incremental=radio.in_channel_power_mw(),
            reference=radio.resample_in_channel_power_mw(),
        )

    def _compare(
        self, radio: Any, label: str, incremental: float, reference: float
    ) -> None:
        if incremental != reference:
            raise InvariantViolation(
                f"{label} accumulator drift on radio {radio.name!r} at "
                f"t={radio.sim.now:.9f} s: incremental "
                f"{incremental!r} mW vs brute-force resample "
                f"{reference!r} mW (difference "
                f"{incremental - reference:.3e} mW; "
                f"{len(radio.active_signals)} active signals) — first "
                f"divergence after "
                f"{self.counters['accumulator_updates']} accumulator "
                f"updates"
            )

    def on_frame_complete(self, reception: Any, outcome: Any) -> None:
        """Finalised-reception hook: per-transmission bit conservation."""
        self.counters["frames"] += 1
        airtime = outcome.end_time - outcome.start_time
        expected = int(round(airtime * reception.bit_rate_bps))
        if outcome.total_bits != expected:
            raise InvariantViolation(
                f"bit conservation violated for frame "
                f"{outcome.frame.frame_id} at radio "
                f"{reception.radio.name!r}: sampled {outcome.total_bits} "
                f"bits but round(airtime·rate) = round({airtime:.9f} s · "
                f"{reception.bit_rate_bps} bps) = {expected}"
            )
        if not (0 <= outcome.errored_bits <= outcome.total_bits):
            raise InvariantViolation(
                f"errored-bit count out of range for frame "
                f"{outcome.frame.frame_id} at radio "
                f"{reception.radio.name!r}: {outcome.errored_bits} of "
                f"{outcome.total_bits} sampled bits"
            )

    # ------------------------------------------------------------------
    # CCA-Adjustor hooks
    # ------------------------------------------------------------------
    def on_adjustor_rssi(self, adjustor: Any, rssi_dbm: float) -> None:
        """Track the strongest co-channel RSSI each adjustor has seen."""
        key = id(adjustor)
        best = self._max_rssi.get(key)
        if best is None or rssi_dbm > best:
            self._max_rssi[key] = rssi_dbm

    def on_adjustor_threshold(self, adjustor: Any, value_dbm: float) -> None:
        """Derived-threshold hook: finiteness + upper-bound sanity."""
        self.counters["thresholds"] += 1
        if math.isnan(value_dbm) or math.isinf(value_dbm):
            raise InvariantViolation(
                f"CCA threshold became non-finite at "
                f"t={adjustor.sim.now:.9f} s: {value_dbm!r} dBm"
            )
        best = self._max_rssi.get(id(adjustor))
        if best is not None:
            ceiling = best - adjustor.config.margin_db
            if value_dbm > ceiling + THRESHOLD_SLACK_DB:
                raise InvariantViolation(
                    f"CCA threshold sanity violated at "
                    f"t={adjustor.sim.now:.9f} s: derived threshold "
                    f"{value_dbm:.6f} dBm exceeds strongest observed "
                    f"co-channel RSSI ({best:.6f} dBm) minus margin "
                    f"({adjustor.config.margin_db:g} dB)"
                )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line pass-count report for CLI output."""
        c = self.counters
        return (
            f"invariants ok: {c['events']} events, "
            f"{c['queue_audits']} queue audits, "
            f"{c['accumulator_resamples']} accumulator resamples "
            f"(of {c['accumulator_updates']} updates), "
            f"{c['frames']} frames, {c['thresholds']} thresholds"
        )
