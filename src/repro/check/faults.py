"""Test-only fault injection for proving the invariant layer works.

A correctness layer that has never caught anything is indistinguishable
from one that cannot.  These helpers deliberately corrupt kernel state
the way a real regression would (drifting accumulator, sign error,
mis-stamped event) so tests — and the CI ``check`` job's unit suite —
can assert that :class:`~repro.check.invariants.InvariantChecker`
raises with a useful first-divergence report.

**Never call these outside tests.**  They reach into private state by
design.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "corrupt_sense_accumulator",
    "negate_sense_accumulator",
    "corrupt_bit_counter",
]


def corrupt_sense_accumulator(radio: Any, extra_mw: float) -> None:
    """Inject drift into the radio's incremental sensing-path sum.

    Mimics the class of bug the resample invariant exists for: an
    incremental update applied twice / with the wrong gain, leaving the
    running sum out of step with the active-signal list.  A stale sum is
    brought up to date first, so the drift survives into the next read.
    """
    radio._sense_sum_mw = radio._sense_sum() + extra_mw


def negate_sense_accumulator(radio: Any) -> None:
    """Flip the accumulator's sign (caught by the non-negativity check
    as soon as the sum is non-zero), bringing a stale sum up to date
    first."""
    radio._sense_sum_mw = -abs(radio._sense_sum())


def corrupt_bit_counter(reception: Any, extra_bits: int) -> None:
    """Skew a live reception's sampled-bit counter.

    Mimics a segment-accounting regression (the pre-PR-2 per-segment
    rounding drift); caught by the bit-conservation invariant when the
    frame finalises.
    """
    reception.sampled_bits += extra_bits
