"""802.15.4 PHY and CC2420/MicaZ hardware constants.

Values are taken from the IEEE 802.15.4-2003 2.4 GHz PHY and the Chipcon
CC2420 datasheet — the radio used by the MicaZ motes in the paper's testbed.
"""

from __future__ import annotations

from .. import sim

__all__ = [
    "BIT_RATE_BPS",
    "SYMBOL_RATE_SPS",
    "SYMBOL_PERIOD_S",
    "BITS_PER_SYMBOL",
    "PREAMBLE_BYTES",
    "SFD_BYTES",
    "LENGTH_FIELD_BYTES",
    "PHY_HEADER_BYTES",
    "MHR_BYTES",
    "FCS_BYTES",
    "MAX_MPDU_BYTES",
    "UNIT_BACKOFF_PERIOD_S",
    "CCA_DURATION_S",
    "TURNAROUND_TIME_S",
    "DEFAULT_CCA_THRESHOLD_DBM",
    "RX_SENSITIVITY_DBM",
    "NOISE_FLOOR_DBM",
    "NOISE_BANDWIDTH_MHZ",
    "CHANNEL_SPACING_MHZ",
    "CHANNEL_11_MHZ",
    "NUM_CHANNELS",
    "MAX_TX_POWER_DBM",
    "MIN_TX_POWER_DBM",
    "CC2420_PA_LEVELS",
    "channel_center_mhz",
    "pa_level_for_power",
]

# ---------------------------------------------------------------------------
# 2.4 GHz O-QPSK PHY timing
# ---------------------------------------------------------------------------
#: Raw data rate of the 2.4 GHz PHY.
BIT_RATE_BPS = 250_000
#: 62.5 ksymbols/s; each symbol carries 4 bits.
SYMBOL_RATE_SPS = 62_500
BITS_PER_SYMBOL = 4
SYMBOL_PERIOD_S = 1.0 / SYMBOL_RATE_SPS  # 16 us

# ---------------------------------------------------------------------------
# Frame overheads (bytes)
# ---------------------------------------------------------------------------
PREAMBLE_BYTES = 4
SFD_BYTES = 1
LENGTH_FIELD_BYTES = 1
#: Synchronisation header + PHY header: sent before the MPDU.
PHY_HEADER_BYTES = PREAMBLE_BYTES + SFD_BYTES + LENGTH_FIELD_BYTES
#: Typical data-frame MAC header (FCF 2 + seq 1 + PAN 2 + dst 2 + src 2 = 9;
#: TinyOS AM adds a couple more — 11 matches common MicaZ configurations).
MHR_BYTES = 11
#: CRC-16 frame check sequence.
FCS_BYTES = 2
#: Maximum MPDU (aMaxPHYPacketSize).
MAX_MPDU_BYTES = 127

# ---------------------------------------------------------------------------
# MAC/PHY timing primitives (in seconds)
# ---------------------------------------------------------------------------
#: aUnitBackoffPeriod = 20 symbols.
UNIT_BACKOFF_PERIOD_S = 20 * SYMBOL_PERIOD_S  # 320 us
#: CCA measurement time = 8 symbols.
CCA_DURATION_S = 8 * SYMBOL_PERIOD_S  # 128 us
#: aTurnaroundTime (RX<->TX) = 12 symbols.
TURNAROUND_TIME_S = 12 * SYMBOL_PERIOD_S  # 192 us

# ---------------------------------------------------------------------------
# CC2420 radio characteristics
# ---------------------------------------------------------------------------
#: Default energy-detection CCA threshold (the paper's "fixed at -77 dBm").
DEFAULT_CCA_THRESHOLD_DBM = -77.0
#: Receiver sensitivity (datasheet typical: -94 dBm).
RX_SENSITIVITY_DBM = -94.0
#: Effective noise floor: thermal noise over ~2 MHz plus ~11 dB noise figure.
NOISE_FLOOR_DBM = -100.0
#: Receiver noise bandwidth used for SINR bookkeeping.
NOISE_BANDWIDTH_MHZ = 2.0

#: 802.15.4 channel grid: channel k (11..26) sits at 2405 + 5 (k - 11) MHz.
CHANNEL_SPACING_MHZ = 5.0
CHANNEL_11_MHZ = 2405.0
NUM_CHANNELS = 16

MAX_TX_POWER_DBM = 0.0
MIN_TX_POWER_DBM = -33.0

#: CC2420 PA_LEVEL register settings -> nominal output power (dBm).
CC2420_PA_LEVELS = {
    31: 0.0,
    27: -1.0,
    23: -3.0,
    19: -5.0,
    15: -7.0,
    11: -10.0,
    7: -15.0,
    3: -25.0,
}


def channel_center_mhz(channel: int) -> float:
    """Centre frequency of IEEE 802.15.4 channel ``channel`` (11-26)."""
    if not 11 <= channel <= 26:
        raise ValueError(f"802.15.4 channel must be in 11..26, got {channel}")
    return CHANNEL_11_MHZ + CHANNEL_SPACING_MHZ * (channel - 11)


def pa_level_for_power(power_dbm: float) -> int:
    """Smallest CC2420 PA level whose nominal power is >= ``power_dbm``.

    The testbed sets power through the PA register; experiments in the paper
    quote the resulting dBm values.  We accept arbitrary dBm in the model but
    expose this helper for hardware-faithful configurations.
    """
    if power_dbm > MAX_TX_POWER_DBM:
        raise ValueError(f"CC2420 cannot exceed {MAX_TX_POWER_DBM} dBm")
    candidates = [
        (level, dbm) for level, dbm in CC2420_PA_LEVELS.items() if dbm >= power_dbm
    ]
    level, _ = min(candidates, key=lambda pair: pair[1])
    return level


# Re-exported for convenience: power helpers live in repro.sim.units.
dbm_to_mw = sim.dbm_to_mw
mw_to_dbm = sim.mw_to_dbm
