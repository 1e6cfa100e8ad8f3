"""Unit tests and properties for spectral masks."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.mask import (
    CC2420_LEAKAGE_POINTS,
    CCA_LEAKAGE_POINTS,
    PerfectOrthogonalMask,
    PiecewiseLinearMask,
    ShiftedMask,
    default_cca_mask,
    default_mask,
)
from repro.dot11.phy11b import dot11b_mask
from repro.phy.fading import NoFading
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def test_default_mask_anchor_points():
    mask = default_mask()
    for freq, atten in CC2420_LEAKAGE_POINTS:
        assert mask.leakage_db(freq) == pytest.approx(atten)


def test_mask_symmetric_in_offset():
    mask = default_mask()
    for df in (0.5, 1.0, 2.5, 4.0, 7.7):
        assert mask.leakage_db(df) == pytest.approx(mask.leakage_db(-df))


def test_mask_interpolates():
    mask = PiecewiseLinearMask([(0.0, 0.0), (2.0, 10.0)], max_db=40.0)
    assert mask.leakage_db(1.0) == pytest.approx(5.0)


def test_mask_extends_beyond_last_point_with_cap():
    mask = PiecewiseLinearMask([(0.0, 0.0), (1.0, 10.0)], max_db=25.0)
    # continues at 10 dB/MHz until the cap
    assert mask.leakage_db(2.0) == pytest.approx(20.0)
    assert mask.leakage_db(10.0) == pytest.approx(25.0)


def test_mask_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearMask([])
    with pytest.raises(ValueError):
        PiecewiseLinearMask([(1.0, 0.0)])  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseLinearMask([(0.0, 0.0), (0.0, 1.0)])  # not increasing
    with pytest.raises(ValueError):
        PiecewiseLinearMask([(0.0, 5.0), (1.0, 1.0)])  # decreasing atten
    with pytest.raises(ValueError):
        PiecewiseLinearMask([(0.0, 0.0), (1.0, 10.0)], max_db=5.0)


def test_attenuated_power():
    mask = default_mask()
    assert mask.attenuated_power_dbm(-50.0, 0.0) == pytest.approx(-50.0)
    assert mask.attenuated_power_dbm(-50.0, 3.0) == pytest.approx(
        -50.0 - mask.leakage_db(3.0)
    )


def test_perfect_orthogonal_mask():
    mask = PerfectOrthogonalMask()
    assert mask.leakage_db(0.0) == 0.0
    assert mask.leakage_db(0.2) == 0.0
    assert mask.leakage_db(1.0) == mask.max_db


def test_shifted_mask_adds_rejection_off_channel_only():
    base = default_mask()
    shifted = ShiftedMask(base, extra_db=5.0, from_mhz=0.75)
    assert shifted.leakage_db(0.0) == base.leakage_db(0.0)
    assert shifted.leakage_db(0.5) == base.leakage_db(0.5)
    assert shifted.leakage_db(3.0) == pytest.approx(base.leakage_db(3.0) + 5.0)


def test_default_cca_mask_is_sharper_than_decode():
    decode = default_mask()
    sensing = default_cca_mask()
    assert sensing.leakage_db(0.0) == pytest.approx(0.0)
    for df in (2.0, 3.0, 5.0, 9.0):
        assert sensing.leakage_db(df) > decode.leakage_db(df)


def test_default_cca_mask_for_custom_base_uses_shift():
    base = PiecewiseLinearMask([(0.0, 0.0), (5.0, 10.0)], max_db=30.0)
    sensing = default_cca_mask(base)
    assert isinstance(sensing, ShiftedMask)
    assert sensing.leakage_db(5.0) == pytest.approx(15.0)


def test_cca_anchor_points():
    sensing = default_cca_mask()
    for freq, atten in CCA_LEAKAGE_POINTS:
        assert sensing.leakage_db(freq) == pytest.approx(atten)


@given(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.0, max_value=30.0))
def test_default_mask_monotone(df1, df2):
    mask = default_mask()
    if df1 <= df2:
        assert mask.leakage_db(df1) <= mask.leakage_db(df2) + 1e-9


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_leakage_never_negative_or_above_cap(df):
    mask = default_mask()
    value = mask.leakage_db(df)
    assert 0.0 <= value <= mask.max_db


# ----------------------------------------------------------------------
# Property tests over *arbitrary* valid masks (not just the calibrated
# default): any PiecewiseLinearMask must be symmetric in the sign of the
# offset, monotone non-decreasing in |delta_f|, and capped at max_db.

@st.composite
def piecewise_masks(draw):
    """Generate a valid PiecewiseLinearMask (constructor invariants hold)."""
    n_points = draw(st.integers(min_value=1, max_value=6))
    freq_steps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n_points - 1, max_size=n_points - 1,
        )
    )
    atten_steps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n_points - 1, max_size=n_points - 1,
        )
    )
    first_atten = draw(
        st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
    )
    points = [(0.0, first_atten)]
    freq, atten = 0.0, first_atten
    for df, da in zip(freq_steps, atten_steps):
        freq += df
        atten += da
        points.append((freq, atten))
    headroom = draw(
        st.floats(min_value=0.0, max_value=40.0,
                  allow_nan=False, allow_infinity=False)
    )
    return PiecewiseLinearMask(points, max_db=points[-1][1] + headroom)


@given(piecewise_masks(), st.floats(min_value=-50.0, max_value=50.0,
                                    allow_nan=False, allow_infinity=False))
def test_arbitrary_mask_symmetric(mask, df):
    assert mask.leakage_db(df) == mask.leakage_db(-df)


@given(piecewise_masks(),
       st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_arbitrary_mask_monotone_in_abs_offset(mask, df1, df2):
    lo, hi = sorted((abs(df1), abs(df2)))
    assert mask.leakage_db(lo) <= mask.leakage_db(hi) + 1e-9


@given(piecewise_masks(), st.floats(min_value=-200.0, max_value=200.0,
                                    allow_nan=False, allow_infinity=False))
def test_arbitrary_mask_bounded(mask, df):
    value = mask.leakage_db(df)
    assert 0.0 <= value <= mask.max_db + 1e-9


# ----------------------------------------------------------------------
# Default radios share one immutable decode mask and one CCA mask.

def _radios(n, **kwargs):
    sim = Simulator()
    medium = Medium(sim, FixedRssMatrix(), fading=NoFading(), rng=RngStreams(1))
    return [
        Radio(sim, medium, f"r{i}", (float(i), 0.0), 2460.0, 0.0, **kwargs)
        for i in range(n)
    ]


def test_default_radios_share_one_mask_pair():
    first, second = _radios(2)
    assert first.mask is second.mask is default_mask()
    assert first.cca_mask is second.cca_mask is default_cca_mask()


def test_shared_cca_mask_matches_a_fresh_one_bit_for_bit():
    shared = _radios(1)[0].cca_mask
    fresh = PiecewiseLinearMask(CCA_LEAKAGE_POINTS, max_db=66.0)
    grid = [i * 0.05 - 25.0 for i in range(1001)]
    assert [shared.leakage_db(df) for df in grid] == [
        fresh.leakage_db(df) for df in grid
    ]


def test_equal_but_distinct_decode_mask_gets_the_shared_cca_mask():
    equal = PiecewiseLinearMask(CC2420_LEAKAGE_POINTS, max_db=60.0)
    assert default_cca_mask(equal) is default_cca_mask()


def test_custom_decode_mask_gets_its_own_shifted_cca_mask():
    first, second = _radios(2, mask=dot11b_mask())
    for radio in (first, second):
        assert isinstance(radio.cca_mask, ShiftedMask)
        assert radio.cca_mask.base is radio.mask
    assert first.cca_mask is not second.cca_mask
