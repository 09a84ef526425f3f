"""Backlog estimation accuracy and frame adaptation rules."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsasim import estimator
from afsasim.analytic import expected_idle
from afsasim.estimator import (
    COLLISION_TAG_MULTIPLIER,
    auto_seq_bits,
    estimate_backlog,
    estimate_from_counts,
    nearest_power_of_two,
    next_frame,
)
from afsasim.model import MAX_TAGS, FrameConfig, make_population
from afsasim.afsa import run_afsa_round
from afsasim.rng import RngStream

from test_analytic import GRID_SLOTS, GRID_TAGS


def idle_inversion(idle, identified, slots):
    """The idle-inversion rule's value, before the clamp at zero."""
    return math.log(idle / slots) / math.log(1.0 - 1.0 / slots) - identified


def collision_floor(reserved_apparent, detected, identified):
    """The collision-floor rule's value, before the clamp at zero."""
    return COLLISION_TAG_MULTIPLIER * detected + reserved_apparent - identified


def test_all_idle_means_empty_backlog():
    est = estimate_from_counts(8, 0, 0, 0, 8)
    assert est == 0.0
    assert est == idle_inversion(8, 0, 8)


def test_idle_inversion_reference_value():
    est = estimate_from_counts(58, 70, 0, 0, 128)
    assert est == idle_inversion(58, 0, 128)
    assert est == pytest.approx(100.92685742567116, rel=1e-12)


def test_idle_inversion_subtracts_identified():
    base = estimate_from_counts(58, 70, 0, 0, 128)
    est = estimate_from_counts(58, 70, 0, 40, 128)
    assert est == pytest.approx(base - 40, rel=1e-12)


def test_estimate_clamps_at_zero():
    est = estimate_from_counts(58, 70, 0, 200, 128)
    assert est == 0.0


def test_collision_floor_when_no_idle_slot():
    est = estimate_from_counts(0, 5, 10, 5, 15)
    assert est == collision_floor(5, 10, 5)
    assert est == pytest.approx(
        COLLISION_TAG_MULTIPLIER * 10 + 5 - 5, rel=1e-12)


def test_single_slot_frame_uses_direct_count():
    # a one-slot frame has no usable idle statistic even when idle
    est = estimate_from_counts(0, 1, 0, 0, 1)
    assert est == collision_floor(1, 0, 0)
    assert est == 1.0
    # the idle inversion would divide by ln(1 - 1/1) = ln 0 here
    empty = estimate_from_counts(1, 0, 0, 0, 1)
    assert empty == collision_floor(0, 0, 0)
    assert empty == 0.0


def test_estimate_input_validation():
    with pytest.raises(ValueError):
        estimate_from_counts(4, 3, 2, 0, 8)  # counts do not partition the frame
    with pytest.raises(ValueError, match="^idle must be an integer >= 0$"):
        estimate_from_counts(-1, 5, 4, 0, 8)
    with pytest.raises(ValueError, match=r"^slots must be an integer in \[1, 65536\]$"):
        estimate_from_counts(0, 0, 0, 0, 0)
    # fractional counts that sum to the frame would otherwise get an estimate
    with pytest.raises(ValueError, match="^idle must be an integer >= 0$"):
        estimate_from_counts(1.5, 2, 0.5, 0, 4)


@pytest.mark.parametrize("bad", [0.5, True])
@pytest.mark.parametrize("position, field", enumerate(
    ["idle", "reserved_apparent", "detected_collisions", "identified", "slots"]))
def test_estimate_rejects_a_fractional_or_bool_count(position, field, bad):
    counts = [1, 2, 1, 0, 4]
    counts[position] = bad
    bounds = {"slots": r"in \[1, 65536\]", "identified": r"in \[0, 1000000\]"}.get(field, ">= 0")
    with pytest.raises(ValueError, match=f"^{field} must be an integer {bounds}$"):
        estimate_from_counts(*counts)


# A round identifies at most one tag per slot, so `identified` is bounded by
# MAX_TAGS; past the floats, the estimate would raise OverflowError instead.
@pytest.mark.parametrize("counts", [(1, 1, 0, 10**400, 2), (0, 1, 1, 10**400, 2),
                                    (1, 1, 0, MAX_TAGS + 1, 2)],
                         ids=["idle-inversion", "collision-floor", "max-tags-plus-one"])
def test_an_identified_count_past_max_tags_is_refused_by_name(counts):
    with pytest.raises(ValueError, match=rf"^identified must be an integer in \[0, {MAX_TAGS}\]$"):
        estimate_from_counts(*counts)


def test_an_identified_count_of_max_tags_clamps_to_zero():
    assert estimate_from_counts(1, 1, 0, MAX_TAGS, 2) == 0.0
    assert estimate_from_counts(0, 1, 1, MAX_TAGS, 2) == 0.0


@pytest.mark.parametrize("slots", GRID_SLOTS)
def test_the_unchecked_cores_equal_the_public_names_bit_for_bit(slots):
    for idle in sorted({0, 1, slots // 2, slots}):
        for detected in sorted({0, (slots - idle) // 3, slots - idle}):
            reserved = slots - idle - detected
            for identified in sorted({0, reserved // 2, reserved, reserved + 7}):
                counts = (idle, reserved, detected, identified, slots)
                assert (estimator._estimate(*counts).hex()
                        == estimate_from_counts(*counts).hex())
    for k_est in [*GRID_TAGS, float(slots), slots * 4.5]:
        assert estimator._frame_size(k_est) == nearest_power_of_two(k_est)
        assert estimator._seq_bits(k_est, slots) == auto_seq_bits(k_est, slots)
    assert estimator._seq_bits(float(slots), slots) == auto_seq_bits(slots, slots)


def test_estimate_backlog_reads_trace():
    tags = make_population(40)
    trace = run_afsa_round(tags, FrameConfig(32, 2), RngStream(3, 0))
    est = estimate_backlog(trace)
    direct = estimate_from_counts(
        trace.idle_count,
        trace.reserved_true_count + trace.undetected_collision_count,
        trace.detected_collision_count,
        trace.reserved_true_count,
        32,
    )
    assert est == direct


def test_idle_inversion_tracks_true_load_on_expected_rounds():
    """Inverting the rounded expected idle count recovers the true count.

    The idle count is an integer, so at operating points where rounding
    the expectation to the nearest integer already shifts the inverted
    estimate by more than the tolerance, no estimator reading idle slots
    could pass; those points are excluded a priori.
    """
    checked = 0
    for slots in (16, 32, 64, 128, 256, 512):
        log_base = abs(math.log(1.0 - 1.0 / slots))
        for tags in range(0, 2 * slots + 1, 3):
            idle = round(expected_idle(tags, slots))
            if idle < 1:
                continue
            tolerance = 1.5 + 0.02 * tags
            quantization = 0.5 / (idle * log_base)
            if quantization > tolerance:
                continue
            est = estimate_from_counts(idle, slots - idle, 0, 0, slots)
            assert est == pytest.approx(tags, abs=tolerance), (
                f"tags={tags} slots={slots}")
            checked += 1
    assert checked > 300


def test_nearest_power_of_two():
    assert nearest_power_of_two(0.0) == 8
    assert nearest_power_of_two(1) == 8
    assert nearest_power_of_two(8) == 8
    assert nearest_power_of_two(11) == 8
    assert nearest_power_of_two(12) == 16  # equidistant, ties go up
    assert nearest_power_of_two(96) == 128  # equidistant, ties go up
    assert nearest_power_of_two(100) == 128
    assert nearest_power_of_two(767) == 512
    assert nearest_power_of_two(769) == 1024
    assert nearest_power_of_two(5000) == 1024
    for bad in (math.nan, math.inf, -math.inf, -3, "8", None, True):
        with pytest.raises(ValueError, match="^value must be finite and >= 0$"):
            nearest_power_of_two(bad)


def test_next_frame_reference_points():
    empty = next_frame(0.0)
    assert empty == FrameConfig(slots=8, seq_bits=1, participation_divisor=1)

    nominal = next_frame(100.0)
    assert nominal == FrameConfig(slots=128, seq_bits=2, participation_divisor=1)

    flooded = next_frame(10000.0)
    assert flooded.slots == 1024
    assert flooded.participation_divisor == 10

    # rejected before any arithmetic, under either sequence policy
    for bad in (math.nan, math.inf, -math.inf, -5.0, "5", None, True):
        for fixed in (None, 3):
            with pytest.raises(ValueError, match="^k_est must be finite and >= 0$"):
                next_frame(bad, fixed)


def test_divisor_engages_only_beyond_overload():
    at_threshold = next_frame(4.0 * 1024)
    assert at_threshold.participation_divisor == 1
    just_over = next_frame(4.0 * 1024 + 1)
    assert just_over.participation_divisor == 4
    # divisor rounding takes ties up: 4608/1024 = 4.5
    assert next_frame(4608.0).participation_divisor == 5


def test_fixed_seq_bits_policy_pins_length():
    assert next_frame(100.0, 5).seq_bits == 5
    with pytest.raises(ValueError, match="seq_bits"):
        next_frame(100.0, 0)


def test_equal_frames_are_one_object():
    # each distinct frame is built and checked once
    nominal = next_frame(100.0)
    assert next_frame(101.5) is nominal
    pinned = next_frame(100.0, 5)
    assert next_frame(110.0, 5) is pinned


def test_a_cached_frame_admits_no_bool_or_float_length():
    # True == 1 and 2.0 == 2 hash alike, yet neither is a sequence length
    assert next_frame(100.0, 1) == FrameConfig(128, 1)
    assert next_frame(100.0, 2) == FrameConfig(128, 2)
    for bad in (True, 1.0, 2.0):
        with pytest.raises(ValueError, match="seq_bits"):
            next_frame(100.0, bad)


@given(k_est=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       bits=st.none() | st.integers(min_value=1, max_value=16))
@settings(max_examples=200)
def test_next_frame_always_valid(k_est, bits):
    frame = next_frame(k_est, bits)
    assert frame.slots & (frame.slots - 1) == 0
    assert 8 <= frame.slots <= 1024
    assert 1 <= frame.seq_bits <= 16
    assert frame.participation_divisor >= 1
    # the divisor thins expected participation back under the overload knee
    if frame.participation_divisor > 1:
        assert k_est / frame.participation_divisor <= 4.5 * frame.slots


def test_first_round_seq_bits_assume_load_one():
    # the first frame assumes as many tags as slots: two bits for every
    # frame size a config allows, one for a one-slot frame
    assert [slots for slots in range(2, 65537) if auto_seq_bits(slots, slots) != 2] == []
    assert auto_seq_bits(1, 1) == 1
    assert auto_seq_bits(100.0, 128) == 2
    # the backlog is at fault, by the name this function gives it
    for bad in (math.nan, -1.0, "8", None, True):
        with pytest.raises(ValueError, match="^k_est must be finite and >= 0$"):
            auto_seq_bits(bad, 8)
    # the frame size is at fault, whatever the type
    for bad in (0, math.nan, math.inf, 2.5, "8", True):
        with pytest.raises(ValueError, match=r"^slots must be an integer in \[1, 65536\]$"):
            auto_seq_bits(1.0, bad)
