"""Closed-form expectations against independent enumeration and MC oracles."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsasim import analytic
from afsasim.analytic import (
    expected_idle,
    expected_per_tag_us,
    expected_reserved,
    expected_successful,
    expected_undetected,
    expected_undetected_exact,
    expected_unresolved,
    optimal_seq_len,
    phase_durations_for,
    round_duration,
    slot_profile,
)
from afsasim.estimator import nearest_power_of_two
from afsasim.experiment import MAX_FRAME_SLOTS, MAX_TAGS
from afsasim.model import TimingModel

from oracles import enum_slot_stats, enum_undetected, exact_undetected, mc_slot_means

SMALL_CELLS = [(k, n) for k in range(0, 5) for n in range(1, 5)]


@pytest.mark.parametrize("tags,slots", SMALL_CELLS)
def test_slot_expectations_match_enumeration(tags, slots):
    reserved, idle, unresolved = enum_slot_stats(tags, slots)
    assert expected_reserved(tags, slots) == pytest.approx(float(reserved), abs=1e-12)
    assert expected_idle(tags, slots) == pytest.approx(float(idle), abs=1e-12)
    assert expected_unresolved(tags, slots) == pytest.approx(float(unresolved), abs=1e-12)


def test_two_tags_two_slots_exact():
    # both outcomes fit in a float exactly: reserved 1, idle 1/2, unresolved 1/2
    assert expected_reserved(2, 2) == 1.0
    assert expected_idle(2, 2) == 0.5
    assert expected_unresolved(2, 2) == 0.5


def test_reference_operating_point_frozen():
    assert expected_reserved(100, 128) == pytest.approx(46.00249422706087, rel=1e-12)
    assert expected_idle(100, 128) == pytest.approx(58.423167668367306, rel=1e-12)
    assert expected_unresolved(100, 128) == pytest.approx(23.574338104571815, rel=1e-12)
    assert expected_undetected(100, 128, 2) == pytest.approx(5.893584526142954, rel=1e-12)
    assert expected_successful(100, 128, 2) == pytest.approx(51.896078753203824, rel=1e-12)


def test_slot_expectations_match_monte_carlo():
    reserved, idle, unresolved = mc_slot_means(100, 128, rounds=200_000, seed=424242)
    assert reserved == pytest.approx(expected_reserved(100, 128), rel=0.005)
    assert idle == pytest.approx(expected_idle(100, 128), rel=0.005)
    assert unresolved == pytest.approx(expected_unresolved(100, 128), rel=0.005)


def test_empty_and_single_populations():
    assert expected_reserved(0, 16) == 0.0
    assert expected_idle(0, 16) == 16.0
    assert expected_unresolved(0, 16) == 0.0
    assert expected_reserved(1, 1) == 1.0
    assert expected_reserved(2, 1) == 0.0
    assert expected_idle(2, 1) == 0.0
    assert expected_unresolved(2, 1) == 1.0


def test_fractional_tags_accepted():
    # the adaptation path evaluates these at real-valued backlog estimates
    mid = expected_unresolved(54.3, 64)
    assert expected_unresolved(54, 64) < mid < expected_unresolved(55, 64)


@pytest.mark.parametrize("bad", [(-1, 4), (2, 0), (2, -3), (math.nan, 4), (math.inf, 4),
                                 (2, 2.5), (2, True), ("5", 4), (None, 4), (True, 4)])
def test_argument_validation(bad):
    tags, slots = bad
    for fn in (expected_reserved, expected_idle, expected_unresolved,
               lambda tags, slots: slot_profile(tags, slots, 2),
               lambda tags, slots: expected_undetected_exact(tags, slots, 2)):
        with pytest.raises(ValueError, match="slots" if tags == 2 else
                           r"^tags must be finite and >= 0$"):
            fn(tags, slots)


@given(tags=st.integers(min_value=0, max_value=2000),
       slots=st.integers(min_value=1, max_value=1024))
def test_slot_kinds_conserve_frame(tags, slots):
    total = (expected_reserved(tags, slots) + expected_idle(tags, slots)
             + expected_unresolved(tags, slots))
    assert total == pytest.approx(slots, rel=1e-9)


def test_unresolved_monotone_in_tags():
    values = [expected_unresolved(k, 64) for k in range(0, 300)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("tags,slots,bits", [
    (2, 2, 1), (3, 2, 1), (2, 3, 2), (3, 3, 1), (4, 2, 2), (4, 4, 2),
])
def test_exact_undetected_matches_enumeration(tags, slots, bits):
    oracle = enum_undetected(tags, slots, bits)
    assert expected_undetected_exact(tags, slots, bits) == pytest.approx(
        float(oracle), abs=1e-12)


def test_exact_undetected_two_tags_equals_flat_model():
    # with at most two occupants the flat per-slot probability is exact
    for slots in (2, 8, 64):
        for bits in (1, 2, 4):
            assert expected_undetected_exact(2, slots, bits) == pytest.approx(
                expected_undetected(2, slots, bits), rel=1e-12)


def test_flat_model_overestimates_with_crowded_slots():
    # 3+ occupants agree with probability 2**(-2n), not 2**(-n)
    for bits in range(1, 7):
        exact = expected_undetected_exact(100, 64, bits)
        flat = expected_undetected(100, 64, bits)
        assert exact < flat


def test_exact_undetected_frozen_values():
    assert expected_undetected_exact(100, 128, 2) == pytest.approx(
        4.7850694585893185, rel=1e-12)
    assert expected_undetected_exact(100, 64, 2) == pytest.approx(
        4.722722828551212, rel=1e-12)


def test_exact_undetected_edge_cases():
    assert expected_undetected_exact(0, 8, 2) == 0.0
    assert expected_undetected_exact(1, 8, 2) == 0.0
    # one slot, all tags collide there
    assert expected_undetected_exact(3, 1, 2) == pytest.approx(2.0 ** -4, rel=1e-12)
    # a real backlog lies between its integer neighbours
    assert (expected_undetected_exact(2, 8, 2) < expected_undetected_exact(2.5, 8, 2)
            < expected_undetected_exact(3, 8, 2))
    assert expected_undetected_exact(2.5, 1, 2) == 2.0 ** -3
    assert expected_undetected_exact(1.5, 8, 2) == 0.0


def _assert_matches_exact_sum(tags, slots, bits):
    exact = float(exact_undetected(tags, slots, bits))
    value = expected_undetected_exact(tags, slots, bits)
    if exact >= 1e-3:
        assert value == pytest.approx(exact, rel=1e-10)
    elif exact >= 1e-6:
        assert value == pytest.approx(exact, rel=1e-8)
    else:
        assert value == pytest.approx(exact, abs=1e-12)


@given(tags=st.integers(min_value=0, max_value=200),
       slots=st.integers(min_value=1, max_value=1024),
       bits=st.integers(min_value=1, max_value=16))
@settings(max_examples=150, deadline=None)
def test_exact_undetected_matches_the_occupancy_sum(tags, slots, bits):
    _assert_matches_exact_sum(tags, slots, bits)


@pytest.mark.parametrize("tags,slots,bits", [
    (0, 1, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2), (50, 1, 1), (50, 1, 16), (1000, 1024, 2),
])
def test_exact_undetected_matches_the_occupancy_sum_at_fixed_cells(tags, slots, bits):
    _assert_matches_exact_sum(tags, slots, bits)


@pytest.mark.parametrize("tags,slots,bits", [(300, 1024, 16), (150, 65536, 16)])
def test_exact_undetected_keeps_precision_where_the_bracket_cancels(tags, slots, bits):
    # kr < 1e-4, where expm1(k log1p r) - kr alone loses 1e-10 and 1.5e-9 here
    assert expected_undetected_exact(tags, slots, bits) == pytest.approx(
        float(exact_undetected(tags, slots, bits)), rel=1e-12)


@pytest.mark.parametrize("slots", [1, 2, 8, 1024, 65536])
def test_exact_undetected_is_finite_at_max_tags(slots):
    # (1 + r)^k overflows a float here for N = 2
    for bits in (1, 2, 16):
        value = expected_undetected_exact(MAX_TAGS, slots, bits)
        assert math.isfinite(value) and value >= 0.0


@given(tags=st.floats(min_value=0.0, max_value=MAX_TAGS),
       slots=st.integers(min_value=1, max_value=MAX_FRAME_SLOTS),
       bits=st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_exact_undetected_is_finite_and_nonnegative(tags, slots, bits):
    value = expected_undetected_exact(tags, slots, bits)
    assert math.isfinite(value) and value >= 0.0


@given(tags=st.integers(min_value=0, max_value=200),
       slots=st.integers(min_value=2, max_value=1024),
       bits=st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_exact_undetected_is_continuous_in_real_tags(tags, slots, bits):
    # one slot is left out: there the value moves by bits * ln 2 per tag
    assert expected_undetected_exact(tags + 1e-7, slots, bits) == pytest.approx(
        expected_undetected_exact(tags, slots, bits), rel=1e-6)


def test_undetected_rejects_zero_seq_bits():
    with pytest.raises(ValueError):
        expected_undetected(100, 128, 0)


def test_slot_profile_bundles_consistently():
    profile = slot_profile(100, 128, 2)
    assert profile.e_reserved == expected_reserved(100, 128)
    assert profile.e_idle == expected_idle(100, 128)
    assert profile.e_unresolved == expected_unresolved(100, 128)
    assert profile.e_undetected == expected_undetected(100, 128, 2)
    assert profile.s_expected == profile.e_reserved + profile.e_undetected


# tags 0, fractional loads below one tag, and slots from 1 to 65 536
GRID_TAGS = [0, 0.25, 0.5, 0.999, 1, 1.5, 2, 3, 7.3, 54.3, 100, 1000, 5000.5, 100_000]
GRID_SLOTS = [*range(1, 18), 31, 32, 33, 100, 127, 128, 129, 1000, 1023, 1024, 1025,
              4097, 65535, 65536]


def bit_pattern(values):
    """Each float of `values` by its exact bits, so 0.0 and -0.0 differ too."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("slots", GRID_SLOTS)
def test_the_unchecked_cores_equal_the_public_names_bit_for_bit(slots):
    for tags in GRID_TAGS:
        occupancy = analytic._occupancy(tags, slots)
        assert bit_pattern(occupancy) == bit_pattern([
            expected_idle(tags, slots), expected_reserved(tags, slots),
            expected_unresolved(tags, slots)])
        e_unresolved = occupancy[2]
        assert bit_pattern(analytic._seq_len(e_unresolved, slots)) == bit_pattern(
            optimal_seq_len(e_unresolved, slots))
        for bits in range(1, 17):
            assert bit_pattern(slot_profile(tags, slots, bits)) == bit_pattern([
                occupancy[1], occupancy[0], e_unresolved,
                expected_undetected(tags, slots, bits), expected_successful(tags, slots, bits)])


def test_optimal_seq_len_reference_points():
    at_reference = optimal_seq_len(expected_unresolved(100, 128), 128)
    assert at_reference.raw == pytest.approx(1.816, abs=1e-3)
    assert at_reference.rounded == 2
    quarter_load = optimal_seq_len(0.25 * 128, 128)
    assert quarter_load.raw == pytest.approx(2.256, abs=1e-3)
    assert quarter_load.rounded == 2


def test_optimal_seq_len_floor_at_light_load():
    # argument at or below one: raw collapses to zero, usable length to one bit
    choice = optimal_seq_len(0.01, 64)
    assert choice.raw == 0.0
    assert choice.rounded == 1
    assert optimal_seq_len(0.0, 8) == (0.0, 1)


def test_optimal_seq_len_rounds_half_up(monkeypatch):
    # log10(arg) == 1 exactly, so raw is exactly 2.5; half-way goes up
    monkeypatch.setattr(analytic, "SEQ_LOG_COEFF", 2.5)
    monkeypatch.setattr(analytic, "SEQ_ARG_COEFF", 10.0)
    choice = optimal_seq_len(64.0, 64)
    assert choice.raw == 2.5
    assert choice.rounded == 3


def test_optimal_seq_len_validation():
    with pytest.raises(ValueError):
        optimal_seq_len(-0.1, 64)
    # nan would otherwise pass as a plausible one bit
    for bad in (math.nan, math.inf, -math.inf, "8", None, True):
        with pytest.raises(ValueError, match="^e_unresolved must be finite and >= 0$"):
            optimal_seq_len(bad, 8)
    with pytest.raises(ValueError):
        optimal_seq_len(1.0, 0)


@pytest.mark.parametrize("slots", [2.5, True])
def test_optimal_seq_len_rejects_a_fractional_or_bool_frame(slots):
    # either would otherwise get a plausible length (6 and 8 bits)
    with pytest.raises(ValueError, match="^slots must be an integer"):
        optimal_seq_len(10, slots)


def test_chosen_lengths_stay_small_across_loads():
    # frame adaptation keeps load near one, where 2 or 3 bits suffice
    seen = set()
    for tags in range(16, 1025):
        slots = nearest_power_of_two(tags)
        seen.add(optimal_seq_len(expected_unresolved(tags, slots), slots).rounded)
    assert seen == {2, 3}


def test_phase_durations_reference_cell():
    phases = phase_durations_for(51.896078753203824, 128, 2, TimingModel())
    assert phases.t_ad == 200.0
    assert phases.t_r == 12.5 * 128 * 2
    assert phases.t_su == 12.5 * 128
    assert phases.t_d == pytest.approx(320.0 * 51.896078753203824, rel=1e-12)
    assert phases.t_ack == pytest.approx(12.5 * 51.896078753203824, rel=1e-12)


def test_phase_durations_validation():
    with pytest.raises(ValueError):
        phase_durations_for(-0.5, 8, 2)
    with pytest.raises(ValueError):
        phase_durations_for(9, 8, 2)
    # a count of successes is a number
    for bad in ("1", None):
        with pytest.raises(ValueError, match=r"^successes must be in \[0, slots\]$"):
            phase_durations_for(bad, 8, 2)
    with pytest.raises(ValueError):
        phase_durations_for(1, 8, 0)
    # counts of slots and bits are integers; bool is no count
    for slots, bits in ((8.5, 2), (True, 2), (8, 2.5), (8, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            phase_durations_for(1, slots, bits)
    with pytest.raises(ValueError, match="seq_bits must be an integer"):
        expected_undetected(10, 64, 2.5)


@given(successes=st.floats(min_value=0, max_value=64),
       bits=st.integers(min_value=1, max_value=16))
@settings(max_examples=50)
def test_round_time_grows_with_successes(successes, bits):
    lighter = phase_durations_for(successes * 0.5, 64, bits).total
    heavier = phase_durations_for(successes, 64, bits).total
    assert lighter <= heavier


def test_round_duration_frozen_values():
    # two tags in four slots: S = 1.5625 and every term is binary-exact
    assert round_duration(2, 4, 2) == 869.53125
    assert round_duration(100, 128, 2) == pytest.approx(22255.446185440273, rel=1e-12)
    assert round_duration(0, 4, 2) == 350.0


def test_expected_per_tag_reference():
    assert expected_per_tag_us(100, 128, 2) == pytest.approx(
        483.78781540824696, rel=1e-12)
    with pytest.raises(ValueError):
        expected_per_tag_us(0, 128, 2)
