"""Domain type validation, the round-trace gate, and the reference slot check."""
import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from afsasim.analytic import (
    expected_idle,
    expected_undetected_exact,
    optimal_seq_len,
    phase_durations_for,
    slot_profile,
)
from afsasim.baselines import edfsa_plan, run_edfsa_inventory, run_fsa_round
from afsasim.estimator import (
    auto_seq_bits,
    estimate_from_counts,
    nearest_power_of_two,
    next_frame,
)
from afsasim.model import (
    MAX_FRAME_SLOTS,
    MAX_TAGS,
    TIMING,
    FrameConfig,
    RoundTrace,
    Tag,
    TimingModel,
    active_count,
    check_nonnegative,
    is_real,
    make_population,
)

from oracles import (
    DETECTED_COLLISION,
    IDLE,
    RESERVED_APPARENT,
    ScriptedStream,
    SlotObservation,
    check_round_trace,
    check_slot_observation,
)


def test_default_timing_derived_quantities():
    tm = TimingModel()
    # 80 payload bits at 4 us per bit
    assert tm.data_slot_us == 320.0
    assert tm.advert_us == 200.0


def test_the_air_interface_is_a_constant():
    tm = TimingModel()
    assert (tm.tag_bit_time_us, tm.reader_bit_time_us, tm.epc_bits, tm.crc_bits,
            tm.advert_bits, tm.data_slot_us, tm.advert_us) == (4.0, 12.5, 64, 16, 16, 320.0, 200.0)
    with pytest.raises(AttributeError):
        TIMING.epc_bits = 96
    with pytest.raises(TypeError):
        TimingModel(4.0)
    # bench/gate.py passes `TimingModel()`; it must time rounds as the default does
    for successes, slots, seq_bits in [(0, 1, 1), (3, 8, 2), (51.9, 128, 2), (1024, 1024, 16)]:
        assert (phase_durations_for(successes, slots, seq_bits, TimingModel())
                == phase_durations_for(successes, slots, seq_bits))


def test_frame_config_accepts_valid():
    f = FrameConfig(slots=128, seq_bits=2)
    assert f.participation_divisor == 1


def test_frame_config_collects_every_problem():
    with pytest.raises(ValueError) as err:
        FrameConfig(slots=0, seq_bits=17, participation_divisor=0)
    assert str(err.value) == ("slots must be >= 1; seq_bits must be in [1, 16]; "
                              "participation_divisor must be >= 1")
    # a float or bool would otherwise fail deep in a kernel, or run silently
    with pytest.raises(ValueError) as err:
        FrameConfig(slots=2.5, seq_bits=True, participation_divisor=1.5)
    assert str(err.value) == ("slots must be an integer; seq_bits must be an integer; "
                              "participation_divisor must be an integer")


@pytest.mark.parametrize("record, field, value", [
    (FrameConfig(8, 2), "slots", 0),
    (FrameConfig(8, 2), "seq_bits", 2.5),
    (FrameConfig(8, 2), "participation_divisor", True),
])
def test_replace_and_make_validate_as_the_constructor_does(record, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        record._replace(**{field: value})
    fields = record._asdict()
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        type(record)._make(fields.values())


def test_replacing_a_field_keeps_the_type_and_the_rest():
    frame = FrameConfig(8, 2)._replace(participation_divisor=3)
    assert type(frame) is FrameConfig
    assert frame == FrameConfig(slots=8, seq_bits=2, participation_divisor=3)


def test_equal_frames_are_equal_and_hash_equal():
    # the next-frame memo is checked against the uncached decision by this
    a, b = FrameConfig(128, 2), FrameConfig(slots=128, seq_bits=2, participation_divisor=1)
    assert a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert FrameConfig(128, 2) != FrameConfig(128, 3)
    assert FrameConfig(128, 2) != FrameConfig(128, 2, 2)


def test_records_are_immutable():
    for record in (FrameConfig(8, 2), _sample_trace()):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_tags_compare_by_fields_and_are_unhashable():
    assert Tag(3) == Tag(epc=3, identified=False)
    assert Tag(3) != Tag(3, True) and Tag(3) != Tag(4)
    assert Tag(3) != 3
    assert repr(Tag(3, True)) == "Tag(epc=3, identified=True)"
    with pytest.raises(TypeError):
        hash(Tag(3))
    # whether a tag is present is the churn's business, not the tag's
    with pytest.raises(TypeError):
        Tag(3, present=False)
    with pytest.raises(AttributeError):
        Tag(3).extra = 1


@pytest.mark.parametrize("slots,bits", [(0, 2), (4, 0), (4, 17), (-1, 1),
                                       (2.5, 2), (math.nan, 2), (True, 2), (4, 2.5)])
def test_frame_config_rejects_bad_values(slots, bits):
    with pytest.raises(ValueError):
        FrameConfig(slots=slots, seq_bits=bits)


def test_a_frame_past_max_frame_slots_is_refused_before_allocating():
    assert FrameConfig(MAX_FRAME_SLOTS, 2).slots == MAX_FRAME_SLOTS
    with pytest.raises(ValueError, match=f"^slots must be <= {MAX_FRAME_SLOTS}$"):
        FrameConfig(MAX_FRAME_SLOTS + 1, 2)
    # the round raises before its per-slot list, and reads no draw
    stream = ScriptedStream([])
    with pytest.raises(ValueError, match=f"^slots must be <= {MAX_FRAME_SLOTS}$"):
        run_fsa_round(make_population(3), MAX_FRAME_SLOTS + 1, stream)
    assert stream.remaining == 0


# An int past the largest float passes `0 <= value < inf`, and float math
# on it raises OverflowError; each boundary refuses it by name instead.
@pytest.mark.parametrize("call, name", [
    (lambda big: check_nonnegative("value", big), "value"),
    (lambda big: expected_idle(big, 128), "tags"),
    (lambda big: auto_seq_bits(big, 128), "k_est"),
    (lambda big: nearest_power_of_two(big), "value"),
    (lambda big: edfsa_plan(big), "k_est"),
    (lambda big: next_frame(big), "k_est"),
    (lambda big: run_edfsa_inventory([], None, initial_estimate=big), "initial_estimate"),
], ids=["check_nonnegative", "expected_idle", "auto_seq_bits", "nearest_power_of_two",
        "edfsa_plan", "next_frame", "run_edfsa_inventory"])
def test_an_int_too_large_for_a_float_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0$"):
        call(10**400)
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0$"):
        call(int(sys.float_info.max) + 1)


# A frame size feeds float math too (1/slots, slots**k), so every
# function that takes one bounds it by the largest frame a config allows.
@pytest.mark.parametrize("call", [
    lambda slots: expected_idle(100, slots),
    lambda slots: expected_undetected_exact(100, slots, 2),
    lambda slots: slot_profile(100, slots, 2),
    lambda slots: phase_durations_for(0, slots, 2),
    lambda slots: optimal_seq_len(0.0, slots),
    lambda slots: auto_seq_bits(100, slots),
    lambda slots: estimate_from_counts(slots, 0, 0, 0, slots),
], ids=["expected_idle", "expected_undetected_exact", "slot_profile",
        "phase_durations_for", "optimal_seq_len", "auto_seq_bits", "estimate_from_counts"])
def test_a_frame_past_the_largest_is_refused_by_name(call):
    for bad in (MAX_FRAME_SLOTS + 1, 10**400):
        with pytest.raises(ValueError,
                           match=rf"^slots must be an integer in \[1, {MAX_FRAME_SLOTS}\]$"):
            call(bad)
    call(MAX_FRAME_SLOTS)


# A float or int answers by its exact type; every other value goes through
# the numbers.Real check, which is imported only when one arrives.
@pytest.mark.parametrize("value, real", [
    (0, True), (2.5, True), (10**400, True), (Fraction(1, 3), True), (math.nan, True),
    (Decimal("2"), False), (True, False), ("3", False), (None, False),
], ids=repr)
def test_is_real_answers(value, real):
    assert is_real(value) is real


def test_the_largest_float_and_the_int_equal_to_it_are_accepted():
    check_nonnegative("value", sys.float_info.max)
    check_nonnegative("value", int(sys.float_info.max))


# The per-slot rules the reference round in oracles.py asserts on every
# slot it builds; a check that accepted anything would make that
# assertion vacuous.

def test_slot_observation_consistency():
    check_slot_observation(SlotObservation(IDLE, 0))
    check_slot_observation(SlotObservation(RESERVED_APPARENT, 1, 3))
    check_slot_observation(SlotObservation(RESERVED_APPARENT, 4, 0))
    check_slot_observation(SlotObservation(DETECTED_COLLISION, 2))


@pytest.mark.parametrize("obs", [
    SlotObservation(IDLE, 1),
    SlotObservation(IDLE, 0, 0),
    SlotObservation(RESERVED_APPARENT, 0, 1),
    SlotObservation(RESERVED_APPARENT, 1, None),
    SlotObservation(DETECTED_COLLISION, 1),
    SlotObservation(DETECTED_COLLISION, 2, 1),
])
def test_slot_observation_rejects_inconsistent(obs):
    with pytest.raises(ValueError):
        check_slot_observation(obs)


def _sample_trace() -> RoundTrace:
    # slots: one lone responder, idle, a two-tag detected collision and a
    # two-tag undetected one, so five responders
    return RoundTrace(
        slots=4,
        seq_bits=2,
        responders=5,
        idle_count=1,
        reserved_true_count=1,
        detected_collision_count=1,
        undetected_collision_count=1,
        identified_epcs=(9,),
        total_us=1015.0,
    )


def test_check_round_trace_accepts_consistent():
    trace = _sample_trace()
    check_round_trace(trace)
    assert trace.reserved_apparent_count == 2
    assert trace.total_us == 1015.0


NO_SLOTS = {"slots": 0, "responders": 0, "idle_count": 0, "reserved_true_count": 0,
            "detected_collision_count": 0, "undetected_collision_count": 0,
            "identified_epcs": ()}
ALL_IDLE = {"idle_count": 4, "reserved_true_count": 0, "detected_collision_count": 0,
            "undetected_collision_count": 0, "identified_epcs": ()}


@pytest.mark.parametrize("mutation", [
    NO_SLOTS,
    {"idle_count": 2},
    {"reserved_true_count": 2},
    {"detected_collision_count": 0},
    {"undetected_collision_count": 0},
    {"identified_epcs": ()},
    {"identified_epcs": (9, 9)},
    {"responders": 4},
    {**ALL_IDLE, "responders": 3},
    {"responders": 0},
    {"idle_count": -1, "detected_collision_count": 2,
     "undetected_collision_count": 2, "responders": 9},
    {"slots": 5},
    {"total_us": 0.0},
    {"total_us": -1015.0},
    {"total_us": float("nan")},
    {"total_us": float("inf")},
])
def test_check_round_trace_rejects_corruption(mutation):
    trace = _sample_trace()._replace(**mutation)
    with pytest.raises(ValueError):
        check_round_trace(trace)


def test_make_population_and_active_count():
    tags = make_population(5)
    assert [t.epc for t in tags] == [0, 1, 2, 3, 4]
    assert active_count(tags) == 5
    tags[0].identified = True
    assert active_count(tags) == 4
    assert active_count(tags[2:]) == 3
    with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 1000000\]$"):
        make_population(-1)


@pytest.mark.parametrize("count", [True, 2.5])
def test_make_population_rejects_a_fractional_or_bool_count(count):
    # True would otherwise build one tag
    with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 1000000\]$"):
        make_population(count)


@pytest.mark.parametrize("count", [MAX_TAGS + 1, 2**70], ids=["max-plus-one", "2**70"])
def test_make_population_rejects_a_count_above_max_tags_before_allocating(count):
    # 2**70 tags would be allocated until the process is killed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 1000000\]$"):
            make_population(count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_tag_defaults():
    tag = Tag(epc=3)
    assert not tag.identified
