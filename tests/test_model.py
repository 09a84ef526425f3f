"""Domain type validation and the round-trace consistency gate."""
import dataclasses

import pytest

from afsasim.model import (
    FrameConfig,
    PhaseDurations,
    RoundTrace,
    SlotKind,
    SlotObservation,
    Tag,
    TimingModel,
    active_count,
    bitmap_string,
    check_round_trace,
    check_slot_observation,
    make_population,
)


def test_default_timing_derived_quantities():
    tm = TimingModel()
    # 80 payload bits at 4 us per bit
    assert tm.data_slot_us == 320.0
    assert tm.advert_us == 200.0


def test_timing_derived_quantities_track_fields():
    tm = TimingModel(tag_bit_time_us=2.0, epc_bits=96, crc_bits=16, advert_bits=8)
    assert tm.data_slot_us == (96 + 16) * 2.0
    assert tm.advert_us == 8 * 12.5


@pytest.mark.parametrize("kwargs", [
    {"tag_bit_time_us": 0.0},
    {"reader_bit_time_us": -1.0},
    {"epc_bits": 0},
    {"crc_bits": -1},
    {"advert_bits": 0},
])
def test_timing_rejects_nonpositive(kwargs):
    with pytest.raises(ValueError):
        TimingModel(**kwargs)


def test_frame_config_accepts_valid():
    f = FrameConfig(slots=128, seq_bits=2)
    assert f.participation_divisor == 1


def test_frame_config_collects_every_problem():
    with pytest.raises(ValueError) as err:
        FrameConfig(slots=0, seq_bits=17, participation_divisor=0)
    message = str(err.value)
    assert "slots" in message
    assert "seq_bits" in message
    assert "participation_divisor" in message


@pytest.mark.parametrize("slots,bits", [(0, 2), (4, 0), (4, 17), (-1, 1)])
def test_frame_config_rejects_bad_values(slots, bits):
    with pytest.raises(ValueError):
        FrameConfig(slots=slots, seq_bits=bits)


def test_slot_observation_consistency():
    check_slot_observation(SlotObservation(SlotKind.IDLE, 0))
    check_slot_observation(SlotObservation(SlotKind.RESERVED_APPARENT, 1, 3))
    check_slot_observation(SlotObservation(SlotKind.RESERVED_APPARENT, 4, 0))
    check_slot_observation(SlotObservation(SlotKind.DETECTED_COLLISION, 2))


@pytest.mark.parametrize("obs", [
    SlotObservation(SlotKind.IDLE, 1),
    SlotObservation(SlotKind.IDLE, 0, 0),
    SlotObservation(SlotKind.RESERVED_APPARENT, 0, 1),
    SlotObservation(SlotKind.RESERVED_APPARENT, 1, None),
    SlotObservation(SlotKind.DETECTED_COLLISION, 1),
    SlotObservation(SlotKind.DETECTED_COLLISION, 2, 1),
])
def test_slot_observation_rejects_inconsistent(obs):
    with pytest.raises(ValueError):
        check_slot_observation(obs)


def _sample_trace() -> RoundTrace:
    observations = (
        SlotObservation(SlotKind.RESERVED_APPARENT, 1, 2),
        SlotObservation(SlotKind.IDLE, 0),
        SlotObservation(SlotKind.DETECTED_COLLISION, 2),
        SlotObservation(SlotKind.RESERVED_APPARENT, 2, 1),
    )
    phases = PhaseDurations(t_ad=200.0, t_r=100.0, t_su=50.0, t_d=640.0, t_ack=25.0)
    return RoundTrace(
        observations=observations,
        bitmap=(True, False, False, True),
        seq_bits=2,
        idle_count=1,
        reserved_true_count=1,
        detected_collision_count=1,
        undetected_collision_count=1,
        identified_epcs=(9,),
        phase_durations_us=phases,
        total_us=phases.total,
    )


def test_check_round_trace_accepts_consistent():
    trace = _sample_trace()
    check_round_trace(trace)
    assert trace.slots == 4
    assert trace.reserved_apparent_count == 2
    assert bitmap_string(trace) == "1001"


@pytest.mark.parametrize("mutation", [
    {"bitmap": (True, False, False, False)},
    {"idle_count": 2},
    {"reserved_true_count": 2},
    {"detected_collision_count": 0},
    {"undetected_collision_count": 0},
    {"identified_epcs": ()},
    {"identified_epcs": (9, 9)},
    {"total_us": 999.0},
    {"bitmap": (True, False, False)},
])
def test_check_round_trace_rejects_corruption(mutation):
    trace = dataclasses.replace(_sample_trace(), **mutation)
    with pytest.raises(ValueError):
        check_round_trace(trace)


def test_make_population_and_active_count():
    tags = make_population(5, first_epc=10)
    assert [t.epc for t in tags] == [10, 11, 12, 13, 14]
    assert active_count(tags) == 5
    tags[0].identified = True
    tags[1].present = False
    assert active_count(tags) == 3
    with pytest.raises(ValueError):
        make_population(-1)


def test_tag_defaults():
    tag = Tag(epc=3)
    assert tag.present and not tag.identified
