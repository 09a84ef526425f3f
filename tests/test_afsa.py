"""Protocol engine: scripted rounds, trace invariants, inventory loop."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsasim.afsa import (
    reader_observe,
    run_afsa_inventory,
    run_afsa_round,
    tag_decide,
)
from afsasim.analytic import expected_idle, expected_reserved
from afsasim.baselines import run_edfsa_inventory, run_fsa_inventory
from afsasim.estimator import AdaptationPolicy
from afsasim.model import (
    FrameConfig,
    SlotKind,
    Tag,
    TagRoundDecision,
    TimingModel,
    bitmap_string,
    check_round_trace,
    make_population,
)
from afsasim.rng import RngStream, ScriptedStream

TIMING = TimingModel()


def test_tag_decide_scripted_draws():
    decision = tag_decide(Tag(epc=0), FrameConfig(4, 2), ScriptedStream([0, 2, 1]))
    assert decision == TagRoundDecision(participating=True, slot=2, sequence=1)


def test_tag_decide_consumes_participation_draw_even_without_gating():
    # exactly three draws with divisor 1: participation, slot, sequence
    stream = ScriptedStream([7, 5, 3])
    decision = tag_decide(Tag(epc=0), FrameConfig(8, 2), stream)
    assert decision.participating
    assert decision.slot == 5
    assert decision.sequence == 3
    assert stream.remaining == 0


def test_tag_decide_gated_out_draws_nothing_more():
    stream = ScriptedStream([1])
    decision = tag_decide(Tag(epc=0), FrameConfig(8, 2, participation_divisor=2), stream)
    assert decision == TagRoundDecision(participating=False)
    assert stream.remaining == 0


def test_tag_decide_joins_when_draw_divisible():
    decision = tag_decide(
        Tag(epc=0), FrameConfig(8, 2, participation_divisor=3),
        ScriptedStream([6, 4, 2]))
    assert decision.participating


def test_tag_decide_rejects_settled_tags():
    with pytest.raises(ValueError):
        tag_decide(Tag(epc=0, identified=True), FrameConfig(4, 2), ScriptedStream([0]))
    with pytest.raises(ValueError):
        tag_decide(Tag(epc=0, present=False), FrameConfig(4, 2), ScriptedStream([0]))


def test_reader_observe_classifies_each_slot():
    decisions = [
        TagRoundDecision(True, 0, 3),   # alone: truly reserved
        TagRoundDecision(True, 2, 0),   # differing sequences: detected
        TagRoundDecision(True, 2, 1),
        TagRoundDecision(True, 3, 1),   # same sequence: looks reserved
        TagRoundDecision(True, 3, 1),
        TagRoundDecision(False),
    ]
    obs = reader_observe(decisions, FrameConfig(4, 2))
    assert [o.kind for o in obs] == [
        SlotKind.RESERVED_APPARENT,
        SlotKind.IDLE,
        SlotKind.DETECTED_COLLISION,
        SlotKind.RESERVED_APPARENT,
    ]
    assert [o.occupants for o in obs] == [1, 0, 2, 2]
    assert obs[0].sequence == 3
    assert obs[3].sequence == 1


def test_reader_observe_rejects_out_of_range():
    with pytest.raises(ValueError):
        reader_observe([TagRoundDecision(True, 4, 0)], FrameConfig(4, 2))
    with pytest.raises(ValueError):
        reader_observe([TagRoundDecision(True, 0, 4)], FrameConfig(4, 2))
    with pytest.raises(ValueError):
        reader_observe([TagRoundDecision(True, None, None)], FrameConfig(4, 2))


def test_empty_round_pays_fixed_overhead():
    trace = run_afsa_round([], FrameConfig(4, 2), TIMING, RngStream(1, 0))
    check_round_trace(trace)
    assert trace.idle_count == 4
    assert trace.total_us == 350.0
    assert trace.identified_epcs == ()


def test_single_tag_single_slot_identified():
    tag = Tag(epc=7)
    trace = run_afsa_round([tag], FrameConfig(1, 2), TIMING, RngStream(1, 0))
    check_round_trace(trace)
    assert bitmap_string(trace) == "1"
    assert trace.phase_durations_us.t_d == 320.0
    assert trace.identified_epcs == (7,)
    assert tag.identified


def test_scripted_round_two_clean_reservations():
    # tag 0 -> slot 0 seq 1, tag 1 -> slot 1 seq 0: both identified
    stream = ScriptedStream([0, 0, 1, 0, 1, 0])
    tags = [Tag(epc=0), Tag(epc=1)]
    trace = run_afsa_round(tags, FrameConfig(2, 1), TIMING, stream)
    check_round_trace(trace)
    assert bitmap_string(trace) == "11"
    assert trace.phase_durations_us.t_d == 640.0
    assert trace.identified_epcs == (0, 1)
    assert all(t.identified for t in tags)


def test_scripted_undetected_collision_wastes_slot_quietly():
    # both tags: slot 1, sequence 2 -> slot looks reserved, nobody identified
    stream = ScriptedStream([0, 1, 2, 0, 1, 2])
    tags = [Tag(epc=0), Tag(epc=1)]
    trace = run_afsa_round(tags, FrameConfig(4, 2), TIMING, stream)
    check_round_trace(trace)
    assert trace.undetected_collision_count == 1
    assert trace.reserved_true_count == 0
    assert trace.identified_epcs == ()
    assert bitmap_string(trace) == "0100"
    # the ghost reservation still pays data and ack time
    assert trace.phase_durations_us.t_d == 320.0
    assert not any(t.identified for t in tags)


def test_scripted_detected_collision_costs_no_data_slot():
    stream = ScriptedStream([0, 1, 2, 0, 1, 3])
    tags = [Tag(epc=0), Tag(epc=1)]
    trace = run_afsa_round(tags, FrameConfig(4, 2), TIMING, stream)
    check_round_trace(trace)
    assert trace.detected_collision_count == 1
    assert trace.phase_durations_us.t_d == 0.0
    assert bitmap_string(trace) == "0000"


def test_skips_identified_and_absent_tags():
    tags = [Tag(epc=0, identified=True), Tag(epc=1, present=False), Tag(epc=2)]
    trace = run_afsa_round(tags, FrameConfig(8, 1), TIMING, RngStream(5, 0))
    assert sum(o.occupants for o in trace.observations) == 1


def test_round_is_deterministic_for_a_given_stream():
    tags_a = make_population(30)
    tags_b = make_population(30)
    a = run_afsa_round(tags_a, FrameConfig(32, 2), TIMING, RngStream(9, 4))
    b = run_afsa_round(tags_b, FrameConfig(32, 2), TIMING, RngStream(9, 4))
    assert a == b


@given(tags=st.integers(min_value=0, max_value=60),
       slots=st.integers(min_value=1, max_value=64),
       bits=st.integers(min_value=1, max_value=4),
       divisor=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_round_traces_always_consistent(tags, slots, bits, divisor, seed):
    population = make_population(tags)
    frame = FrameConfig(slots, bits, divisor)
    trace = run_afsa_round(population, frame, TIMING, RngStream(seed, 0))
    check_round_trace(trace)
    # every participant occupies exactly one slot
    assert sum(o.occupants for o in trace.observations) <= tags
    if divisor == 1:
        assert sum(o.occupants for o in trace.observations) == tags
    # identified tags are exactly the flagged ones
    assert sum(1 for t in population if t.identified) == trace.reserved_true_count


def test_round_statistics_match_expectations():
    rng = RngStream(2468, 0)
    rounds = 3000
    idle_total = reserved_total = 0
    frame = FrameConfig(128, 2)
    for _ in range(rounds):
        trace = run_afsa_round(make_population(100), frame, TIMING, rng)
        idle_total += trace.idle_count
        reserved_total += trace.reserved_true_count
    assert idle_total / rounds == pytest.approx(expected_idle(100, 128), rel=0.05)
    assert reserved_total / rounds == pytest.approx(expected_reserved(100, 128), rel=0.05)


def test_empty_inventory_still_runs_one_round():
    result = run_afsa_inventory(
        [], FrameConfig(4, 2), AdaptationPolicy(), TIMING, RngStream(1, 0))
    assert result.rounds_used == 1
    assert result.completed
    assert result.total_time_us == 350.0
    assert result.tags_identified == 0
    assert result.per_tag_mean_us is None


def test_inventory_identifies_everyone():
    tags = make_population(20)
    result = run_afsa_inventory(
        tags, FrameConfig(16, 2), AdaptationPolicy(), TIMING, RngStream(7, 0),
        max_rounds=200)
    assert result.completed
    assert result.tags_identified == 20
    assert all(t.identified for t in tags)
    assert result.total_time_us == pytest.approx(
        sum(t.total_us for t in result.traces), rel=1e-12)
    assert result.per_tag_mean_us == pytest.approx(
        result.total_time_us / 20, rel=1e-12)


# The three protocols' entry points.  EDFSA starts from a 300-tag
# estimate, which splits its first cycle into two groups, so it also has a
# round gap inside a cycle.
INVENTORIES = {
    "afsa": lambda tags, rng, **kw: run_afsa_inventory(
        tags, FrameConfig(64, 2), AdaptationPolicy(), TIMING, rng, **kw),
    "fsa": lambda tags, rng, **kw: run_fsa_inventory(tags, 64, TIMING, rng, **kw),
    "edfsa": lambda tags, rng, **kw: run_edfsa_inventory(
        tags, TIMING, rng, initial_estimate=300.0, **kw),
}


@pytest.mark.parametrize("protocol", INVENTORIES)
def test_inventory_respects_round_budget(protocol):
    run = INVENTORIES[protocol]
    tags = make_population(100)
    result = run(tags, RngStream(7, 0), max_rounds=1)
    assert result.rounds_used == 1
    assert not result.completed
    assert result.tags_identified < 100
    with pytest.raises(ValueError):
        run(tags, RngStream(7, 0), max_rounds=0)


def test_inventory_adapts_frame_between_rounds():
    tags = make_population(100)
    result = run_afsa_inventory(
        tags, FrameConfig(128, 2), AdaptationPolicy(), TIMING, RngStream(11, 0),
        max_rounds=200)
    assert result.completed
    first, second = result.traces[0], result.traces[1]
    assert first.slots == 128
    assert result.k_active[0] == 100
    # the second frame tracks the shrunken backlog
    assert second.slots < 128
    assert result.k_active[1] == 100 - len(first.identified_epcs)
    # frames stay powers of two within policy bounds
    for t in result.traces[1:]:
        assert t.slots & (t.slots - 1) == 0
        assert 8 <= t.slots <= 1024


@pytest.mark.parametrize("protocol", INVENTORIES)
def test_between_rounds_hook_sees_each_gap(protocol):
    tags = make_population(50)
    calls = []

    def hook(next_round_index, trace):
        calls.append((next_round_index, trace))

    result = INVENTORIES[protocol](
        tags, RngStream(3, 0), max_rounds=200, between_rounds=hook)
    assert result.completed
    # one call per gap: rounds - 1, each with the round just played
    assert [index for index, _ in calls] == list(range(1, result.rounds_used))
    assert all(trace is result.traces[index - 1] for index, trace in calls)


def test_between_rounds_arrivals_extend_the_inventory():
    tags = make_population(5)
    added = []

    def hook(next_round_index, trace):
        if next_round_index == 1:
            tag = Tag(epc=1000)
            tags.append(tag)
            added.append(tag)

    result = run_afsa_inventory(
        tags, FrameConfig(8, 2), AdaptationPolicy(), TIMING, RngStream(21, 0),
        max_rounds=200, between_rounds=hook)
    assert result.completed
    assert added and added[0].identified
    assert result.tags_identified == 6
