"""Protocol engine: scripted rounds, trace invariants, inventory loop."""
from collections import Counter
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsasim import afsa, analytic, baselines, estimator
from afsasim.afsa import run_afsa_inventory, run_afsa_round
from afsasim.analytic import expected_idle, expected_reserved, phase_durations_for
from afsasim.baselines import run_edfsa_inventory, run_fsa_inventory
from afsasim.estimator import estimate_backlog, next_frame
from afsasim.experiment import ExperimentConfig, run_experiment, run_trial
from afsasim.model import (
    FrameConfig,
    RoundTrace,
    Tag,
    make_population,
)
from afsasim.rng import PIECE_DRAWS, RngStream, _residues, _unit_float

from oracles import (
    DETECTED_COLLISION,
    IDLE,
    RESERVED_APPARENT,
    ScriptedStream,
    check_round_trace,
    reference_inventory,
    reference_round,
)


# A tag's decision inside run_afsa_round: one participation draw, then a
# slot and a sequence only if it joins.

def test_tag_decide_scripted_draws():
    tag = Tag(epc=0)
    trace = run_afsa_round([tag], FrameConfig(4, 2), ScriptedStream([0, 2, 1]))
    check_round_trace(trace)
    assert (trace.responders, trace.reserved_true_count, trace.idle_count) == (1, 1, 3)
    assert trace.identified_epcs == (0,)
    assert tag.identified


def test_tag_decide_consumes_participation_draw_even_without_gating():
    # exactly three draws with divisor 1: participation, slot, sequence
    stream = ScriptedStream([7, 5, 3])
    trace = run_afsa_round([Tag(epc=0)], FrameConfig(8, 2), stream)
    assert trace.responders == 1
    assert trace.identified_epcs == (0,)
    assert stream.remaining == 0


def test_tag_decide_gated_out_draws_nothing_more():
    stream = ScriptedStream([1])
    tag = Tag(epc=0)
    trace = run_afsa_round(
        [tag], FrameConfig(8, 2, participation_divisor=2), stream)
    check_round_trace(trace)
    assert trace.responders == 0
    assert trace.idle_count == 8
    assert not tag.identified
    assert stream.remaining == 0


def test_tag_decide_joins_when_draw_divisible():
    stream = ScriptedStream([6, 4, 2])
    trace = run_afsa_round(
        [Tag(epc=0)], FrameConfig(8, 2, participation_divisor=3), stream)
    assert trace.responders == 1
    assert trace.identified_epcs == (0,)
    assert stream.remaining == 0


@pytest.mark.parametrize("divisor, script", [
    # two tags, three draws each, and the last sequence draw missing
    (1, [0, 1, 2, 0, 3]),
    # both join; the second tag's sequence draw is missing
    (2, [0, 1, 2, 4, 3]),
    # the first is gated out; the second's participation draw is missing
    (2, [1]),
])
def test_a_script_one_draw_short_raises(divisor, script):
    # the round never ends early on a short stream, dropping the last tag
    with pytest.raises(IndexError):
        run_afsa_round(make_population(2), FrameConfig(8, 2, divisor),
                       ScriptedStream(script))


@pytest.mark.parametrize("frame, script", [
    # ungated: tag 0 has its three draws, tag 1 two, tag 2 none
    (FrameConfig(4, 2), [0, 1, 3, 7, 1]),
    # gated, both join: the second tag's sequence draw is missing
    (FrameConfig(8, 2, 2), [0, 1, 2, 4, 3]),
    # gated: the first is gated out, the second's participation draw is missing
    (FrameConfig(8, 2, 2), [1]),
    # ungated: no draw at all
    (FrameConfig(4, 2), []),
])
def test_a_script_that_runs_out_mid_round_raises(frame, script):
    # a script that runs out raises rather than ending the round early and
    # leaving the last tags without draws
    tags = make_population(3 if frame.participation_divisor == 1 else 2)
    with pytest.raises(IndexError):
        run_afsa_round(tags, frame, ScriptedStream(script))


@pytest.mark.parametrize("frame, script, responders", [
    (FrameConfig(4, 2), [0, 1, 3, 7, 1, 2], 2),
    (FrameConfig(8, 2, 2), [0, 1, 2, 3], 1),
    (FrameConfig(8, 2, 2), [1, 3], 0),
])
def test_a_script_just_long_enough_plays_the_round(frame, script, responders):
    # a script just long enough: the round takes every draw and no more
    stream = ScriptedStream(script)
    trace = run_afsa_round(make_population(2), frame, stream)
    check_round_trace(trace)
    assert trace.responders == responders
    assert stream.remaining == 0


def test_reader_observe_classifies_each_slot():
    # (participation, slot, sequence) per tag; the last tag is gated out
    script = [
        0, 0, 3,   # alone in slot 0: truly reserved
        0, 2, 0,   # slot 2, differing sequences: detected
        0, 2, 1,
        0, 3, 1,   # slot 3, same sequence: looks reserved
        0, 3, 1,
        1,
    ]
    frame = FrameConfig(4, 2, participation_divisor=2)
    tags = make_population(6)
    trace = run_afsa_round(tags, frame, ScriptedStream(script))
    check_round_trace(trace)
    assert trace.responders == 5
    assert (trace.idle_count, trace.reserved_true_count,
            trace.detected_collision_count, trace.undetected_collision_count) == (1, 1, 1, 1)
    assert trace.reserved_apparent_count == 2
    assert trace.identified_epcs == (0,)
    # the reference round sees the same layout slot by slot
    ref = reference_round(
        make_population(6), 4, ScriptedStream(script), seq_bits=2, divisor=2)
    assert [o.kind for o in ref.observations] == [
        RESERVED_APPARENT, IDLE, DETECTED_COLLISION, RESERVED_APPARENT]
    assert [o.occupants for o in ref.observations] == [1, 0, 2, 2]
    assert [o.sequence for o in ref.observations] == [3, None, None, 1]


@pytest.mark.parametrize("sequences, detected", [
    ((1, 1, 2), True),
    ((1, 2, 1), True),
    ((2, 1, 1), True),
    ((1, 1, 1), False),
], ids=["s,s,t", "s,t,s", "t,s,s", "s,s,s"])
def test_three_occupants_are_detected_iff_any_sequence_differs(sequences, detected):
    # all three tags join slot 1; a disagreement is never forgotten
    script = [draw for seq in sequences for draw in (0, 1, seq)]
    tags = make_population(3)
    trace = run_afsa_round(tags, FrameConfig(4, 2), ScriptedStream(script))
    check_round_trace(trace)
    assert trace.responders == 3
    assert (trace.idle_count, trace.reserved_true_count,
            trace.detected_collision_count, trace.undetected_collision_count) == (
        3, 0, int(detected), int(not detected))
    assert trace.identified_epcs == ()
    assert not any(t.identified for t in tags)


def test_empty_round_pays_fixed_overhead():
    trace = run_afsa_round([], FrameConfig(4, 2), RngStream(1, 0))
    check_round_trace(trace)
    assert trace.idle_count == 4
    assert trace.total_us == 350.0
    assert trace.identified_epcs == ()


def test_single_tag_single_slot_identified():
    tag = Tag(epc=7)
    trace = run_afsa_round([tag], FrameConfig(1, 2), RngStream(1, 0))
    check_round_trace(trace)
    assert trace.reserved_apparent_count == 1
    # advert, 1x2 reservation bits, 1 summary bit, one data slot and its ack
    assert trace.total_us == 200.0 + 25.0 + 12.5 + 320.0 + 12.5
    assert trace.identified_epcs == (7,)
    assert tag.identified


def test_scripted_round_two_clean_reservations():
    # tag 0 -> slot 0 seq 1, tag 1 -> slot 1 seq 0: both identified
    stream = ScriptedStream([0, 0, 1, 0, 1, 0])
    tags = [Tag(epc=0), Tag(epc=1)]
    trace = run_afsa_round(tags, FrameConfig(2, 1), stream)
    check_round_trace(trace)
    assert trace.reserved_apparent_count == 2
    # advert, 2x1 reservation bits, 2 summary bits, two data slots and acks
    assert trace.total_us == 200.0 + 25.0 + 25.0 + 640.0 + 25.0
    assert trace.identified_epcs == (0, 1)
    assert all(t.identified for t in tags)


def test_scripted_undetected_collision_wastes_slot_quietly():
    # both tags: slot 1, sequence 2 -> slot looks reserved, nobody identified
    stream = ScriptedStream([0, 1, 2, 0, 1, 2])
    tags = [Tag(epc=0), Tag(epc=1)]
    trace = run_afsa_round(tags, FrameConfig(4, 2), stream)
    check_round_trace(trace)
    assert trace.undetected_collision_count == 1
    assert trace.reserved_true_count == 0
    assert trace.identified_epcs == ()
    assert trace.reserved_apparent_count == 1
    # the ghost reservation still pays data and ack time
    assert trace.total_us == 200.0 + 100.0 + 50.0 + 320.0 + 12.5
    assert not any(t.identified for t in tags)


def test_scripted_detected_collision_costs_no_data_slot():
    stream = ScriptedStream([0, 1, 2, 0, 1, 3])
    tags = [Tag(epc=0), Tag(epc=1)]
    trace = run_afsa_round(tags, FrameConfig(4, 2), stream)
    check_round_trace(trace)
    assert trace.detected_collision_count == 1
    # advert, 4x2 reservation bits and 4 summary bits only
    assert trace.total_us == 200.0 + 100.0 + 50.0
    assert trace.reserved_apparent_count == 0


def test_round_is_deterministic_for_a_given_stream():
    tags_a = make_population(30)
    tags_b = make_population(30)
    a = run_afsa_round(tags_a, FrameConfig(32, 2), RngStream(9, 4))
    b = run_afsa_round(tags_b, FrameConfig(32, 2), RngStream(9, 4))
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
    trace = run_afsa_round(population, frame, RngStream(seed, 0))
    check_round_trace(trace)
    assert trace.responders <= tags
    if divisor == 1:
        assert trace.responders == tags
    # identified tags are exactly the flagged ones
    assert sum(1 for t in population if t.identified) == trace.reserved_true_count


# Population members as identified flags, mostly tags still answering.
TAG_STATES = st.sampled_from([False] * 4 + [True] * 2)


def _population(states):
    return [Tag(epc=i, identified=d) for i, d in enumerate(states)]


def _answering(tags):
    return [t for t in tags if not t.identified]


# Frame sizes for the round-versus-reference tests: any size up to 2 048,
# and often a power of two, whose slot comes from a draw's low byte (up to
# 256 slots) or low 16 bits; any other size reduces the whole draw.
FRAME_SLOTS = st.integers(min_value=1, max_value=2048) | st.sampled_from(
    [2**i for i in range(12)])


@given(states=st.lists(TAG_STATES, max_size=70),
       slots=FRAME_SLOTS,
       bits=st.integers(min_value=1, max_value=16),
       divisor=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=250, deadline=None)
# rounds of many draws, with and without gating
@example(states=[False] * (2 * 32 + 7), slots=64, bits=2,
         divisor=1, seed=3)
@example(states=([False] * 4 + [True] * 2) * 400,
         slots=512, bits=3, divisor=2, seed=4)
@example(states=[False] * (3 * 32 + 1), slots=1024, bits=2,
         divisor=5, seed=5)
# each side of every reduction: the low byte up to 256 slots and 8 bits,
# the low 16 bits above, and the whole draw for a frame of 257 or 1 000
@example(states=[False] * 400, slots=256, bits=8, divisor=1, seed=6)
@example(states=[False] * 400, slots=257, bits=9, divisor=1, seed=7)
@example(states=[False] * 700, slots=512, bits=16, divisor=1, seed=8)
@example(states=[False] * 1500, slots=1000, bits=1, divisor=1, seed=9)
@example(states=([False] * 4 + [True] * 2) * 300, slots=1024, bits=9,
         divisor=1, seed=10)
@example(states=[False] * 3000, slots=65536, bits=8, divisor=1, seed=11)
@example(states=[False] * 1200, slots=1000, bits=9, divisor=3, seed=12)
# rounds whose draws come in several pieces, with and without gating
@example(states=[False] * 4000, slots=1024, bits=2, divisor=4, seed=13)
@example(states=[False] * 2500, slots=2048, bits=3, divisor=1, seed=14)
# an ungated round of exactly one piece of draws, and of one tag more;
# the identified tags do not answer, so they take no draw
@example(states=[False] * (PIECE_DRAWS // 3) + [True] * 5, slots=1024, bits=4,
         divisor=1, seed=15)
@example(states=[False] * (PIECE_DRAWS // 3 + 1), slots=1024, bits=4, divisor=1, seed=16)
def test_afsa_round_matches_reference(states, slots, bits, divisor, seed):
    tags, ref_tags = _population(states), _population(states)
    rng, ref_rng = RngStream(seed, 0), RngStream(seed, 0)
    # the kernel is handed the answering tags; the reference picks its own
    trace = run_afsa_round(_answering(tags), FrameConfig(slots, bits, divisor), rng)
    ref = reference_round(ref_tags, slots, ref_rng, seq_bits=bits, divisor=divisor)
    # tuple equality cannot tell a `RoundTrace` from any other tuple
    assert type(trace) is RoundTrace
    assert (trace.idle_count, trace.reserved_true_count,
            trace.detected_collision_count, trace.undetected_collision_count) == (
        ref.idle, ref.reserved_true, ref.detected, ref.undetected)
    assert trace.responders == ref.responders
    assert trace.identified_epcs == ref.identified_epcs
    assert [t.identified for t in tags] == [t.identified for t in ref_tags]
    # both consumed the same number of draws
    assert next(rng) == next(ref_rng)


@pytest.mark.parametrize("frame", [
    FrameConfig(16, 2), FrameConfig(257, 9), FrameConfig(1024, 16),
    FrameConfig(64, 3, 2), FrameConfig(1000, 8, 3),
], ids=str)
@pytest.mark.parametrize("offset", [1, 32 - 2, 32 + 1])
def test_rounds_at_varied_stream_offsets_match_the_reference(frame, offset):
    # `offset` single draws read before the first round, and each round's
    # `next`, leave the rounds' takes at varied points of the stream
    tags, ref_tags = make_population(90), make_population(90)
    rng, ref_rng = RngStream(17, offset), RngStream(17, offset)
    for _ in range(offset):
        assert next(rng) == next(ref_rng)
    for _ in range(4):
        trace = run_afsa_round(_answering(tags), frame, rng)
        ref = reference_round(ref_tags, frame.slots, ref_rng, seq_bits=frame.seq_bits,
                              divisor=frame.participation_divisor)
        assert (trace.idle_count, trace.reserved_true_count, trace.detected_collision_count,
                trace.undetected_collision_count, trace.responders, trace.identified_epcs) == (
            ref.idle, ref.reserved_true, ref.detected, ref.undetected, ref.responders,
            ref.identified_epcs)
        assert next(rng) == next(ref_rng)
    assert [t.identified for t in tags] == [t.identified for t in ref_tags]


def _pin_to_reference(tags, frame, make_rng):
    # the kernel and the reference round over the same tags and draws:
    # equal counts, identifications and flags, and the same draws taken
    ref_tags = [Tag(t.epc, t.identified) for t in tags]
    rng, ref_rng = make_rng(), make_rng()
    trace = run_afsa_round(_answering(tags), frame, rng)
    check_round_trace(trace)
    ref = reference_round(ref_tags, frame.slots, ref_rng, seq_bits=frame.seq_bits,
                          divisor=frame.participation_divisor)
    assert (trace.idle_count, trace.reserved_true_count, trace.detected_collision_count,
            trace.undetected_collision_count, trace.responders, trace.identified_epcs) == (
        ref.idle, ref.reserved_true, ref.detected, ref.undetected, ref.responders,
        ref.identified_epcs)
    assert [t.identified for t in tags] == [t.identified for t in ref_tags]
    assert next(rng) == next(ref_rng)
    return trace


@pytest.mark.parametrize("k, frame, least_undetected", [
    # frames at the 1 024-slot cap with about three tags per slot: with
    # one-bit sequences a collided slot goes undetected often
    (3000, FrameConfig(1024, 1), 100),
    (3000, FrameConfig(1024, 8), 1),
    (5000, FrameConfig(1024, 8, 5), 1),
    (2000, FrameConfig(65536, 8), 0),
    # saturated frames: every slot holds a detected collision long before
    # the last piece of tags, so the kernel leaves the later pieces unread
    (5000, FrameConfig(128, 2), None),
    (4000, FrameConfig(8, 16), None),
    (3500, FrameConfig(1, 1), None),
], ids=["k3000-N1024-n1", "k3000-N1024-n8", "k5000-N1024-n8-d5", "k2000-N65536-n8",
        "k5000-N128-n2-saturated", "k4000-N8-n16-saturated", "k3500-N1-n1-saturated"])
def test_large_rounds_match_the_reference(monkeypatch, k, frame, least_undetected):
    reads = []

    def counted_residues(raw, first, step, modulus):
        reads.append(len(raw) // 8)
        return _residues(raw, first, step, modulus)

    monkeypatch.setattr(afsa, "_residues", counted_residues)
    # the reference reads its draws with `next`, so only the kernel takes
    takes = []
    take = RngStream.take
    monkeypatch.setattr(RngStream, "take", lambda rng, count: takes.append(count) or take(rng, count))
    tags = _population([False] * k)
    trace = _pin_to_reference(tags, frame, lambda: RngStream(23, k))
    # the draws come in pieces of at most PIECE_DRAWS, all of them taken
    assert max(takes) <= PIECE_DRAWS
    if frame.participation_divisor == 1:
        size = PIECE_DRAWS // 3
        assert takes == [3 * min(size, k - start) for start in range(0, k, size)]
        # a piece that is read calls `_residues` twice, for its slots and
        # its sequences, and the pieces are read in order
        pieces_read = len(reads) // 2
        assert reads == [count for count in takes[:pieces_read] for _ in range(2)]
        # only a saturated frame leaves pieces unread
        assert (pieces_read < len(takes)) == (least_undetected is None)
    if least_undetected is None:
        assert trace.detected_collision_count == frame.slots
        assert trace.identified_epcs == () and not any(t.identified for t in tags)
    else:
        assert trace.undetected_collision_count >= least_undetected
        assert trace.reserved_true_count > 0 and trace.idle_count > 0


@pytest.mark.parametrize("slots_and_sequences, counts", [
    # (idle, reserved, detected, undetected) from the derived counts
    ((), (4, 0, 0, 0)),
    # every slot occupied: two lone tags, a detected and an undetected pair
    (((0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (3, 1)), (0, 2, 1, 1)),
    # only lone occupants, in reverse slot order
    (((3, 0), (2, 0), (1, 3), (0, 3)), (0, 4, 0, 0)),
    # sequence 0 heard alone and in an undetected pair is no idle slot
    (((1, 0), (2, 0), (2, 0)), (2, 1, 0, 1)),
], ids=["no tags", "no idle slot", "only lone occupants", "sequence zero"])
def test_the_derived_slot_counts_hold_at_the_edges(slots_and_sequences, counts):
    script = [draw for slot, seq in slots_and_sequences for draw in (0, slot, seq)] + [99]
    tags = make_population(len(slots_and_sequences))
    trace = _pin_to_reference(tags, FrameConfig(4, 2), lambda: ScriptedStream(script))
    assert (trace.idle_count, trace.reserved_true_count, trace.detected_collision_count,
            trace.undetected_collision_count) == counts
    lone = sorted(slot for slot, _ in slots_and_sequences
                  if sum(s == slot for s, _ in slots_and_sequences) == 1)
    assert trace.identified_epcs == tuple(
        epc for slot in lone for epc, (s, _) in enumerate(slots_and_sequences) if s == slot)


def test_round_statistics_match_expectations():
    rng = RngStream(2468, 0)
    rounds = 3000
    idle_total = reserved_total = 0
    frame = FrameConfig(128, 2)
    for _ in range(rounds):
        trace = run_afsa_round(make_population(100), frame, rng)
        idle_total += trace.idle_count
        reserved_total += trace.reserved_true_count
    assert idle_total / rounds == pytest.approx(expected_idle(100, 128), rel=0.05)
    assert reserved_total / rounds == pytest.approx(expected_reserved(100, 128), rel=0.05)


def test_empty_inventory_still_runs_one_round():
    result = run_afsa_inventory(
        [], FrameConfig(4, 2), None, RngStream(1, 0))
    assert result.rounds_used == 1
    assert result.completed
    assert result.total_time_us == 350.0
    assert result.tags_identified == 0
    assert result.per_tag_mean_us is None


@pytest.mark.parametrize("fixed_seq_bits", [0, 17, 2.5, True])
def test_a_bad_fixed_seq_bits_fails_before_any_draw(fixed_seq_bits):
    # a round would draw from the empty script and raise IndexError
    with pytest.raises(ValueError, match="fixed_seq_bits"):
        run_afsa_inventory(make_population(3), FrameConfig(8, 2), fixed_seq_bits,
                           ScriptedStream([]))


def test_inventory_identifies_everyone():
    tags = make_population(20)
    result = run_afsa_inventory(
        tags, FrameConfig(16, 2), None, RngStream(7, 0),
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
        tags, FrameConfig(64, 2), None, rng, **kw),
    "fsa": lambda tags, rng, **kw: run_fsa_inventory(tags, 64, rng, **kw),
    "edfsa": lambda tags, rng, **kw: run_edfsa_inventory(
        tags, rng, initial_estimate=300.0, **kw),
}


@pytest.mark.parametrize("protocol", INVENTORIES)
def test_inventory_respects_round_budget(protocol):
    run = INVENTORIES[protocol]
    tags = make_population(100)
    result = run(tags, RngStream(7, 0), max_rounds=1)
    assert result.rounds_used == 1
    assert not result.completed
    assert result.tags_identified < 100
    with pytest.raises(ValueError, match="^max_rounds must be an integer >= 1$"):
        run(tags, RngStream(7, 0), max_rounds=0)
    # a non-integer budget fails before any draw from the empty script
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="^max_rounds must be an integer >= 1$"):
            run(make_population(100), ScriptedStream([]), max_rounds=bad)


def test_inventory_adapts_frame_between_rounds():
    tags = make_population(100)
    result = run_afsa_inventory(
        tags, FrameConfig(128, 2), None, RngStream(11, 0),
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

    def hook(active):
        # handed the tags still answering, in population order
        assert active == [tag for tag in tags if not tag.identified]
        calls.append(sum(tag.identified for tag in tags))
        return active

    result = INVENTORIES[protocol](
        tags, RngStream(3, 0), max_rounds=200, between_rounds=hook)
    assert result.completed
    # one call per gap: rounds - 1, each right after the round just played
    identified = accumulate(len(t.identified_epcs) for t in result.traces)
    assert calls == list(identified)[:-1]


@pytest.mark.parametrize("protocol", INVENTORIES)
def test_the_hook_returns_the_tags_that_answer_next(protocol):
    tags = make_population(40)
    returned, dropped = [], []

    # drops every other answering tag, and one tag arrives at the first gap
    def hook(active):
        answering = active[::2]
        dropped.extend(active[1::2])
        if not returned:
            arrival = Tag(epc=1000)
            tags.append(arrival)
            answering.append(arrival)
        returned.append(len(answering))
        return answering

    result = INVENTORIES[protocol](
        tags, RngStream(5, 0), max_rounds=200, between_rounds=hook)
    assert result.completed
    assert returned and result.k_active[1:] == returned
    assert dropped and not any(tag.identified for tag in dropped)
    assert result.ever_present == 41


@pytest.mark.parametrize("protocol", INVENTORIES)
@given(k=st.integers(min_value=0, max_value=120),
       arrival_rate=st.sampled_from([0.0, 0.5, 3.0]),
       departure_prob=st.sampled_from([0.0, 0.05, 0.3]),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_every_round_of_a_churned_inventory_is_consistent(
        protocol, k, arrival_rate, departure_prob, seed):
    tags = make_population(k)
    churn_rng = RngStream(seed, 1)
    departed = set()

    def churn(active):
        for tag in tags:
            if tag.epc not in departed and _unit_float(next(churn_rng)) < departure_prob:
                departed.add(tag.epc)
        while _unit_float(next(churn_rng)) < arrival_rate / (1.0 + arrival_rate):
            tags.append(Tag(epc=len(tags)))
        return [t for t in tags if t.epc not in departed and not t.identified]

    result = INVENTORIES[protocol](
        tags, RngStream(seed, 0), max_rounds=60, between_rounds=churn)
    # AFSA's divisor for round i follows from the trace of round i - 1
    frame = FrameConfig(64, 2)
    for trace, k_active in zip(result.traces, result.k_active):
        check_round_trace(trace)
        assert trace.responders <= k_active
        if protocol == "fsa" or (
                protocol == "afsa" and frame.participation_divisor == 1):
            assert trace.responders == k_active
        frame = next_frame(estimate_backlog(trace))


@pytest.mark.parametrize("protocol", INVENTORIES)
@given(k=st.integers(min_value=0, max_value=150),
       churned=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
# AFSA engages the participation divisor at this size
@example(k=5000, churned=True, seed=1)
def test_inventory_matches_the_scanning_reference(protocol, k, churned, seed):
    _match_the_scanning_reference(INVENTORIES[protocol], k, churned, seed, max_rounds=60)


# The first frames of the AFSA inventory saturate (5 000 tags in 128 slots)
# and every FSA round does (400 tags in 16 slots), so rounds identify
# nobody and `run_inventory` keeps the answering list without a rescan.
@pytest.mark.parametrize("inventory, k, seed, max_rounds", [
    (lambda tags, rng, **kw: run_afsa_inventory(tags, FrameConfig(128, 2), None, rng, **kw),
     5000, 1, 1000),
    (lambda tags, rng, **kw: run_afsa_inventory(tags, FrameConfig(128, 2), None, rng, **kw),
     5000, 2, 1000),
    (lambda tags, rng, **kw: run_fsa_inventory(tags, 16, rng, **kw), 400, 1, 5),
], ids=["afsa-k5000-N128-seed1", "afsa-k5000-N128-seed2", "fsa-k400-N16"])
@pytest.mark.parametrize("churned", [False, True], ids=["static", "churned"])
def test_inventories_whose_rounds_identify_nobody_match_the_scanning_reference(
        inventory, k, seed, max_rounds, churned):
    result = _match_the_scanning_reference(inventory, k, churned, seed, max_rounds)
    assert any(not trace.reserved_true_count for trace in result.traces[:-1])


def _match_the_scanning_reference(inventory, k, churned, seed, max_rounds):
    def run(reference):
        tags = make_population(k)
        rng = RngStream(seed, 0)
        departed = set()

        # churn draws from the rounds' stream, as a trial's churn does; it
        # returns the stayers of the tags it is handed, then the arrivals
        def churn(active):
            for tag in tags:
                if tag.epc not in departed and _unit_float(next(rng)) < 0.1:
                    departed.add(tag.epc)
            known = len(tags)
            while _unit_float(next(rng)) < 0.6:
                tags.append(Tag(epc=len(tags)))
            return [t for t in active if t.epc not in departed] + tags[known:]

        loop = (partial(reference_inventory, departed=departed) if reference
                else afsa.run_inventory)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(afsa, "run_inventory", loop)
            patch.setattr(baselines, "run_inventory", loop)
            result = inventory(
                tags, rng, max_rounds=max_rounds,
                between_rounds=churn if churned else None)
        return result, [(t.epc in departed, t.identified) for t in tags], next(rng)

    result, tags, next_draw = run(reference=False)
    ref, ref_tags, ref_next_draw = run(reference=True)
    assert result.traces == ref.traces
    assert result.k_active == ref.k_active
    assert (result.completed, result.ever_present) == (ref.completed, ref.ever_present)
    assert tags == ref_tags
    # both took the same number of draws
    assert next_draw == ref_next_draw
    return result


def test_between_rounds_arrivals_extend_the_inventory():
    tags = make_population(5)
    added = []

    def hook(active):
        if not added:
            tag = Tag(epc=1000)
            tags.append(tag)
            added.append(tag)
            return active + added
        return active

    result = run_afsa_inventory(
        tags, FrameConfig(8, 2), None, RngStream(21, 0),
        max_rounds=200, between_rounds=hook)
    assert result.completed
    assert added and added[0].identified
    assert result.tags_identified == 6


# The memos behind a round's air time and the reader's next frame.

def _clear_memos():
    for memo in (afsa._round_time, afsa._next_frame):
        memo.cache_clear()


@pytest.mark.parametrize("tags, slots, seq_bits, trials", [
    (20, 16, None, 6),
    (100, 128, None, 3),
    (100, 128, 3, 3),
    # frames at the cap with the participation divisor engaged
    (5000, 1024, None, 1),
], ids=["criterion-8", "paper", "seq-bits-3", "divisor"])
def test_memoised_rounds_equal_the_direct_arithmetic(monkeypatch, tags, slots, seq_bits, trials):
    config = ExperimentConfig(k_initial=tags, frame_slots=slots, seq_bits=seq_bits,
                              trials=trials, seed=5)
    frames = []

    def recording_round(tags, frame, rng):
        frames.append(frame)
        return run_afsa_round(tags, frame, rng)

    monkeypatch.setattr(afsa, "run_afsa_round", recording_round)
    _clear_memos()
    passes = []
    for _ in ("cold", "warm"):
        passes.append([])
        for t in range(trials):
            frames.clear()
            result = run_trial(config, t)
            passes[-1].append(result)
            played = list(frames)
            assert len(played) == result.rounds_used
            for i, trace in enumerate(result.traces):
                assert trace.total_us == phase_durations_for(
                    trace.reserved_apparent_count, trace.slots, trace.seq_bits).total
                if i + 1 < len(played):
                    assert played[i + 1] == next_frame(estimate_backlog(trace), seq_bits)
    assert passes[0] == passes[1]
    assert afsa._next_frame.cache_info().hits > 0
    if tags == 5000:
        assert max(f.participation_divisor for f in played) > 1


def _trace(counts):
    """An AFSA round's trace with these (idle, reserved_true, detected,
    undetected) counts."""
    idle, reserved_true, detected, undetected = counts
    return RoundTrace(
        slots=sum(counts), seq_bits=2, responders=reserved_true + 2 * (detected + undetected),
        idle_count=idle, reserved_true_count=reserved_true,
        detected_collision_count=detected, undetected_collision_count=undetected,
        identified_epcs=tuple(range(reserved_true)), total_us=1.0)


def _partitions(max_slots):
    """(idle, reserved_true, detected, undetected) counts that fill a frame."""
    return st.integers(min_value=1, max_value=max_slots).flatmap(
        lambda slots: st.lists(st.integers(min_value=0, max_value=slots),
                               min_size=3, max_size=3).map(
            lambda cuts: [b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [slots])]))


@given(counts=_partitions(4096),
       fixed_seq_bits=st.none() | st.integers(min_value=1, max_value=16))
@settings(max_examples=300, deadline=None)
@example(counts=[0, 0, 1024, 0], fixed_seq_bits=None)
@example(counts=[0, 0, 0, 1], fixed_seq_bits=None)
@example(counts=[30, 40, 20, 6], fixed_seq_bits=5)
def test_next_frame_memo_equals_the_uncached_decision(counts, fixed_seq_bits):
    idle, reserved_true, detected, undetected = counts
    slots = sum(counts)
    trace = _trace(counts)
    key = estimator._key(trace)
    # the key holds the checked estimate's inputs, bit for bit, and the
    # idle count and frame size that choose its rule
    assert estimator._estimate(*key).hex() == estimate_backlog(trace).hex()
    assert (key[0], key[4]) == (idle, slots)
    if idle and slots > 1:
        # the idle inversion decides and reads neither collision count, so a
        # round that splits its collisions otherwise shares the key
        assert estimator._key(_trace((idle, reserved_true, undetected, detected))) == key
        assert estimator._key(_trace((idle, reserved_true, detected + undetected, 0))) == key
    # the same counts under both policies, each a miss and then a hit
    for fixed in (None, fixed_seq_bits, None, fixed_seq_bits):
        expected = next_frame(estimate_backlog(trace), fixed)
        assert afsa._next_frame(key, fixed) == expected


@pytest.mark.parametrize("counts, fixed_seq_bits", [
    ((58, 46, 20, 4), None), ((0, 5, 10, 1), None), ((58, 46, 20, 4), 3)])
def test_a_next_frame_miss_checks_the_estimate_once(monkeypatch, counts, fixed_seq_bits):
    # a played round's counts are valid, so the decision checks only the
    # backlog estimate, once; FrameConfig checks the frame it builds
    calls = Counter()

    def counted(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)
        return wrapper

    for module in (afsa, analytic, estimator):
        for name in ("check_nonnegative", "is_int"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    afsa._next_frame.__wrapped__(estimator._key(_trace(counts)), fixed_seq_bits)
    assert calls == {"check_nonnegative": 1}


def test_the_papers_decisions_fit_in_the_memo():
    # at the paper's operating point, from cold memos, the 500 trials make
    # fewer distinct decisions than the memo holds, so none is evicted and
    # computed again (keyed on all four slot counts there were 1 331 misses)
    _clear_memos()
    config = ExperimentConfig(trials=500)
    for t in range(config.trials):
        run_trial(config, t)
    assert afsa._next_frame.cache_info().misses <= afsa._MEMO_ENTRIES


def test_memos_stay_within_their_bound():
    _clear_memos()
    slots = afsa._MEMO_ENTRIES + 100
    for successes in range(slots + 1):
        afsa._round_time(successes, slots, 2)
        afsa._next_frame((slots - successes, successes, 0, successes, slots), None)
    for memo in (afsa._round_time, afsa._next_frame):
        info = memo.cache_info()
        assert info.maxsize == afsa._MEMO_ENTRIES
        assert info.currsize <= afsa._MEMO_ENTRIES
    assert afsa._round_time.cache_info().misses > afsa._MEMO_ENTRIES
    assert afsa._next_frame.cache_info().misses > afsa._MEMO_ENTRIES


def test_the_benchmark_wrap_counts_the_next_frame_memos_misses(monkeypatch):
    # bench/child.py times the decision by wrapping `afsa.next_frame`, so
    # the memo must call it by that name on every miss and nowhere else
    calls = []

    def counted(*args):
        calls.append(args)
        return next_frame(*args)

    monkeypatch.setattr(afsa, "next_frame", counted)
    _clear_memos()
    run_experiment(ExperimentConfig(trials=5))
    misses = afsa._next_frame.cache_info().misses
    assert misses > 0
    assert len(calls) == misses
    calls.clear()
    run_experiment(ExperimentConfig(protocol="edfsa", trials=5))
    assert calls == []
