"""FSA and EDFSA baselines: cost structure, planning, and comparisons."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsasim.afsa import DRAW_CHUNK_TAGS, run_afsa_inventory
from afsasim.analytic import expected_reserved
from afsasim.baselines import (
    EDFSA_FRAME_CHOICES,
    EdfsaPlan,
    edfsa_plan,
    run_edfsa_inventory,
    run_fsa_inventory,
    run_fsa_round,
)
from afsasim.estimator import AdaptationPolicy
from afsasim.model import (
    FrameConfig,
    Tag,
    TimingModel,
    check_round_trace,
    make_population,
)
from afsasim.rng import RngStream

from oracles import reference_round

TIMING = TimingModel()


def test_empty_fsa_round_costs_full_frame():
    trace = run_fsa_round([], 4, TIMING, RngStream(1, 0))
    check_round_trace(trace)
    # no reservation phase, but every slot is a full data slot
    assert trace.total_us == 1480.0 == TIMING.advert_us + 4 * TIMING.data_slot_us


def test_fsa_round_identifies_singletons():
    tags = make_population(3)
    trace = run_fsa_round(tags, 64, TIMING, RngStream(12, 0))
    check_round_trace(trace)
    # 3 tags in 64 slots landed apart for this stream
    assert trace.reserved_true_count == 3
    assert all(t.identified for t in tags)


@given(tags=st.integers(min_value=0, max_value=80),
       slots=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_fsa_collisions_always_detected(tags, slots, seed):
    population = make_population(tags)
    trace = run_fsa_round(population, slots, TIMING, RngStream(seed, 1))
    check_round_trace(trace)
    assert trace.undetected_collision_count == 0
    assert trace.responders == tags
    # frame cost is load-independent
    assert trace.total_us == TIMING.advert_us + slots * TIMING.data_slot_us


@given(states=st.lists(
           st.sampled_from([(True, False)] * 4 + [(True, True), (False, False)]),
           max_size=80),
       slots=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=250, deadline=None)
# a round longer than one bulk fetch of draws
@example(states=[(True, False), (True, True)] * (DRAW_CHUNK_TAGS + 5), slots=64, seed=1)
def test_fsa_round_matches_reference(states, slots, seed):
    def population():
        return [Tag(epc=i, present=p, identified=d) for i, (p, d) in enumerate(states)]

    tags, ref_tags = population(), population()
    rng, ref_rng = RngStream(seed, 2), RngStream(seed, 2)
    trace = run_fsa_round(tags, slots, TIMING, rng)
    ref = reference_round(ref_tags, slots, ref_rng)
    assert (trace.idle_count, trace.reserved_true_count,
            trace.detected_collision_count, trace.undetected_collision_count) == (
        ref.idle, ref.reserved_true, ref.detected, ref.undetected)
    assert trace.responders == ref.responders
    assert trace.identified_epcs == ref.identified_epcs
    assert [t.identified for t in tags] == [t.identified for t in ref_tags]
    # both consumed the same number of draws
    assert rng.next_u64() == ref_rng.next_u64()


def test_fsa_round_statistics_match_expectations():
    rng = RngStream(1357, 0)
    rounds = 2000
    reserved_total = 0
    for _ in range(rounds):
        trace = run_fsa_round(make_population(100), 128, TIMING, rng)
        reserved_total += trace.reserved_true_count
    assert reserved_total / rounds == pytest.approx(
        expected_reserved(100, 128), rel=0.05)


def test_fsa_inventory_keeps_frame_fixed():
    tags = make_population(30)
    result = run_fsa_inventory(tags, 32, TIMING, RngStream(4, 0), max_rounds=300)
    assert result.completed
    assert result.tags_identified == 30
    assert all(t.slots == 32 for t in result.traces)
    assert all(t.seq_bits == 0 for t in result.traces)


def test_fsa_inventory_empty_population():
    result = run_fsa_inventory([], 16, TIMING, RngStream(4, 0))
    assert result.rounds_used == 1
    assert result.completed
    assert result.total_time_us == TIMING.advert_us + 16 * TIMING.data_slot_us


def test_edfsa_plan_reference_points():
    assert edfsa_plan(0) == EdfsaPlan(slots=16, groups=1)
    assert edfsa_plan(100) == EdfsaPlan(slots=128, groups=1)
    assert edfsa_plan(600) == EdfsaPlan(slots=256, groups=3)
    assert edfsa_plan(256) == EdfsaPlan(slots=256, groups=1)
    assert edfsa_plan(257) == EdfsaPlan(slots=256, groups=2)


def test_edfsa_plan_prefers_larger_frame_on_ties():
    # 24 is equidistant from 16 and 32; 192 from 128 and 256
    assert edfsa_plan(24).slots == 32
    assert edfsa_plan(192).slots == 256


def test_edfsa_plan_menu_and_validation():
    for estimate in range(0, 1200, 7):
        plan = edfsa_plan(float(estimate))
        assert plan.slots in EDFSA_FRAME_CHOICES
        assert plan.groups >= 1
        # groups are sized so that no group exceeds the largest frame
        assert estimate / plan.groups <= 256
    with pytest.raises(ValueError):
        edfsa_plan(-1)


def test_edfsa_groups_partition_responders():
    # backlog estimate of 600 forces a 3-group first cycle
    tags = make_population(600)
    result = run_edfsa_inventory(
        tags, TIMING, RngStream(17, 0), max_rounds=3, initial_estimate=600.0)
    assert result.rounds_used == 3
    group_sizes = [trace.responders for trace in result.traces]
    # every tag responded in exactly one of the cycle's rounds
    assert sum(group_sizes) == 600
    expected_sizes = [len([e for e in range(600) if e % 3 == g]) for g in range(3)]
    assert group_sizes == expected_sizes


def test_edfsa_inventory_completes():
    tags = make_population(100)
    result = run_edfsa_inventory(tags, TIMING, RngStream(6, 0), max_rounds=500)
    assert result.completed
    assert result.tags_identified == 100
    assert all(t.identified for t in tags)
    assert all(t.slots in EDFSA_FRAME_CHOICES for t in result.traces)


def test_edfsa_inventory_empty_population():
    result = run_edfsa_inventory([], TIMING, RngStream(6, 0))
    assert result.rounds_used == 1
    assert result.completed
    # initial estimate of 128 plans a 128-slot frame
    assert result.traces[0].slots == 128


def test_edfsa_validation():
    with pytest.raises(ValueError):
        run_edfsa_inventory([], TIMING, RngStream(1, 0), max_rounds=0)
    with pytest.raises(ValueError):
        run_edfsa_inventory([], TIMING, RngStream(1, 0), initial_estimate=-5.0)


def test_reservation_beats_edfsa_per_tag():
    seeds = 60
    afsa_total = afsa_identified = 0.0
    edfsa_total = edfsa_identified = 0.0
    for seed in range(seeds):
        tags = make_population(100)
        r = run_afsa_inventory(
            tags, FrameConfig(128, 2), AdaptationPolicy(fixed_seq_bits=2),
            TIMING, RngStream(seed, 0), max_rounds=1000)
        assert r.completed
        afsa_total += r.total_time_us
        afsa_identified += r.tags_identified
        tags = make_population(100)
        r = run_edfsa_inventory(
            tags, TIMING, RngStream(seed, 1), max_rounds=1000,
            initial_estimate=128.0)
        assert r.completed
        edfsa_total += r.total_time_us
        edfsa_identified += r.tags_identified
    afsa_per_tag = afsa_total / afsa_identified
    edfsa_per_tag = edfsa_total / edfsa_identified
    assert afsa_per_tag < edfsa_per_tag
