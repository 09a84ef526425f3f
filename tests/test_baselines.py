"""FSA and EDFSA baselines: cost structure, planning, and comparisons."""
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsasim import afsa, baselines, estimator
from afsasim.afsa import run_afsa_inventory
from afsasim.analytic import expected_reserved
from afsasim.baselines import (
    EDFSA_FRAME_CHOICES,
    EDFSA_MAX_FRAME,
    EdfsaPlan,
    edfsa_plan,
    run_edfsa_inventory,
    run_fsa_inventory,
    run_fsa_round,
)
from afsasim.estimator import estimate_backlog
from afsasim.experiment import ExperimentConfig, run_trial
from afsasim.model import (
    TIMING,
    FrameConfig,
    RoundTrace,
    Tag,
    make_population,
)
from afsasim.rng import PIECE_DRAWS, RngStream

from oracles import ScriptedStream, check_round_trace, reference_round


def test_empty_fsa_round_costs_full_frame():
    trace = run_fsa_round([], 4, RngStream(1, 0))
    check_round_trace(trace)
    # no reservation phase, but every slot is a full data slot
    assert trace.total_us == 1480.0 == TIMING.advert_us + 4 * TIMING.data_slot_us


def test_fsa_round_identifies_singletons():
    tags = make_population(3)
    trace = run_fsa_round(tags, 64, RngStream(12, 0))
    check_round_trace(trace)
    # 3 tags in 64 slots landed apart for this stream
    assert trace.reserved_true_count == 3
    assert all(t.identified for t in tags)


def test_fsa_detects_a_slot_of_three():
    trace = run_fsa_round(make_population(3), 4, ScriptedStream([2, 2, 2]))
    check_round_trace(trace)
    assert (trace.idle_count, trace.reserved_true_count,
            trace.detected_collision_count, trace.undetected_collision_count) == (3, 0, 1, 0)
    assert trace.responders == 3


def test_fsa_round_raises_on_a_script_one_draw_short():
    # one slot draw per tag: three tags, two draws
    with pytest.raises(IndexError):
        run_fsa_round(make_population(3), 8, ScriptedStream([0, 1]))


@pytest.mark.parametrize("script", [[], [2], [2, 5]])
def test_fsa_round_raises_when_a_script_runs_out(script):
    # a script that runs out raises rather than playing a shorter round,
    # leaving the last tags without a slot
    with pytest.raises(IndexError):
        run_fsa_round(make_population(3), 4, ScriptedStream(script))


def test_fsa_round_on_a_script_just_long_enough():
    stream = ScriptedStream([2, 5, 1])
    trace = run_fsa_round(make_population(3), 4, stream)
    assert trace.responders == 3
    assert trace.reserved_true_count == 1
    assert stream.remaining == 0
    # no tag, no draw: the empty round needs nothing from the stream
    assert run_fsa_round([], 4, ScriptedStream([])).idle_count == 4


@given(tags=st.integers(min_value=0, max_value=80),
       slots=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_fsa_collisions_always_detected(tags, slots, seed):
    population = make_population(tags)
    trace = run_fsa_round(population, slots, RngStream(seed, 1))
    check_round_trace(trace)
    assert trace.undetected_collision_count == 0
    assert trace.responders == tags
    # frame cost is load-independent
    assert trace.total_us == TIMING.advert_us + slots * TIMING.data_slot_us


@given(states=st.lists(
           st.sampled_from([False] * 4 + [True] * 2),
           max_size=80),
       slots=st.integers(min_value=1, max_value=2048) | st.sampled_from(
           [2**i for i in range(12)]),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=250, deadline=None)
# a round of many draws
@example(states=[False, True] * (32 + 5), slots=64, seed=1)
# each side of every reduction: the low byte up to 256 slots, the low 16
# bits above, and the whole draw for a frame of 257 or 1 000
@example(states=[False] * 400, slots=256, seed=2)
@example(states=[False] * 400, slots=257, seed=3)
@example(states=[False] * 700, slots=512, seed=4)
@example(states=[False, True] * 800, slots=1000, seed=5)
@example(states=[False] * 1500, slots=1024, seed=6)
@example(states=[False] * 3000, slots=65536, seed=7)
# exactly PIECE_DRAWS: one `take`; past it: the round takes its draws in
# pieces
@example(states=[False] * PIECE_DRAWS, slots=1024, seed=10)
@example(states=[False] * (PIECE_DRAWS + 1), slots=1024, seed=8)
@example(states=[False, False, True] * 2000, slots=1000, seed=9)
def test_fsa_round_matches_reference(states, slots, seed):
    def population():
        return [Tag(epc=i, identified=d) for i, d in enumerate(states)]

    tags, ref_tags = population(), population()
    rng, ref_rng = RngStream(seed, 2), RngStream(seed, 2)
    # the kernel is handed the answering tags; the reference picks its own
    trace = run_fsa_round([t for t in tags if not t.identified], slots, rng)
    ref = reference_round(ref_tags, slots, ref_rng)
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


@pytest.mark.parametrize("slots", [16, 1024, 100])
@pytest.mark.parametrize("offset", [1, 32 - 2, 32 + 1])
def test_fsa_rounds_at_varied_stream_offsets_match_the_reference(slots, offset):
    # `offset` single draws read before the first round, and each round's
    # `next`, leave the rounds' takes at varied points of the stream
    tags, ref_tags = make_population(90), make_population(90)
    rng, ref_rng = RngStream(19, offset), RngStream(19, offset)
    for _ in range(offset):
        assert next(rng) == next(ref_rng)
    for _ in range(4):
        trace = run_fsa_round([t for t in tags if not t.identified], slots, rng)
        ref = reference_round(ref_tags, slots, ref_rng)
        assert (trace.idle_count, trace.reserved_true_count, trace.detected_collision_count,
                trace.responders, trace.identified_epcs) == (
            ref.idle, ref.reserved_true, ref.detected, ref.responders, ref.identified_epcs)
        assert next(rng) == next(ref_rng)


def test_a_large_fsa_round_holds_its_draws_a_piece_at_a_time():
    tags = make_population(100_000)
    rng = RngStream(23, 0)
    tracemalloc.start()
    try:
        run_fsa_round(tags, 1024, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the round's 100 000 draws are 800 KB as bytes alone, and taken at
    # once they peaked at 4 MB; a piece of PIECE_DRAWS is 24 KB
    assert peak < 400 * 1024


def test_fsa_round_statistics_match_expectations():
    rng = RngStream(1357, 0)
    rounds = 2000
    reserved_total = 0
    for _ in range(rounds):
        trace = run_fsa_round(make_population(100), 128, rng)
        reserved_total += trace.reserved_true_count
    assert reserved_total / rounds == pytest.approx(
        expected_reserved(100, 128), rel=0.05)


def test_fsa_inventory_keeps_frame_fixed():
    tags = make_population(30)
    result = run_fsa_inventory(tags, 32, RngStream(4, 0), max_rounds=300)
    assert result.completed
    assert result.tags_identified == 30
    assert all(t.slots == 32 for t in result.traces)
    assert all(t.seq_bits == 0 for t in result.traces)


def test_fsa_inventory_empty_population():
    result = run_fsa_inventory([], 16, RngStream(4, 0))
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
    for bad in (-1, math.nan, math.inf, -math.inf, "5", None, True):
        with pytest.raises(ValueError, match=r"^k_est must be finite and >= 0$"):
            edfsa_plan(bad)


def test_edfsa_groups_partition_responders():
    # backlog estimate of 600 forces a 3-group first cycle
    tags = make_population(600)
    result = run_edfsa_inventory(
        tags, RngStream(17, 0), max_rounds=3, initial_estimate=600.0)
    assert result.rounds_used == 3
    group_sizes = [trace.responders for trace in result.traces]
    # every tag responded in exactly one of the cycle's rounds
    assert sum(group_sizes) == 600
    expected_sizes = [len([e for e in range(600) if e % 3 == g]) for g in range(3)]
    assert group_sizes == expected_sizes


def test_edfsa_inventory_completes():
    tags = make_population(100)
    result = run_edfsa_inventory(tags, RngStream(6, 0), max_rounds=500)
    assert result.completed
    assert result.tags_identified == 100
    assert all(t.identified for t in tags)
    assert all(t.slots in EDFSA_FRAME_CHOICES for t in result.traces)


def test_edfsa_inventory_empty_population():
    result = run_edfsa_inventory([], RngStream(6, 0))
    assert result.rounds_used == 1
    assert result.completed
    # initial estimate of 128 plans a 128-slot frame
    assert result.traces[0].slots == 128


def test_edfsa_validation():
    with pytest.raises(ValueError):
        run_edfsa_inventory([], RngStream(1, 0), max_rounds=0)
    for estimate in (-5.0, math.inf, math.nan, "128", None, True):
        with pytest.raises(ValueError, match=r"^initial_estimate must be finite and >= 0$"):
            run_edfsa_inventory([], ScriptedStream([]), initial_estimate=estimate)
    # the FSA kernel takes a whole number of slots, at least one
    for slots, message in ((2.5, "slots must be an integer"),
                           (True, "slots must be an integer"), (0, "slots must be >= 1"),
                           ("8", "slots must be an integer"), (-3, "slots must be >= 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_fsa_round(make_population(3), slots, ScriptedStream([]))
    # an int subclass is a whole number of slots too
    class Slots(int):
        pass

    assert run_fsa_round(make_population(3), Slots(4), ScriptedStream([0, 1, 1])) == (
        run_fsa_round(make_population(3), 4, ScriptedStream([0, 1, 1])))


def test_reservation_beats_edfsa_per_tag():
    seeds = 60
    afsa_total = afsa_identified = 0.0
    edfsa_total = edfsa_identified = 0.0
    for seed in range(seeds):
        tags = make_population(100)
        r = run_afsa_inventory(
            tags, FrameConfig(128, 2), 2, RngStream(seed, 0), max_rounds=1000)
        assert r.completed
        afsa_total += r.total_time_us
        afsa_identified += r.tags_identified
        tags = make_population(100)
        r = run_edfsa_inventory(
            tags, RngStream(seed, 1), max_rounds=1000,
            initial_estimate=128.0)
        assert r.completed
        edfsa_total += r.total_time_us
        edfsa_identified += r.tags_identified
    afsa_per_tag = afsa_total / afsa_identified
    edfsa_per_tag = edfsa_total / edfsa_identified
    assert afsa_per_tag < edfsa_per_tag


# EDFSA's decision from slot counts: the plan by bisection and the memoised
# backlog estimate, pinned to the checked arithmetic they replace.

def _nearest_menu_plan(k_est):
    """The nearest-size rule as a scan of the menu, ties toward the larger frame."""
    slots = min(EDFSA_FRAME_CHOICES, key=lambda c: (abs(c - k_est), -c))
    groups = math.ceil(k_est / EDFSA_MAX_FRAME) if k_est > EDFSA_MAX_FRAME else 1
    return EdfsaPlan(slots, groups)


def _near(x, ulps=50):
    """`x` and the floats up to `ulps` steps either side of it."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + above


def test_plan_by_bisection_equals_the_nearest_menu_size_near_every_boundary():
    points = [k for x in (0.0, 16.0, 24.0, 48.0, 96.0, 192.0, 256.0)
              for k in _near(x) if k >= 0]
    points += [float(k) for k in range(5000)]
    for k in points:
        expected = _nearest_menu_plan(k)
        assert baselines._plan(k) == expected
        assert edfsa_plan(k) == expected


@given(k_est=st.floats(min_value=0.0, max_value=1e7))
@settings(max_examples=500, deadline=None)
def test_plan_by_bisection_equals_the_nearest_menu_size(k_est):
    assert baselines._plan(k_est) == _nearest_menu_plan(k_est)


def _fsa_partitions(max_slots):
    """(idle, reserved, detected) counts that fill an FSA frame."""
    return st.integers(min_value=1, max_value=max_slots).flatmap(
        lambda slots: st.lists(st.integers(min_value=0, max_value=slots),
                               min_size=2, max_size=2).map(
            lambda cuts: [b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [slots])]))


@given(counts=_fsa_partitions(4096))
@settings(max_examples=300, deadline=None)
@example(counts=[0, 0, 1024])  # no idle slot: the collision floor
@example(counts=[0, 40, 216])
@example(counts=[1, 0, 0])  # one-slot frames
@example(counts=[0, 1, 0])
@example(counts=[0, 0, 1])
@example(counts=[58, 46, 24])
def test_backlog_memo_equals_the_checked_estimate(counts):
    idle, reserved, detected = counts
    slots = sum(counts)
    trace = RoundTrace(
        slots=slots, seq_bits=0, responders=reserved + 2 * detected, idle_count=idle,
        reserved_true_count=reserved, detected_collision_count=detected,
        undetected_collision_count=0, identified_epcs=tuple(range(reserved)),
        total_us=TIMING.advert_us + TIMING.data_slot_us * slots)
    expected = estimate_backlog(trace)
    key = estimator._key(trace)
    # the key holds the checked estimate's inputs, bit for bit, and the
    # idle count and frame size that choose its rule
    assert estimator._estimate(*key).hex() == expected.hex()
    assert (key[0], key[4]) == (idle, slots)
    estimator._backlog.cache_clear()
    # a miss and then a hit
    assert estimator._backlog(*key) == expected
    assert estimator._backlog(*key) == expected
    assert estimator._backlog.cache_info()[:2] == (1, 1)


def _check_cycles(result, initial_estimate):
    """Each cycle's plan is the checked plan of the summed checked estimates
    of the cycle before; return the largest group count seen."""
    traces = list(result.traces)
    plan = edfsa_plan(initial_estimate)
    most_groups = 0
    while traces:
        cycle, traces = traces[:plan.groups], traces[plan.groups:]
        assert all(t.slots == plan.slots for t in cycle)
        most_groups = max(most_groups, plan.groups)
        plan = edfsa_plan(sum(estimate_backlog(t) for t in cycle))
    return most_groups


def test_memoised_edfsa_cycles_equal_the_checked_arithmetic():
    # the churn-edfsa benchmark shape at five trials
    config = ExperimentConfig(protocol="edfsa", k_initial=300, frame_slots=128, trials=5,
                              arrival_rate=2.0, departure_prob=0.02, seed=5)
    estimator._backlog.cache_clear()
    cold = [run_trial(config, t) for t in range(config.trials)]
    warm = [run_trial(config, t) for t in range(config.trials)]
    assert cold == warm
    assert estimator._backlog.cache_info().hits > 0
    most_groups = max(_check_cycles(result, float(config.frame_slots)) for result in cold)
    assert most_groups > 1


def test_backlog_memo_stays_within_its_bound():
    estimator._backlog.cache_clear()
    slots = afsa._MEMO_ENTRIES + 100
    for reserved in range(slots + 1):
        estimator._backlog(slots - reserved, reserved, 0, reserved, slots)
    info = estimator._backlog.cache_info()
    assert info.maxsize == afsa._MEMO_ENTRIES
    assert info.currsize <= afsa._MEMO_ENTRIES
    assert info.misses > afsa._MEMO_ENTRIES


def test_an_edfsa_round_runs_no_checked_estimator(monkeypatch):
    def run():
        return run_edfsa_inventory(make_population(600), RngStream(23, 0),
                                   initial_estimate=600.0)

    before = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the checked estimator ran")

    monkeypatch.setattr(baselines, "estimate_backlog", refuse)
    monkeypatch.setattr(estimator, "estimate_from_counts", refuse)
    estimator._backlog.cache_clear()
    after = run()
    assert after.completed
    # the first cycle runs three groups, and more cycles follow
    assert after.traces[0].slots == 256 and after.rounds_used > 3
    assert after == before
