"""Experiment harness: validation, determinism, churn, aggregation."""
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsasim import estimator, experiment
from afsasim.experiment import (
    MAX_FRAME_SLOTS,
    MAX_SEED,
    MAX_TAGS,
    MAX_TRIALS,
    ExperimentConfig,
    ExperimentConfigError,
    iter_trials,
    run_experiment,
    run_trial,
    _poisson,
)
from afsasim.afsa import run_afsa_inventory
from afsasim.baselines import run_edfsa_inventory, run_fsa_inventory
from afsasim.estimator import auto_seq_bits
from afsasim.model import FrameConfig, Tag, make_population
from afsasim.rng import PIECE_DRAWS, RngStream, _unit_float

from oracles import ScriptedStream, reference_poisson

FAST = ExperimentConfig(k_initial=20, frame_slots=16, trials=5, seed=3, max_rounds=200)


def test_default_config_is_valid():
    assert ExperimentConfig() == experiment._ExperimentFields()
    # integers are real numbers too
    assert ExperimentConfig(arrival_rate=1, departure_prob=0).arrival_rate == 1


def test_validation_reports_every_problem_at_once():
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig(
            protocol="csma",
            k_initial=-1,
            frame_slots=0,
            seq_bits=0,
            trials=0,
            max_rounds=0,
            arrival_rate=-0.5,
            departure_prob=1.5,
        )
    problems = err.value.problems
    assert len(problems) == 8
    for field in ("protocol", "k_initial", "frame_slots", "seq_bits",
                  "trials", "max_rounds", "arrival_rate", "departure_prob"):
        assert any(field in p for p in problems), field
    # in field order, each worded in full
    assert problems == [
        "protocol must be one of afsa, fsa, edfsa",
        "k_initial must be >= 0",
        "frame_slots must be >= 1",
        "seq_bits must be in [1, 16] or None for auto",
        "trials must be >= 1",
        "max_rounds must be >= 1",
        "arrival_rate must be >= 0",
        "departure_prob must be in [0, 1]",
    ]


@pytest.mark.parametrize("field,value,fragment", [
    ("protocol", "aloha", "protocol must be one of"),
    ("k_initial", -3, "k_initial must be >= 0"),
    ("frame_slots", 0, "frame_slots must be >= 1"),
    ("seq_bits", 17, "seq_bits must be in [1, 16]"),
    ("trials", 0, "trials must be >= 1"),
    ("max_rounds", 0, "max_rounds must be >= 1"),
    ("arrival_rate", -1.0, "arrival_rate must be >= 0"),
    ("arrival_rate", float("nan"), "arrival_rate must be finite and <= 700"),
    ("arrival_rate", float("inf"), "arrival_rate must be finite and <= 700"),
    ("arrival_rate", 800.0, "arrival_rate must be finite and <= 700"),
    ("departure_prob", -0.1, "departure_prob must be in [0, 1]"),
    ("k_initial", MAX_TAGS + 1, f"k_initial must be <= {MAX_TAGS}"),
    ("frame_slots", MAX_FRAME_SLOTS + 1, f"frame_slots must be <= {MAX_FRAME_SLOTS}"),
    ("trials", MAX_TRIALS + 1, f"trials must be <= {MAX_TRIALS}"),
    ("seed", -1, "seed must be in [0, 2**64 - 1]"),
    ("seed", MAX_SEED + 1, "seed must be in [0, 2**64 - 1]"),
    ("seed", -MAX_SEED, "seed must be in [0, 2**64 - 1]"),
    ("k_initial", 10**7, "k_initial must be <= 1000000"),
    ("frame_slots", 2**20, "frame_slots must be <= 65536"),
    ("trials", 10**7, "trials must be <= 1000000"),
    ("max_rounds", -5, "max_rounds must be >= 1"),
    ("k_initial", -1, "k_initial must be >= 0"),
])
def test_validation_messages_name_field_and_constraint(field, value, fragment):
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig()._replace(**{field: value})
    problems = err.value.problems
    assert problems == [fragment] or fragment in problems[0]


@pytest.mark.parametrize("field,value,message", [
    ("k_initial", 2.5, "k_initial must be an integer"),
    ("k_initial", "5", "k_initial must be an integer"),
    ("k_initial", True, "k_initial must be an integer"),
    ("frame_slots", 16.0, "frame_slots must be an integer"),
    ("frame_slots", None, "frame_slots must be an integer"),
    ("trials", 1.5, "trials must be an integer"),
    ("trials", "3", "trials must be an integer"),
    ("seed", 1.0, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"),
    ("max_rounds", float("inf"), "max_rounds must be an integer"),
    ("max_rounds", [1], "max_rounds must be an integer"),
    ("seq_bits", 2.0, "seq_bits must be an integer or None for auto"),
    ("seq_bits", "auto", "seq_bits must be an integer or None for auto"),
    ("arrival_rate", "0.5", "arrival_rate must be a real number"),
    ("arrival_rate", None, "arrival_rate must be a real number"),
    ("departure_prob", "0.1", "departure_prob must be a real number"),
    ("departure_prob", 1j, "departure_prob must be a real number"),
    ("protocol", ["afsa"], "protocol must be one of afsa, fsa, edfsa"),
    ("trials", True, "trials must be an integer"),
    ("max_rounds", 2.0, "max_rounds must be an integer"),
])
def test_validation_checks_types_without_raising(field, value, message):
    # one message for the field, and no range check on the wrong type, so
    # the check itself never raises a TypeError
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig()._replace(**{field: value})
    assert err.value.problems == [message]
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig(**{field: value})
    assert err.value.problems == [message]


def test_caps_accept_their_own_value():
    # building only: a config at the caps is never run here
    config = ExperimentConfig()._replace(
        k_initial=MAX_TAGS, frame_slots=MAX_FRAME_SLOTS, trials=MAX_TRIALS, seed=MAX_SEED)
    assert config.seed == MAX_SEED
    assert config._replace(seed=0).seed == 0


def test_run_experiment_rejects_invalid_config():
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig(trials=0)
    assert "trials" in str(err.value)
    # a look-alike that skipped the checks is no config
    with pytest.raises(ValueError, match="^config must be an ExperimentConfig$"):
        run_experiment(experiment._ExperimentFields(trials=0))


def test_replace_make_and_pickle_validate():
    # each way to build a config runs the constructor's checks
    with pytest.raises(ExperimentConfigError) as err:
        FAST._replace(trials=0, seed=-1)
    assert err.value.problems == ["trials must be >= 1", "seed must be in [0, 2**64 - 1]"]
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig._make((FAST._asdict() | {"trials": 0}).values())
    assert err.value.problems == ["trials must be >= 1"]
    # a valid config survives a pickle round trip, as worker processes need
    copy = pickle.loads(pickle.dumps(FAST))
    assert copy == FAST and type(copy) is ExperimentConfig
    # one forged behind the constructor's back is refused when unpickled
    forged = tuple.__new__(ExperimentConfig, experiment._ExperimentFields(*FAST)._replace(trials=0))
    data = pickle.dumps(forged)
    with pytest.raises(ExperimentConfigError) as err:
        pickle.loads(data)
    assert err.value.problems == ["trials must be >= 1"]


def test_iter_trials_checks_at_the_call_and_yields_in_trial_order():
    # the check raises before the first trial is asked for
    with pytest.raises(ValueError, match="^config must be an ExperimentConfig$"):
        iter_trials(experiment._ExperimentFields(trials=0))
    trials = iter_trials(FAST)
    assert next(trials) == run_trial(FAST, 0)
    assert [next(trials) for _ in range(FAST.trials - 1)] == [
        run_trial(FAST, t) for t in range(1, FAST.trials)]
    assert next(trials, None) is None


def test_trials_are_independent_streams():
    # trial t's outcome does not depend on how many trials surround it
    few = run_experiment(FAST._replace(trials=3))
    many = run_experiment(FAST._replace(trials=6))
    assert many.trials[:3] == few.trials
    assert run_trial(FAST, 2) == few.trials[2]
    # nor on the order trials run in, churn included
    churned = FAST._replace(trials=12, arrival_rate=1.0, departure_prob=0.1)
    reverse = [run_trial(churned, t) for t in reversed(range(churned.trials))]
    assert reverse[::-1] == run_experiment(churned).trials


def test_same_config_reproduces_exactly():
    a = run_experiment(FAST)
    b = run_experiment(FAST)
    assert a.trials == b.trials
    assert a.aggregate == b.aggregate


def _no_allocation(*args, **kwargs):
    raise AssertionError("a trial allocated before its checks")


@pytest.mark.parametrize("trial_id", [-1, FAST.trials, 2**64 - 1, 1.0, True, "0", None])
def test_run_trial_rejects_an_id_outside_the_experiment(monkeypatch, trial_id):
    monkeypatch.setattr(experiment, "RngStream", _no_allocation)
    monkeypatch.setattr(experiment, "make_population", _no_allocation)
    with pytest.raises(ValueError, match=r"trial_id must be an integer in \[0, 5\)"):
        run_trial(FAST, trial_id)


def test_run_trial_rejects_an_invalid_config(monkeypatch):
    monkeypatch.setattr(experiment, "RngStream", _no_allocation)
    monkeypatch.setattr(experiment, "make_population", _no_allocation)
    # an invalid config cannot be built, and a look-alike that skipped the
    # checks is refused
    with pytest.raises(ExperimentConfigError) as err:
        ExperimentConfig(frame_slots=MAX_FRAME_SLOTS + 1)
    assert err.value.problems == [f"frame_slots must be <= {MAX_FRAME_SLOTS}"]
    look_alike = experiment._ExperimentFields(frame_slots=MAX_FRAME_SLOTS + 1)
    with pytest.raises(ValueError, match="^config must be an ExperimentConfig$"):
        run_trial(look_alike, 0)


@pytest.mark.parametrize("start", [
    lambda config: run_trial(config, 0),
    iter_trials,
    run_experiment,
], ids=["run_trial", "iter_trials", "run_experiment"])
def test_a_look_alike_config_is_refused_before_allocating(monkeypatch, start):
    monkeypatch.setattr(experiment, "RngStream", _no_allocation)
    monkeypatch.setattr(experiment, "make_population", _no_allocation)
    # valid fields, but not built through the checks
    with pytest.raises(ValueError, match="^config must be an ExperimentConfig$"):
        start(experiment._ExperimentFields(*FAST))


def test_a_config_object_is_checked_once(monkeypatch):
    # every build of a config runs the `trials` check once
    calls = []
    check = experiment.int_problem

    def counted(name, value, *bounds):
        calls.append(name)
        return check(name, value, *bounds)

    monkeypatch.setattr(experiment, "int_problem", counted)
    config = ExperimentConfig(*FAST)
    assert calls.count("trials") == 1
    # running it checks nothing again, however many trials it has
    run_experiment(config)
    run_trial(config, 1)
    assert calls.count("trials") == 1
    # each config built is checked once, an equal one too
    twin = ExperimentConfig(*config)
    run_trial(twin, 0)
    assert calls.count("trials") == 2


def test_static_run_completes_and_aggregates():
    result = run_experiment(FAST)
    agg = result.aggregate
    assert agg.trials == 5
    assert agg.all_completed
    assert agg.identification_rate == 1.0
    total_identified = sum(t.tags_identified for t in result.trials)
    total_ever = sum(t.ever_present for t in result.trials)
    assert total_identified == total_ever == 100
    # aggregate is recomputable from the trials
    per_tag = [t.per_tag_mean_us for t in result.trials]
    assert agg.mean_per_tag_us == pytest.approx(sum(per_tag) / len(per_tag))
    assert agg.min_per_tag_us == min(per_tag)
    assert agg.max_per_tag_us == max(per_tag)
    assert agg.mean_rounds == pytest.approx(
        sum(t.rounds_used for t in result.trials) / 5)


def test_empty_population_trial():
    result = run_experiment(FAST._replace(k_initial=0, trials=2))
    assert result.aggregate.all_completed
    assert result.aggregate.identification_rate == 1.0
    assert result.aggregate.mean_per_tag_us is None
    for t in result.trials:
        assert t.rounds_used == 1
        assert t.ever_present == 0


def test_zero_churn_matches_static_run():
    static = run_experiment(FAST)
    churned = run_experiment(
        FAST._replace(arrival_rate=0.0, departure_prob=0.0))
    assert static.trials == churned.trials


def test_departures_cut_inventories_short():
    result = run_experiment(
        FAST._replace(k_initial=100, frame_slots=128, departure_prob=1.0))
    for t in result.trials:
        # everyone not identified in round one left before round two
        assert t.completed
        assert t.rounds_used <= 2
        assert t.tags_identified < 100
        assert t.ever_present == 100


def test_arrivals_join_the_population():
    result = run_experiment(
        FAST._replace(trials=8, arrival_rate=3.0))
    assert any(t.ever_present > 20 for t in result.trials)
    for t in result.trials:
        assert t.tags_identified <= t.ever_present
        if t.completed:
            present_identified = t.tags_identified
            assert present_identified >= 20 or t.rounds_used == 1
    assert 0.0 < result.aggregate.identification_rate <= 1.0


@pytest.mark.parametrize("rate, bits, arrivals", [
    # under this top draw the running CDF stops growing 2.2e-16 below 1,
    # and the draw is the first count that no longer moves it
    (7.064220183486238, 2**64 - 1, 39),
    # a CDF that reaches the draw keeps its value
    (2.0, 2**64 - 1, 22),
    (2.0, 1 << 63, 2),
])
def test_poisson_tail_draws(rate, bits, arrivals):
    assert _poisson(rate, ScriptedStream([bits])) == arrivals


def test_a_poisson_draw_reads_the_next_draw_and_passes_on_the_stream_errors():
    with pytest.raises(IndexError):
        _poisson(1.0, ScriptedStream([]))
    # from a stream, the draw is the stream's next one
    stream, twin = RngStream(4, 2), RngStream(4, 2)
    assert [_poisson(3.0, stream) for _ in range(40)] == [
        _poisson(3.0, ScriptedStream([next(twin)])) for _ in range(40)]
    assert next(stream) == next(twin)


@pytest.mark.parametrize("rate", [
    1e-9, 0.5, 2, 2.0, Fraction(7, 3), 7.064220183486238, 700,
], ids=repr)
def test_a_poisson_draw_is_the_reference_loops_and_reads_one_draw(rate):
    # the CDF table is summed as the loop sums it, so a bisection in it
    # returns the loop's count: for random draws, the extremes, and the
    # draws on either side of, and at, each entry of the table
    uniform = random.Random(5)
    draws = [0, 1 << 63, 2**64 - 1] + [uniform.getrandbits(64) for _ in range(200)]
    for cdf in experiment._cdf(rate):
        grid = int(cdf * 2.0 ** 53)
        draws += [m << 11 for m in (grid - 1, grid, grid + 1) if 0 <= m < 2 ** 53]
    for bits in draws:
        stream = ScriptedStream([bits, 7])
        assert _poisson(rate, stream) == reference_poisson(rate, bits)
        assert stream.remaining == 1


def test_the_cdf_memo_builds_a_rates_table_once_and_stays_within_its_bound():
    experiment._cdf.cache_clear()
    run_experiment(FAST._replace(arrival_rate=2.0))
    info = experiment._cdf.cache_info()
    assert info.misses == 1 and info.hits > 0
    for rate in range(1, experiment._CDF_TABLES + 10):
        experiment._cdf(rate)
    info = experiment._cdf.cache_info()
    assert info.maxsize == experiment._CDF_TABLES
    assert info.currsize <= experiment._CDF_TABLES
    assert info.misses > experiment._CDF_TABLES


@pytest.mark.parametrize("departure_prob", [0.0, 1e-9])
def test_a_gap_with_no_arrival_and_no_leaver_returns_the_handed_list(
        monkeypatch, departure_prob):
    # every tag stays (a top draw is no departure) and the arrivals draw
    # is 0: the hook hands back the list it was handed, copying nothing
    stays = [2**64 - 1] * 3 if departure_prob else []
    stream = ScriptedStream(stays + [0])
    played = []
    monkeypatch.setattr(experiment, "_spare", [])
    monkeypatch.setattr(experiment, "RngStream", lambda seed, trial: stream)
    monkeypatch.setattr(experiment, "_dispatch",
                        lambda config, population, rng, churn: played.append((population, churn)))
    run_trial(ExperimentConfig(k_initial=3, trials=1, arrival_rate=0.5,
                               departure_prob=departure_prob), 0)
    [(population, churn)] = played
    active = population.copy()
    assert churn(active) is active
    assert stream.remaining == 0
    assert population == make_population(3)


def _played_afresh(config, trial):
    # trial `trial` of `config` played from public parts: the protocol's
    # inventory on a population built anew.  A churned config gets the
    # plain loop over the whole population: one uniform per present tag in
    # population order, then the arrivals, and a rescan for the tags that
    # answer next; it draws both every gap, so it needs both rates nonzero.
    rng = RngStream(config.seed, trial)
    population = make_population(config.k_initial)
    churn = None
    if config.arrival_rate > 0 or config.departure_prob > 0:
        departed = set()

        def churn(active):
            for tag in population:
                if tag.epc not in departed and _unit_float(next(rng)) < config.departure_prob:
                    departed.add(tag.epc)
            for _ in range(_poisson(config.arrival_rate, rng)):
                population.append(Tag(epc=len(population)))
            return [t for t in population if t.epc not in departed and not t.identified]

    slots = config.frame_slots
    first_seq_bits = config.seq_bits or auto_seq_bits(slots, slots)
    inventory = {
        "afsa": lambda: run_afsa_inventory(
            population, FrameConfig(slots, first_seq_bits), config.seq_bits, rng,
            max_rounds=config.max_rounds, between_rounds=churn),
        "fsa": lambda: run_fsa_inventory(
            population, slots, rng, max_rounds=config.max_rounds, between_rounds=churn),
        "edfsa": lambda: run_edfsa_inventory(
            population, rng, max_rounds=config.max_rounds, initial_estimate=float(slots),
            between_rounds=churn),
    }[config.protocol]
    return inventory()


def _check_churn_against_a_full_scan(protocol, k_initial=60, max_rounds=200,
                                     departure_prob=0.2):
    # the trial's churn, which keeps its own list of present tags, against
    # the plain loop over the whole population
    config = FAST._replace(protocol=protocol, k_initial=k_initial, frame_slots=32,
                           arrival_rate=1.5, departure_prob=departure_prob,
                           max_rounds=max_rounds)
    for trial in range(3):
        expected = _played_afresh(config, trial)
        assert len(expected.traces) > 1
        assert run_trial(config, trial) == expected


def test_churn_draws_match_one_draw_per_present_tag():
    _check_churn_against_a_full_scan("afsa")


@pytest.mark.parametrize("protocol", ["fsa", "edfsa"])
def test_baseline_churn_draws_match_one_draw_per_present_tag(protocol):
    _check_churn_against_a_full_scan(protocol)


def test_churn_draws_past_one_piece_match_one_draw_per_present_tag():
    # more present tags than PIECE_DRAWS: a gap takes its draws in pieces;
    # at the boundary, the first gap takes exactly one piece with one
    # `take`, or one draw more in two pieces
    for k_initial in (PIECE_DRAWS, PIECE_DRAWS + 1, PIECE_DRAWS + 500):
        _check_churn_against_a_full_scan("fsa", k_initial=k_initial, max_rounds=3)


# 2**-60: a cut of 2048, so nobody leaves and a draw ties the cut's top
# byte whenever its own is 0; 0.5: a cut of 2**63; 1.0: everybody leaves
@pytest.mark.parametrize("departure_prob", [2**-60, 0.5, 1.0])
def test_churn_draws_at_any_departure_rate_match_one_draw_per_present_tag(departure_prob):
    _check_churn_against_a_full_scan("afsa", departure_prob=departure_prob)


def test_churn_draws_past_one_piece_at_half_departures_match_one_draw_per_present_tag():
    _check_churn_against_a_full_scan("fsa", k_initial=PIECE_DRAWS + 500, max_rounds=3,
                                     departure_prob=0.5)


# few leavers per gap, so most gaps delete them one at a time: the
# benchmark's EDFSA churn, and FSA past one piece
@pytest.mark.parametrize("protocol, k_initial, max_rounds, departure_prob", [
    ("edfsa", 300, 200, 0.02),
    ("fsa", PIECE_DRAWS + 500, 3, 0.01),
])
def test_churn_with_few_leavers_per_gap_matches_one_draw_per_present_tag(
        monkeypatch, protocol, k_initial, max_rounds, departure_prob):
    gaps, rebuilds = [], []
    depart, rebuild = experiment._depart, experiment.compress
    monkeypatch.setattr(experiment, "_depart",
                        lambda *lists: gaps.append(1) or depart(*lists))
    monkeypatch.setattr(experiment, "compress",
                        lambda *args: rebuilds.append(1) or rebuild(*args))
    _check_churn_against_a_full_scan(protocol, k_initial=k_initial, max_rounds=max_rounds,
                                     departure_prob=departure_prob)
    assert len(rebuilds) < len(gaps) / 2


def _full_scan(present, stays):
    present = list(compress(present, stays))
    return present, [tag for tag in present if not tag.identified]


@st.composite
def _gaps(draw):
    # present tags in EPC order, identified or not, and a departure mark
    # per tag, from no leaver up to all of them
    epcs = sorted(draw(st.sets(st.integers(0, 10**6), max_size=400)))
    present = [Tag(epc, draw(st.booleans())) for epc in epcs]
    leavers = draw(st.sets(st.sampled_from(range(len(present))), max_size=len(present))
                   if present else st.just(set()))
    return present, bytes(i not in leavers for i in range(len(present)))


@settings(max_examples=300, deadline=None)
@given(_gaps())
def test_a_gap_keeps_the_stayers_in_order_and_leaves_the_handed_list(gap):
    present, stays = gap
    active = [tag for tag in present if not tag.identified]
    handed = active.copy()
    expected = _full_scan(present, stays)
    kept, answering = experiment._depart(present.copy(), active, stays)
    assert (kept, answering) == expected
    assert all(map(operator.is_, kept + answering, expected[0] + expected[1]))
    assert len(active) == len(handed) and all(map(operator.is_, active, handed))


@pytest.mark.parametrize("count", [
    # the share sets the limit: 2 leavers
    2 * experiment._LEAVER_SHARE,
    # the cap sets it
    experiment._LEAVER_SHARE * experiment._LEAVER_CAP + 500,
])
@pytest.mark.parametrize("over", [0, 1])
def test_a_gap_deletes_up_to_the_limit_and_rebuilds_past_it(count, over):
    limit = min(count // experiment._LEAVER_SHARE, experiment._LEAVER_CAP)
    present = make_population(count)
    for tag in present[::3]:
        tag.identified = True
    active = [tag for tag in present if not tag.identified]
    handed = active.copy()
    # leavers spread over the list, identified ones and others
    step = count // (limit + over)
    leavers = {i * step + i % 2 for i in range(limit + over)}
    stays = bytes(i not in leavers for i in range(count))
    expected = _full_scan(present, stays)
    kept, answering = experiment._depart(present, active, stays)
    assert (kept, answering) == expected
    assert len(kept) == count - limit - over
    assert active == handed
    # deletions work in place on `present`; a rebuild makes a new list
    assert (kept is present) == (not over)


def test_a_gap_where_only_the_first_present_tag_leaves(monkeypatch):
    # scripted departure draws: 0 leaves and the top draw stays, so in each
    # gap the first present tag alone leaves; tag 1 is identified, so it
    # answers no round but still takes a draw until it leaves
    top = 2**64 - 1
    script = ScriptedStream([0, top, top, top, top] + [0, top, top, top] + [0, top, top])
    hook = {}
    monkeypatch.setattr(experiment, "RngStream", lambda seed, stream_id: script)
    monkeypatch.setattr(experiment, "_dispatch",
                        lambda config, population, rng, churn: hook.update(
                            population=population, churn=churn))
    run_trial(FAST._replace(k_initial=5, departure_prob=0.5), 0)
    population, churn = hook["population"], hook["churn"]
    population[1].identified = True
    active = [tag for tag in population if not tag.identified]
    answering = []
    for _ in range(3):
        active = churn(active)
        answering.append([tag.epc for tag in active])
    assert answering == [[2, 3, 4], [2, 3, 4], [3, 4]]
    assert script.remaining == 0


def test_a_trial_reuses_the_last_trials_tags(monkeypatch):
    # at most the first trial builds tags; the others reset the last ones
    built = []
    monkeypatch.setattr(experiment, "make_population",
                        lambda count: built.append(count) or make_population(count))
    run_experiment(FAST)
    assert built in ([], [FAST.k_initial])


@pytest.mark.parametrize("take", [None, 2], ids=["exhausted", "closed"])
def test_a_finished_run_lets_the_last_trials_tags_go(take):
    # a 1 000 000-tag run would otherwise hold about 88 MB of tags after it
    trials = iter_trials(FAST)
    if take is None:
        assert len(list(trials)) == FAST.trials
    else:
        for _ in zip(range(take), trials):
            pass
        assert experiment._spare != []
        trials.close()
    assert experiment._spare == []
    run_experiment(FAST)
    assert experiment._spare == []


def test_a_refused_trial_leaves_the_last_trials_tags(monkeypatch):
    # the checks come before a trial takes the last trial's tags
    run_trial(FAST, 0)
    monkeypatch.setattr(experiment, "make_population", _no_allocation)
    with pytest.raises(ValueError):
        run_trial(FAST, FAST.trials)
    with pytest.raises(ExperimentConfigError):
        run_trial(FAST._replace(trials=0), 0)
    assert run_trial(FAST, 1) == _played_afresh(FAST, 1)


def test_reused_tags_give_the_results_of_fresh_ones():
    # the last trial's tags cut to fewer, grown to more, and emptied
    shapes = product((30, 5, 60, 0, 30), ("afsa", "fsa", "edfsa"))
    for trial, (k_initial, protocol) in enumerate(shapes):
        config = FAST._replace(protocol=protocol, k_initial=k_initial, frame_slots=32,
                               trials=15)
        assert run_trial(config, trial) == _played_afresh(config, trial)


def test_tags_that_arrived_in_a_churned_trial_are_reused_with_their_epcs():
    # EDFSA groups tags by EPC, so an arrival reused with a wrong EPC
    # would answer in the wrong group
    churned = FAST._replace(protocol="edfsa", k_initial=60, frame_slots=32,
                            arrival_rate=1.5, departure_prob=0.2)
    static = churned._replace(arrival_rate=0.0, departure_prob=0.0)
    expected = _played_afresh(churned, 0)
    assert expected.ever_present > churned.k_initial
    assert run_trial(churned, 0) == expected
    # every tag the churned trial left, arrivals too
    larger = static._replace(k_initial=expected.ever_present)
    assert run_trial(larger, 1) == _played_afresh(larger, 1)
    assert run_trial(churned, 2) == _played_afresh(churned, 2)
    assert run_trial(static, 3) == _played_afresh(static, 3)


def test_a_trial_nested_in_another_builds_its_own_tags(monkeypatch):
    config = FAST._replace(k_initial=30, frame_slots=32)
    run_trial(config, 0)
    dispatch = experiment._dispatch
    inner = []

    def nested(*args):
        # only the outer trial nests one
        monkeypatch.setattr(experiment, "_dispatch", dispatch)
        inner.append(run_trial(config, 1))
        return dispatch(*args)

    monkeypatch.setattr(experiment, "_dispatch", nested)
    assert run_trial(config, 2) == _played_afresh(config, 2)
    assert inner == [_played_afresh(config, 1)]


def test_a_trial_after_one_that_raised_starts_from_unidentified_tags(monkeypatch):
    config = FAST._replace(k_initial=30, frame_slots=32)
    run_trial(config, 0)
    kernel = experiment.run_afsa_inventory
    marked = []

    def first_round_then_fail(population, *args, **kwargs):
        kernel(population, *args, **{**kwargs, "max_rounds": 1})
        marked.append(sum(tag.identified for tag in population))
        raise RuntimeError("the reader failed after its first round")

    monkeypatch.setattr(experiment, "run_afsa_inventory", first_round_then_fail)
    with pytest.raises(RuntimeError):
        run_trial(config, 1)
    assert marked[0] > 0
    monkeypatch.undo()
    assert run_trial(config, 2) == _played_afresh(config, 2)


def test_trials_on_several_threads_share_no_tags():
    # more threads than cores, switching often: a trial that found another
    # thread's tags would see them marked or cut under it
    repeats = 20
    configs = [FAST._replace(protocol=protocol, k_initial=k_initial, frame_slots=32)
               for protocol, k_initial in product(("afsa", "edfsa"), (30, 12))]
    expected = {(config, t): _played_afresh(config, t)
                for config in configs for t in range(config.trials)}
    got, errors = [], []
    start = threading.Barrier(len(configs))

    def work(config):
        try:
            start.wait(timeout=60)
            for _ in range(repeats):
                got.extend(((config, t), run_trial(config, t)) for t in range(config.trials))
        except Exception as err:  # reported below, as a thread cannot raise to the test
            errors.append(err)

    threads = [threading.Thread(target=work, args=(config,)) for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == repeats * len(expected)
    assert [key for key, result in got if result != expected[key]] == []


@pytest.mark.parametrize("slots", [
    *range(1, 65),
    *(1 << e for e in range(7, 17)),
    # not powers of two
    100, 1000, 4097, 65535,
])
def test_the_memoised_first_frame_assumes_load_one(slots):
    estimator._first_frame.cache_clear()
    auto = FrameConfig(slots, auto_seq_bits(float(slots), slots))
    # computed, then from the memo
    assert estimator._first_frame(slots, None) == auto
    assert estimator._first_frame(slots, None) == auto
    # a pinned sequence length is taken as it is
    assert estimator._first_frame(slots, 5) == FrameConfig(slots, 5)
    assert estimator._first_frame.cache_info().hits == 1


def test_arrivals_with_departures_still_terminate():
    result = run_experiment(FAST._replace(trials=4, arrival_rate=1.0, departure_prob=0.2))
    assert result.aggregate.all_completed


def test_budget_exhaustion_flags_incomplete():
    result = run_experiment(FAST._replace(k_initial=100, max_rounds=1))
    assert not result.aggregate.all_completed
    assert all(not t.completed for t in result.trials)


def test_baseline_protocols_run():
    fsa = run_experiment(FAST._replace(protocol="fsa"))
    assert all(trial.traces[0].seq_bits == 0 for trial in fsa.trials)
    assert fsa.aggregate.all_completed
    edfsa = run_experiment(FAST._replace(protocol="edfsa"))
    assert all(trial.traces[0].seq_bits == 0 for trial in edfsa.trials)
    assert edfsa.aggregate.all_completed
    assert all(t.seq_bits == 0 for trial in fsa.trials for t in trial.traces)


def test_fixed_seq_bits_config():
    result = run_experiment(FAST._replace(seq_bits=3))
    assert all(t.seq_bits == 3 for trial in result.trials for t in trial.traces)


def test_auto_seq_bits_config():
    result = run_experiment(FAST)
    assert all(t.seq_bits >= 1 for trial in result.trials for t in trial.traces)
    assert all(trial.traces[0].seq_bits == 2 for trial in result.trials)
