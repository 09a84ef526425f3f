"""Experiment harness: validation, determinism, churn, aggregation."""
import pytest

from afsasim import experiment
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
    validate_experiment,
)
from afsasim.afsa import run_afsa_inventory
from afsasim.baselines import run_edfsa_inventory, run_fsa_inventory
from afsasim.estimator import auto_seq_bits, initial_seq_bits
from afsasim.model import FrameConfig, Tag, make_population
from afsasim.rng import PIECE_DRAWS, RngStream, unit_float

from oracles import ScriptedStream

FAST = ExperimentConfig(k_initial=20, frame_slots=16, trials=5, seed=3, max_rounds=200)


def test_default_config_is_valid():
    assert validate_experiment(ExperimentConfig()) == []
    # integers are real numbers too
    assert validate_experiment(ExperimentConfig(arrival_rate=1, departure_prob=0)) == []


def test_validation_reports_every_problem_at_once():
    config = ExperimentConfig(
        protocol="csma",
        k_initial=-1,
        frame_slots=0,
        seq_bits=0,
        trials=0,
        max_rounds=0,
        arrival_rate=-0.5,
        departure_prob=1.5,
    )
    problems = validate_experiment(config)
    assert len(problems) == 8
    for field in ("protocol", "k_initial", "frame_slots", "seq_bits",
                  "trials", "max_rounds", "arrival_rate", "departure_prob"):
        assert any(field in p for p in problems), field


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
])
def test_validation_messages_name_field_and_constraint(field, value, fragment):
    config = ExperimentConfig()._replace(**{field: value})
    problems = validate_experiment(config)
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
])
def test_validation_checks_types_without_raising(field, value, message):
    config = ExperimentConfig()._replace(**{field: value})
    # one message for the field, and no range check on the wrong type
    assert validate_experiment(config) == [message]
    with pytest.raises(ExperimentConfigError) as err:
        run_experiment(config)
    assert err.value.problems == [message]


def test_caps_accept_their_own_value():
    # validation only: a config at the caps is never run here
    config = ExperimentConfig()._replace(
        k_initial=MAX_TAGS, frame_slots=MAX_FRAME_SLOTS, trials=MAX_TRIALS, seed=MAX_SEED)
    assert validate_experiment(config) == []
    assert validate_experiment(config._replace(seed=0)) == []


def test_run_experiment_rejects_invalid_config():
    with pytest.raises(ExperimentConfigError) as err:
        run_experiment(ExperimentConfig(trials=0))
    assert "trials" in str(err.value)


def test_iter_trials_checks_at_the_call_and_yields_in_trial_order():
    # the check raises before the first trial is asked for
    with pytest.raises(ExperimentConfigError):
        iter_trials(ExperimentConfig(trials=0))
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
    with pytest.raises(ExperimentConfigError) as err:
        run_trial(ExperimentConfig(frame_slots=MAX_FRAME_SLOTS + 1), 0)
    assert err.value.problems == [f"frame_slots must be <= {MAX_FRAME_SLOTS}"]


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


def _check_churn_against_a_full_scan(protocol, k_initial=60, max_rounds=200):
    # the trial's churn, which keeps its own list of present tags, against
    # the plain loop over the whole population: one uniform per present tag
    # in population order, then the arrivals, and a rescan for the tags
    # that answer next
    config = FAST._replace(protocol=protocol, k_initial=k_initial, frame_slots=32,
                           arrival_rate=1.5, departure_prob=0.2, max_rounds=max_rounds)
    for trial in range(3):
        rng = RngStream(config.seed, trial)
        population = make_population(config.k_initial)
        departed = set()

        def churn(active):
            for tag in population:
                if tag.epc not in departed and unit_float(next(rng)) < config.departure_prob:
                    departed.add(tag.epc)
            for _ in range(_poisson(config.arrival_rate, rng)):
                population.append(Tag(epc=len(population)))
            return [t for t in population if t.epc not in departed and not t.identified]

        inventory = {
            "afsa": lambda: run_afsa_inventory(
                population, FrameConfig(32, initial_seq_bits(config.frame_slots)),
                None, rng, max_rounds=config.max_rounds, between_rounds=churn),
            "fsa": lambda: run_fsa_inventory(
                population, 32, rng, max_rounds=config.max_rounds, between_rounds=churn),
            "edfsa": lambda: run_edfsa_inventory(
                population, rng, max_rounds=config.max_rounds, initial_estimate=32.0,
                between_rounds=churn),
        }[protocol]
        expected = inventory()
        assert len(expected.traces) > 1
        assert run_trial(config, trial) == expected


def test_churn_draws_match_one_draw_per_present_tag():
    _check_churn_against_a_full_scan("afsa")


@pytest.mark.parametrize("protocol", ["fsa", "edfsa"])
def test_baseline_churn_draws_match_one_draw_per_present_tag(protocol):
    _check_churn_against_a_full_scan(protocol)


def test_churn_draws_past_one_piece_match_one_draw_per_present_tag():
    # more present tags than PIECE_DRAWS: a gap takes its draws in pieces
    _check_churn_against_a_full_scan("fsa", k_initial=PIECE_DRAWS + 500, max_rounds=3)


@pytest.mark.parametrize("slots", [
    *range(1, 65),
    *(1 << e for e in range(7, 17)),
    # not powers of two
    100, 1000, 4097, 65535,
])
def test_the_memoised_first_frame_assumes_load_one(slots):
    experiment._first_frame.cache_clear()
    auto = FrameConfig(slots, auto_seq_bits(float(slots), slots))
    # computed, then from the memo
    assert experiment._first_frame(slots, None) == auto
    assert experiment._first_frame(slots, None) == auto
    # a pinned sequence length is taken as it is
    assert experiment._first_frame(slots, 5) == FrameConfig(slots, 5)
    assert experiment._first_frame.cache_info().hits == 1


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
