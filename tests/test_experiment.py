"""Experiment harness: validation, determinism, churn, aggregation, sweeps."""
import dataclasses

import pytest

from afsasim.experiment import (
    ExperimentConfig,
    ExperimentConfigError,
    run_experiment,
    run_sweep,
    run_trial,
    sweep_configs,
    validate_experiment,
)

FAST = ExperimentConfig(k_initial=20, frame_slots=16, trials=5, seed=3, max_rounds=200)


def test_default_config_is_valid():
    assert validate_experiment(ExperimentConfig()) == []


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
])
def test_validation_messages_name_field_and_constraint(field, value, fragment):
    config = dataclasses.replace(ExperimentConfig(), **{field: value})
    problems = validate_experiment(config)
    assert problems == [fragment] or fragment in problems[0]


def test_run_experiment_rejects_invalid_config():
    with pytest.raises(ExperimentConfigError) as err:
        run_experiment(ExperimentConfig(trials=0))
    assert "trials" in str(err.value)


def test_trials_are_independent_streams():
    # trial t's outcome does not depend on how many trials surround it
    few = run_experiment(dataclasses.replace(FAST, trials=3))
    many = run_experiment(dataclasses.replace(FAST, trials=6))
    assert many.trial_records[:3] == few.trial_records
    direct = run_trial(FAST, 2)
    assert direct[0] == few.trial_records[2]


def test_same_config_reproduces_exactly():
    a = run_experiment(FAST)
    b = run_experiment(FAST)
    assert a.trial_records == b.trial_records
    assert a.round_records == b.round_records
    assert a.aggregate == b.aggregate


def test_worker_count_does_not_change_results():
    serial = run_experiment(dataclasses.replace(FAST, trials=12), workers=1)
    parallel = run_experiment(dataclasses.replace(FAST, trials=12), workers=4)
    assert serial.trial_records == parallel.trial_records
    assert serial.round_records == parallel.round_records
    with pytest.raises(ValueError):
        run_experiment(FAST, workers=0)


def test_static_run_completes_and_aggregates():
    result = run_experiment(FAST)
    agg = result.aggregate
    assert agg.trials == 5
    assert agg.all_completed
    assert agg.identification_rate == 1.0
    total_identified = sum(t.tags_identified for t in result.trial_records)
    total_ever = sum(t.ever_present for t in result.trial_records)
    assert total_identified == total_ever == 100
    # aggregate is recomputable from the trial records
    per_tag = [t.per_tag_mean_us for t in result.trial_records]
    assert agg.mean_per_tag_us == pytest.approx(sum(per_tag) / len(per_tag))
    assert agg.min_per_tag_us == min(per_tag)
    assert agg.max_per_tag_us == max(per_tag)
    assert agg.mean_rounds == pytest.approx(
        sum(t.rounds_used for t in result.trial_records) / 5)


def test_round_records_reconcile_with_trials():
    result = run_experiment(FAST)
    for t in result.trial_records:
        rounds = [r for r in result.round_records if r.trial == t.trial]
        assert len(rounds) == t.rounds_used
        assert [r.round_index for r in rounds] == list(range(1, t.rounds_used + 1))
        assert sum(r.identified for r in rounds) == t.tags_identified
        assert sum(r.time_us for r in rounds) == pytest.approx(t.total_time_us)
        assert sum(r.idle for r in rounds) == t.idle_total
        assert sum(r.undetected_collisions for r in rounds) == t.undetected_total


def test_empty_population_trial():
    result = run_experiment(dataclasses.replace(FAST, k_initial=0, trials=2))
    assert result.aggregate.all_completed
    assert result.aggregate.identification_rate == 1.0
    assert result.aggregate.mean_per_tag_us is None
    for t in result.trial_records:
        assert t.rounds_used == 1
        assert t.ever_present == 0


def test_zero_churn_matches_static_run():
    static = run_experiment(FAST)
    churned = run_experiment(
        dataclasses.replace(FAST, arrival_rate=0.0, departure_prob=0.0))
    assert static.trial_records == churned.trial_records


def test_departures_cut_inventories_short():
    result = run_experiment(
        dataclasses.replace(FAST, k_initial=100, frame_slots=128, departure_prob=1.0))
    for t in result.trial_records:
        # everyone not identified in round one left before round two
        assert t.completed
        assert t.rounds_used <= 2
        assert t.tags_identified < 100
        assert t.ever_present == 100


def test_arrivals_join_the_population():
    result = run_experiment(
        dataclasses.replace(FAST, trials=8, arrival_rate=3.0))
    assert any(t.ever_present > 20 for t in result.trial_records)
    for t in result.trial_records:
        assert t.tags_identified <= t.ever_present
        if t.completed:
            present_identified = t.tags_identified
            assert present_identified >= 20 or t.rounds_used == 1
    assert 0.0 < result.aggregate.identification_rate <= 1.0


def test_arrivals_with_departures_still_terminate():
    result = run_experiment(dataclasses.replace(
        FAST, trials=4, arrival_rate=1.0, departure_prob=0.2))
    assert result.aggregate.all_completed


def test_budget_exhaustion_flags_incomplete():
    result = run_experiment(dataclasses.replace(FAST, k_initial=100, max_rounds=1))
    assert not result.aggregate.all_completed
    assert all(not t.completed for t in result.trial_records)


def test_baseline_protocols_run():
    fsa = run_experiment(dataclasses.replace(FAST, protocol="fsa"))
    assert fsa.initial_seq_bits == 0
    assert fsa.aggregate.all_completed
    edfsa = run_experiment(dataclasses.replace(FAST, protocol="edfsa"))
    assert edfsa.initial_seq_bits == 0
    assert edfsa.aggregate.all_completed
    assert all(r.seq_bits == 0 for r in fsa.round_records)


def test_fixed_seq_bits_config():
    result = run_experiment(dataclasses.replace(FAST, seq_bits=3))
    assert result.initial_seq_bits == 3
    assert all(r.seq_bits == 3 for r in result.round_records)


def test_auto_seq_bits_config():
    result = run_experiment(FAST)
    assert result.initial_seq_bits == 2
    assert all(r.seq_bits >= 1 for r in result.round_records)
    assert all(r.round_index > 1 or r.seq_bits == 2 for r in result.round_records)


def test_sweep_runs_each_valid_cell():
    configs = sweep_configs(FAST, "seq_bits", [1, 2, 3])
    cells = run_sweep(configs)
    assert [c.config.seq_bits for c in cells] == [1, 2, 3]
    assert all(c.error is None and c.result is not None for c in cells)


def test_sweep_reports_invalid_cells_and_runs_the_rest():
    configs = sweep_configs(FAST, "seq_bits", [0, 2])
    cells = run_sweep(configs)
    assert cells[0].result is None
    assert "seq_bits" in cells[0].error
    assert cells[1].result is not None
