"""Report schema, serialization round-trips, and the CLI contract."""
import csv
import io
import json

import pytest

from afsasim.cli import main, parse_cli, CliError
from afsasim.experiment import ExperimentConfig, run_experiment, run_sweep, sweep_configs
from afsasim.report import (
    COLUMNS,
    parse_json,
    render_csv,
    render_json,
    result_rows,
    sweep_rows,
    write_rows,
)

FAST_ARGS = ["--tags", "20", "--frame", "16", "--trials", "4", "--max-rounds", "200"]


def _fast_result(**overrides):
    config = ExperimentConfig(
        k_initial=20, frame_slots=16, trials=4, seed=3, max_rounds=200, **overrides)
    return run_experiment(config)


def test_column_schema_is_pinned():
    assert COLUMNS == (
        "trial", "round", "protocol", "N", "n", "k_active", "idle",
        "reserved_true", "detected_collisions", "undetected_collisions",
        "identified", "round_time_us")


def test_aggregate_rows_one_per_trial():
    result = _fast_result()
    rows = result_rows(result)
    assert len(rows) == 4
    for row, trial in zip(rows, result.trial_records):
        assert set(row) == set(COLUMNS)
        assert row["trial"] == trial.trial
        assert row["round"] == trial.rounds_used
        assert row["protocol"] == "afsa"
        assert row["N"] == 16
        assert row["n"] == 2
        assert row["k_active"] == trial.ever_present
        assert row["identified"] == trial.tags_identified
        assert row["round_time_us"] == trial.total_time_us


def test_per_round_rows_one_per_round():
    result = _fast_result()
    rows = result_rows(result, per_round=True)
    assert len(rows) == len(result.round_records)
    first = rows[0]
    assert first["trial"] == 0
    assert first["round"] == 1
    assert first["N"] == 16
    assert first["n"] == 2
    # count columns partition each round's frame
    for row in rows:
        assert (row["idle"] + row["reserved_true"] + row["detected_collisions"]
                + row["undetected_collisions"]) == row["N"]


def test_csv_always_has_header():
    text = render_csv([])
    assert text == ",".join(COLUMNS) + "\n"


def test_csv_round_trips_full_precision():
    result = _fast_result()
    rows = result_rows(result)
    parsed = list(csv.DictReader(io.StringIO(render_csv(rows))))
    assert len(parsed) == len(rows)
    for raw, original in zip(parsed, rows):
        # str() of a float is its shortest exact form, so this is lossless
        assert float(raw["round_time_us"]) == original["round_time_us"]
        assert int(raw["identified"]) == original["identified"]


def test_json_round_trips_exactly():
    result = _fast_result()
    for per_round in (False, True):
        rows = result_rows(result, per_round=per_round)
        assert parse_json(render_json(rows)) == rows
    with pytest.raises(ValueError):
        parse_json('{"not": "a list"}')


def test_write_rows_to_file(tmp_path):
    rows = result_rows(_fast_result())
    out = tmp_path / "report.csv"
    write_rows(rows, fmt="csv", destination=str(out))
    assert out.read_text().splitlines()[0] == ",".join(COLUMNS)
    with pytest.raises(ValueError):
        write_rows(rows, fmt="yaml")


def test_sweep_rows_concatenate_in_order():
    cells = run_sweep(sweep_configs(
        ExperimentConfig(k_initial=10, frame_slots=16, trials=2, max_rounds=200),
        "seq_bits", [1, 2]))
    rows = sweep_rows(cells)
    assert len(rows) == 4
    assert [r["n"] for r in rows] == [1, 1, 2, 2]


def test_parse_cli_defaults():
    ns = parse_cli([])
    assert ns.protocol == "afsa"
    assert ns.tags == 100
    assert ns.frame == 128
    assert ns.seq_bits is None
    assert ns.trials == 25
    assert ns.seed == 1
    assert ns.max_rounds == 1000
    assert ns.arrival_rate == 0.0
    assert ns.departure_prob == 0.0
    assert ns.sweep is None
    assert ns.out is None
    assert ns.fmt == "csv"
    assert not ns.per_round


def test_parse_cli_explicit_values():
    ns = parse_cli([
        "--protocol", "edfsa", "--tags", "50", "--frame", "64",
        "--seq-bits", "3", "--trials", "7", "--seed", "9",
        "--max-rounds", "42", "--arrival-rate", "1.5",
        "--departure-prob", "0.25", "--format", "json", "--per-round",
        "--out", "x.json",
    ])
    assert ns.protocol == "edfsa"
    assert ns.seq_bits == 3
    assert ns.arrival_rate == 1.5
    assert ns.fmt == "json"
    assert ns.per_round
    assert ns.out == "x.json"


def test_parse_cli_seq_bits_auto():
    assert parse_cli(["--seq-bits", "auto"]).seq_bits is None
    assert parse_cli(["--seq-bits", "AUTO"]).seq_bits is None


def test_parse_cli_sweeps():
    param, values = parse_cli(["--sweep", "seq-bits=1:1:6"]).sweep
    assert param == "seq-bits"
    assert values == [1, 2, 3, 4, 5, 6]
    param, values = parse_cli(["--sweep", "tags=100:100:400"]).sweep
    assert values == [100, 200, 300, 400]
    param, values = parse_cli(["--sweep", "arrival-rate=0.0:0.5:2.0"]).sweep
    assert values == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    param, values = parse_cli(["--sweep", "frame=256:-64:64"]).sweep
    assert values == [256, 192, 128, 64]


@pytest.mark.parametrize("argv,fragment", [
    (["--bogus"], "--bogus"),
    (["--tags", "ten"], "expected an integer"),
    (["--seq-bits", "wide"], "auto"),
    (["--protocol", "csma"], "invalid choice"),
    (["--arrival-rate", "fast"], "expected a number"),
    (["--sweep", "seq-bits"], "START:STEP:END"),
    (["--sweep", "power=1:1:3"], "unknown parameter"),
    (["--sweep", "tags=1:0:5"], "step must not be zero"),
    (["--sweep", "tags=5:1:1"], "empty"),
    (["--sweep", "tags=a:1:5"], "non-numeric"),
])
def test_parse_cli_rejects_malformed(argv, fragment):
    with pytest.raises(CliError) as err:
        parse_cli(argv)
    assert fragment in str(err.value)


def test_main_happy_path(capsys):
    code = main(FAST_ARGS)
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 5
    assert captured.err == ""


def test_main_is_deterministic(capsys):
    assert main(FAST_ARGS) == 0
    first = capsys.readouterr().out
    assert main(FAST_ARGS) == 0
    second = capsys.readouterr().out
    assert first == second


def test_main_bad_flag_exits_one(capsys):
    assert main(["--bogus"]) == 1
    err = capsys.readouterr().err
    assert "afsasim: error" in err


def test_main_invalid_config_reports_all_problems(capsys):
    code = main(["--tags", "-5", "--frame", "0", "--trials", "0",
                 "--arrival-rate", "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "k_initial must be >= 0" in captured.err
    assert "frame_slots must be >= 1" in captured.err
    assert "trials must be >= 1" in captured.err
    assert "arrival_rate must be finite and <= 700" in captured.err


def test_main_seq_bits_out_of_range_exits_one(capsys):
    assert main(["--seq-bits", "17"]) == 1
    assert "seq_bits must be in [1, 16]" in capsys.readouterr().err


def test_main_json_matches_csv_data(capsys):
    assert main(FAST_ARGS + ["--format", "json"]) == 0
    rows = parse_json(capsys.readouterr().out)
    assert main(FAST_ARGS) == 0
    csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(csv_rows) == 4
    for jrow, crow in zip(rows, csv_rows):
        assert jrow["identified"] == int(crow["identified"])
        assert jrow["round_time_us"] == float(crow["round_time_us"])


def test_main_per_round_rows(capsys):
    assert main(FAST_ARGS + ["--per-round", "--format", "json"]) == 0
    per_round = parse_json(capsys.readouterr().out)
    assert main(FAST_ARGS + ["--format", "json"]) == 0
    aggregate = parse_json(capsys.readouterr().out)
    assert len(per_round) == sum(row["round"] for row in aggregate)


def test_main_writes_file(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(FAST_ARGS + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith(",".join(COLUMNS))


def test_main_unwritable_destination_exits_two(tmp_path, capsys):
    dest = tmp_path / "missing" / "run.csv"
    assert main(FAST_ARGS + ["--out", str(dest)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_main_budget_exhaustion_exits_three(capsys):
    code = main(["--tags", "500", "--frame", "8", "--seq-bits", "1",
                 "--max-rounds", "2", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 3
    # the report is still written
    assert captured.out.startswith(",".join(COLUMNS))


def test_main_sweep_emits_every_cell(capsys):
    code = main(FAST_ARGS + ["--sweep", "seq-bits=1:1:3"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == 12
    assert sorted({r["n"] for r in rows}) == ["1", "2", "3"]


def test_main_sweep_invalid_cell_exits_one_but_runs_rest(capsys):
    code = main(FAST_ARGS + ["--sweep", "seq-bits=0:1:2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "seq-bits=0" in captured.err
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    # cells 1 and 2 still produced rows
    assert sorted({r["n"] for r in rows}) == ["1", "2"]
