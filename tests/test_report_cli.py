"""Report schema, serialization round-trips, and the CLI contract."""
import contextlib
import csv
import io
import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsasim import cli, experiment
from afsasim.cli import MAX_SWEEP_VALUES, main, parse_cli, CliError
from afsasim.experiment import (
    MAX_FRAME_SLOTS,
    MAX_SEED,
    MAX_TAGS,
    MAX_TRIALS,
    PROTOCOLS,
    ExperimentConfig,
    run_experiment,
)
from afsasim.report import (
    COLUMNS,
    render_csv,
    render_json,
    result_rows,
    write_report,
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
    for trial_id, (row, trial) in enumerate(zip(rows, result.trials)):
        assert set(row) == set(COLUMNS)
        assert row["trial"] == trial_id
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
    assert len(rows) == sum(trial.rounds_used for trial in result.trials)
    first = rows[0]
    assert first["trial"] == 0
    assert first["round"] == 1
    assert first["N"] == 16
    assert first["n"] == 2
    # count columns partition each round's frame
    for row in rows:
        assert (row["idle"] + row["reserved_true"] + row["detected_collisions"]
                + row["undetected_collisions"]) == row["N"]


COUNT_COLUMNS = ("idle", "reserved_true", "detected_collisions",
                 "undetected_collisions", "identified")


@given(protocol=st.sampled_from(PROTOCOLS),
       k_initial=st.integers(min_value=0, max_value=40),
       frame_slots=st.sampled_from([1, 4, 16, 64]),
       seq_bits=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
       trials=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=MAX_SEED),
       max_rounds=st.integers(min_value=1, max_value=30),
       arrival_rate=st.sampled_from([0.0, 0.5, 2.0]),
       departure_prob=st.sampled_from([0.0, 0.1, 1.0]))
@settings(max_examples=80, deadline=None)
def test_report_granularities_reconcile(protocol, k_initial, frame_slots, seq_bits,
                                        trials, seed, max_rounds, arrival_rate,
                                        departure_prob):
    result = run_experiment(ExperimentConfig(
        protocol=protocol, k_initial=k_initial, frame_slots=frame_slots,
        seq_bits=seq_bits, trials=trials, seed=seed, max_rounds=max_rounds,
        arrival_rate=arrival_rate, departure_prob=departure_prob))
    aggregate = result_rows(result)
    per_round = result_rows(result, per_round=True)
    assert [row["trial"] for row in aggregate] == list(range(trials))
    # per-round rows come grouped by trial, in trial order
    assert [row["trial"] for row in per_round] == sorted(
        row["trial"] for row in per_round)
    for row in aggregate:
        rounds = [r for r in per_round if r["trial"] == row["trial"]]
        assert row["round"] == len(rounds) >= 1
        assert [r["round"] for r in rounds] == list(range(1, len(rounds) + 1))
        for column in COUNT_COLUMNS:
            assert row[column] == sum(r[column] for r in rounds), column
        # the same floats summed in the same order: exactly equal
        total = 0.0
        for r in rounds:
            total += r["round_time_us"]
        assert row["round_time_us"] == total
        assert rounds[0]["k_active"] == k_initial
        assert row["k_active"] >= k_initial


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
        assert json.loads(render_json(rows)) == rows


JSON_CASES = {
    "empty": [],
    "one-row": [{column: 0 for column in COLUMNS}],
    "floats": [{"trial": 0.1, "round": 1e-07, "N": 1e16, "n": -0.0},
               {"trial": 1, "round_time_us": 1234.5}],
    "big-int": [{"k_active": 2**64 + 1}],
    "escapes": [{"protocol": 'quote " backslash \\ non-ascii \u00e9'}],
    "nan": [{"trial": 0, "round_time_us": float("nan")}, {"trial": 1}],
    "other-values": [{"trial": True, "round": None, "N": [1, 2]}, {}, {"extra": 1}, [3]],
    "report": result_rows(_fast_result(), per_round=True)[:5],
}


@pytest.mark.parametrize("rows", JSON_CASES.values(), ids=JSON_CASES.keys())
def test_json_reports_equal_the_stdlib_encoding(capsys, rows):
    expected = json.dumps(rows, indent=2) + "\n"
    assert render_json(rows) == expected
    # streamed one row per batch, as the CLI writes a trial's rows
    write_report(([row] for row in rows), fmt="json")
    assert capsys.readouterr().out == expected


def test_write_rows_to_file(tmp_path):
    rows = result_rows(_fast_result())
    out = tmp_path / "report.csv"
    write_rows(rows, fmt="csv", destination=str(out))
    assert out.read_text().splitlines()[0] == ",".join(COLUMNS)
    with pytest.raises(ValueError):
        write_rows(rows, fmt="yaml")


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


def test_parse_cli_sweeps(capsys):
    param, values = parse_cli(["--sweep", "seq-bits=1:1:6"]).sweep
    assert param == "seq-bits"
    assert values == [1, 2, 3, 4, 5, 6]
    param, values = parse_cli(["--sweep", "tags=100:100:400"]).sweep
    assert values == [100, 200, 300, 400]
    param, values = parse_cli(["--sweep", "arrival-rate=0.0:0.5:2.0"]).sweep
    assert values == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    param, values = parse_cli(["--sweep", "frame=256:-64:64"]).sweep
    assert values == [256, 192, 128, 64]
    # float cells are the exact decimals, so the last one is the end itself
    # and no rounding error builds up along the range
    param, values = parse_cli(["--sweep", "arrival-rate=0:0.1:0.3"]).sweep
    assert values == [0.0, 0.1, 0.2, 0.3]
    param, values = parse_cli(["--sweep", "departure-prob=0:0.4:1.2"]).sweep
    assert values == [0.0, 0.4, 0.8, 1.2]
    assert main(FAST_ARGS + ["--sweep", "departure-prob=0:0.4:1.2"]) == 1
    assert capsys.readouterr().err == (
        "afsasim: error: sweep cell departure-prob=1.2: "
        "departure_prob must be in [0, 1]\n")
    # a bound whose exponent alone is far outside the float range stands
    # for its float, instead of for a huge exact power of ten
    param, values = parse_cli(["--sweep", "arrival-rate=0e999999999:1:2"]).sweep
    assert values == [0.0, 1.0, 2.0]


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
    (["--sweep", "arrival-rate=0:1:inf"], "must be finite"),
    (["--sweep", "arrival-rate=0:nan:1"], "must be finite"),
    (["--sweep", "arrival-rate=-1e308:1:1e308"], f"more than {MAX_SWEEP_VALUES}"),
    (["--sweep", "arrival-rate=0:1e-300:1"], f"more than {MAX_SWEEP_VALUES}"),
    (["--sweep", f"tags=0:1:{10**30}"], f"more than {MAX_SWEEP_VALUES}"),
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


def test_main_over_cap_sizes_exit_one(capsys):
    # validation rejects these before anything is allocated
    code = main(["--tags", str(MAX_TAGS + 1), "--frame", str(MAX_FRAME_SLOTS + 1),
                 "--trials", str(MAX_TRIALS + 1)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"k_initial must be <= {MAX_TAGS}" in captured.err
    assert f"frame_slots must be <= {MAX_FRAME_SLOTS}" in captured.err
    assert f"trials must be <= {MAX_TRIALS}" in captured.err


@pytest.mark.parametrize("seed", ["-1", str(MAX_SEED + 1), str(10**30)])
def test_main_seed_out_of_range_exits_one(capsys, seed):
    # seeds outside 64 bits would alias one inside
    assert main(FAST_ARGS + ["--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be in [0, 2**64 - 1]" in captured.err


def test_main_seq_bits_out_of_range_exits_one(capsys):
    assert main(["--seq-bits", "17"]) == 1
    assert "seq_bits must be in [1, 16]" in capsys.readouterr().err


def test_main_json_matches_csv_data(capsys):
    assert main(FAST_ARGS + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert main(FAST_ARGS) == 0
    csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(csv_rows) == 4
    for jrow, crow in zip(rows, csv_rows):
        assert jrow["identified"] == int(crow["identified"])
        assert jrow["round_time_us"] == float(crow["round_time_us"])


def test_main_per_round_rows(capsys):
    assert main(FAST_ARGS + ["--per-round", "--format", "json"]) == 0
    per_round = json.loads(capsys.readouterr().out)
    assert main(FAST_ARGS + ["--format", "json"]) == 0
    aggregate = json.loads(capsys.readouterr().out)
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
    assert captured.err == ("afsasim: error: sweep cell seq-bits=0: "
                            "seq_bits must be in [1, 16] or None for auto\n")
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    # cells 1 and 2 still produced rows
    assert sorted({r["n"] for r in rows}) == ["1", "2"]


def test_main_sweep_cell_lists_every_problem(capsys):
    assert main(FAST_ARGS + ["--trials", "0", "--sweep", "seq-bits=0:1:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ",".join(COLUMNS) + "\n"
    assert captured.err.splitlines() == [
        "afsasim: error: sweep cell seq-bits=0: "
        "seq_bits must be in [1, 16] or None for auto; trials must be >= 1",
        "afsasim: error: sweep cell seq-bits=1: trials must be >= 1",
    ]


@pytest.mark.parametrize("per_round", [[], ["--per-round"]], ids=["aggregate", "per-round"])
def test_main_sweep_equals_the_single_runs_in_order(capsys, per_round):
    assert main(FAST_ARGS + per_round + ["--sweep", "seq-bits=1:1:3"]) == 0
    swept = capsys.readouterr().out
    header = ",".join(COLUMNS) + "\n"
    bodies = []
    for n in ("1", "2", "3"):
        assert main(FAST_ARGS + per_round + ["--seq-bits", n]) == 0
        single = capsys.readouterr().out
        assert single.startswith(header)
        bodies.append(single[len(header):])
    assert swept == header + "".join(bodies)


def test_main_sweep_runtime_failure_keeps_the_invalid_cells(capsys, monkeypatch):
    # the CLI takes each cell's trials from iter_trials; fail there
    def fail(config):
        raise RuntimeError(f"cell seq_bits={config.seq_bits} failed")

    monkeypatch.setattr(cli, "iter_trials", fail)
    assert main(FAST_ARGS + ["--sweep", "seq-bits=0:1:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "afsasim: error: sweep cell seq-bits=0: "
        "seq_bits must be in [1, 16] or None for auto",
        "afsasim: error: runtime failure: cell seq_bits=1 failed",
    ]


FAST_CONFIG = ExperimentConfig(k_initial=20, frame_slots=16, trials=4, max_rounds=200)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("per_round", [False, True], ids=["aggregate", "per-round"])
@pytest.mark.parametrize("extra,configs,code", [
    ([], [FAST_CONFIG], 0),
    # the first cell is invalid, and the rest still stream
    (["--sweep", "seq-bits=0:1:2"],
     [replace(FAST_CONFIG, seq_bits=n) for n in (1, 2)], 1),
    # the first cell has no tags, so its trials hold one empty round each
    (["--sweep", "tags=0:10:10"],
     [replace(FAST_CONFIG, k_initial=k) for k in (0, 10)], 0),
    # no cell is valid: the report holds no row at all
    (["--trials", "0", "--sweep", "seq-bits=0:1:1"], [], 1),
], ids=["single", "invalid-first-cell", "empty-first-cell", "no-rows"])
def test_streamed_report_equals_the_whole_list_rendered(capsys, tmp_path, fmt, per_round,
                                                        extra, configs, code):
    argv = FAST_ARGS + ["--format", fmt] + extra + (["--per-round"] if per_round else [])
    rows = [row for config in configs
            for row in result_rows(run_experiment(config), per_round=per_round)]
    expected = render_csv(rows) if fmt == "csv" else render_json(rows)
    if not rows:
        assert expected == (",".join(COLUMNS) + "\n" if fmt == "csv" else "[]\n")
    assert main(argv) == code
    assert capsys.readouterr().out == expected
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_text(encoding="utf-8") == expected


def test_memory_stays_flat_in_the_trial_count(tmp_path):
    out = tmp_path / "report.json"
    tiny = ["--tags", "2", "--frame", "4", "--per-round", "--format", "json",
            "--out", str(out)]

    def peak(trials):
        tracemalloc.start()
        try:
            assert main(tiny + ["--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-use allocations, such as compiled patterns, out of the way
    assert peak(1000) <= 2 * peak(100)


def _raising_at(trial_id, monkeypatch):
    real = experiment.run_trial

    def run_trial(config, t):
        if t == trial_id:
            raise RuntimeError(f"trial {t} failed")
        return real(config, t)

    monkeypatch.setattr(experiment, "run_trial", run_trial)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nothing_is_created_before_the_first_trial_ends(capsys, tmp_path, monkeypatch, fmt):
    _raising_at(0, monkeypatch)
    out = tmp_path / "report"
    assert main(FAST_ARGS + ["--format", fmt, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(FAST_ARGS + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["afsasim: error: runtime failure: trial 0 failed"] * 2


def test_a_failed_trial_leaves_the_rows_of_the_trials_before_it(capsys, tmp_path, monkeypatch):
    assert main(FAST_ARGS) == 0
    whole = capsys.readouterr().out.splitlines(keepends=True)
    _raising_at(2, monkeypatch)
    out = tmp_path / "report.csv"
    assert main(FAST_ARGS + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "afsasim: error: runtime failure: trial 2 failed\n"
    # the header and trials 0 and 1: the report is cut short, not lost
    assert out.read_text(encoding="utf-8") == "".join(whole[:3])


# Fuzzed argument lists.  Every argv starts from a tiny config, and no value
# below is both accepted and large, so any run the CLI accepts stays small.
# Each flag maps to (values it accepts, values it must reject).
SMALL = ["0", "1", "2"]
MALFORMED = ["-1", "nan", "inf", "-inf", "x", "1e3", ""]
FUZZ_FLAGS = {
    "--protocol": (["afsa", "fsa", "edfsa"], ["csma", ""]),
    "--tags": (SMALL, MALFORMED + [str(MAX_TAGS + 1), str(10**30)]),
    "--frame": (SMALL[1:], MALFORMED + ["0", str(MAX_FRAME_SLOTS + 1)]),
    "--seq-bits": (["auto", "1", "2"], MALFORMED + ["0", "17"]),
    "--trials": (SMALL[1:], MALFORMED + ["0", str(MAX_TRIALS + 1)]),
    "--seed": (SMALL + [str(MAX_SEED)],
               ["-1", str(MAX_SEED + 1), str(10**30), "nan", "x", ""]),
    "--max-rounds": (SMALL[1:], MALFORMED + ["0"]),
    "--arrival-rate": (SMALL + ["0.5"], ["-1", "nan", "inf", "x", "701"]),
    "--departure-prob": (["0", "0.5", "1"], ["-1", "nan", "inf", "x", "1.5"]),
    "--sweep": (["tags=0:1:2", "frame=2:-1:1", "seq-bits=0:1:2",
                 "departure-prob=0:0.5:1"],
                ["trials=1:0:2", "tags=3:1:1", "max-rounds=a:1:2", "power=1:1:2",
                 "tags", "arrival-rate=0:1:inf", "arrival-rate=0:1e-300:1",
                 "departure-prob=nan:0.5:1", f"tags=0:1:{10**30}",
                 f"trials={MAX_TRIALS + 1}:1:{MAX_TRIALS + 2}"]),
    "--format": (["csv", "json"], ["xml"]),
    "--per-round": None,
    "--bogus": None,
    "--": None,
}
TINY_ARGS = ["--tags", "2", "--frame", "4", "--trials", "1", "--max-rounds", "3"]


@st.composite
def fuzz_argv(draw):
    argv = list(TINY_ARGS)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        flag = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        argv.append(flag)
        values = FUZZ_FLAGS[flag]
        if values is None:
            continue
        accepted, rejected = values
        # mostly accepted values, and now and then no value at all
        choice = draw(st.integers(min_value=0, max_value=9))
        if choice < 6:
            argv.append(draw(st.sampled_from(accepted)))
        elif choice < 9:
            argv.append(draw(st.sampled_from(rejected)))
    return argv


@given(argv=fuzz_argv())
@settings(max_examples=200, deadline=None)
def test_main_exit_code_is_always_documented(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
