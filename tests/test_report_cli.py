"""Report schema, serialization round-trips, and the CLI contract."""
import contextlib
import csv
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afsasim import cli, experiment, report
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

from oracles import reference_parse_cli

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


def _dict_writer_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_csv_rows_are_written_as_dict_writer_writes_them():
    # report rows, rows with their keys in another order and rows that
    # miss a key all come out as csv.DictWriter writes them
    rows = result_rows(_fast_result()) + result_rows(_fast_result(), per_round=True)
    assert all(tuple(row) == COLUMNS for row in rows)
    reordered = [dict(reversed(list(row.items()))) for row in rows]
    missing = [{k: v for k, v in row.items() if k != "n"} for row in rows]
    for variant in (rows, reordered, missing, rows[:3] + reordered[3:6] + missing[6:9]):
        assert render_csv(variant) == _dict_writer_csv(variant)
    # an extra key raises, before or after a row of the plain kind
    extra = {**rows[0], "extra": 1}
    with pytest.raises(ValueError):
        _dict_writer_csv([extra])
    for variant in ([extra], [rows[0], extra]):
        with pytest.raises(ValueError, match="extra"):
            render_csv(variant)


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
    # the report's columns, but not exactly all of them in order
    "reordered": [dict(reversed(row.items()))
                  for row in result_rows(_fast_result(), per_round=True)[:2]],
    "subset": [{column: row[column] for column in COLUMNS[::2]}
               for row in result_rows(_fast_result(), per_round=True)[:2]],
    # the report's columns in order, but one value of another kind, or a
    # protocol the program does not run: each row must still come out as
    # the stdlib encoder writes it
    "bool": [{**result_rows(_fast_result())[0], "trial": True}],
    "float-for-int": [{**result_rows(_fast_result())[0], "N": 3.0}],
    "infinite-time": [{**result_rows(_fast_result())[0], "round_time_us": float("inf")}],
    "other-protocol": [{**result_rows(_fast_result())[0], "protocol": 'x "%s" \u00e9'}],
}


@pytest.mark.parametrize("case", list(JSON_CASES))
def test_json_reports_equal_the_stdlib_encoding(capsys, case):
    rows = JSON_CASES[case]
    expected = json.dumps(rows, indent=2) + "\n"
    assert render_json(rows) == expected
    if case in ("report", "infinite-time", "other-protocol"):
        # report rows streamed as the CLI writes a trial's rows: as value
        # tuples, here one row per batch; a finite time of a protocol the
        # program runs takes the template, any other row the stdlib encoder
        write_report(([tuple(row[column] for column in COLUMNS)] for row in rows), fmt="json")
        assert capsys.readouterr().out == expected


# A report row's values as `_trial_values` shapes them: 10 non-negative ints
# around the protocol, then the time; the protocol is one the program runs
# or any text, and the time any float.
report_values = st.tuples(
    st.lists(st.integers(min_value=0, max_value=2**80), min_size=10, max_size=10),
    st.sampled_from(PROTOCOLS) | st.text(st.sampled_from('"%,\\\n\r é') | st.characters()),
    st.sampled_from([float("inf"), -float("inf"), float("nan"), -0.0, 1e16, 5e-324])
    | st.floats(),
).map(lambda drawn: (*drawn[0][:2], drawn[1], *drawn[0][2:], drawn[2]))


@given(rows=st.lists(report_values, max_size=5),
       cuts=st.lists(st.integers(min_value=0, max_value=5), max_size=3),
       fmt=st.sampled_from(["csv", "json"]))
@settings(max_examples=200, deadline=None)
def test_a_streamed_report_is_the_rendering_of_its_rows(rows, cuts, fmt):
    render = render_csv if fmt == "csv" else render_json
    expected = render([dict(zip(COLUMNS, values)) for values in rows])
    # the rows as one batch, and cut into several, some of them empty
    bounds = [0, *sorted(cuts), len(rows)]
    for batches in ([rows], [rows[i:j] for i, j in zip(bounds, bounds[1:])]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write_report(iter(batches), fmt=fmt)
        assert out.getvalue() == expected


def test_the_dict_api_is_the_stdlib_writers():
    # a row that is no dict is not taken for a report's value tuple:
    # `render_json` writes what `json.dumps` writes, and `render_csv` raises
    # as `csv.DictWriter` does instead of writing a short row
    values = tuple(result_rows(_fast_result())[0].values())
    for row in (values, (1, 2)):
        assert render_json([row]) == json.dumps([row], indent=2) + "\n"
    with pytest.raises(AttributeError):
        _dict_writer_csv([(1, 2)])
    with pytest.raises(AttributeError):
        render_csv([(1, 2)])


def _modules_loaded(code: str) -> set:
    # the modules a fresh interpreter holds after running `code`, which
    # prints nothing else to stdout; -I keeps the environment and the user
    # site out, and what `site` loads at start is in a bare run's set too
    out = subprocess.run([sys.executable, "-I", "-c", code + "; print(*sys.modules)"],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("flags", [
    [],
    # the churn-edfsa workload's report: finite per-round JSON rows
    ["--protocol", "edfsa", "--tags", "300", "--trials", "5", "--arrival-rate", "2",
     "--departure-prob", "0.02", "--per-round", "--format", "json"],
], ids=["default-csv", "per-round-json"])
def test_a_finite_report_imports_no_lazy_module(tmp_path, flags):
    # `csv` and `json` serve only a row the report's template cannot write
    # (the infinite-time and other-protocol cases of the JSON tests),
    # `statistics` only the aggregate a CLI run never takes; `decimal` and
    # `fractions` nothing a run does
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "report"
    argv = flags + ["--out", str(out)]
    loaded = _modules_loaded(
        f"import sys; sys.path.insert(0, {src!r}); from afsasim import cli; "
        f"assert cli.main({argv!r}) == 0")
    new = loaded - _modules_loaded("import sys")
    assert out.stat().st_size > 0
    assert "afsasim.report" in new
    assert new.isdisjoint({"csv", "json", "statistics", "decimal", "fractions"})


def test_write_rows_to_file(tmp_path):
    rows = result_rows(_fast_result())
    out = tmp_path / "report.csv"
    write_rows(rows, fmt="csv", destination=str(out))
    assert out.read_text().splitlines()[0] == ",".join(COLUMNS)
    # an unknown format is refused before the destination is opened
    bad = tmp_path / "report.yaml"
    with pytest.raises(ValueError, match="^format must be csv or json, not 'yaml'$"):
        write_rows(rows, fmt="yaml", destination=str(bad))
    assert not bad.exists()


def test_streaming_an_unknown_format_writes_nothing(tmp_path):
    # the format is refused before the destination is opened
    bad = tmp_path / "report.yaml"
    with pytest.raises(ValueError, match="^format must be csv or json, not 'yaml'$"):
        write_report([], fmt="yaml", destination=str(bad))
    assert not bad.exists()


def test_parse_cli_defaults():
    ns = parse_cli([])
    # each config-backed flag defaults to the config's own default
    config = ExperimentConfig()
    # each config-backed flag stores its value under the field's name
    for field in ExperimentConfig._fields:
        value, default = getattr(ns, field), getattr(config, field)
        assert value == default and type(value) is type(default), field
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
    assert (ns.k_initial, ns.frame_slots) == (50, 64)
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
    (["--sweep", "tags=1:2"], "is not START:STEP:END"),
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


@pytest.mark.parametrize("trials", [3, 1250])
def test_a_single_run_checks_its_config_once(capsys, monkeypatch, trials):
    # every build of a config runs the `trials` check once; no trial does
    calls = []
    check = experiment.int_problem

    def counted(name, value, *bounds):
        calls.append(name)
        return check(name, value, *bounds)

    monkeypatch.setattr(experiment, "int_problem", counted)
    assert main(["--tags", "20", "--frame", "16", "--trials", str(trials)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == trials + 1
    assert calls.count("trials") == 1


def test_main_invalid_config_writes_no_file(capsys, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["--tags", "-5", "--trials", "0", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "afsasim: error: k_initial must be >= 0", "afsasim: error: trials must be >= 1"]


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
    # the first trial of each valid cell fails as it runs; iter_trials
    # still checks each cell, so the invalid first cell is reported as such
    def fail(config, trial_id):
        raise RuntimeError(f"cell seq_bits={config.seq_bits} failed")

    monkeypatch.setattr(experiment, "run_trial", fail)
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
     [FAST_CONFIG._replace(seq_bits=n) for n in (1, 2)], 1),
    # the first cell has no tags, so its trials hold one empty round each
    (["--sweep", "tags=0:10:10"],
     [FAST_CONFIG._replace(k_initial=k) for k in (0, 10)], 0),
    # no cell is valid: the report holds no row at all
    (["--trials", "0", "--sweep", "seq-bits=0:1:1"], [], 1),
    # baseline rounds report n = 0
    (["--protocol", "fsa"], [FAST_CONFIG._replace(protocol="fsa")], 0),
    # arrivals and departures move k_active from round to round
    (["--protocol", "edfsa", "--arrival-rate", "2", "--departure-prob", "0.1"],
     [FAST_CONFIG._replace(protocol="edfsa", arrival_rate=2.0, departure_prob=0.1)], 0),
], ids=["single", "invalid-first-cell", "empty-first-cell", "no-rows", "fsa", "churned-edfsa"])
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("per_round", [False, True], ids=["aggregate", "per-round"])
def test_the_cli_writes_its_rows_without_trial_rows(capsys, monkeypatch, fmt, per_round):
    # the CLI writes each trial's value tuples; no row dict is built
    argv = FAST_ARGS + ["--format", fmt] + (["--per-round"] if per_round else [])
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def trial_rows(*args, **kwargs):
        raise AssertionError("the CLI built a row dict")

    monkeypatch.setattr(report, "trial_rows", trial_rows)
    # and under that name in `cli`, should it ever import it again
    monkeypatch.setattr(cli, "trial_rows", trial_rows, raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


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


# Odd values: negative numbers, which are values, "-1e3" and "-x", which are
# unknown flags, the empty value and the separator.
ODD_VALUES = ["-1", "-0.5", "-.5", "-1.", "-1e3", "-x", "", "--"]


@st.composite
def fuzz_argv(draw):
    argv = list(TINY_ARGS)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        name = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        values = FUZZ_FLAGS[name]
        # now and then a prefix: unique (--ta), ambiguous (--t) or bare --
        flag = name
        if name != "--" and draw(st.integers(min_value=0, max_value=3)) == 0:
            flag = name[:draw(st.integers(min_value=2, max_value=len(name)))]
        if values is None:
            # a switch, an unknown flag or --, now and then given a value
            if draw(st.integers(min_value=0, max_value=4)) == 0:
                flag += "=" + draw(st.sampled_from(["", "x", "1"]))
            argv.append(flag)
            continue
        accepted, rejected = values
        # mostly accepted values, and now and then no value at all
        choice = draw(st.integers(min_value=0, max_value=11))
        if choice < 6:
            value = draw(st.sampled_from(accepted))
        elif choice < 9:
            value = draw(st.sampled_from(rejected))
        elif choice < 11:
            value = draw(st.sampled_from(ODD_VALUES))
        else:
            argv.append(flag)
            continue
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@given(argv=fuzz_argv())
@settings(max_examples=200, deadline=None)
def test_main_exit_code_is_always_documented(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


def _outcome(parse, argv) -> str:
    # what a parser makes of argv: its values, its refusal or its exit
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return repr(vars(parse(argv)))
    except CliError as err:
        return f"CliError: {err}"
    except SystemExit as exit_:
        return f"SystemExit: {exit_.code}"


@given(argv=fuzz_argv())
@settings(max_examples=300, deadline=None)
def test_parse_cli_equals_the_argparse_parser_it_replaced(argv):
    # argparse dropped the value of --flag=-- (see the test below), the one
    # place the two parsers part on purpose
    assume(not any(token.startswith("-") and token.partition("=")[2] == "--"
                   for token in argv))
    # the same values (repr: nan equals nan, 1 differs from 1.0) or the same
    # refusal, word for word.  The oracle is the running Python's argparse;
    # 3.10, 3.12 and 3.13.0 read the argv drawn here as 3.11 does, since none
    # holds a short -h form (see PARSER_EDGES)
    assert _outcome(parse_cli, argv) == _outcome(reference_parse_cli, argv)


@pytest.mark.parametrize("flag", ["--tags", "--protocol", "--sweep", "--format"])
def test_a_value_of_two_dashes_after_the_equals_sign_is_the_value(capsys, flag):
    # argparse stored [] for --flag=--, so --sweep=-- and --format=-- escaped
    # main with a traceback and the others blamed the config; the value is
    # the text after '=', and its parser refuses it by the flag's name
    assert main([*FAST_ARGS, f"{flag}=--"]) == 1
    assert capsys.readouterr().err.startswith(f"afsasim: error: argument {flag}: ")
    assert parse_cli(["--out=--"]).out == "--"


def _parsed(**values) -> str:
    # the outcome of a parse that sets `values` and leaves the rest at their
    # defaults, the config's own for a config-backed flag
    return repr({**ExperimentConfig._field_defaults, "sweep": None, "out": None,
                 "fmt": "csv", "per_round": False, **values})


# Edge cases with the outcome Python 3.11's argparse gives each, as data:
# the running Python's argparse is no oracle here, since 3.13 reads -h=h,
# -hx and -hhx differently, while `parse_cli` keeps 3.11's rules.
PARSER_EDGES = [
    (["--ta=5"], _parsed(k_initial=5)),
    (["--f", "1"], "CliError: ambiguous option: --f could match --frame, --format"),
    (["--f=1"], "CliError: ambiguous option: --f=1 could match --frame, --format"),
    (["--=5"], "CliError: ambiguous option: --=5 could match --help, --protocol, --tags, "
               "--frame, --seq-bits, --trials, --seed, --max-rounds, --arrival-rate, "
               "--departure-prob, --sweep, --out, --format, --per-round"),
    (["--pe"], _parsed(per_round=True)),
    (["--per-round=x"], "CliError: argument --per-round: ignored explicit argument 'x'"),
    (["--per-round="], "CliError: argument --per-round: ignored explicit argument ''"),
    (["--", "--tags", "5"], "CliError: unrecognized arguments: -- --tags 5"),
    (["--tags", "5", "--"], "CliError: unrecognized arguments: --"),
    (["--tags", "--", "5"], "CliError: argument --tags: expected one argument"),
    (["--out", "--per-round"], "CliError: argument --out: expected one argument"),
    (["--out", "-1e3"], "CliError: argument --out: expected one argument"),
    (["--out", "-"], _parsed(out="-")),
    (["--out", "- x"], _parsed(out="- x")),
    (["--out", "-.5"], _parsed(out="-.5")),
    (["--tags", "-12\n"], _parsed(k_initial=-12)),
    (["--tags", "5", "--tags", "6"], _parsed(k_initial=6)),
    (["stray", "--bogus=1", "--tags", "5", "-1"],
     "CliError: unrecognized arguments: stray --bogus=1 -1"),
    (["-"], "CliError: unrecognized arguments: -"),
    (["-x"], "CliError: unrecognized arguments: -x"),
    (["---"], "CliError: unrecognized arguments: ---"),
    (["--tags"], "CliError: argument --tags: expected one argument"),
    (["-h"], "SystemExit: 0"),
    (["-hh"], "SystemExit: 0"),
    (["-h=h"], "SystemExit: 0"),
    (["-hx"], "CliError: argument -h/--help: ignored explicit argument 'x'"),
    (["-hhx"], "CliError: argument -h/--help: ignored explicit argument 'x'"),
    (["-h="], "CliError: argument -h/--help: ignored explicit argument ''"),
    (["--help=x"], "CliError: argument -h/--help: ignored explicit argument 'x'"),
    (["--he"], "SystemExit: 0"),
    (["--tags", "x", "--help"], "CliError: argument --tags: expected an integer, got 'x'"),
    (["--help", "--tags", "x"], "SystemExit: 0"),
    (["--bogus", "--help"], "SystemExit: 0"),
    (["--help", "--f"], "CliError: ambiguous option: --f could match --frame, --format"),
]


@pytest.mark.parametrize("argv, outcome", PARSER_EDGES,
                         ids=[repr(argv) for argv, _ in PARSER_EDGES])
def test_parse_cli_equals_the_argparse_parser_at_the_edges(argv, outcome):
    assert _outcome(parse_cli, argv) == outcome
    if sys.version_info[:2] == (3, 11):
        assert _outcome(reference_parse_cli, argv) == outcome


def test_main_help_lists_every_flag_with_its_default(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = {line.split()[0]: line for line in captured.out.splitlines()
             if line.startswith("  ")}
    assert list(lines) == ["-h,", *(flag for flag, *_ in cli.FLAGS)]
    config = ExperimentConfig()
    defaults = {
        "--protocol": config.protocol, "--tags": config.k_initial,
        "--frame": config.frame_slots, "--seq-bits": "auto", "--trials": config.trials,
        "--seed": config.seed, "--max-rounds": config.max_rounds,
        "--arrival-rate": f"{config.arrival_rate:g}",
        "--departure-prob": f"{config.departure_prob:g}", "--format": "csv",
    }
    for flag, default in defaults.items():
        assert f"(default {default})" in lines[flag], flag
