"""Tests of the benchmark itself: python3 -m pytest -q bench"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import record_digests
import run
from child import REF_CHUNKS, Tracer, summarise
from gate import Spec, check_report, parse_rows

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = Spec(tags=20, frame=16, trials=4)
SMALL_PER_ROUND = Spec(tags=20, frame=16, trials=4, per_round=True, fmt="json")
SMALL_CHURN = Spec(protocol="edfsa", tags=30, trials=3, arrival_rate=1.0,
                   departure_prob=0.05, per_round=True)


def report(spec: Spec, tmp_path: Path) -> str:
    from afsasim.cli import main

    out = tmp_path / "report"
    assert main([*spec.argv(5), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def alter(text: str, spec: Spec, row: int, column: str, delta: int) -> str:
    rows = parse_rows(text, spec.fmt)
    rows[row][column] += delta
    if spec.fmt == "json":
        return json.dumps(rows)
    header = ",".join(rows[0])
    return "\n".join([header] + [",".join(str(v) for v in r.values()) for r in rows]) + "\n"


@pytest.mark.parametrize("spec", [SMALL, SMALL_PER_ROUND, SMALL_CHURN])
def test_gate_passes_real_reports(spec, tmp_path):
    problems, totals = check_report(report(spec, tmp_path), spec)
    assert problems == []
    assert totals.identified > 0 and totals.rounds >= spec.trials


# Per-trial rows hold totals over rounds, so only the columns an invariant
# ties together can be checked without the digest.
@pytest.mark.parametrize("spec,column", [
    *[(SMALL, c) for c in ("identified", "reserved_true", "k_active", "trial")],
    *[(SMALL_PER_ROUND, c) for c in ("idle", "identified", "detected_collisions",
                                     "undetected_collisions", "N", "n", "round")],
    *[(SMALL_CHURN, c) for c in ("idle", "reserved_true", "undetected_collisions", "n")],
])
def test_gate_rejects_one_altered_count(spec, column, tmp_path):
    text = report(spec, tmp_path)
    assert check_report(alter(text, spec, 0, "round", 0), spec)[0] == []
    problems, _ = check_report(alter(text, spec, 1, column, 1), spec)
    assert problems


def test_gate_rejects_an_altered_round_time(tmp_path):
    text = report(SMALL_PER_ROUND, tmp_path)
    rows = parse_rows(text, "json")
    rows[2]["round_time_us"] += 12.5
    assert check_report(json.dumps(rows), SMALL_PER_ROUND)[0]


def test_gate_rejects_a_missing_trial(tmp_path):
    text = report(SMALL, tmp_path)
    lines = text.splitlines(keepends=True)
    assert check_report("".join(lines[:-1]), SMALL)[0]


def test_rep_rejects_an_altered_digest():
    with tempfile.TemporaryDirectory() as tmp:
        inv = run.Invocation(Path(tmp))
        good = inv.rep("run", SMALL, SMALL.argv(5), None)
        assert good.problems == [] and len(good.digest) == 64
        assert inv.rep("run", SMALL, SMALL.argv(5), good.digest).problems == []
        wrong = good.digest[:-1] + ("0" if good.digest[-1] != "0" else "1")
        bad = inv.rep("run", SMALL, SMALL.argv(5), wrong)
        assert any("digest" in p for p in bad.problems)
        assert (inv.attempted, inv.failed) == (3, 1)


def test_tracing_leaves_the_report_unchanged_and_sees_every_layer():
    with tempfile.TemporaryDirectory() as tmp:
        inv = run.Invocation(Path(tmp))
        for spec in (SMALL, SMALL_CHURN):
            plain = inv.rep("run", spec, spec.argv(5), None)
            traced = inv.rep("trace", spec, spec.argv(5), plain.digest)
            assert traced.problems == []
            layers = run.layer_metrics(traced)
            rounds = "afsa.round.calls" if spec.protocol == "afsa" else "baselines.fsa_round.calls"
            assert layers[rounds][0] == traced.totals.rounds
            assert layers["rng.streams"][0] == spec.trials
        assert layers["experiment.churn.calls"][0] > 0


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # each span reads the clock once when it opens and once when it closes
    tracer = Tracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 9, 10, 20, 21]))
    leaf = tracer.timed("leaf", lambda: None)
    middle = tracer.timed("middle", leaf)

    def body():
        middle()
        leaf()

    tracer.timed("outer", body)()
    leaf()
    assert [tuple(s) for s in tracer.spans] == [
        ("outer", 0, 10, -1), ("middle", 1, 5, 0), ("leaf", 2, 4, 1),
        ("leaf", 6, 9, 0), ("leaf", 20, 21, -1),
    ]
    assert summarise(tracer.spans) == {
        "outer": {"calls": 1, "total_s": 10, "self_s": 3},
        "middle": {"calls": 1, "total_s": 4, "self_s": 2},
        "leaf": {"calls": 3, "total_s": 6, "self_s": 6},
    }


def test_a_span_closes_when_its_call_raises():
    tracer = Tracer(clock=fake_clock([0, 1, 3, 7]))

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.timed("fails", fail)()
    tracer.timed("after", lambda: None)()
    assert summarise(tracer.spans)["after"] == {"calls": 1, "total_s": 4, "self_s": 4}
    assert tracer.spans[1][3] == -1


def test_names_follow_the_benchmark_rules():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert NAME.fullmatch("a.b_c-1") and not NAME.fullmatch("a b") and not NAME.fullmatch(".a")


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    rep = run.Rep(problems=[])
    layers = run.traced_metrics([rep], [rep])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit, _) in layers.items()}
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_recorded_digests_cover_every_workload():
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert set(digests["checks"]) == set(run.CHECKS)
    assert set(digests["workloads"]) == set(run.WORKLOADS)
    seeds = {str(s) for s in record_digests.SEEDS}
    assert all(set(digests["workloads"][w]) == seeds for w in run.WORKLOADS)


def test_child_loads_nothing_before_the_program():
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, 'bench'); "
            "import child; print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "['child']"


def test_setup_probe_stops_at_the_first_trial(tmp_path):
    result_path, out = tmp_path / "result.json", tmp_path / "report"
    subprocess.run(
        [sys.executable, "-I", str(run.CHILD), str(run.SRC), "setup", str(result_path),
         *SMALL.argv(1), "--out", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit_code"] == 0 and "first_trial" in result
    assert len(result["ref_s"]) == REF_CHUNKS
    assert not out.exists()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-k100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
