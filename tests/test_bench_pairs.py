"""tools/bench_pairs.py: the summary arithmetic on fixed numbers; no benchmark runs."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _result(values, correct=True, attempted=5, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": v, "unit": "-"} for key, v in values.items()}}


def _pairs():
    parent = {"wall_s": [10.0, 12.0, 11.0, 13.0], "rounds_per_s": [100.0] * 4,
              "setup_s": [1.0] * 4}
    change = {"wall_s": [9.0, 13.0, 10.0, 10.0], "rounds_per_s": [101.0, 100.0, 99.0, 102.0],
              "setup_s": [1.25, 1.5, 1.5, 1.25]}
    return [{"parent": _result({k: v[i] for k, v in parent.items()}),
             "change": _result({k: v[i] for k, v in change.items()},
                               correct=i != 3, failed=int(i == 3))}
            for i in range(4)]


def test_the_summary_of_fixed_pairs():
    summary = bench_pairs.summarize(_pairs(), END_TO_END)
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert wall["change"] == {"q1": 9.75, "median": 10.0, "q3": 10.75}
    # lower is better: the change won pairs 0, 2 and 3
    assert (wall["pairs"], wall["change_wins"]) == (4, 3)
    # a gap equal to the parent's IQR does not exceed it
    assert wall["parent_iqr"] == 1.5 and not wall["gap_exceeds_parent_iqr"]
    assert wall["median_change_pct"] == pytest.approx(-100 * 1.5 / 11.5)
    assert wall["within_bound"]

    rate = summary["metrics"]["rounds_per_s"]
    # higher is better, and the tie of pair 1 counts for neither side
    assert rate["change_wins"] == 2
    assert rate["parent_iqr"] == 0.0 and rate["gap_exceeds_parent_iqr"]
    assert rate["change"]["median"] == 100.5 and rate["within_bound"]

    setup = summary["metrics"]["setup_s"]
    # the change reads 37.5 % worse, past the 25 % bound
    assert setup["median_change_pct"] == 37.5 and not setup["within_bound"]
    assert setup["change_wins"] == 0

    assert summary["operations"] == {
        "parent": {"runs": 4, "attempted": 20, "failed": 0, "incorrect_runs": 0},
        "change": {"runs": 4, "attempted": 20, "failed": 1, "incorrect_runs": 1},
    }


def test_every_workload_of_an_all_run_is_summarised_and_failed_runs_are_left_out():
    pairs = [
        {"parent": _result({"paper-k100.wall_s": 2.0, "many-small.wall_s": 4.0}),
         "change": _result({"paper-k100.wall_s": 1.0, "many-small.wall_s": 6.0})},
        # a run that printed no result has no metric to compare
        {"parent": _result({"paper-k100.wall_s": 3.0, "many-small.wall_s": 4.0}),
         "change": {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}},
    ]
    metrics = bench_pairs.summarize(pairs, END_TO_END[:1])["metrics"]
    assert sorted(metrics) == ["many-small.wall_s", "paper-k100.wall_s"]
    assert metrics["paper-k100.wall_s"]["pairs"] == 1
    assert metrics["paper-k100.wall_s"]["change_wins"] == 1
    assert metrics["many-small.wall_s"]["median_change_pct"] == 50.0
    assert not metrics["many-small.wall_s"]["within_bound"]


def test_a_run_reads_its_last_line_or_counts_as_failed(monkeypatch, tmp_path):
    outputs = iter([
        subprocess.CompletedProcess([], 0, 'progress\n{"correct": true, "attempted": 3, '
                                           '"failed": 0, "metrics": {}}\n', ""),
        subprocess.CompletedProcess([], 2, "", "bench: missing digests\n"),
    ])
    seen = []

    def fake_run(argv, cwd, capture_output, text):
        seen.append((argv[1:], cwd))
        return next(outputs)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_once(tmp_path, "paper-k100", 7, 20.0)
    assert result == {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    assert seen == [(["bench/run.py", "--workload", "paper-k100", "--seed", "7",
                      "--seconds", "20.0", "--trace", "0"], tmp_path)]
    failed = bench_pairs.run_once(tmp_path, "paper-k100", 7, 20.0)
    assert (failed["correct"], failed["failed"]) == (False, 1)
    assert "missing digests" in failed["error"]
