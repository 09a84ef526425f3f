"""Reports stay byte-identical: their SHA-256 against `bench/digests.json`.

The runs are the benchmark's own: its four checks (the default command,
the same run per round, a 5 000-tag trial per round and acceptance
criterion 8 in full) and seed 1 of each timed workload, with the argv
`bench/run.py` builds for them.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from afsasim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402  (bench/run.py: its CHECKS and WORKLOADS)

DIGESTS = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
SEED = 1
RUNS = {
    **{f"check-{name}": (argv, DIGESTS["checks"][name])
       for name, (argv, _, _) in run.CHECKS.items()},
    **{f"{name}-seed-{SEED}": (spec.argv(SEED), DIGESTS["workloads"][name][str(SEED)])
       for name, spec in run.WORKLOADS.items()},
}


@pytest.mark.parametrize("name", RUNS)
def test_report_matches_the_recorded_digest(name, tmp_path):
    argv, digest = RUNS[name]
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
