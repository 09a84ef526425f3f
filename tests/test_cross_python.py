"""tools/cross_python.py on the running interpreter, for one check."""
import importlib.util
import json
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cross_python.py"
_SPEC = importlib.util.spec_from_file_location("cross_python", _PATH)
cross_python = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cross_python)

RUNS = {name: (argv, digest) for name, argv, digest in cross_python.recorded_runs()}


def test_every_check_and_recorded_seed_is_a_run():
    run = cross_python.run
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    seeds = sum(len(recorded) for recorded in digests["workloads"].values())
    assert len(RUNS) == len(run.CHECKS) + seeds
    assert {f"check {name}" for name in run.CHECKS} <= set(RUNS)
    assert RUNS["paper-k100 seed 1"] == (run.WORKLOADS["paper-k100"].argv(1),
                                         digests["workloads"]["paper-k100"]["1"])


def test_the_default_check_matches_and_a_wrong_digest_is_reported():
    argv, digest = RUNS["check default"]
    runs = [("check default", argv, digest), ("wrong", argv, "0" * 64)]
    found = list(cross_python.differences(sys.executable, runs))
    assert [name for name, _ in found] == ["wrong"]
    assert found[0][1].endswith(f"differs from the recorded {'0' * 64}")
