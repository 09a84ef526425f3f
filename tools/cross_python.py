"""Recorded report digests, re-checked under other Python interpreters.

    python3 tools/cross_python.py python3.10 python3.12 python3.13

Under each INTERPRETER, the CLI (`afsasim.cli.main`) runs with `-I` and
the package imported from this checkout's `src/`, once for every check in
`bench/run.py` and once for every workload seed recorded in
`bench/digests.json`, with the argv `bench/run.py` builds for it.  Both
files are read and neither is edited.  Each report whose SHA-256 differs
from the recorded digest is printed, and so is each run that fails; the
exit code is 1 if any report differs or fails, else 0.

It uses the standard library only, as the other interpreters may have no
pytest.  The runs are sequential, one fresh interpreter each; one
interpreter's runs took about 30 s in all on a 2-core x86-64 VM.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(ROOT / "bench"))
import run  # noqa: E402  (bench/run.py: its CHECKS, WORKLOADS and DIGESTS)

# The CLI on argv[2:], from the package directory argv[1].
_CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
        "from afsasim.cli import main; sys.exit(main(sys.argv[1:]))")

Run = Tuple[str, List[str], str]


def recorded_runs() -> List[Run]:
    """(name, argv, recorded digest) of every check and every recorded
    workload seed."""
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    runs: List[Run] = [(f"check {name}", argv, digests["checks"][name])
                       for name, (argv, _, _) in run.CHECKS.items()]
    for workload, seeds in digests["workloads"].items():
        spec = run.WORKLOADS[workload]
        runs.extend((f"{workload} seed {seed}", spec.argv(int(seed)), digest)
                    for seed, digest in seeds.items())
    return runs


def differences(interpreter: str, runs: List[Run]) -> Iterator[Tuple[str, str]]:
    """(name, what was found) of each run whose report under `interpreter`
    is not its recorded digest, in the order of `runs`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        for name, argv, digest in runs:
            proc = subprocess.run(
                [interpreter, "-I", "-c", _CLI, str(SRC), *argv, "--out", str(out)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                yield name, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
                continue
            found = hashlib.sha256(out.read_bytes()).hexdigest()
            if found != digest:
                yield name, f"digest {found} differs from the recorded {digest}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("interpreters", nargs="+", metavar="INTERPRETER")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    runs = recorded_runs()
    failed = False
    for interpreter in args.interpreters:
        differing = 0
        for name, found in differences(interpreter, runs):
            print(f"{interpreter}: {name}: {found}", flush=True)
            differing += 1
        print(f"{interpreter}: {len(runs) - differing} of {len(runs)} reports match",
              flush=True)
        failed = failed or differing > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
