"""Record the SHA-256 digest of every workload's report, per seed.

    python3 bench/record_digests.py

Runs each workload of `run.py` once for every seed in `SEEDS`, and each of
its short checks once, passes every report through the correctness gate
and rewrites `digests.json`.  The digests are the byte-identity
reference: record them on a commit whose output is right, and again only
when a change alters a random stream or a report on purpose.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import CHECKS, DIGESTS, RUN_DIR, WORKLOADS, Invocation

# Seeds whose digests are recorded for every workload.
SEEDS = range(0, 41)


def main() -> int:
    RUN_DIR.mkdir(exist_ok=True)
    recorded = {"checks": {}, "workloads": {name: {} for name in WORKLOADS}}
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        inv = Invocation(Path(tmp), budget_s=float(10**6))
        for name, (cli_args, spec, _) in CHECKS.items():
            recorded["checks"][name] = inv.rep("run", spec, cli_args, None).digest
        for name, spec in WORKLOADS.items():
            for seed in SEEDS:
                rep = inv.rep("run", spec, spec.argv(seed), None)
                recorded["workloads"][name][str(seed)] = rep.digest
                print(f"{name} seed {seed}: {rep.digest or 'FAILED'}", flush=True)
    if inv.failed:
        print("\n".join(inv.notes), file=sys.stderr)
        print("not written: a report failed the gate", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
