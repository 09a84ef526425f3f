"""Alternating benchmark pairs of two checkouts, summarised against BENCHMARK.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload large-population --seed 1 --seconds 20 --pairs 10 --out pairs.json

Pair i (counting from 0) runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` in the parent checkout and then in the change
checkout when i is even, the change first when i is odd.  Each side runs
its own `bench/run.py` on its own sources; nothing under `bench/` is
edited.  A run's result is the JSON object on the last line of its
standard output.

For every end-to-end metric of `BENCHMARK.json`, per workload, the
summary gives each side's median and quartiles over its runs (the
inclusive method of `statistics.quantiles`), the pairs the change won
(strictly better in the metric's `better` direction; a tie counts for
neither side), the parent's interquartile range and whether the gap
between the medians exceeds it, and the change's relative move against
the metric's `bound`.  It also counts each side's attempted and failed
operations and the runs that did not report `"correct": true`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One `bench/run.py` run in `checkout`: its last-line JSON result, or a
    failed result that says why none was printed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout).strip()[-500:]
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}, no result line: {tail}"}


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _metric_keys(pairs: List[Dict[str, Dict]], name: str) -> List[str]:
    # one workload reports `name`; `--workload all` reports `<workload>.name`
    keys = {key for pair in pairs for side in SIDES
            for key in pair[side].get("metrics", {})
            if key == name or key.endswith("." + name)}
    return sorted(keys)


def summarize(pairs: List[Dict[str, Dict]], end_to_end: List[Dict]) -> Dict:
    """The summary of `pairs`, each `{"parent": result, "change": result}`,
    for the `end_to_end` entries of BENCHMARK.json."""
    metrics: Dict[str, Dict] = {}
    for spec in end_to_end:
        lower = spec["better"] == "lower"
        for key in _metric_keys(pairs, spec["name"]):
            # only pairs where both sides reported the metric are compared
            both = [(p["parent"]["metrics"][key]["value"], p["change"]["metrics"][key]["value"])
                    for p in pairs
                    if key in p["parent"].get("metrics", {}) and key in p["change"].get("metrics", {})]
            if not both:
                continue
            parent = quartiles([a for a, _ in both])
            change = quartiles([b for _, b in both])
            wins = sum(b < a if lower else b > a for a, b in both)
            iqr = parent["q3"] - parent["q1"]
            gap = change["median"] - parent["median"]
            # positive when the change reads worse
            worse = (gap if lower else -gap) / parent["median"]
            metrics[key] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "pairs": len(both),
                "parent": parent,
                "change": change,
                "parent_runs": [a for a, _ in both],
                "change_runs": [b for _, b in both],
                "change_wins": wins,
                "median_change_pct": 100.0 * gap / parent["median"],
                "parent_iqr": iqr,
                "gap_exceeds_parent_iqr": abs(gap) > iqr,
                "bound": spec["bound"],
                "within_bound": worse <= spec["bound"],
            }
    totals = {side: {
        "runs": len(pairs),
        "attempted": sum(p[side].get("attempted", 0) for p in pairs),
        "failed": sum(p[side].get("failed", 0) for p in pairs),
        "incorrect_runs": sum(p[side].get("correct") is not True for p in pairs),
    } for side in SIDES}
    return {"metrics": metrics, "operations": totals}


def describe(summary: Dict) -> List[str]:
    lines = []
    for key, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"{key:<34} parent {p['median']:.6g} [{p['q1']:.6g}..{p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}..{c['q3']:.6g}] {m['unit']}"
            f"  {m['median_change_pct']:+.2f}%  won {m['change_wins']}/{m['pairs']}"
            f"  gap>iqr {'yes' if m['gap_exceeds_parent_iqr'] else 'no'}"
            f"  bound {'ok' if m['within_bound'] else 'EXCEEDED'}")
    for side, t in summary["operations"].items():
        lines.append(f"{side}: {t['runs']} runs, {t['attempted']} attempted, "
                     f"{t['failed']} failed, {t['incorrect_runs']} not correct")
    return lines


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the pairs and the summary as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs: List[Dict[str, Dict]] = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], args.workload, args.seed, args.seconds)
                for side in order}
        pairs.append(pair)
        print(f"pair {i} ({order[0]} first): " + "  ".join(
            f"{side} correct={pair[side].get('correct')}" for side in SIDES), flush=True)
    summary = summarize(pairs, benchmark["end_to_end"])
    for line in describe(summary):
        print(line)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "command": f"bench/run.py --workload {args.workload} --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 0",
            "pairs": pairs, "summary": summary}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
