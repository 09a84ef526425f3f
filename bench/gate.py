"""Correctness gate for one afsasim report.

`check_report` parses a CSV or JSON report and returns every problem it
finds, together with the totals the benchmark derives its simulated
metrics from.  The checks are structural, so they hold for any seed:
row counts, trial and round numbering, slot counts that partition each
frame, one identification per truly reserved slot, and each reservation
round's time against `afsasim.analytic.phase_durations_for`.  The
byte-identity check against recorded digests lives in `run.py`.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

COLUMNS = (
    "trial", "round", "protocol", "N", "n", "k_active", "idle",
    "reserved_true", "detected_collisions", "undetected_collisions",
    "identified", "round_time_us",
)
PARSE = {c: int for c in COLUMNS} | {"protocol": str, "round_time_us": float}
INT_COLUMNS = tuple(c for c in COLUMNS if PARSE[c] is int)
SLOT_COLUMNS = ("idle", "reserved_true", "detected_collisions", "undetected_collisions")


@dataclass(frozen=True)
class Spec:
    """What one CLI invocation was asked to do; every field maps to a flag."""

    protocol: str = "afsa"
    tags: int = 100
    frame: int = 128
    seq_bits: str = "auto"
    trials: int = 25
    max_rounds: int = 1000
    arrival_rate: float = 0.0
    departure_prob: float = 0.0
    per_round: bool = False
    fmt: str = "csv"

    def argv(self, seed: int) -> List[str]:
        """Full argv but `--out`, every flag explicit, so a change of a CLI
        default cannot silently change a workload."""
        args = [
            "--protocol", self.protocol, "--tags", str(self.tags),
            "--frame", str(self.frame), "--seq-bits", self.seq_bits,
            "--trials", str(self.trials), "--max-rounds", str(self.max_rounds),
            "--arrival-rate", repr(self.arrival_rate),
            "--departure-prob", repr(self.departure_prob),
            "--format", self.fmt, "--seed", str(seed),
        ]
        if self.per_round:
            args.append("--per-round")
        return args

    @property
    def churn(self) -> bool:
        return self.arrival_rate > 0 or self.departure_prob > 0


@dataclass(frozen=True)
class Totals:
    rounds: int
    identified: int
    sim_time_us: float

    @property
    def sim_per_tag_us(self) -> float:
        return self.sim_time_us / self.identified if self.identified else 0.0


def parse_rows(text: str, fmt: str) -> List[Dict]:
    """Rows of a report with integer columns as int and the time as float."""
    if fmt == "json":
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError("JSON report is not an array")
    else:
        reader = csv.DictReader(io.StringIO(text))
        if tuple(reader.fieldnames or ()) != COLUMNS:
            raise ValueError(f"CSV header is {reader.fieldnames}, expected {list(COLUMNS)}")
        raw = list(reader)
    rows = []
    for i, r in enumerate(raw):
        if not isinstance(r, dict) or tuple(r) != COLUMNS:
            raise ValueError(f"row {i} does not have the report columns")
        rows.append({c: PARSE[c](r[c]) for c in COLUMNS})
    return rows


def check_report(text: str, spec: Spec) -> Tuple[List[str], Optional[Totals]]:
    """Problems found in `text` (empty when it passes) and its totals."""
    try:
        rows = parse_rows(text, spec.fmt)
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable report: {err}"], None
    problems: List[str] = []
    for i, row in enumerate(rows):
        problems.extend(f"row {i}: {p}" for p in _check_row(row, spec))
    problems.extend(_check_rows(rows, spec))
    rounds = len(rows) if spec.per_round else sum(r["round"] for r in rows)
    totals = Totals(
        rounds=rounds,
        identified=sum(r["identified"] for r in rows),
        sim_time_us=sum(r["round_time_us"] for r in rows),
    )
    return problems[:20], totals


def _check_row(row: Dict, spec: Spec) -> List[str]:
    problems = []
    if row["protocol"] != spec.protocol:
        problems.append(f"protocol {row['protocol']!r}, expected {spec.protocol!r}")
    if min(row[c] for c in INT_COLUMNS) < 0 or row["round_time_us"] <= 0:
        problems.append("negative count or non-positive time")
    if row["identified"] != row["reserved_true"]:
        problems.append("identified must equal truly reserved slots")
    if spec.protocol == "afsa":
        if not 1 <= row["n"] <= 16:
            problems.append(f"sequence bits {row['n']} outside [1, 16]")
    elif row["n"] != 0 or row["undetected_collisions"] != 0:
        problems.append("a baseline round has no sequence bits or undetected collisions")
    if not spec.per_round:
        if row["N"] != spec.frame or not 1 <= row["round"] <= spec.max_rounds:
            problems.append("trial row has the wrong initial frame or round count")
        if not spec.churn and not row["k_active"] == row["identified"] == spec.tags:
            problems.append(f"trial identified {row['identified']} of {spec.tags} tags")
        return problems
    if sum(row[c] for c in SLOT_COLUMNS) != row["N"]:
        problems.append(f"slot counts do not partition N={row['N']}")
    if row["k_active"] < row["identified"]:
        problems.append("more tags identified than were active")
    expected = _round_time_us(row, spec.protocol)
    if row["round_time_us"] != expected:
        problems.append(f"round_time_us {row['round_time_us']!r}, model gives {expected!r}")
    return problems


def _round_time_us(row: Dict, protocol: str) -> float:
    from afsasim.analytic import phase_durations_for
    from afsasim.model import TimingModel

    timing = TimingModel()
    if protocol != "afsa":
        # every FSA slot carries a full data slot, collisions included
        return timing.advert_us + timing.data_slot_us * row["N"]
    successes = row["reserved_true"] + row["undetected_collisions"]
    return phase_durations_for(successes, row["N"], row["n"], timing).total


def _check_rows(rows: List[Dict], spec: Spec) -> List[str]:
    if not spec.per_round:
        trials = [r["trial"] for r in rows]
        if trials != list(range(spec.trials)):
            return [f"trial ids are not 0..{spec.trials - 1} in order ({len(rows)} rows)"]
        return []
    problems = []
    trials = []
    for trial, group in itertools.groupby(rows, key=lambda r: r["trial"]):
        group = list(group)
        trials.append(trial)
        if [r["round"] for r in group] != list(range(1, len(group) + 1)):
            problems.append(f"trial {trial}: rounds are not numbered 1..{len(group)}")
        if len(group) > spec.max_rounds:
            problems.append(f"trial {trial}: {len(group)} rounds exceed the budget")
        if group[0]["k_active"] != spec.tags:
            problems.append(f"trial {trial}: first round has k_active {group[0]['k_active']}")
        identified = sum(r["identified"] for r in group)
        if not spec.churn and identified != spec.tags:
            problems.append(f"trial {trial}: identified {identified} of {spec.tags} tags")
    if trials != list(range(spec.trials)):
        problems.append(f"trial ids are not 0..{spec.trials - 1} in order")
    return problems
