"""Tabular output for experiment results.

One fixed column set serves both granularities.  Aggregate rows carry one
trial per row with `round` holding the number of rounds the trial used,
`N` and `n` the initial frame parameters, `k_active` every tag that was
ever present, and the count columns whole-trial totals.  Per-round rows
carry one round per row with the parameters that round actually ran
with.  Baseline rounds without a reservation phase report n = 0.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from typing import Dict, List, Optional, Sequence, Union

from .experiment import ExperimentResult

COLUMNS = (
    "trial",
    "round",
    "protocol",
    "N",
    "n",
    "k_active",
    "idle",
    "reserved_true",
    "detected_collisions",
    "undetected_collisions",
    "identified",
    "round_time_us",
)

Row = Dict[str, Union[int, float, str]]


def result_rows(result: ExperimentResult, per_round: bool = False) -> List[Row]:
    """Flatten one experiment into report rows; a trial's id is its index."""
    protocol = result.config.protocol
    if per_round:
        return [
            {
                "trial": trial_id,
                "round": round_index,
                "protocol": protocol,
                "N": t.slots,
                "n": t.seq_bits,
                "k_active": k_active,
                "idle": t.idle_count,
                "reserved_true": t.reserved_true_count,
                "detected_collisions": t.detected_collision_count,
                "undetected_collisions": t.undetected_collision_count,
                "identified": len(t.identified_epcs),
                "round_time_us": t.total_us,
            }
            for trial_id, trial in enumerate(result.trials)
            for round_index, (t, k_active) in enumerate(
                zip(trial.traces, trial.k_active), start=1)
        ]
    return [
        {
            "trial": trial_id,
            "round": trial.rounds_used,
            "protocol": protocol,
            "N": result.config.frame_slots,
            "n": trial.traces[0].seq_bits,
            "k_active": trial.ever_present,
            "idle": sum(t.idle_count for t in trial.traces),
            "reserved_true": sum(t.reserved_true_count for t in trial.traces),
            "detected_collisions": sum(
                t.detected_collision_count for t in trial.traces),
            "undetected_collisions": sum(
                t.undetected_collision_count for t in trial.traces),
            "identified": trial.tags_identified,
            "round_time_us": trial.total_time_us,
        }
        for trial_id, trial in enumerate(result.trials)
    ]


def render_csv(rows: Sequence[Row]) -> str:
    """CSV text with a header line, always, even for zero rows.

    Floats render via str(), which in Python is the shortest exact
    representation, so output is byte-stable and loses no precision.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_json(rows: Sequence[Row]) -> str:
    """JSON array of row objects mirroring the CSV schema, full precision."""
    return json.dumps(list(rows), indent=2) + "\n"


def write_rows(
    rows: Sequence[Row],
    fmt: str = "csv",
    destination: Optional[str] = None,
) -> None:
    """Emit rows as `fmt` to a path, or to stdout when destination is None or '-'."""
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = render_json(rows)
    else:
        raise ValueError(f"format must be csv or json, not {fmt!r}")
    if destination is None or destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
