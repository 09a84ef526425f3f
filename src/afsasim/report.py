"""Tabular output for experiment results.

One fixed column set serves both granularities.  Aggregate rows carry one
trial per row with `round` holding the number of rounds the trial used,
`N` and `n` the initial frame parameters, `k_active` every tag that was
ever present, and the count columns whole-trial totals.  Per-round rows
carry one round per row with the parameters that round actually ran
with.  Baseline rounds without a reservation phase report n = 0.

A report can be written as its trials end: `trial_rows` turns one trial
into its rows, and `write_report` writes them batch by batch, so no trial
needs to outlive its rows.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .afsa import InventoryResult
from .experiment import ExperimentConfig, ExperimentResult

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


def trial_rows(
    config: ExperimentConfig,
    trial_id: int,
    trial: InventoryResult,
    per_round: bool = False,
) -> List[Row]:
    """The report rows of trial `trial_id` of an experiment run from `config`."""
    protocol = config.protocol
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
            for round_index, (t, k_active) in enumerate(
                zip(trial.traces, trial.k_active), start=1)
        ]
    traces = trial.traces
    return [{
        "trial": trial_id,
        "round": trial.rounds_used,
        "protocol": protocol,
        "N": config.frame_slots,
        "n": traces[0].seq_bits,
        "k_active": trial.ever_present,
        "idle": sum(t.idle_count for t in traces),
        "reserved_true": sum(t.reserved_true_count for t in traces),
        "detected_collisions": sum(t.detected_collision_count for t in traces),
        "undetected_collisions": sum(t.undetected_collision_count for t in traces),
        "identified": trial.tags_identified,
        "round_time_us": trial.total_time_us,
    }]


def result_rows(result: ExperimentResult, per_round: bool = False) -> List[Row]:
    """Flatten one experiment into report rows; a trial's id is its index."""
    return [
        row
        for trial_id, trial in enumerate(result.trials)
        for row in trial_rows(result.config, trial_id, trial, per_round)
    ]


def _drain(buf: io.StringIO) -> str:
    text = buf.getvalue()
    buf.seek(0)
    buf.truncate()
    return text


_JSON = json.JSONEncoder(indent=2)

# What precedes a value in an indented JSON row object, per column.
_JSON_KEYS = {column: f'    "{column}": ' for column in COLUMNS}


def _json_item(row: Row) -> str:
    """`row` as `json.dumps(rows, indent=2)` writes it inside the array.

    A dict of strings, ints and finite floats under COLUMNS keys, which
    is what a report row holds, is written here; anything else goes
    through the stdlib encoder, which with an indent runs in pure Python
    and is rebuilt on every call.
    """
    fields = []
    for key, value in row.items() if type(row) is dict else ():
        kind = type(value)
        if kind is str:
            text = encode_basestring_ascii(value)
        elif kind is int or (kind is float and math.isfinite(value)):
            text = repr(value)
        else:
            break
        prefix = _JSON_KEYS.get(key)
        if prefix is None:
            break
        fields.append(prefix + text)
    else:
        if fields:
            return "  {\n" + ",\n".join(fields) + "\n  }"
    return _JSON.encode([row])[2:-2]


def _report_text(batches: Iterable[Sequence[Row]], fmt: str = "csv") -> Iterator[str]:
    """The report of all rows in `batches`, as one piece of text per batch
    that holds rows and one closing piece.

    The pieces join to the text of the whole list of rows: a CSV header
    and its rows, or one JSON array.  A JSON batch is the encoding of its
    own array without the bracket and line break at either end, and the
    pieces join batches with a comma and a line break, as the whole
    array's encoding joins its items.
    """
    if fmt == "csv":
        # one writer for the whole report, its buffer emptied once per
        # batch; the header goes out with the first batch, or at the end
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rows in batches:
            if rows:
                writer.writerows(rows)
                yield _drain(buf)
        yield _drain(buf)
    elif fmt == "json":
        opening = "[\n"
        for rows in batches:
            if rows:
                yield opening + ",\n".join(map(_json_item, rows))
                opening = ",\n"
        yield "[]\n" if opening == "[\n" else "\n]\n"
    else:
        raise ValueError(f"format must be csv or json, not {fmt!r}")


def render_csv(rows: Sequence[Row]) -> str:
    """CSV text with a header line, always, even for zero rows.

    Floats render via str(), which in Python is the shortest exact
    representation, so output is byte-stable and loses no precision.
    """
    return "".join(_report_text([rows], "csv"))


def render_json(rows: Sequence[Row]) -> str:
    """JSON array of row objects mirroring the CSV schema, full precision."""
    return "".join(_report_text([rows], "json"))


def write_report(
    batches: Iterable[Sequence[Row]],
    fmt: str = "csv",
    destination: Optional[str] = None,
) -> None:
    """Emit the rows of `batches` as `fmt` to a path, or to stdout when
    destination is None or '-', each batch as soon as it arrives.

    The destination is opened when the first batch that holds a row
    arrives, or at the end when none does, so an error raised by
    `batches` before that creates no file and writes nothing; one raised
    later leaves the rows written so far.
    """
    pieces = _report_text(batches, fmt)
    first = next(pieces)
    if destination is None or destination == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(destination, "w", encoding="utf-8", newline="")
    with out as fh:
        fh.write(first)
        for piece in pieces:
            fh.write(piece)


def write_rows(
    rows: Sequence[Row],
    fmt: str = "csv",
    destination: Optional[str] = None,
) -> None:
    """Emit rows as `fmt` to a path, or to stdout when destination is None or '-'."""
    write_report([rows], fmt, destination)
