"""Tabular output for experiment results.

One fixed column set serves both granularities.  Aggregate rows carry one
trial per row with `round` holding the number of rounds the trial used,
`N` and `n` the initial frame parameters, `k_active` every tag that was
ever present, and the count columns whole-trial totals.  Per-round rows
carry one round per row with the parameters that round actually ran
with.  Baseline rounds without a reservation phase report n = 0.

Each entry point takes one row shape.  `trial_rows` and `result_rows`
make row dicts of COLUMNS, which `render_csv` and `render_json` write as
`csv.DictWriter` and `json.dumps(rows, indent=2)` do.  The CLI streams its
report through `write_report`, which takes the tuples of each row's values
in COLUMNS order that `_trial_values` makes, so no trial outlives its rows
and no row dict is built.
"""
from __future__ import annotations

import contextlib
import io
import sys
from math import isfinite
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .afsa import InventoryResult
from .experiment import PROTOCOLS, ExperimentConfig, ExperimentResult

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

# A report row's values in COLUMNS order.
Values = Tuple[int, int, str, int, int, int, int, int, int, int, int, float]


def _trial_values(
    config: ExperimentConfig,
    trial_id: int,
    trial: InventoryResult,
    per_round: bool = False,
) -> List[Values]:
    """The values of each report row of trial `trial_id` of an experiment
    run from `config`, in COLUMNS order."""
    protocol = config.protocol
    if per_round:
        return [
            (trial_id, round_index, protocol, slots, seq_bits, k_active, idle,
             reserved, detected, undetected, reserved, total_us)
            for round_index, (
                (slots, seq_bits, _, idle, reserved, detected, undetected, _, total_us),
                k_active,
            ) in enumerate(zip(trial.traces, trial.k_active), start=1)
        ]
    idle = reserved = detected = undetected = 0
    for _, _, _, t_idle, t_reserved, t_detected, t_undetected, _, _ in trial.traces:
        idle += t_idle
        reserved += t_reserved
        detected += t_detected
        undetected += t_undetected
    # `round_time_us` is not a running total in the loop above: from
    # Python 3.12 `sum` compensates, so the two could differ in the last bits
    return [(trial_id, trial.rounds_used, protocol, config.frame_slots,
             trial.traces[0].seq_bits, trial.ever_present, idle, reserved, detected,
             undetected, reserved, trial.total_time_us)]


def trial_rows(
    config: ExperimentConfig,
    trial_id: int,
    trial: InventoryResult,
    per_round: bool = False,
) -> List[Row]:
    """The report rows of trial `trial_id` of an experiment run from `config`."""
    return [dict(zip(COLUMNS, values))
            for values in _trial_values(config, trial_id, trial, per_round)]


def result_rows(result: ExperimentResult, per_round: bool = False) -> List[Row]:
    """Flatten one experiment into report rows; a trial's id is its index."""
    return [
        row
        for trial_id, trial in enumerate(result.trials)
        for row in trial_rows(result.config, trial_id, trial, per_round)
    ]


# One `%` template of a report row per format, for a row whose protocol is
# in PROTOCOLS and whose time is finite: `str` of an int or a finite float
# is what `csv.writer` and `json.dumps` write, and a name in PROTOCOLS is
# plain ASCII, so quoting it is its JSON text.
_CSV_ROW = ",".join(["%s"] * len(COLUMNS)) + "\n"
_JSON_ROW = "  {\n" + ",\n".join(
    f'    "{column}": ' + ('"%s"' if column == "protocol" else "%s") for column in COLUMNS
) + "\n  }"


def _report_text(batches: Iterable[Sequence[Values]], fmt: str = "csv") -> Iterator[str]:
    """The report of all value tuples in `batches`, as one piece of text per
    batch that holds rows and one closing piece.

    The pieces join to `render_csv` or `render_json` of the row dicts of
    all the tuples.  A format is its framing, the text before, between and
    after the rows and that of no row, and its row template.  A row the
    template cannot write is its format's rendering of that row alone, cut
    from its framing, so `csv` or `json` is imported only for such a row.
    A CSV piece ends with a whole row.
    """
    if fmt == "csv":
        first = empty = ",".join(COLUMNS) + "\n"
        between = last = ""
        template, render = _CSV_ROW, render_csv
    elif fmt == "json":
        first, between, last, empty = "[\n", ",\n", "\n]\n", "[]\n"
        template, render = _JSON_ROW, render_json
    else:
        raise _bad_format(fmt)
    opening = first
    for rows in batches:
        if rows:
            yield opening + between.join([
                template % values if values[2] in PROTOCOLS and isfinite(values[-1])
                else render([dict(zip(COLUMNS, values))]).removeprefix(first).removesuffix(last)
                for values in rows])
            opening = between
    yield empty if opening is first else last


def _bad_format(fmt: str) -> ValueError:
    return ValueError(f"format must be csv or json, not {fmt!r}")


def _open(destination: Optional[str]) -> contextlib.AbstractContextManager:
    """stdout when destination is None or '-', else the file at that path."""
    if destination is None or destination == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(destination, "w", encoding="utf-8", newline="")


def render_csv(rows: Sequence[Row]) -> str:
    """CSV text with a header line, always, even for zero rows, as
    `csv.DictWriter` writes it over COLUMNS.

    Floats render via str(), which in Python is the shortest exact
    representation, so output is byte-stable and loses no precision.
    """
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_json(rows: Sequence[Row]) -> str:
    """JSON array of row objects mirroring the CSV schema, full precision:
    `json.dumps(rows, indent=2)` and a line break."""
    import json

    return json.dumps(rows, indent=2) + "\n"


def write_report(
    batches: Iterable[Sequence[Values]],
    fmt: str = "csv",
    destination: Optional[str] = None,
) -> None:
    """Emit the value tuples of `batches` as `fmt` to a path, or to stdout
    when destination is None or '-', each batch as soon as it arrives.

    The destination is opened when the first batch that holds a row
    arrives, or at the end when none does, so an error raised by
    `batches` before that creates no file and writes nothing; one raised
    later leaves the rows written so far.
    """
    pieces = _report_text(batches, fmt)
    first = next(pieces)
    with _open(destination) as fh:
        fh.write(first)
        for piece in pieces:
            fh.write(piece)


def write_rows(
    rows: Sequence[Row],
    fmt: str = "csv",
    destination: Optional[str] = None,
) -> None:
    """Emit rows as `fmt` to a path, or to stdout when destination is None or '-'.

    The text is rendered before the destination is opened, so a bad
    format or row creates no file and writes nothing.
    """
    if fmt not in ("csv", "json"):
        raise _bad_format(fmt)
    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    with _open(destination) as fh:
        fh.write(text)
