"""Command-line front end.

Exit codes: 0 success, 1 invalid arguments or config, 2 runtime or I/O
failure, 3 at least one trial hit its round budget with tags still
unidentified.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .experiment import (
    MAX_ARRIVAL_RATE,
    MAX_FRAME_SLOTS,
    MAX_TAGS,
    MAX_TRIALS,
    ExperimentConfig,
    iter_trials,
    run_experiment,  # unused here, but bench/child.py wraps it by this name
    validate_experiment,
)
from .model import MAX_SEQ_BITS
from .report import (
    Row,
    result_rows,  # unused here, but bench/child.py wraps it by this name
    trial_rows,
    write_report,
    write_rows,  # unused here, but bench/child.py wraps it by this name
)

# CLI sweep parameter -> (config field, value parser)
SWEEP_PARAMS = {
    "tags": ("k_initial", int),
    "frame": ("frame_slots", int),
    "seq-bits": ("seq_bits", int),
    "trials": ("trials", int),
    "max-rounds": ("max_rounds", int),
    "arrival-rate": ("arrival_rate", float),
    "departure-prob": ("departure_prob", float),
}

# Most values one --sweep range may expand to; each runs a whole experiment.
MAX_SWEEP_VALUES = 10_000


class CliError(Exception):
    """Argument parsing failed; message explains field and expected form."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad args; the contract here is 1
    def error(self, message: str):
        raise CliError(message)


def _seq_bits(text: str) -> Optional[int]:
    if text.lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [1, {MAX_SEQ_BITS}] or 'auto', got {text!r}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")


def _exact(text: str, value: float) -> Fraction:
    # the decimal a finite bound's text spells; one whose exponent lies far
    # outside the floats' 1e-324..1e308 (0e999999999) stands for its float
    # instead, so the exact value never needs a huge power of ten
    decimal = Decimal(text)
    return Fraction(decimal if abs(decimal.adjusted()) <= 400 else value)


def _sweep_values(texts: Sequence[str], parse) -> List:
    start, step, end = (parse(t) for t in texts)
    if step == 0:
        raise argparse.ArgumentTypeError("sweep step must not be zero")
    if (end - start) * step < 0:
        raise argparse.ArgumentTypeError(
            "sweep range is empty: end is on the wrong side of start for this step")
    if parse is float:
        if not all(math.isfinite(v) for v in (start, step, end)):
            raise argparse.ArgumentTypeError("sweep bounds and step must be finite")
        # cell i is the float nearest start + i * step in exact decimals, so
        # no rounding error builds up from cell to cell
        start, step, end = (_exact(t, v) for t, v in zip(texts, (start, step, end)))
    count = (end - start) // step + 1
    if count > MAX_SWEEP_VALUES:
        raise argparse.ArgumentTypeError(
            f"sweep range has more than {MAX_SWEEP_VALUES} values")
    return [parse(start + i * step) for i in range(count)]


def _sweep_spec(text: str) -> Tuple[str, List]:
    expected = ("expected PARAM=START:STEP:END with PARAM one of "
                + ", ".join(SWEEP_PARAMS))
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"{expected}; missing '=' in {text!r}")
    param, _, spec = text.partition("=")
    if param not in SWEEP_PARAMS:
        raise argparse.ArgumentTypeError(f"{expected}; unknown parameter {param!r}")
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{expected}; range {spec!r} is not START:STEP:END")
    _, parse = SWEEP_PARAMS[param]
    try:
        return param, _sweep_values(parts, parse)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{expected}; range {spec!r} has a non-numeric bound")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="afsasim",
        description="Simulate reservation-based framed slotted ALOHA inventories "
                    "and baseline protocols.",
    )
    parser.add_argument("--protocol", choices=("afsa", "fsa", "edfsa"),
                        default="afsa", help="protocol to run (default afsa)")
    parser.add_argument("--tags", type=_int_arg, default=100, metavar="K",
                        help=f"initial tag population, at most {MAX_TAGS} (default 100)")
    parser.add_argument("--frame", type=_int_arg, default=128, metavar="N",
                        help="initial frame size in slots, at most "
                             f"{MAX_FRAME_SLOTS} (default 128)")
    parser.add_argument("--seq-bits", type=_seq_bits, default=None,
                        metavar=f"{{1..{MAX_SEQ_BITS}|auto}}",
                        help="reservation sequence bits, or auto to re-derive "
                             "each round (default auto)")
    parser.add_argument("--trials", type=_int_arg, default=25,
                        help=f"independent trials to run, at most {MAX_TRIALS} (default 25)")
    parser.add_argument("--seed", type=_int_arg, default=1,
                        help="master seed in [0, 2**64 - 1]; trial t uses "
                             "stream (seed, t) (default 1)")
    parser.add_argument("--max-rounds", type=_int_arg, default=1000,
                        help="round budget per trial (default 1000)")
    parser.add_argument("--arrival-rate", type=_float_arg, default=0.0,
                        metavar="RATE",
                        help="mean Poisson tag arrivals per round gap, at most "
                             f"{MAX_ARRIVAL_RATE} (default 0)")
    parser.add_argument("--departure-prob", type=_float_arg, default=0.0,
                        metavar="P",
                        help="per-tag departure probability per round gap (default 0)")
    parser.add_argument("--sweep", type=_sweep_spec, default=None,
                        metavar="PARAM=START:STEP:END",
                        help="sweep one parameter over an inclusive range of at "
                             f"most {MAX_SWEEP_VALUES} values, e.g. "
                             "--sweep seq-bits=1:1:6")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="report format (default csv)")
    parser.add_argument("--per-round", action="store_true",
                        help="emit one row per round instead of per trial")
    return parser


def parse_cli(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv (no program name).  Raises CliError on any bad argument."""
    return build_parser().parse_args(list(argv))


class _RuntimeFailure(Exception):
    """A trial raised the error this wraps; it keeps that error apart from
    a failed write of the report, which is an OSError."""


def _fail(message: str) -> None:
    print(f"afsasim: error: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = parse_cli(sys.argv[1:] if argv is None else argv)
    except CliError as err:
        _fail(str(err))
        return 1

    config = ExperimentConfig(
        protocol=ns.protocol,
        k_initial=ns.tags,
        frame_slots=ns.frame,
        seq_bits=ns.seq_bits,
        trials=ns.trials,
        seed=ns.seed,
        max_rounds=ns.max_rounds,
        arrival_rate=ns.arrival_rate,
        departure_prob=ns.departure_prob,
    )

    if ns.sweep is None:
        problems = validate_experiment(config)
        if problems:
            for problem in problems:
                _fail(problem)
            return 1
        configs = [config]
    else:
        param, values = ns.sweep
        field, _ = SWEEP_PARAMS[param]
        configs = [replace(config, **{field: value}) for value in values]

    invalid = incomplete = False

    def batches() -> Iterator[List[Row]]:
        # each trial's rows as soon as it ends; of the trial itself only
        # whether it completed is kept
        nonlocal invalid, incomplete
        for cell in configs:
            problems = validate_experiment(cell)
            if problems:
                # only a sweep cell: a single config was checked above
                _fail(f"sweep cell {param}={getattr(cell, field)}: "
                      + "; ".join(problems))
                invalid = True
                continue
            try:
                for trial_id, trial in enumerate(iter_trials(cell)):
                    incomplete |= not trial.completed
                    yield trial_rows(cell, trial_id, trial, per_round=ns.per_round)
            except Exception as err:  # noqa: BLE001 - CLI boundary
                raise _RuntimeFailure(err) from err

    try:
        write_report(batches(), fmt=ns.fmt, destination=ns.out)
    except _RuntimeFailure as failure:
        _fail(f"runtime failure: {failure}")
        return 2
    except OSError as err:
        _fail(f"cannot write {ns.out or 'stdout'}: {err}")
        return 2

    if invalid:
        return 1
    if incomplete:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
