"""Command-line front end.

Exit codes: 0 success, 1 invalid arguments or config, 2 runtime or I/O
failure, 3 at least one trial hit its round budget with tags still
unidentified.
"""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .experiment import (
    MAX_ARRIVAL_RATE,
    ExperimentConfig,
    run_experiment,
    run_sweep,
    sweep_configs,
    validate_experiment,
)
from .model import MAX_SEQ_BITS
from .report import result_rows, sweep_rows, write_rows

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


def _sweep_values(start, step, end) -> List:
    if step == 0:
        raise argparse.ArgumentTypeError("sweep step must not be zero")
    if (end - start) * step < 0:
        raise argparse.ArgumentTypeError(
            "sweep range is empty: end is on the wrong side of start for this step")
    if isinstance(step, int):
        values = list(range(start, end + (1 if step > 0 else -1), step))
    else:
        # inclusive end with a small epsilon against float accumulation
        count = int((end - start) / step + 1e-9) + 1
        values = [start + i * step for i in range(count)]
    return values


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
        start, step, end = (parse(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{expected}; range {spec!r} has a non-numeric bound")
    return param, _sweep_values(start, step, end)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="afsasim",
        description="Simulate reservation-based framed slotted ALOHA inventories "
                    "and baseline protocols.",
    )
    parser.add_argument("--protocol", choices=("afsa", "fsa", "edfsa"),
                        default="afsa", help="protocol to run (default afsa)")
    parser.add_argument("--tags", type=_int_arg, default=100, metavar="K",
                        help="initial tag population (default 100)")
    parser.add_argument("--frame", type=_int_arg, default=128, metavar="N",
                        help="initial frame size in slots (default 128)")
    parser.add_argument("--seq-bits", type=_seq_bits, default=None,
                        metavar=f"{{1..{MAX_SEQ_BITS}|auto}}",
                        help="reservation sequence bits, or auto to re-derive "
                             "each round (default auto)")
    parser.add_argument("--trials", type=_int_arg, default=25,
                        help="independent trials to run (default 25)")
    parser.add_argument("--seed", type=_int_arg, default=1,
                        help="master seed; trial t uses stream (seed, t) (default 1)")
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
                        help="sweep one parameter over an inclusive range, "
                             "e.g. --sweep seq-bits=1:1:6")
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

    invalid = False
    try:
        if ns.sweep is not None:
            param, values = ns.sweep
            field, _ = SWEEP_PARAMS[param]
            cells = run_sweep(sweep_configs(config, field, values))
            for cell in cells:
                if cell.error is not None:
                    value = getattr(cell.config, field)
                    _fail(f"sweep cell {param}={value}: {cell.error}")
                    invalid = True
            rows = sweep_rows(cells, per_round=ns.per_round)
            incomplete = any(
                not t.completed
                for c in cells if c.result is not None
                for t in c.result.trial_records)
        else:
            problems = validate_experiment(config)
            if problems:
                for problem in problems:
                    _fail(problem)
                return 1
            result = run_experiment(config)
            rows = result_rows(result, per_round=ns.per_round)
            incomplete = not result.aggregate.all_completed
    except Exception as err:  # noqa: BLE001 - CLI boundary
        _fail(f"runtime failure: {err}")
        return 2

    try:
        write_rows(rows, fmt=ns.fmt, destination=ns.out)
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
