"""Command-line front end.

Exit codes: 0 success, 1 invalid arguments or config, 2 runtime or I/O
failure, 3 at least one trial hit its round budget with tags still
unidentified.
"""
from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from .experiment import (
    MAX_ARRIVAL_RATE,
    MAX_FRAME_SLOTS,
    MAX_TAGS,
    MAX_TRIALS,
    PROTOCOLS,
    ExperimentConfig,
    ExperimentConfigError,
    iter_trials,
    run_experiment,  # unused here, but bench/child.py wraps it by this name
)
from .model import MAX_SEQ_BITS
from .report import (
    Values,
    _trial_values,
    result_rows,  # unused here, but bench/child.py wraps it by this name
    write_report,
    write_rows,  # unused here, but bench/child.py wraps it by this name
)

if TYPE_CHECKING:
    from fractions import Fraction

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


def _seq_bits(text: str) -> Optional[int]:
    if text.lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"expected an integer in [1, {MAX_SEQ_BITS}] or 'auto', got {text!r}") from None


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _one_of(choices: Tuple[str, ...]):
    def choice(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        return text
    return choice


def _exact(text: str, value: float) -> Fraction:
    # only a float sweep needs these, so a plain run does not import them
    from decimal import Decimal
    from fractions import Fraction

    # the decimal a finite bound's text spells; one whose exponent lies far
    # outside the floats' 1e-324..1e308 (0e999999999) stands for its float
    # instead, so the exact value never needs a huge power of ten
    decimal = Decimal(text)
    return Fraction(decimal if abs(decimal.adjusted()) <= 400 else value)


def _sweep_values(texts: Sequence[str], bounds: Sequence, parse) -> List:
    start, step, end = bounds
    if step == 0:
        raise ValueError("sweep step must not be zero")
    if (end - start) * step < 0:
        raise ValueError(
            "sweep range is empty: end is on the wrong side of start for this step")
    if parse is float:
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError("sweep bounds and step must be finite")
        # cell i is the float nearest start + i * step in exact decimals, so
        # no rounding error builds up from cell to cell
        start, step, end = (_exact(t, v) for t, v in zip(texts, bounds))
    count = (end - start) // step + 1
    if count > MAX_SWEEP_VALUES:
        raise ValueError(f"sweep range has more than {MAX_SWEEP_VALUES} values")
    return [parse(start + i * step) for i in range(count)]


def _sweep_spec(text: str) -> Tuple[str, List]:
    expected = ("expected PARAM=START:STEP:END with PARAM one of "
                + ", ".join(SWEEP_PARAMS))
    if "=" not in text:
        raise ValueError(f"{expected}; missing '=' in {text!r}")
    param, _, spec = text.partition("=")
    if param not in SWEEP_PARAMS:
        raise ValueError(f"{expected}; unknown parameter {param!r}")
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{expected}; range {spec!r} is not START:STEP:END")
    _, parse = SWEEP_PARAMS[param]
    try:
        bounds = [parse(part) for part in parts]
    except ValueError:
        raise ValueError(f"{expected}; range {spec!r} has a non-numeric bound") from None
    return param, _sweep_values(parts, bounds, parse)


_DEFAULTS = ExperimentConfig._field_defaults

# One row per flag: (flag, attribute, value parser or None for a switch,
# default, metavar, help).  `parse_cli` reads argv by this table and
# --help prints it, with a help text's %(default)s standing for the row's
# default.  Each config-backed flag stores its value under the config
# field's name and defaults to that field's own default.
FLAGS = (
    ("--protocol", "protocol", _one_of(PROTOCOLS), _DEFAULTS["protocol"],
     "{" + ",".join(PROTOCOLS) + "}", "protocol to run (default %(default)s)"),
    ("--tags", "k_initial", _int_arg, _DEFAULTS["k_initial"], "K",
     f"initial tag population, at most {MAX_TAGS} (default %(default)s)"),
    ("--frame", "frame_slots", _int_arg, _DEFAULTS["frame_slots"], "N",
     f"initial frame size in slots, at most {MAX_FRAME_SLOTS} (default %(default)s)"),
    ("--seq-bits", "seq_bits", _seq_bits, _DEFAULTS["seq_bits"], f"{{1..{MAX_SEQ_BITS}|auto}}",
     "reservation sequence bits, or auto to re-derive each round (default auto)"),
    ("--trials", "trials", _int_arg, _DEFAULTS["trials"], "TRIALS",
     f"independent trials to run, at most {MAX_TRIALS} (default %(default)s)"),
    ("--seed", "seed", _int_arg, _DEFAULTS["seed"], "SEED",
     "master seed in [0, 2**64 - 1]; trial t uses stream (seed, t) (default %(default)s)"),
    ("--max-rounds", "max_rounds", _int_arg, _DEFAULTS["max_rounds"], "MAX_ROUNDS",
     "round budget per trial (default %(default)s)"),
    ("--arrival-rate", "arrival_rate", _float_arg, _DEFAULTS["arrival_rate"], "RATE",
     f"mean Poisson tag arrivals per round gap, at most {MAX_ARRIVAL_RATE} "
     "(default %(default)g)"),
    ("--departure-prob", "departure_prob", _float_arg, _DEFAULTS["departure_prob"], "P",
     "per-tag departure probability per round gap (default %(default)g)"),
    ("--sweep", "sweep", _sweep_spec, None, "PARAM=START:STEP:END",
     f"sweep one parameter over an inclusive range of at most {MAX_SWEEP_VALUES} "
     "values, e.g. --sweep seq-bits=1:1:6"),
    ("--out", "out", str, None, "PATH", "write the report here instead of stdout"),
    ("--format", "fmt", _one_of(("csv", "json")), "csv", "{csv,json}",
     "report format (default %(default)s)"),
    ("--per-round", "per_round", None, False, "",
     "emit one row per round instead of per trial"),
)
_ROWS = {row[0]: row for row in FLAGS}
_HELP = ("-h", "--help")
# every flag a token may name, in the order an ambiguity lists them
_OPTIONS = (*_HELP, *_ROWS)


def _help_text() -> str:
    names = ["-h, --help", *(f"{flag} {metavar}".rstrip() for flag, *_, metavar, _ in FLAGS)]
    texts = ["show this help and exit",
             *(text % {"default": default} for *_, default, _, text in FLAGS)]
    width = max(map(len, names)) + 2
    return "\n".join([
        "usage: afsasim [-h] [--FLAG VALUE | --FLAG=VALUE | --per-round]...",
        "",
        "Simulate reservation-based framed slotted ALOHA inventories and baseline protocols.",
        "A flag may be shortened to any prefix that names it alone; given twice, the last wins.",
        "",
        *(f"  {name:<{width}}{text}" for name, text in zip(names, texts)),
        "",
        "exit status: 0 success, 1 invalid arguments or config, 2 runtime or I/O failure,",
        "3 a trial hit its round budget with tags still unidentified",
    ])


def _negative_number(token: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final newline
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    return body.isdecimal() or (
        bool(dot) and (not whole or whole.isdecimal()) and fraction.isdecimal())


def _option(token: str) -> Optional[Tuple[Optional[str], Optional[str]]]:
    """What a token before any `--` is: None for a value, else the pair
    (flag, value given after `=`, or None), with flag None for an unknown
    flag.  Raises CliError for an abbreviation that fits several flags."""
    if token[:1] != "-" or token == "-":
        return None
    if token in _OPTIONS:
        return token, None
    flag, eq, value = token.partition("=")
    if eq and flag in _OPTIONS:
        return flag, value
    if token[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(flag)]
        explicit = value if eq else None
    else:
        # a short flag takes the rest of its token as its value: -hX
        matches = ["-h"] if token[1] == "h" else []
        explicit = token[2:]
    if len(matches) > 1:
        raise CliError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    if _negative_number(token) or " " in token:
        return None
    return None, None


def parse_cli(argv: Sequence[str]) -> SimpleNamespace:
    """Parse argv (no program name).  Raises CliError on any bad argument;
    -h or --help prints the help to stdout and raises SystemExit(0).

    A flag's value is the next token or follows `=`; a token that starts
    with `-` and is no negative number is a flag, never a value.  Every
    flag is read before any value is parsed, so an ambiguous abbreviation
    is refused first; then the flags act in order, the last of a repeated
    flag winning, and a token no flag took, `--` and all after it included,
    is refused last."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(token) for token in argv[:end]]
    ns = SimpleNamespace(**{attr: default for _, attr, _, default, *_ in FLAGS})
    stray = []
    i = 0
    while i < end:
        option = options[i]
        i += 1
        if option is None or option[0] is None:
            stray.append(argv[i - 1])
            continue
        flag, value = option
        if flag in _HELP:
            if value and flag == "-h":
                value = value.lstrip("h") or None  # -hh is -h -h
            if value is not None:
                raise CliError(f"argument -h/--help: ignored explicit argument {value!r}")
            print(_help_text())
            raise SystemExit(0)
        _, attr, parse, *_ = _ROWS[flag]
        if parse is None:
            if value is not None:
                raise CliError(f"argument {flag}: ignored explicit argument {value!r}")
            setattr(ns, attr, True)
            continue
        if value is None:
            if i == end or options[i] is not None:
                raise CliError(f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        try:
            setattr(ns, attr, parse(value))
        except ValueError as err:
            raise CliError(f"argument {flag}: {err}") from None
    stray += argv[end:]
    if stray:
        raise CliError(f"unrecognized arguments: {' '.join(stray)}")
    return ns


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

    fields = {name: getattr(ns, name) for name in ExperimentConfig._fields}
    invalid = incomplete = False

    if ns.sweep is None:
        # built before the report starts, so an invalid one writes nothing
        try:
            configs = [ExperimentConfig(**fields)]
        except ExperimentConfigError as err:
            for problem in err.problems:
                _fail(problem)
            return 1
    else:
        param, values = ns.sweep
        field, _ = SWEEP_PARAMS[param]

        def sweep_cells() -> Iterator[ExperimentConfig]:
            # built in turn, so a bad base field the sweep overrides still
            # runs, and an invalid cell is reported where it falls
            nonlocal invalid
            for value in values:
                try:
                    cell = ExperimentConfig(**{**fields, field: value})
                except ExperimentConfigError as err:
                    _fail(f"sweep cell {param}={value}: {err}")
                    invalid = True
                else:
                    yield cell

        configs = sweep_cells()

    def batches() -> Iterator[List[Values]]:
        # each trial's rows, as value tuples, as soon as it ends; of the
        # trial itself only whether it completed is kept
        nonlocal incomplete
        for cell in configs:
            try:
                for trial_id, trial in enumerate(iter_trials(cell)):
                    incomplete |= not trial.completed
                    yield _trial_values(cell, trial_id, trial, per_round=ns.per_round)
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
