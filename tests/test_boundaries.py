"""One boundary contract for every public entry point, checked by one table.

Each entry point is called once with valid arguments, then once with each
value parameter swapped for each hostile value.  Every call must return,
or raise ValueError whose message names the parameter: the message, or
one of its "; "-joined parts, starts with the parameter's name.  The
refusals that name no single parameter are listed by entry point.
"""
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

from afsasim import analytic
from afsasim.afsa import run_afsa_inventory
from afsasim.baselines import edfsa_plan, run_edfsa_inventory, run_fsa_inventory, run_fsa_round
from afsasim.estimator import auto_seq_bits, estimate_from_counts, next_frame, optimal_seq_len
from afsasim.experiment import ExperimentConfig, run_trial
from afsasim.model import FrameConfig, make_population
from afsasim.rng import RngStream

HOSTILE = (math.nan, math.inf, -math.inf, -1, True, 2.5, "3", None, 2**64, 10**400, 1e308,
           Fraction(1, 3), Decimal("2"), 0, [2])

TAGS = 5


def _stream():
    return RngStream(1)


# entry point -> (call, valid value of each parameter by name)
TABLE = {
    **{name: (getattr(analytic, name), {"tags": 100, "slots": 128})
       for name in ("expected_reserved", "expected_idle", "expected_unresolved")},
    **{name: (getattr(analytic, name), {"tags": 100, "slots": 128, "seq_bits": 2})
       for name in ("expected_undetected", "expected_undetected_exact", "expected_successful",
                    "slot_profile", "round_duration", "expected_per_tag_us")},
    "phase_durations_for": (analytic.phase_durations_for,
                            {"successes": 40, "slots": 128, "seq_bits": 2}),
    "estimate_from_counts": (estimate_from_counts,
                             {"idle": 10, "reserved_apparent": 3, "detected_collisions": 3,
                              "identified": 2, "slots": 16}),
    "auto_seq_bits": (auto_seq_bits, {"k_est": 100.0, "slots": 128}),
    "next_frame": (next_frame, {"k_est": 100.0, "fixed_seq_bits": 3}),
    "optimal_seq_len": (optimal_seq_len, {"e_unresolved": 30.0, "slots": 128}),
    "edfsa_plan": (edfsa_plan, {"k_est": 100.0}),
    "run_fsa_round": (lambda slots: run_fsa_round(make_population(TAGS), slots, _stream()),
                      {"slots": 16}),
    "run_fsa_inventory": (
        lambda slots, max_rounds: run_fsa_inventory(
            make_population(TAGS), slots, _stream(), max_rounds),
        {"slots": 16, "max_rounds": 50}),
    "run_edfsa_inventory": (
        lambda max_rounds, initial_estimate: run_edfsa_inventory(
            make_population(TAGS), _stream(), max_rounds, initial_estimate),
        {"max_rounds": 50, "initial_estimate": 16.0}),
    "run_afsa_inventory": (
        lambda fixed_seq_bits, max_rounds: run_afsa_inventory(
            make_population(TAGS), FrameConfig(16, 2), fixed_seq_bits, _stream(), max_rounds),
        {"fixed_seq_bits": None, "max_rounds": 50}),
    "make_population": (make_population, {"count": TAGS}),
    "FrameConfig": (FrameConfig, {"slots": 16, "seq_bits": 2, "participation_divisor": 1}),
    "RngStream": (RngStream, {"seed": 1, "stream_id": 0}),
    "RngStream.take": (lambda count: _stream().take(count), {"count": 3}),
    "ExperimentConfig": (ExperimentConfig, dict(ExperimentConfig(
        k_initial=TAGS, frame_slots=16, trials=2)._asdict())),
    "run_trial": (run_trial, {"config": ExperimentConfig(k_initial=TAGS, frame_slots=16,
                                                         trials=2),
                              "trial_id": 1}),
}

# The refusals that name no single parameter, by entry point.
UNNAMED = {
    "estimate_from_counts": "slot counts must partition the frame",
    "expected_per_tag_us": "no expected identifications at this operating point",
}

# Peak bytes the whole sweep may allocate: no hostile value may ask for a
# large allocation.
PEAK_BYTES = 4 * 2**20


def test_every_entry_point_returns_or_refuses_a_hostile_value_by_name():
    problems = []
    tracemalloc.start()
    try:
        for name, (call, valid) in TABLE.items():
            call(**valid)
            for param in valid:
                for value in HOSTILE:
                    case = f"{name}({param}={value!r})"
                    try:
                        call(**{**valid, param: value})
                    except ValueError as err:
                        message = str(err)
                        if not (any(part.startswith(f"{param} ") for part in message.split("; "))
                                or message == UNNAMED.get(name)):
                            problems.append(f"{case}: {message}")
                    except Exception as err:  # any other type breaks the contract
                        problems.append(f"{case}: {type(err).__name__}: {err}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == []
    assert peak < PEAK_BYTES
