"""Slot-accurate simulator for reservation-based framed slotted ALOHA.

Tags reserve data slots with short random bit sequences before sending
their full payloads, so collided slots are usually detected at the cost
of a few reservation bits rather than a whole data slot.  The package
pairs a discrete-event simulator of that protocol (plus FSA and EDFSA
baselines) with the matching closed-form expectations, a backlog
estimator and frame adaptation policy, a multi-trial experiment harness,
and a CLI that emits CSV or JSON reports.
"""
from .afsa import InventoryResult
from .experiment import (
    AggregateStats,
    ExperimentConfig,
    ExperimentConfigError,
    ExperimentResult,
    run_experiment,
    run_trial,
)
from .report import (
    COLUMNS,
    render_csv,
    render_json,
    result_rows,
    write_rows,
)

__version__ = "0.1.0"

# What a caller needs to run and report an experiment; every other
# name is imported from its module (`afsasim.afsa`, `afsasim.rng`, ...).
__all__ = [
    "AggregateStats",
    "COLUMNS",
    "ExperimentConfig",
    "ExperimentConfigError",
    "ExperimentResult",
    "InventoryResult",
    "render_csv",
    "render_json",
    "result_rows",
    "run_experiment",
    "run_trial",
    "write_rows",
]
