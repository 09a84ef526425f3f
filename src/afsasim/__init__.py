"""Slot-accurate simulator for reservation-based framed slotted ALOHA.

Tags reserve data slots with short random bit sequences before sending
their full payloads, so collided slots are usually detected at the cost
of a few reservation bits rather than a whole data slot.  The package
pairs a discrete-event simulator of that protocol (plus FSA and EDFSA
baselines) with the matching closed-form expectations, a backlog
estimator and frame adaptation policy, a multi-trial experiment harness,
and a CLI that emits CSV or JSON reports.
"""
from .afsa import InventoryResult, run_afsa_inventory, run_afsa_round
from .analytic import (
    DEFAULT_SEQ_CONSTANTS,
    ExpectedSlotProfile,
    OptimalSeqConstants,
    SeqLenChoice,
    expected_idle,
    expected_per_tag_us,
    expected_reserved,
    expected_successful,
    expected_undetected,
    expected_undetected_exact,
    expected_unresolved,
    optimal_seq_len,
    phase_durations_for,
    round_duration,
    slot_profile,
)
from .baselines import (
    EDFSA_FRAME_CHOICES,
    EdfsaPlan,
    edfsa_plan,
    run_edfsa_inventory,
    run_fsa_inventory,
    run_fsa_round,
)
from .estimator import (
    AdaptationPolicy,
    BacklogEstimate,
    EstimateMethod,
    auto_seq_bits,
    estimate_backlog,
    estimate_from_counts,
    initial_seq_bits,
    nearest_power_of_two,
    next_frame,
)
from .experiment import (
    AggregateStats,
    ExperimentConfig,
    ExperimentConfigError,
    ExperimentResult,
    SweepCell,
    run_experiment,
    run_sweep,
    run_trial,
    sweep_configs,
    validate_experiment,
)
from .model import (
    FrameConfig,
    PhaseDurations,
    RoundTrace,
    Tag,
    TimingModel,
    active_count,
    check_round_trace,
    make_population,
)
from .report import (
    COLUMNS,
    render_csv,
    render_json,
    result_rows,
    sweep_rows,
    write_rows,
)
from .rng import RandomSource, RngStream

__version__ = "0.1.0"

__all__ = [
    "AdaptationPolicy",
    "AggregateStats",
    "BacklogEstimate",
    "COLUMNS",
    "DEFAULT_SEQ_CONSTANTS",
    "EDFSA_FRAME_CHOICES",
    "EdfsaPlan",
    "EstimateMethod",
    "ExpectedSlotProfile",
    "ExperimentConfig",
    "ExperimentConfigError",
    "ExperimentResult",
    "FrameConfig",
    "InventoryResult",
    "OptimalSeqConstants",
    "PhaseDurations",
    "RandomSource",
    "RngStream",
    "RoundTrace",
    "SeqLenChoice",
    "SweepCell",
    "Tag",
    "TimingModel",
    "active_count",
    "auto_seq_bits",
    "check_round_trace",
    "edfsa_plan",
    "estimate_backlog",
    "estimate_from_counts",
    "expected_idle",
    "expected_per_tag_us",
    "expected_reserved",
    "expected_successful",
    "expected_undetected",
    "expected_undetected_exact",
    "expected_unresolved",
    "initial_seq_bits",
    "make_population",
    "nearest_power_of_two",
    "next_frame",
    "optimal_seq_len",
    "phase_durations_for",
    "render_csv",
    "render_json",
    "result_rows",
    "round_duration",
    "run_afsa_inventory",
    "run_afsa_round",
    "run_edfsa_inventory",
    "run_experiment",
    "run_fsa_inventory",
    "run_fsa_round",
    "run_sweep",
    "run_trial",
    "slot_profile",
    "sweep_configs",
    "sweep_rows",
    "validate_experiment",
    "write_rows",
]
