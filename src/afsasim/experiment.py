"""Experiment layer: multi-trial runs, population churn, and sweeps.

A trial is one complete inventory over a fresh population.  Trial t of an
experiment draws from RngStream(seed, t), so results are bit-identical
for any worker count and any execution order.
"""
from __future__ import annotations

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .afsa import InventoryResult, run_afsa_inventory
from .baselines import run_edfsa_inventory, run_fsa_inventory
from .estimator import AdaptationPolicy, initial_seq_bits
from .model import MAX_SEQ_BITS, FrameConfig, Tag, TimingModel, make_population
from .rng import RngStream

PROTOCOLS = ("afsa", "fsa", "edfsa")

# Largest Poisson arrival mean per round gap.  It keeps exp(-rate), the
# first term of the inverse-transform draw in `_poisson`, a normal float:
# past about 708 it is subnormal, and from about 745 on it is 0 and every
# draw returns the loop's cap.
MAX_ARRIVAL_RATE = 700


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment depends on.

    `seq_bits=None` means the reader re-derives the sequence length every
    round (and the first round assumes load one); an integer pins it.
    `frame_slots` is the initial frame size; for EDFSA it doubles as the
    initial backlog estimate that seeds planning.  `arrival_rate` is the
    Poisson mean of tag arrivals per round gap, at most MAX_ARRIVAL_RATE;
    `departure_prob` is each present tag's chance to leave per round gap.
    """

    protocol: str = "afsa"
    k_initial: int = 100
    frame_slots: int = 128
    seq_bits: Optional[int] = None
    trials: int = 25
    seed: int = 1
    max_rounds: int = 1000
    arrival_rate: float = 0.0
    departure_prob: float = 0.0


def validate_experiment(config: ExperimentConfig) -> List[str]:
    """All constraint violations in `config`, empty when it is runnable.

    Every message names the offending field and the constraint so a
    caller can surface the full list at once.
    """
    problems: List[str] = []
    if config.protocol not in PROTOCOLS:
        problems.append(f"protocol must be one of {', '.join(PROTOCOLS)}")
    if config.k_initial < 0:
        problems.append("k_initial must be >= 0")
    if config.frame_slots < 1:
        problems.append("frame_slots must be >= 1")
    if config.seq_bits is not None and not 1 <= config.seq_bits <= MAX_SEQ_BITS:
        problems.append(f"seq_bits must be in [1, {MAX_SEQ_BITS}] or None for auto")
    if config.trials < 1:
        problems.append("trials must be >= 1")
    if config.max_rounds < 1:
        problems.append("max_rounds must be >= 1")
    if config.arrival_rate < 0:
        problems.append("arrival_rate must be >= 0")
    elif not config.arrival_rate <= MAX_ARRIVAL_RATE:  # also rejects nan
        problems.append(f"arrival_rate must be finite and <= {MAX_ARRIVAL_RATE}")
    if not 0.0 <= config.departure_prob <= 1.0:
        problems.append("departure_prob must be in [0, 1]")
    return problems


class ExperimentConfigError(ValueError):
    """Raised when an experiment is started from an invalid config."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class RoundRecord:
    """One round of one trial, flattened for reporting."""

    trial: int
    round_index: int
    slots: int
    seq_bits: int
    k_active: int
    idle: int
    reserved_true: int
    detected_collisions: int
    undetected_collisions: int
    identified: int
    time_us: float


@dataclass(frozen=True)
class TrialRecord:
    """Whole-trial totals."""

    trial: int
    rounds_used: int
    ever_present: int
    tags_identified: int
    idle_total: int
    reserved_true_total: int
    detected_total: int
    undetected_total: int
    total_time_us: float
    completed: bool

    @property
    def per_tag_mean_us(self) -> Optional[float]:
        if self.tags_identified == 0:
            return None
        return self.total_time_us / self.tags_identified


@dataclass(frozen=True)
class AggregateStats:
    """Cross-trial summary, recomputable exactly from the trial records."""

    trials: int
    identification_rate: float
    all_completed: bool
    mean_rounds: float
    mean_total_time_us: float
    mean_per_tag_us: Optional[float]
    std_per_tag_us: Optional[float]
    min_per_tag_us: Optional[float]
    max_per_tag_us: Optional[float]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    initial_seq_bits: int
    trial_records: List[TrialRecord]
    round_records: List[RoundRecord]
    aggregate: AggregateStats


def _poisson(rate: float, rng: RngStream) -> int:
    """Poisson draw by inverse transform on a single uniform."""
    u = rng.uniform01()
    k = 0
    p = math.exp(-rate)
    cdf = p
    # cap guards against pathological rates; unreachable for sane ones
    while u > cdf and k < 100_000:
        k += 1
        p *= rate / k
        cdf += p
    return k


def resolved_initial_seq_bits(config: ExperimentConfig) -> int:
    """Sequence length of the first round; 0 for protocols without one."""
    if config.protocol != "afsa":
        return 0
    if config.seq_bits is not None:
        return config.seq_bits
    return initial_seq_bits(config.frame_slots)


def run_trial(
    config: ExperimentConfig,
    trial_id: int,
    timing: Optional[TimingModel] = None,
) -> Tuple[TrialRecord, List[RoundRecord]]:
    """Run one trial.  Pure function of (config, trial_id, timing)."""
    if timing is None:
        timing = TimingModel()
    rng = RngStream(config.seed, trial_id)
    population = make_population(config.k_initial)

    churn = None
    if config.arrival_rate > 0 or config.departure_prob > 0:
        next_epc = [config.k_initial]

        def churn(next_round_index: int, trace) -> None:
            # departure draws first, one per present tag in population
            # order, then a single arrivals draw; zero-rate parts draw
            # nothing at all
            if config.departure_prob > 0:
                for tag in population:
                    if tag.present and rng.uniform01() < config.departure_prob:
                        tag.present = False
            if config.arrival_rate > 0:
                for _ in range(_poisson(config.arrival_rate, rng)):
                    population.append(Tag(epc=next_epc[0]))
                    next_epc[0] += 1

    result = _dispatch(config, population, timing, rng, churn)

    rounds = [
        RoundRecord(
            trial=trial_id,
            round_index=i + 1,
            slots=t.slots,
            seq_bits=t.seq_bits,
            k_active=k_active,
            idle=t.idle_count,
            reserved_true=t.reserved_true_count,
            detected_collisions=t.detected_collision_count,
            undetected_collisions=t.undetected_collision_count,
            identified=len(t.identified_epcs),
            time_us=t.total_us,
        )
        for i, (t, k_active) in enumerate(zip(result.traces, result.k_active))
    ]
    trial = TrialRecord(
        trial=trial_id,
        rounds_used=result.rounds_used,
        ever_present=len(population),
        tags_identified=result.tags_identified,
        idle_total=sum(t.idle_count for t in result.traces),
        reserved_true_total=sum(t.reserved_true_count for t in result.traces),
        detected_total=sum(t.detected_collision_count for t in result.traces),
        undetected_total=sum(t.undetected_collision_count for t in result.traces),
        total_time_us=result.total_time_us,
        completed=result.completed,
    )
    return trial, rounds


def _dispatch(config, population, timing, rng, churn) -> InventoryResult:
    if config.protocol == "afsa":
        frame = FrameConfig(
            slots=config.frame_slots,
            seq_bits=resolved_initial_seq_bits(config),
            participation_divisor=1,
        )
        policy = AdaptationPolicy(fixed_seq_bits=config.seq_bits)
        return run_afsa_inventory(
            population, frame, policy, timing, rng,
            max_rounds=config.max_rounds, between_rounds=churn)
    if config.protocol == "fsa":
        return run_fsa_inventory(
            population, config.frame_slots, timing, rng,
            max_rounds=config.max_rounds, between_rounds=churn)
    if config.protocol == "edfsa":
        return run_edfsa_inventory(
            population, timing, rng,
            max_rounds=config.max_rounds,
            initial_estimate=float(config.frame_slots),
            between_rounds=churn)
    raise ExperimentConfigError([f"protocol must be one of {', '.join(PROTOCOLS)}"])


def _trial_task(args: Tuple[ExperimentConfig, int, Optional[TimingModel]]):
    return run_trial(*args)


def _aggregate(trials: List[TrialRecord]) -> AggregateStats:
    ever = sum(t.ever_present for t in trials)
    identified = sum(t.tags_identified for t in trials)
    per_tag = [t.per_tag_mean_us for t in trials if t.per_tag_mean_us is not None]
    return AggregateStats(
        trials=len(trials),
        identification_rate=identified / ever if ever else 1.0,
        all_completed=all(t.completed for t in trials),
        mean_rounds=statistics.fmean(t.rounds_used for t in trials),
        mean_total_time_us=statistics.fmean(t.total_time_us for t in trials),
        mean_per_tag_us=statistics.fmean(per_tag) if per_tag else None,
        std_per_tag_us=(statistics.stdev(per_tag) if len(per_tag) > 1 else 0.0)
        if per_tag else None,
        min_per_tag_us=min(per_tag) if per_tag else None,
        max_per_tag_us=max(per_tag) if per_tag else None,
    )


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    timing: Optional[TimingModel] = None,
) -> ExperimentResult:
    """Run all trials of `config` and aggregate.

    `workers` > 1 distributes trials over a process pool.  Because every
    trial seeds its own stream and records are re-ordered by trial id,
    the result is bit-identical to the single-process run.
    """
    problems = validate_experiment(config)
    if problems:
        raise ExperimentConfigError(problems)
    if workers < 1:
        raise ValueError("workers must be >= 1")

    tasks = [(config, t, timing) for t in range(config.trials)]
    if workers == 1 or config.trials == 1:
        outcomes = [_trial_task(task) for task in tasks]
    else:
        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_task, tasks, chunksize=chunk))

    trial_records: List[TrialRecord] = []
    round_records: List[RoundRecord] = []
    for trial, rounds in outcomes:
        trial_records.append(trial)
        round_records.extend(rounds)
    return ExperimentResult(
        config=config,
        initial_seq_bits=resolved_initial_seq_bits(config),
        trial_records=trial_records,
        round_records=round_records,
        aggregate=_aggregate(trial_records),
    )


@dataclass
class SweepCell:
    """One point of a parameter sweep: a config and its result or error."""

    config: ExperimentConfig
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None


def sweep_configs(
    base: ExperimentConfig,
    field: str,
    values: Sequence,
) -> List[ExperimentConfig]:
    """Copies of `base` with `field` set to each value, in order."""
    return [replace(base, **{field: v}) for v in values]


def run_sweep(
    configs: Sequence[ExperimentConfig],
    workers: int = 1,
    timing: Optional[TimingModel] = None,
) -> List[SweepCell]:
    """Run each config; invalid cells are reported, valid ones still run."""
    cells: List[SweepCell] = []
    for config in configs:
        problems = validate_experiment(config)
        if problems:
            cells.append(SweepCell(config=config, error="; ".join(problems)))
            continue
        cells.append(SweepCell(
            config=config,
            result=run_experiment(config, workers=workers, timing=timing)))
    return cells
