"""Experiment layer: multi-trial runs and population churn.

A trial is one complete inventory over a population in its initial state.
Trial t of an experiment draws from RngStream(seed, t), so results are
bit-identical for any execution order.
"""
import math
from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from operator import attrgetter
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .afsa import InventoryResult, run_afsa_inventory
from .baselines import run_edfsa_inventory, run_fsa_inventory
from .estimator import _first_frame
from .model import (
    MAX_FRAME_SLOTS,
    MAX_SEQ_BITS,
    MAX_TAGS,
    Tag,
    int_problem,
    is_int,
    is_real,
    make_population,
)
from .rng import MAX_KEY, PIECE_DRAWS, RngStream, _in_pieces, _at_least, _unit_cut, _unit_float

PROTOCOLS = ("afsa", "fsa", "edfsa")

# Largest Poisson arrival mean per round gap.  It keeps exp(-rate), the
# first entry of the CDF table `_cdf` that `_poisson` draws from, a normal
# float: past about 708 it is subnormal, and from about 745 on it is 0, so
# the CDF never grows and every nonzero draw returns 1.
MAX_ARRIVAL_RATE = 700

# CDF tables `_cdf` keeps.  A run draws at one rate, and a sweep visits its
# rates one cell at a time; at rate 700 a table holds about 1 000 floats.
_CDF_TABLES = 16

# A churn gap deletes its leavers one at a time while they are few, and
# rebuilds its lists otherwise (`_depart`).  A deletion moves the tail of
# its list, so the deletions cost about leavers x present steps where a
# rebuild costs about present.
# Few is at most one leaver per _LEAVER_SHARE present tags: at 280 tags
# the deletions were faster up to 8 leavers and slower from 16.
_LEAVER_SHARE = 24
# Few is also at most _LEAVER_CAP leavers: a large population's tails are
# long, and with a cap of 256, FSA over 20 000 tags at departure chance
# 0.02 ran about 7 % slower than with the rebuild alone.
_LEAVER_CAP = 64

# Largest trial count a config may ask for (MAX_TAGS and MAX_FRAME_SLOTS
# live in `model`): `run_experiment` keeps every trial's result, so an
# unbounded count would exhaust memory instead of failing validation.
MAX_TRIALS = 1_000_000

# Largest master seed: `RngStream` keys on 64 bits of it.
MAX_SEED = MAX_KEY


class ExperimentConfigError(ValueError):
    """Raised when an experiment config is built from invalid fields."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class _ExperimentFields(NamedTuple):
    protocol: str = "afsa"
    k_initial: int = 100
    frame_slots: int = 128
    seq_bits: Optional[int] = None
    trials: int = 25
    seed: int = 1
    max_rounds: int = 1000
    arrival_rate: float = 0.0
    departure_prob: float = 0.0


class ExperimentConfig(_ExperimentFields):
    """Everything one experiment depends on, valid once built.

    `seq_bits=None` means the reader re-derives the sequence length every
    round (and the first round assumes load one); an integer pins it.
    `frame_slots` is the initial frame size; for EDFSA it doubles as the
    initial backlog estimate that seeds planning.  `k_initial`,
    `frame_slots` and `trials` are capped at MAX_TAGS, MAX_FRAME_SLOTS and
    MAX_TRIALS, and `seed` lies in [0, MAX_SEED].  `arrival_rate` is the
    Poisson mean of tag arrivals per round gap, at most MAX_ARRIVAL_RATE;
    `departure_prob` is each present tag's chance to leave per round gap.

    Invalid fields raise ExperimentConfigError, whose `problems` names each
    field and its constraint in field order; a field of the wrong type gets
    one message and no range check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ExperimentConfig":
        self = super().__new__(cls, *args, **kwargs)
        problems: List[Optional[str]] = []
        if not isinstance(self.protocol, str) or self.protocol not in PROTOCOLS:
            problems.append(f"protocol must be one of {', '.join(PROTOCOLS)}")
        problems.append(int_problem("k_initial", self.k_initial, 0, MAX_TAGS))
        problems.append(int_problem("frame_slots", self.frame_slots, 1, MAX_FRAME_SLOTS))
        if self.seq_bits is None:
            pass
        elif not is_int(self.seq_bits):
            problems.append("seq_bits must be an integer or None for auto")
        elif not 1 <= self.seq_bits <= MAX_SEQ_BITS:
            problems.append(f"seq_bits must be in [1, {MAX_SEQ_BITS}] or None for auto")
        problems.append(int_problem("trials", self.trials, 1, MAX_TRIALS))
        if not is_int(self.seed):
            problems.append("seed must be an integer")
        elif not 0 <= self.seed <= MAX_SEED:
            problems.append("seed must be in [0, 2**64 - 1]")
        problems.append(int_problem("max_rounds", self.max_rounds, 1))
        if not is_real(self.arrival_rate):
            problems.append("arrival_rate must be a real number")
        elif self.arrival_rate < 0:
            problems.append("arrival_rate must be >= 0")
        elif not self.arrival_rate <= MAX_ARRIVAL_RATE:  # also rejects nan
            problems.append(f"arrival_rate must be finite and <= {MAX_ARRIVAL_RATE}")
        if not is_real(self.departure_prob):
            problems.append("departure_prob must be a real number")
        elif not 0.0 <= self.departure_prob <= 1.0:
            problems.append("departure_prob must be in [0, 1]")
        if any(problems):
            raise ExperimentConfigError(list(filter(None, problems)))
        return self

    @classmethod
    def _make(cls, iterable) -> "ExperimentConfig":
        # `_replace` builds through `_make`, so it validates too
        return cls(*iterable)


class AggregateStats(NamedTuple):
    """Cross-trial summary, recomputable exactly from the trials."""

    trials: int
    identification_rate: float
    all_completed: bool
    mean_rounds: float
    mean_total_time_us: float
    mean_per_tag_us: Optional[float]
    std_per_tag_us: Optional[float]
    min_per_tag_us: Optional[float]
    max_per_tag_us: Optional[float]


class ExperimentResult(NamedTuple):
    """Every trial's inventory in trial order, so `trials[t]` is trial t."""

    config: ExperimentConfig
    trials: List[InventoryResult]
    aggregate: AggregateStats


@lru_cache(maxsize=_CDF_TABLES)
def _cdf(rate: float) -> Tuple[float, ...]:
    """The running CDF of Poisson(rate) for counts 0, 1, ..., up to the
    first count whose term no longer moves it, which is left out.

    The sums are the inverse-transform loop's, term by term in the same
    order, so a bisection in the table returns the count that loop would
    return.  Past the mode the CDF can stop growing a few ulps below 1.
    """
    p = math.exp(-rate)
    table = [p]
    cdf = p
    k = 0
    while True:
        k += 1
        p *= rate / k
        if cdf + p == cdf:
            return tuple(table)
        cdf += p
        table.append(cdf)


def _poisson(rate: float, rng: RngStream) -> int:
    """Poisson draw by inverse transform on a single uniform, the stream's
    next draw: the first count whose CDF reaches the uniform.

    A uniform above the last CDF entry lies in a tail the floats cannot
    resolve, and the draw is the first count whose term no longer moves
    the CDF.
    """
    return bisect_left(_cdf(rate), _unit_float(next(rng)))


_EPC = attrgetter("epc")


def _depart(present: List[Tag], active: List[Tag],
            stays: bytes) -> Tuple[List[Tag], List[Tag]]:
    """The present tags and the unidentified ones among them after a gap
    whose departure marks are `stays` (byte i is 0 when present[i] leaves).

    Both lists are in population order, so `active` is sorted by EPC.  A
    few leavers are deleted from `present` in place and from a copy of
    `active`; many rebuild both lists.  The `active` handed in is never
    changed.
    """
    leaving = stays.count(0)
    if not leaving:
        return present, active
    if leaving > min(len(present) // _LEAVER_SHARE, _LEAVER_CAP):
        present = list(compress(present, stays))
        return present, [tag for tag in present if not tag.identified]
    kept = None
    gone = len(stays)
    for _ in range(leaving):
        gone = stays.rfind(0, 0, gone)
        tag = present.pop(gone)
        if not tag.identified:
            if kept is None:
                kept = active.copy()
            del kept[bisect_left(kept, tag.epc, key=_EPC)]
    return present, active if kept is None else kept


# The population the last finished trial used, as a list of at most one.
# A trial takes it with `pop`, so a trial nested in another or running on
# another thread finds none and builds its own.
_spare: List[List[Tag]] = []


def run_trial(config: ExperimentConfig, trial_id: int) -> InventoryResult:
    """Run one trial.  Pure function of (config, trial_id).

    Raises ValueError unless `config` is an ExperimentConfig and
    `trial_id` an integer in [0, config.trials), before anything is
    allocated.

    The trial reuses the tags the last finished trial left, when there are
    at least `k_initial` of them: it cuts the list to its first `k_initial`
    tags and marks each one unidentified again.  Tag i has EPC i in every
    population, so this is the population `make_population` would build.
    Otherwise it builds one.  When the trial returns, it keeps its tags
    for the next trial, so they stay alive until that trial takes them or
    `iter_trials`' run ends.

    With churn, each round gap takes one departure draw per present tag
    in population order, identified tags too, then one arrivals draw.
    Arrivals get the next EPCs, so the present tags and the answering ones
    stay sorted by EPC, and `_depart` can find a leaver among the
    answering tags by bisection instead of rescanning the present ones.
    """
    if not isinstance(config, ExperimentConfig):
        raise ValueError("config must be an ExperimentConfig")
    if not is_int(trial_id) or not 0 <= trial_id < config.trials:
        raise ValueError(f"trial_id must be an integer in [0, {config.trials})")
    rng = RngStream(config.seed, trial_id)
    try:
        population = _spare.pop()
    except IndexError:
        population = []
    if len(population) >= config.k_initial:
        del population[config.k_initial:]
        for tag in population:
            tag.identified = False
    else:
        population = make_population(config.k_initial)

    churn = None
    if config.arrival_rate > 0 or config.departure_prob > 0:
        departs = _unit_cut(config.departure_prob)
        rate = config.arrival_rate
        # the present tags in population order, identified ones too; only
        # departure draws read it, so it is kept only when tags can leave
        present = population.copy() if config.departure_prob > 0 else None

        def churn(active: List[Tag]) -> List[Tag]:
            # departure draws first, one per present tag in population
            # order, then a single arrivals draw; zero-rate parts draw
            # nothing at all
            nonlocal present
            if present is not None:
                # at most PIECE_DRAWS draws are taken with one `take` and
                # read in place; more are taken in pieces
                if len(present) <= PIECE_DRAWS:
                    stays = _at_least(rng.take(len(present)), departs)
                else:
                    stays = b"".join(_in_pieces(present, 1, rng,
                                                lambda piece, raw: (_at_least(raw, departs),)))
                present, active = _depart(present, active, stays)
            if rate > 0:
                count = _poisson(rate, rng)
                if count:
                    # EPCs go on from the last tag's, so an EPC is its index
                    known = len(population)
                    arrivals = list(map(Tag, range(known, known + count)))
                    population.extend(arrivals)
                    if present is not None:
                        present.extend(arrivals)
                    active = active + arrivals
            return active

    result = _dispatch(config, population, rng, churn)
    _spare[:] = (population,)
    return result


def _dispatch(config, population, rng, churn) -> InventoryResult:
    if config.protocol == "afsa":
        return run_afsa_inventory(
            population, _first_frame(config.frame_slots, config.seq_bits),
            config.seq_bits, rng,
            max_rounds=config.max_rounds, between_rounds=churn)
    if config.protocol == "fsa":
        return run_fsa_inventory(
            population, config.frame_slots, rng,
            max_rounds=config.max_rounds, between_rounds=churn)
    # "edfsa": a config's protocol is one of PROTOCOLS
    return run_edfsa_inventory(
        population, rng,
        max_rounds=config.max_rounds,
        initial_estimate=float(config.frame_slots),
        between_rounds=churn)


def _aggregate(trials: List[InventoryResult]) -> AggregateStats:
    import statistics  # here, not at the top: a CLI run never aggregates

    ever = sum(t.ever_present for t in trials)
    identified = sum(t.tags_identified for t in trials)
    per_tag = [p for p in (t.per_tag_mean_us for t in trials) if p is not None]
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


def iter_trials(config: ExperimentConfig) -> Iterator[InventoryResult]:
    """The trials of `config` in trial order, each as soon as it is done.

    A `config` that is no ExperimentConfig raises ValueError at the call,
    before any trial runs.  Once the trials are exhausted or closed, the
    last trial's tags are let go.
    """
    if not isinstance(config, ExperimentConfig):
        raise ValueError("config must be an ExperimentConfig")
    return _trials(config)


def _trials(config: ExperimentConfig) -> Iterator[InventoryResult]:
    try:
        for t in range(config.trials):
            # `run_trial` by its module-global name: bench/child.py replaces it
            yield run_trial(config, t)
    finally:
        _spare.clear()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials of `config`, as `iter_trials` does, and aggregate."""
    trials = list(iter_trials(config))
    return ExperimentResult(config=config, trials=trials, aggregate=_aggregate(trials))
