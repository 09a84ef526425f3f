"""Round and inventory engine for the reservation-based protocol.

One round runs five phases: the reader advertises the frame, tags send
short random reservation sequences in self-chosen slots, the reader
broadcasts a summary bitmap of apparently-reserved slots, each of those
slots gets a full data slot, and the reader acknowledges.  A collided
slot whose occupants happened to send the same sequence looks reserved,
wastes its data slot, and identifies nobody.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Generator, List, Optional, Sequence

from .analytic import phase_durations_for
from .estimator import (
    AdaptationPolicy,
    estimate_backlog,  # unused here, but bench/child.py wraps it by this name
    estimate_from_counts,
    next_frame,
)
from .model import (
    FrameConfig,
    RoundTrace,
    Tag,
    TimingModel,
    active_count,  # unused here, but bench/child.py wraps it by this name
)
from .rng import RandomSource

# Entries kept by each memo below.  A round's air time and the reader's
# next frame depend on a few small counts, whose combinations recur
# within and across trials; the bound keeps a long run's memos small.
_MEMO_ENTRIES = 1024


@lru_cache(maxsize=_MEMO_ENTRIES)
def _round_time(successes: int, slots: int, seq_bits: int, timing: TimingModel) -> float:
    """Air time of a round with `successes` apparently-reserved slots."""
    return phase_durations_for(successes, slots, seq_bits, timing).total


@lru_cache(maxsize=_MEMO_ENTRIES)
def _interned(frame: FrameConfig) -> FrameConfig:
    """The first frame seen equal to `frame`, so equal memo values share one object."""
    return frame


@lru_cache(maxsize=_MEMO_ENTRIES)
def _next_frame(
    idle: int,
    reserved_true: int,
    detected: int,
    undetected: int,
    slots: int,
    fixed_seq_bits: Optional[int],
) -> FrameConfig:
    """The frame the reader announces after a round with these slot counts.

    Equals `next_frame(estimate_backlog(trace), AdaptationPolicy(fixed_seq_bits))`
    for a trace with these counts, since a round identifies exactly one tag
    per truly reserved slot.  The key holds every input of the decision.
    """
    estimate = estimate_from_counts(
        idle, reserved_true + undetected, detected, reserved_true, slots)
    return _interned(next_frame(estimate, AdaptationPolicy(fixed_seq_bits)))


def run_afsa_round(
    tags: Sequence[Tag],
    frame: FrameConfig,
    timing: TimingModel,
    rng: RandomSource,
) -> RoundTrace:
    """Execute one round over the present, unidentified tags.

    Each such tag, in order, consumes a participation draw and joins iff
    the draw is divisible by the participation divisor (a divisor of one
    admits everyone); a joining tag then draws a slot uniform over the
    frame and a reservation sequence uniform over seq_bits-bit values.
    Draw order is part of the reproducibility contract, and the round
    takes exactly those draws from `rng`, no more.

    A slot is idle with no occupants, a detected collision when its
    occupants sent differing sequences, and apparently reserved
    otherwise.  The tag in a truly reserved slot (exactly one occupant)
    is marked identified in place.  Occupants of an undetected collision
    transmit garbled data in the shared slot, so the slot's time is spent
    but nobody is identified.
    """
    slots = frame.slots
    seq_space = 1 << frame.seq_bits
    # per slot: first occupant, its sequence, occupant count, and whether
    # a later occupant sent a different sequence
    first_tag: List[Optional[Tag]] = [None] * slots
    first_seq = [0] * slots
    occupants = [0] * slots
    clash = [False] * slots
    answering = [t for t in tags if t.present and not t.identified]
    draws = iter(rng)
    divisor = frame.participation_divisor
    # (tag, _, slot draw, sequence draw) per joining tag
    if divisor == 1:
        # every tag joins, and `_` is its participation draw; the tags come
        # first, so the zip ends at the last tag without another draw
        joiners = zip(answering, draws, draws, draws)
    else:
        # a tag takes its slot and sequence draws only once it has joined
        joiners = ((tag, 0, next(draws), next(draws))
                   for tag in answering if not next(draws) % divisor)
    responders = 0
    for tag, _, slot_draw, seq_draw in joiners:
        slot = slot_draw % slots
        sequence = seq_draw % seq_space
        responders += 1
        if occupants[slot] == 0:
            first_tag[slot] = tag
            first_seq[slot] = sequence
        elif sequence != first_seq[slot]:
            clash[slot] = True
        occupants[slot] += 1

    idle = reserved_true = detected = undetected = 0
    identified: List[int] = []
    for slot, count in enumerate(occupants):
        if count == 0:
            idle += 1
        elif clash[slot]:
            detected += 1
        elif count == 1:
            reserved_true += 1
            winner = first_tag[slot]
            winner.identified = True
            identified.append(winner.epc)
        else:
            undetected += 1

    return RoundTrace(
        slots=slots,
        seq_bits=frame.seq_bits,
        responders=responders,
        idle_count=idle,
        reserved_true_count=reserved_true,
        detected_collision_count=detected,
        undetected_collision_count=undetected,
        identified_epcs=tuple(identified),
        total_us=_round_time(reserved_true + undetected, slots, frame.seq_bits, timing),
    )


@dataclass(slots=True)
class InventoryResult:
    """Outcome of one complete inventory run.

    `k_active[i]` is the number of present, unidentified tags when round
    i started; `traces[i]` records what that round did.  `ever_present`
    counts every tag the population held by the end, arrivals included.
    """

    traces: List[RoundTrace]
    k_active: List[int]
    completed: bool
    ever_present: int

    @property
    def rounds_used(self) -> int:
        return len(self.traces)

    @property
    def tags_identified(self) -> int:
        return sum(len(t.identified_epcs) for t in self.traces)

    @property
    def total_time_us(self) -> float:
        return sum(t.total_us for t in self.traces)

    @property
    def per_tag_mean_us(self) -> Optional[float]:
        identified = self.tags_identified
        if identified == 0:
            return None
        return self.total_time_us / identified


BetweenRounds = Callable[[int, RoundTrace], None]

# A protocol's rounds: primed with `next`, then sent the present,
# unidentified tags in population order before each round, it plays the
# round over them and yields its trace.
Rounds = Generator[RoundTrace, List[Tag], None]


def run_inventory(
    tags: List[Tag],
    rounds: Rounds,
    max_rounds: int,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """Play `rounds` until every present tag is identified or the budget runs out.

    This is the one inventory loop every protocol shares; a protocol
    supplies only its sequence of rounds, each of which runs when it is
    sent the tags still answering.  At least one round always runs, so an
    empty population still pays for one empty frame.  After each
    non-final round `between_rounds(next_round_index, trace)` may mutate
    the population (arrivals and departures), so population changes take
    effect from the next round on.  `completed` is False only when the
    round budget ran out with tags still pending.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    traces: List[RoundTrace] = []
    k_active: List[int] = []
    # A round only marks tags identified, so between population changes
    # the tags still answering are the last ones less those identified.
    active = [t for t in tags if t.present and not t.identified]
    next(rounds)
    while True:
        k_active.append(len(active))
        trace = rounds.send(active)
        traces.append(trace)
        active = [t for t in active if not t.identified]
        if not active:
            return InventoryResult(traces, k_active, True, len(tags))
        if len(traces) >= max_rounds:
            return InventoryResult(traces, k_active, False, len(tags))
        if between_rounds is not None:
            between_rounds(len(traces), trace)
            active = [t for t in tags if t.present and not t.identified]


def run_afsa_inventory(
    tags: List[Tag],
    initial_frame: FrameConfig,
    policy: AdaptationPolicy,
    timing: TimingModel,
    rng: RandomSource,
    max_rounds: int = 1000,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """Reservation-protocol inventory under `run_inventory`.

    After each non-final round the reader estimates the backlog from the
    trace's slot counts and re-derives the next frame from the policy.
    """
    fixed_seq_bits = policy.fixed_seq_bits

    def rounds() -> Rounds:
        frame = initial_frame
        active = yield
        while True:
            trace = run_afsa_round(active, frame, timing, rng)
            active = yield trace
            frame = _next_frame(
                trace.idle_count, trace.reserved_true_count,
                trace.detected_collision_count, trace.undetected_collision_count,
                trace.slots, fixed_seq_bits)

    return run_inventory(tags, rounds(), max_rounds, between_rounds)
