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
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from .analytic import phase_durations_for
from .estimator import AdaptationPolicy, estimate_backlog, next_frame
from .model import (
    FrameConfig,
    RoundTrace,
    SlotKind,
    SlotObservation,
    Tag,
    TagRoundDecision,
    TimingModel,
    active_count,
)
from .rng import RandomSource


def tag_decide(tag: Tag, frame: FrameConfig, rng: RandomSource) -> TagRoundDecision:
    """One tag's choices for the advertised frame.

    The tag always consumes a participation draw (joining iff the draw is
    divisible by the participation divisor, so a divisor of one admits
    everyone); a joining tag then draws a slot uniform over the frame and
    a reservation sequence uniform over seq_bits-bit values.  Draw order
    is part of the reproducibility contract.
    """
    if not tag.present:
        raise ValueError("absent tag cannot take part in a round")
    if tag.identified:
        raise ValueError("identified tag no longer responds")
    if rng.randbelow(frame.participation_divisor) != 0:
        return TagRoundDecision(participating=False)
    slot = rng.randbelow(frame.slots)
    sequence = rng.randbelow(1 << frame.seq_bits)
    return TagRoundDecision(participating=True, slot=slot, sequence=sequence)


def reader_observe(
    decisions: Iterable[TagRoundDecision],
    frame: FrameConfig,
) -> List[SlotObservation]:
    """Classify every slot of the frame from the tags' decisions.

    A slot is idle with no occupants, a detected collision when occupants
    sent differing sequences, and apparently reserved otherwise; with
    several occupants on one sequence the reader cannot tell, so the slot
    reports RESERVED_APPARENT with the ground-truth occupant count
    carried alongside.
    """
    buckets: List[List[int]] = [[] for _ in range(frame.slots)]
    seq_space = 1 << frame.seq_bits
    for decision in decisions:
        if not decision.participating:
            continue
        if decision.slot is None or not 0 <= decision.slot < frame.slots:
            raise ValueError(f"slot {decision.slot!r} outside frame of {frame.slots}")
        if decision.sequence is None or not 0 <= decision.sequence < seq_space:
            raise ValueError(f"sequence {decision.sequence!r} outside {frame.seq_bits}-bit range")
        buckets[decision.slot].append(decision.sequence)

    observations: List[SlotObservation] = []
    for sequences in buckets:
        if not sequences:
            observations.append(SlotObservation(SlotKind.IDLE, 0))
        elif all(s == sequences[0] for s in sequences):
            observations.append(
                SlotObservation(SlotKind.RESERVED_APPARENT, len(sequences), sequences[0]))
        else:
            observations.append(SlotObservation(SlotKind.DETECTED_COLLISION, len(sequences)))
    return observations


def run_afsa_round(
    tags: Sequence[Tag],
    frame: FrameConfig,
    timing: TimingModel,
    rng: RandomSource,
) -> RoundTrace:
    """Execute one round over the present, unidentified tags.

    Tags in truly reserved slots (exactly one occupant) are marked
    identified in place.  Occupants of an undetected collision transmit
    garbled data in the shared slot, so the slot's time is spent but
    nobody is identified.
    """
    slot_tags: List[List[Tag]] = [[] for _ in range(frame.slots)]
    decisions: List[TagRoundDecision] = []
    for tag in tags:
        if not tag.present or tag.identified:
            continue
        decision = tag_decide(tag, frame, rng)
        decisions.append(decision)
        if decision.participating:
            slot_tags[decision.slot].append(tag)

    observations = reader_observe(decisions, frame)

    idle = reserved_true = detected = undetected = 0
    bitmap: List[bool] = []
    identified: List[int] = []
    for i, obs in enumerate(observations):
        bitmap.append(obs.kind is SlotKind.RESERVED_APPARENT)
        if obs.kind is SlotKind.IDLE:
            idle += 1
        elif obs.kind is SlotKind.DETECTED_COLLISION:
            detected += 1
        elif obs.occupants == 1:
            reserved_true += 1
            winner = slot_tags[i][0]
            winner.identified = True
            identified.append(winner.epc)
        else:
            undetected += 1

    phases = phase_durations_for(
        reserved_true + undetected, frame.slots, frame.seq_bits, timing)
    return RoundTrace(
        observations=tuple(observations),
        bitmap=tuple(bitmap),
        seq_bits=frame.seq_bits,
        idle_count=idle,
        reserved_true_count=reserved_true,
        detected_collision_count=detected,
        undetected_collision_count=undetected,
        identified_epcs=tuple(identified),
        phase_durations_us=phases,
        total_us=phases.total,
    )


@dataclass
class InventoryResult:
    """Outcome of one complete inventory run.

    `k_active[i]` is the number of present, unidentified tags when round
    i started; `traces[i]` records what that round did.
    """

    traces: List[RoundTrace]
    k_active: List[int]
    completed: bool

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


def run_inventory(
    tags: List[Tag],
    rounds: Iterator[RoundTrace],
    max_rounds: int,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """Play `rounds` until every present tag is identified or the budget runs out.

    This is the one inventory loop every protocol shares; a protocol
    supplies only its sequence of rounds, each of which runs when it is
    drawn from `rounds`.  At least one round always runs, so an empty
    population still pays for one empty frame.  After each non-final
    round `between_rounds(next_round_index, trace)` may mutate the
    population (arrivals and departures), so population changes take
    effect from the next round on.  `completed` is False only when the
    round budget ran out with tags still pending.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    traces: List[RoundTrace] = []
    k_active: List[int] = []
    while True:
        k_active.append(active_count(tags))
        trace = next(rounds)
        traces.append(trace)
        if active_count(tags) == 0:
            return InventoryResult(traces, k_active, completed=True)
        if len(traces) >= max_rounds:
            return InventoryResult(traces, k_active, completed=False)
        if between_rounds is not None:
            between_rounds(len(traces), trace)


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
    trace and re-derives the next frame from the policy.
    """
    def rounds() -> Iterator[RoundTrace]:
        frame = initial_frame
        while True:
            trace = run_afsa_round(tags, frame, timing, rng)
            yield trace
            frame = next_frame(estimate_backlog(trace), policy)

    return run_inventory(tags, rounds(), max_rounds, between_rounds)
