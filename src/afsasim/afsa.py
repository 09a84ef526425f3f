"""Round and inventory engine for the reservation-based protocol.

One round runs five phases: the reader advertises the frame, tags send
short random reservation sequences in self-chosen slots, the reader
broadcasts a summary bitmap of apparently-reserved slots, each of those
slots gets a full data slot, and the reader acknowledges.  A collided
slot whose occupants happened to send the same sequence looks reserved,
wastes its data slot, and identifies nobody.
"""
from functools import lru_cache
from itertools import chain, repeat
from operator import length_hint
from typing import Callable, Generator, List, NamedTuple, Optional, Sequence, Tuple

from .analytic import phase_durations_for
from .estimator import (
    _MEMO_ENTRIES,
    _estimate,
    _key,
    estimate_backlog,  # unused here, but bench/child.py wraps it by this name
    next_frame,
)
from .model import (
    MAX_SEQ_BITS,
    FrameConfig,
    RoundTrace,
    Tag,
    active_count,  # unused here, but bench/child.py wraps it by this name
    check_int,
    is_int,
)
from .rng import PIECE_DRAWS, RngStream, _in_pieces, residues, u64s

# A round's air time and the reader's next frame depend on a few small
# counts, so both are memoised.
@lru_cache(maxsize=_MEMO_ENTRIES)
def _round_time(successes: int, slots: int, seq_bits: int) -> float:
    """Air time of a round with `successes` apparently-reserved slots."""
    return phase_durations_for(successes, slots, seq_bits).total


@lru_cache(maxsize=_MEMO_ENTRIES)
def _next_frame(key: Tuple[int, int, int, int, int],
                fixed_seq_bits: Optional[int]) -> FrameConfig:
    """The frame the reader announces after a round whose `estimator._key`
    is `key`: `next_frame(estimate_backlog(trace), fixed_seq_bits)`, with
    the estimate unchecked.  It calls `next_frame` by this module's name,
    which bench/child.py wraps, so a traced run counts the memo's misses.
    """
    return next_frame(_estimate(*key), fixed_seq_bits)


# A round kernel's `heard[slot]` is None while the slot is idle, its first
# occupant until a second arrives, and COLLIDED from then on.  Both markers
# are falsy, so `filter(None, heard)` yields the lone occupants in slot order.
COLLIDED = False

# `first_seq[slot]` in an AFSA round while the slot is idle: a sequence is
# >= 0, and -1 marks a slot where an occupant sent another sequence.
_IDLE_SEQ = -2


def run_afsa_round(
    tags: Sequence[Tag],
    frame: FrameConfig,
    rng: RngStream,
) -> RoundTrace:
    """Play one round over `tags`, the tags answering this frame.

    The caller picks who answers (`run_inventory` sends the tags still
    answering).  Each tag, in order, consumes a participation draw
    and joins iff the draw is divisible by the participation divisor (a
    divisor of one admits everyone); a joining tag then draws a slot
    uniform over the frame and a reservation sequence uniform over
    seq_bits-bit values.  Draw order is part of the reproducibility
    contract, and the round takes exactly those draws from `rng`, no more,
    through its `take`, at most PIECE_DRAWS at a time; an ungated round
    reduces each slot and sequence draw from its low bytes where the frame
    allows (`rng.residues`).  The trace's `responders` counts the tags that
    joined: all of `tags` unless the divisor gates the round.

    A slot is idle with no occupants, a detected collision when its
    occupants sent differing sequences, and apparently reserved
    otherwise.  The tag in a truly reserved slot (exactly one occupant)
    is marked identified in place.  Occupants of an undetected collision
    transmit garbled data in the shared slot, so the slot's time is spent
    but nobody is identified.
    """
    slots = frame.slots
    seq_bits = frame.seq_bits
    # per slot: see COLLIDED; and the first sequence, see _IDLE_SEQ
    heard: List[object] = [None] * slots
    first_seq = [_IDLE_SEQ] * slots
    divisor = frame.participation_divisor
    # (tag, slot, sequence) per joining tag
    if divisor == 1:
        # every tag joins, so its participation draw is never read
        seq_space = 1 << seq_bits
        joiners = _in_pieces(tags, 3, rng, lambda piece, raw: zip(
            piece, residues(raw, 1, 3, slots), residues(raw, 2, 3, seq_space)))
        responders = len(tags)
    else:
        # a tag takes its slot and sequence draws only once it has joined,
        # so the draws come in runs no longer than the fewest still due:
        # one for the tag in hand and one for each tag after it
        pending = iter(tags)
        draws = chain.from_iterable(
            u64s(rng.take(min(length_hint(pending) + 1, PIECE_DRAWS))) for _ in repeat(None))
        seq_mask = (1 << seq_bits) - 1
        joiners = [(tag, next(draws) % slots, next(draws) & seq_mask)
                   for tag in pending if not next(draws) % divisor]
        responders = len(joiners)
    for tag, slot, sequence in joiners:
        if heard[slot] is None:
            heard[slot] = tag
            first_seq[slot] = sequence
        else:
            heard[slot] = COLLIDED
            if sequence != first_seq[slot]:
                first_seq[slot] = -1

    # the counts come from C; only the lone occupants take a Python step
    identified: List[int] = []
    for tag in filter(None, heard):
        tag.identified = True
        identified.append(tag.epc)
    idle = first_seq.count(_IDLE_SEQ)
    detected = first_seq.count(-1)
    reserved = len(identified)
    undetected = slots - idle - reserved - detected
    return RoundTrace(slots, seq_bits, responders, idle, reserved, detected, undetected,
                      tuple(identified), _round_time(reserved + undetected, slots, seq_bits))


class InventoryResult(NamedTuple):
    """Outcome of one complete inventory run.

    `k_active[i]` is the number of tags still answering when round i
    started; `traces[i]` records what that round did.  `ever_present`
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


BetweenRounds = Callable[[List[Tag]], List[Tag]]

# A protocol's rounds: primed with `next`, then sent the tags still
# answering, in population order, before each round, it plays the round
# over them and yields its trace.
Rounds = Generator[RoundTrace, List[Tag], None]


def run_inventory(
    tags: List[Tag],
    rounds: Rounds,
    max_rounds: int,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """Play `rounds` until no tag is still answering or the budget runs out.

    This is the one inventory loop every protocol shares; a protocol
    supplies only its sequence of rounds, each of which runs when it is
    sent the tags still answering.  At least one round always runs, so an
    empty population still pays for one empty frame.  After each
    non-final round `between_rounds(active)` is handed the tags still
    answering and returns the tags that answer the next round, in
    population order; it appends any arrival to `tags` too, so
    `ever_present` counts it.  `completed` is False only when the round
    budget ran out with tags still pending.
    """
    check_int("max_rounds", max_rounds, 1)
    traces: List[RoundTrace] = []
    k_active: List[int] = []
    # A round only marks tags identified, so between population changes
    # the tags still answering are the last ones less those identified.
    active = [t for t in tags if not t.identified]
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
            active = between_rounds(active)


def run_afsa_inventory(
    tags: List[Tag],
    initial_frame: FrameConfig,
    fixed_seq_bits: Optional[int],
    rng: RngStream,
    max_rounds: int = 1000,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """Reservation-protocol inventory under `run_inventory`.

    After each non-final round the reader's next frame is
    `_next_frame(estimator._key(trace), fixed_seq_bits)`; `fixed_seq_bits`
    pins its sequence length (None: re-derived each round).  A bad
    `fixed_seq_bits` raises ValueError before any draw.
    """
    if fixed_seq_bits is not None and not (
            is_int(fixed_seq_bits) and 1 <= fixed_seq_bits <= MAX_SEQ_BITS):
        raise ValueError(f"fixed_seq_bits must be an integer in [1, {MAX_SEQ_BITS}] or None")

    def rounds() -> Rounds:
        frame = initial_frame
        active = yield
        while True:
            trace = run_afsa_round(active, frame, rng)
            active = yield trace
            frame = _next_frame(_key(trace), fixed_seq_bits)

    return run_inventory(tags, rounds(), max_rounds, between_rounds)
