"""Baseline protocols the reservation scheme is compared against.

Framed slotted ALOHA (FSA) spends a full data slot on every slot of the
frame, collisions included.  Enhanced dynamic FSA (EDFSA) adds backlog
estimation, frame-size selection from a small menu, and modulo grouping
of tags when the backlog exceeds the largest frame.  Neither has a
reservation phase, so their rounds never suffer undetected collisions:
two tags sending full distinct payloads always garble each other
detectably.
"""
import math
from typing import List, NamedTuple, Optional, Sequence

from .afsa import (
    COLLIDED,
    BetweenRounds,
    InventoryResult,
    Rounds,
    run_inventory,
)
from .estimator import (
    _backlog,
    _key,
    _nearest_size,
    estimate_backlog,  # unused here, but bench/child.py wraps it by this name
)
from .model import (
    MAX_FRAME_SLOTS,
    TIMING,
    RoundTrace,
    Tag,
    active_count,  # unused here, but bench/child.py wraps it by this name
    check_nonnegative,
    int_problem,
)
from .rng import PIECE_DRAWS, RngStream, _in_pieces, _residues

# Frame sizes EDFSA may announce; backlog beyond the largest is split
# into EDFSA_MAX_FRAME-sized groups instead.
EDFSA_FRAME_CHOICES = (16, 32, 64, 128, 256)
EDFSA_MAX_FRAME = EDFSA_FRAME_CHOICES[-1]
# The menu size nearest to a backlog estimate, a tie going to the larger.
_menu_size = _nearest_size(EDFSA_FRAME_CHOICES)


def run_fsa_round(tags: Sequence[Tag], slots: int, rng: RngStream) -> RoundTrace:
    """One framed-ALOHA round: every tag in `tags` sends its payload directly.

    The caller picks who answers, as for `afsa.run_afsa_round`
    (`run_inventory` sends the tags still answering).  Each tag
    consumes one draw (its slot), and the round takes no other draw from
    `rng`; it takes them through its `take`, at most PIECE_DRAWS at a
    time, so a round of at most PIECE_DRAWS tags takes them all with one
    `take`.
    Every slot of the frame costs a full data slot whether idle, reserved,
    or collided; there is no reservation or acknowledgement traffic
    beyond the frame advertisement.  Single-occupant slots identify their
    tag in place; full payloads always differ, so every collision is
    detected.
    """
    # an exact int in range needs no `int_problem`; an int subclass does
    if not (type(slots) is int and 1 <= slots <= MAX_FRAME_SLOTS):
        problem = int_problem("slots", slots, 1, MAX_FRAME_SLOTS)
        if problem:
            raise ValueError(problem)
    # per slot: None, the lone occupant or COLLIDED
    heard: List[object] = [None] * slots
    if len(tags) <= PIECE_DRAWS:
        # one piece: the draws are read in place, with no closure
        placed = zip(tags, _residues(rng.take(len(tags)), 0, 1, slots))
    else:
        placed = _in_pieces(tags, 1, rng,
                            lambda piece, raw: zip(piece, _residues(raw, 0, 1, slots)))
    for tag, slot in placed:
        heard[slot] = tag if heard[slot] is None else COLLIDED

    identified: List[int] = []
    idle = detected = 0
    for occupant in heard:
        if occupant is None:
            idle += 1
        elif occupant is COLLIDED:
            detected += 1
        else:
            occupant.identified = True
            identified.append(occupant.epc)

    # see `RoundTrace` for why it is built through `tuple.__new__`
    return tuple.__new__(RoundTrace, (
        slots, 0, len(tags), idle, len(identified), detected, 0,
        tuple(identified), TIMING.advert_us + TIMING.data_slot_us * slots))


def run_fsa_inventory(
    tags: List[Tag],
    slots: int,
    rng: RngStream,
    max_rounds: int = 1000,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """Repeat fixed-size FSA rounds until done or out of budget.

    Plain FSA does not adapt; the frame size stays at `slots` throughout.
    At least one round always runs.
    """
    def rounds() -> Rounds:
        active = yield
        while True:
            active = yield run_fsa_round(active, slots, rng)

    return run_inventory(tags, rounds(), max_rounds, between_rounds)


class EdfsaPlan(NamedTuple):
    """Frame size and group count EDFSA runs the next cycle with."""

    slots: int
    groups: int


def edfsa_plan(k_est: float) -> EdfsaPlan:
    """EDFSA cycle plan for an estimated backlog.

    The frame is the menu size nearest to the estimate (ties toward the
    larger frame).  When the estimate exceeds the largest frame, tags are
    split into ceil(k_est / max_frame) groups that respond in separate
    rounds, one group per round within the cycle.
    """
    check_nonnegative("k_est", k_est)
    return _plan(k_est)


def _plan(k_est: float) -> EdfsaPlan:
    slots = _menu_size(k_est)
    if k_est > EDFSA_MAX_FRAME:
        groups = math.ceil(k_est / EDFSA_MAX_FRAME)
    else:
        groups = 1
    return EdfsaPlan(slots, groups)


def run_edfsa_inventory(
    tags: List[Tag],
    rng: RngStream,
    max_rounds: int = 1000,
    initial_estimate: float = 128.0,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """EDFSA inventory: estimate, plan, run one FSA round per group, repeat.

    Group membership for a cycle with G groups is epc mod G, recomputed
    each round so population churn is picked up immediately.  The next
    cycle's backlog estimate is the sum of the per-round estimates of the
    cycle just finished, each `estimator._backlog` of the round's
    `estimator._key`.  `initial_estimate` seeds planning before any
    observation exists, in the same role as the initial frame size of the
    reservation protocol.
    """
    check_nonnegative("initial_estimate", initial_estimate)

    def rounds() -> Rounds:
        # every later estimate is a sum of finite estimates clamped at 0,
        # so only the initial one needs the check above
        k_est = initial_estimate
        active = yield
        while True:
            slots, groups = _plan(k_est)
            k_est = 0.0
            for group in range(groups):
                if groups == 1:
                    # epc mod 1 is 0 for every tag: no copy to filter
                    responders = active
                else:
                    responders = [t for t in active if t.epc % groups == group]
                trace = run_fsa_round(responders, slots, rng)
                active = yield trace
                k_est += _backlog(*_key(trace))

    return run_inventory(tags, rounds(), max_rounds, between_rounds)
