"""Baseline protocols the reservation scheme is compared against.

Framed slotted ALOHA (FSA) spends a full data slot on every slot of the
frame, collisions included.  Enhanced dynamic FSA (EDFSA) adds backlog
estimation, frame-size selection from a small menu, and modulo grouping
of tags when the backlog exceeds the largest frame.  Neither has a
reservation phase, so their rounds never suffer undetected collisions:
two tags sending full distinct payloads always garble each other
detectably.
"""
from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

from .afsa import (
    DRAW_CHUNK_TAGS,
    BetweenRounds,
    InventoryResult,
    Rounds,
    run_inventory,
)
from .estimator import estimate_backlog
from .model import (
    RoundTrace,
    Tag,
    TimingModel,
    active_count,  # unused here, but bench/child.py wraps it by this name
)
from .rng import RandomSource

# Frame sizes EDFSA may announce; backlog beyond the largest is split
# into EDFSA_MAX_FRAME-sized groups instead.
EDFSA_FRAME_CHOICES = (16, 32, 64, 128, 256)
EDFSA_MAX_FRAME = EDFSA_FRAME_CHOICES[-1]


def run_fsa_round(
    tags: Sequence[Tag],
    slots: int,
    timing: TimingModel,
    rng: RandomSource,
) -> RoundTrace:
    """One framed-ALOHA round: every responder transmits its payload directly.

    Each present, unidentified tag consumes one draw (its slot), and the
    round takes no other draw from `rng`.  Every slot of the frame costs a
    full data slot whether idle, reserved, or collided; there is no
    reservation or acknowledgement traffic beyond the frame advertisement.
    Single-occupant slots identify their tag in place.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    first_tag: List[Optional[Tag]] = [None] * slots
    occupants = [0] * slots
    responders = 0
    for start in range(0, len(tags), DRAW_CHUNK_TAGS):
        batch = [t for t in tags[start:start + DRAW_CHUNK_TAGS]
                 if t.present and not t.identified]
        responders += len(batch)
        for tag, draw in zip(batch, rng.draws(len(batch))):
            slot = draw % slots
            if occupants[slot] == 0:
                first_tag[slot] = tag
            occupants[slot] += 1

    identified: List[int] = []
    idle = reserved = detected = 0
    for slot, count in enumerate(occupants):
        if count == 0:
            idle += 1
        elif count == 1:
            reserved += 1
            winner = first_tag[slot]
            winner.identified = True
            identified.append(winner.epc)
        else:
            detected += 1

    return RoundTrace(
        slots=slots,
        seq_bits=0,
        responders=responders,
        idle_count=idle,
        reserved_true_count=reserved,
        detected_collision_count=detected,
        undetected_collision_count=0,
        identified_epcs=tuple(identified),
        total_us=timing.advert_us + timing.data_slot_us * slots,
    )


def run_fsa_inventory(
    tags: List[Tag],
    slots: int,
    timing: TimingModel,
    rng: RandomSource,
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
            active = yield run_fsa_round(active, slots, timing, rng)

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
    if k_est < 0:
        raise ValueError("k_est must be >= 0")
    slots = min(EDFSA_FRAME_CHOICES, key=lambda c: (abs(c - k_est), -c))
    if k_est > EDFSA_MAX_FRAME:
        groups = math.ceil(k_est / EDFSA_MAX_FRAME)
    else:
        groups = 1
    return EdfsaPlan(slots=slots, groups=groups)


def run_edfsa_inventory(
    tags: List[Tag],
    timing: TimingModel,
    rng: RandomSource,
    max_rounds: int = 1000,
    initial_estimate: float = 128.0,
    between_rounds: Optional[BetweenRounds] = None,
) -> InventoryResult:
    """EDFSA inventory: estimate, plan, run one FSA round per group, repeat.

    Group membership for a cycle with G groups is epc mod G, recomputed
    each round so population churn is picked up immediately.  The next
    cycle's backlog estimate is the sum of the per-round estimates of the
    cycle just finished.  `initial_estimate` seeds planning before any
    observation exists, in the same role as the initial frame size of the
    reservation protocol.
    """
    if initial_estimate < 0:
        raise ValueError("initial_estimate must be >= 0")

    def rounds() -> Rounds:
        k_est = initial_estimate
        active = yield
        while True:
            plan = edfsa_plan(k_est)
            k_est = 0.0
            for group in range(plan.groups):
                responders = [t for t in active if t.epc % plan.groups == group]
                trace = run_fsa_round(responders, plan.slots, timing, rng)
                active = yield trace
                k_est += estimate_backlog(trace).k_est

    return run_inventory(tags, rounds(), max_rounds, between_rounds)
