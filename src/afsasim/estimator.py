"""Backlog estimation and per-round frame adaptation.

After each round the reader estimates how many unidentified tags remain
and picks the next frame size, sequence length, and participation divisor
from that estimate alone; nothing here peeks at ground truth.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .analytic import expected_unresolved, optimal_seq_len
from .model import MAX_SEQ_BITS, FrameConfig, RoundTrace

# Expected occupants of a slot known to hold a collision, in the Poisson
# regime the estimator assumes.  Used when no idle slot survives.
COLLISION_TAG_MULTIPLIER = 2.39

FRAME_MIN = 8
FRAME_MAX = 1024

# Divisor gating engages only when the backlog overloads the largest
# frame by more than this factor.
OVERLOAD_RATIO = 4.0


class EstimateMethod(enum.Enum):
    IDLE_INVERSION = "idle_inversion"
    COLLISION_FLOOR = "collision_floor"


@dataclass(frozen=True)
class BacklogEstimate:
    """Estimated unidentified-tag count and the rule that produced it."""

    k_est: float
    method: EstimateMethod


def estimate_from_counts(
    idle: int,
    reserved_apparent: int,
    detected_collisions: int,
    identified: int,
    slots: int,
) -> BacklogEstimate:
    """Backlog estimate from one round's observable slot counts.

    With at least one idle slot, invert E[idle] = N(1 - 1/N)^k for the
    number of responders k, then subtract the tags just identified:

        k_est = ln(idle/N) / ln(1 - 1/N) - identified

    With no idle slot the inversion is undefined (ln 0), so fall back to
    a collision-count floor: each detectably collided slot hides about
    2.39 tags on average, and apparently-reserved slots hold at least one:

        k_est = 2.39 * detected + reserved_apparent - identified

    A one-slot frame carries no idle-count information worth inverting,
    so it always uses the floor rule.  Estimates clamp at zero.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    for name, value in (("idle", idle), ("reserved_apparent", reserved_apparent),
                        ("detected_collisions", detected_collisions),
                        ("identified", identified)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    if idle + reserved_apparent + detected_collisions != slots:
        raise ValueError("slot counts must partition the frame")

    if idle >= 1 and slots > 1:
        responders = math.log(idle / slots) / math.log(1.0 - 1.0 / slots)
        k_est = responders - identified
        method = EstimateMethod.IDLE_INVERSION
    else:
        k_est = (COLLISION_TAG_MULTIPLIER * detected_collisions
                 + reserved_apparent - identified)
        method = EstimateMethod.COLLISION_FLOOR
    return BacklogEstimate(k_est=max(0.0, k_est), method=method)


def estimate_backlog(trace: RoundTrace) -> BacklogEstimate:
    """Backlog estimate from a completed round trace."""
    return estimate_from_counts(
        idle=trace.idle_count,
        reserved_apparent=trace.reserved_apparent_count,
        detected_collisions=trace.detected_collision_count,
        identified=len(trace.identified_epcs),
        slots=trace.slots,
    )


def nearest_power_of_two(value: float, lo: int = FRAME_MIN, hi: int = FRAME_MAX) -> int:
    """Power of two nearest to `value` (linear distance, ties up), clamped to [lo, hi].

    `lo` and `hi` must themselves be powers of two.
    """
    if lo < 1 or lo & (lo - 1) or hi & (hi - 1) or lo > hi:
        raise ValueError("bounds must be powers of two with lo <= hi")
    if value <= lo:
        return lo
    if value >= hi:
        return hi
    below = 1 << int(math.floor(math.log2(value)))
    above = below * 2
    # tie between neighbours goes to the larger frame
    chosen = above if (value - below) >= (above - value) else below
    return max(lo, min(hi, chosen))


@dataclass(frozen=True)
class AdaptationPolicy:
    """How the reader re-parameterizes between rounds.

    `fixed_seq_bits` pins the sequence length; None re-derives it each
    round from the predicted collision load of the upcoming frame.
    """

    fixed_seq_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fixed_seq_bits is not None and not 1 <= self.fixed_seq_bits <= MAX_SEQ_BITS:
            raise ValueError(f"fixed_seq_bits must be in [1, {MAX_SEQ_BITS}] or None")


def auto_seq_bits(k_est: float, slots: int) -> int:
    """Sequence length chosen for an upcoming frame of `slots` at backlog `k_est`."""
    return optimal_seq_len(expected_unresolved(k_est, slots), slots).rounded


def next_frame(estimate: BacklogEstimate, policy: AdaptationPolicy) -> FrameConfig:
    """Frame parameters for the next round given the current backlog estimate.

    Frame size is the nearest power of two to k_est within [FRAME_MIN,
    FRAME_MAX].  The participation divisor engages only when the backlog
    overloads the chosen frame by more than OVERLOAD_RATIO, thinning
    expected participation back toward one tag per slot; ties in its
    rounding go up.  Sequence length follows `policy.fixed_seq_bits` or
    the collision-load rule evaluated at (k_est, next frame).
    """
    k_est = estimate.k_est
    slots = nearest_power_of_two(k_est)
    if k_est > OVERLOAD_RATIO * slots:
        divisor = max(1, int(math.floor(k_est / slots + 0.5)))
    else:
        divisor = 1
    if policy.fixed_seq_bits is not None:
        seq_bits = policy.fixed_seq_bits
    else:
        seq_bits = auto_seq_bits(k_est, slots)
    return FrameConfig(slots=slots, seq_bits=seq_bits, participation_divisor=divisor)


def initial_seq_bits(slots: int) -> int:
    """Sequence length for the first round, before any observation exists.

    With nothing observed yet the reader assumes load one (about as many
    tags as slots), which yields two bits for every frame size in the
    supported range.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    return auto_seq_bits(float(slots), slots)
