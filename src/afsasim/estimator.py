"""Backlog estimation and per-round frame adaptation.

After each round the reader estimates how many unidentified tags remain
and picks the next frame size, sequence length, and participation divisor
from that estimate alone; nothing here peeks at ground truth.

An estimate is a plain float, the backlog `k_est`, and so is every input
and output of the decision chain.  The protocols hand this module the
trace: `_key` maps it to the inputs of `_estimate`, which both readers'
memos key on (EDFSA's is `_backlog`), and `_first_frame` is the frame
chosen before any round.
"""
import math
from functools import lru_cache
from typing import Optional, Tuple

from .analytic import _occupancy, _seq_len
from .analytic import optimal_seq_len  # unused here, but bench/child.py wraps it by this name
from .model import MAX_FRAME_SLOTS, MAX_TAGS, FrameConfig, RoundTrace, check_int, check_nonnegative

# Expected occupants of a slot known to hold a collision, in the Poisson
# regime the estimator assumes.  Used when no idle slot survives.
COLLISION_TAG_MULTIPLIER = 2.39

FRAME_MIN = 8
FRAME_MAX = 1024

# Divisor gating engages only when the backlog overloads the largest
# frame by more than this factor.
OVERLOAD_RATIO = 4.0

# Entries kept by each of the package's memos (`lru_cache`): their keys are
# a few small counts, which recur within and across trials, and the bound
# keeps a long run's memos small.
_MEMO_ENTRIES = 1024

# `next_frame` returns one shared `FrameConfig` per distinct (slots,
# seq_bits, divisor), so each is built and checked once.  There are 8
# frame sizes and 16 sequence lengths; the bound keeps divisors, which
# grow with the backlog, from growing the memo.  `typed` keeps a bool or
# float sequence length apart from the int it equals, so FrameConfig
# still rejects it; a rejected frame raises and is never cached.
_frame = lru_cache(maxsize=_MEMO_ENTRIES, typed=True)(FrameConfig)


def estimate_from_counts(
    idle: int,
    reserved_apparent: int,
    detected_collisions: int,
    identified: int,
    slots: int,
) -> float:
    """Backlog estimate `k_est` from one round's observable slot counts.

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
    # a fractional or bool count would give a plausible estimate
    check_int("slots", slots, 1, MAX_FRAME_SLOTS)
    for name, value in (("idle", idle), ("reserved_apparent", reserved_apparent),
                        ("detected_collisions", detected_collisions)):
        check_int(name, value, 0)
    # a round identifies at most one tag per slot, so no real count comes
    # near MAX_TAGS; a count past the floats would overflow the estimate
    check_int("identified", identified, 0, MAX_TAGS)
    if idle + reserved_apparent + detected_collisions != slots:
        raise ValueError("slot counts must partition the frame")
    return _estimate(idle, reserved_apparent, detected_collisions, identified, slots)


def _estimate(idle: int, reserved_apparent: int, detected_collisions: int,
              identified: int, slots: int) -> float:
    if idle >= 1 and slots > 1:  # the idle inversion
        k_est = math.log(idle / slots) / math.log(1.0 - 1.0 / slots) - identified
    else:  # the collision floor
        k_est = (COLLISION_TAG_MULTIPLIER * detected_collisions
                 + reserved_apparent - identified)
    return max(0.0, k_est)


def _key(trace: RoundTrace) -> Tuple[int, int, int, int, int]:
    """`_estimate`'s arguments for a played round, whose counts are valid
    and which identifies one tag per truly reserved slot.  Where the idle
    inversion decides (the test is `_estimate`'s) no collision count is
    read, so both are 0 and rounds differing only there share a memo entry.
    """
    idle, reserved, slots = trace.idle_count, trace.reserved_true_count, trace.slots
    if idle and slots > 1:
        return idle, reserved, 0, reserved, slots
    return (idle, reserved + trace.undetected_collision_count,
            trace.detected_collision_count, reserved, slots)


# The EDFSA reader's estimate after a round, keyed by `_key(trace)`.
_backlog = lru_cache(maxsize=_MEMO_ENTRIES)(_estimate)


def estimate_backlog(trace: RoundTrace) -> float:
    """Backlog estimate `k_est` from a completed round trace."""
    return estimate_from_counts(
        idle=trace.idle_count,
        reserved_apparent=trace.reserved_apparent_count,
        detected_collisions=trace.detected_collision_count,
        identified=trace.reserved_true_count,
        slots=trace.slots,
    )


def nearest_power_of_two(value: float) -> int:
    """Power of two nearest to `value`, clamped to [FRAME_MIN, FRAME_MAX].

    Distance is linear, and a tie between neighbours goes up.
    """
    check_nonnegative("value", value)
    return _frame_size(value)


def _frame_size(value: float) -> int:
    if value <= FRAME_MIN:
        return FRAME_MIN
    if value >= FRAME_MAX:
        return FRAME_MAX
    below = 1 << int(math.floor(math.log2(value)))
    above = below * 2
    return above if (value - below) >= (above - value) else below


def auto_seq_bits(k_est: float, slots: int) -> int:
    """Sequence length chosen for an upcoming frame of `slots` at backlog `k_est`."""
    check_nonnegative("k_est", k_est)
    check_int("slots", slots, 1, MAX_FRAME_SLOTS)
    return _seq_bits(k_est, slots)


def _seq_bits(k_est: float, slots: int) -> int:
    return _seq_len(_occupancy(k_est, slots)[2], slots).rounded


def next_frame(k_est: float, fixed_seq_bits: Optional[int] = None) -> FrameConfig:
    """Frame parameters for the next round given the backlog estimate `k_est`.

    Frame size is the nearest power of two to k_est within [FRAME_MIN,
    FRAME_MAX].  The participation divisor engages only when the backlog
    overloads the chosen frame by more than OVERLOAD_RATIO, thinning
    expected participation back toward one tag per slot; ties in its
    rounding go up.  Sequence length is `fixed_seq_bits` when given, and
    otherwise the collision-load rule evaluated at (k_est, next frame);
    the returned `FrameConfig` rejects a pinned length out of range.
    Equal frames are returned as the same object.
    """
    check_nonnegative("k_est", k_est)
    slots = _frame_size(k_est)
    if k_est > OVERLOAD_RATIO * slots:
        divisor = max(1, int(math.floor(k_est / slots + 0.5)))
    else:
        divisor = 1
    if fixed_seq_bits is not None:
        seq_bits = fixed_seq_bits
    else:
        seq_bits = _seq_bits(k_est, slots)
    return _frame(slots, seq_bits, divisor)


# one entry per (frame size, sequence length)
@lru_cache(maxsize=_MEMO_ENTRIES)
def _first_frame(frame_slots: int, seq_bits: Optional[int]) -> FrameConfig:
    """The frame a trial's first round announces, built once per pair of
    validated config fields.  With `seq_bits` None the reader has observed
    nothing yet and assumes load one: as many tags as slots."""
    if seq_bits is None:
        seq_bits = auto_seq_bits(frame_slots, frame_slots)
    return FrameConfig(frame_slots, seq_bits)
