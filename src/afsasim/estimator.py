"""Backlog estimation and per-round frame adaptation.

After each round the reader estimates how many unidentified tags remain
and picks the next frame size, sequence length, and participation divisor
from that estimate alone; nothing here peeks at ground truth.  Every rule
of that decision is stated here, and EDFSA picks its frame by `_nearest_size`.

An estimate is a plain float, the backlog `k_est`, and so is every input
and output of the decision chain.  The protocols hand this module the
trace: `_key` maps it to the inputs of `_estimate`, which both readers'
memos key on (EDFSA's is `_backlog`), and `_first_frame` is the frame
chosen before any round.
"""
import math
from bisect import bisect_right
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .analytic import _occupancy
from .model import (MAX_FRAME_SLOTS, MAX_SEQ_BITS, MAX_TAGS, FrameConfig, RoundTrace,
                    check_int, check_nonnegative, is_int)

# Expected occupants of a slot known to hold a collision, in the Poisson
# regime the estimator assumes.  Used when no idle slot survives.
COLLISION_TAG_MULTIPLIER = 2.39

FRAME_MIN = 8
FRAME_MAX = 1024

# Divisor gating engages only when the backlog overloads the largest
# frame by more than this factor.
OVERLOAD_RATIO = 4.0

# Entries kept by each memo of the reader and the round (`lru_cache`, here
# and in `afsa`): their keys are a few small counts, which recur within and
# across trials, and the bound keeps a long run's memos small.
_MEMO_ENTRIES = 1024

# `next_frame` returns one shared `FrameConfig` per distinct (slots,
# seq_bits, divisor), so each is built and checked once.  There are 8
# frame sizes and 16 sequence lengths; the bound keeps divisors, which
# grow with the backlog, from growing the memo.
_frame = lru_cache(maxsize=_MEMO_ENTRIES)(FrameConfig)

# Fitted constants of the sequence-length rule in `optimal_seq_len`.
SEQ_LOG_COEFF = 3.32
SEQ_ARG_COEFF = 19.13


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


def _nearest_size(sizes: Sequence[int]) -> Callable[[float], int]:
    """Picker of the entry of the ascending `sizes` nearest to a value, a tie
    going to the larger: from the i-th midpoint up, entry i + 1.  Each midpoint
    of two sizes is exact, so the pick flips exactly there."""
    midpoints = tuple((a + b) / 2 for a, b in zip(sizes, sizes[1:]))
    return lambda value: sizes[bisect_right(midpoints, value)]


# The AFSA frame size for a backlog: the powers of two from FRAME_MIN to FRAME_MAX.
_frame_size = _nearest_size([FRAME_MIN << i for i in range((FRAME_MAX // FRAME_MIN).bit_length())])


class SeqLenChoice(NamedTuple):
    raw: float
    rounded: int


def optimal_seq_len(e_unresolved: float, slots: int) -> SeqLenChoice:
    """Reservation sequence length balancing overhead against misses.

    raw = SEQ_LOG_COEFF * log10(SEQ_ARG_COEFF * E[unresolved] / N) when the
    argument exceeds 1, else 0 (the overhead term dominates at light
    collision load).  The usable length rounds half-up and is floored at
    one bit.  An expected unresolved count past the frame's `slots` is
    refused: no load makes more slots collide than there are.
    """
    check_nonnegative("e_unresolved", e_unresolved)
    check_int("slots", slots, 1, MAX_FRAME_SLOTS)
    if e_unresolved > slots:
        raise ValueError("e_unresolved must be <= slots")
    return _seq_len(e_unresolved, slots)


def _seq_len(e_unresolved: float, slots: int) -> SeqLenChoice:
    arg = SEQ_ARG_COEFF * e_unresolved / slots
    raw = SEQ_LOG_COEFF * math.log10(arg) if arg > 1.0 else 0.0
    # round() would take ties to even; the rule takes ties up
    rounded = max(1, math.floor(raw + 0.5))
    return SeqLenChoice(raw=raw, rounded=rounded)


def auto_seq_bits(k_est: float, slots: int) -> int:
    """Sequence length chosen for an upcoming frame of `slots` at backlog `k_est`."""
    check_nonnegative("k_est", k_est)
    check_int("slots", slots, 1, MAX_FRAME_SLOTS)
    return _seq_bits(k_est, slots)


def _seq_bits(k_est: float, slots: int) -> int:
    return _seq_len(_occupancy(k_est, slots)[2], slots).rounded


def _check_fixed_seq_bits(fixed_seq_bits: Optional[int]) -> None:
    # None, or a pinned length; the exact type test spares an int `is_int`
    if fixed_seq_bits is not None and not (
            (type(fixed_seq_bits) is int or is_int(fixed_seq_bits))
            and 1 <= fixed_seq_bits <= MAX_SEQ_BITS):
        raise ValueError(f"fixed_seq_bits must be an integer in [1, {MAX_SEQ_BITS}] or None")


def next_frame(k_est: float, fixed_seq_bits: Optional[int] = None) -> FrameConfig:
    """Frame parameters for the next round given the backlog estimate `k_est`.

    Frame size is the nearest power of two to k_est within [FRAME_MIN,
    FRAME_MAX].  The participation divisor engages only when the backlog
    overloads the chosen frame by more than OVERLOAD_RATIO, thinning
    expected participation back toward one tag per slot; ties in its
    rounding go up.  Sequence length is `fixed_seq_bits` when given, and
    otherwise the collision-load rule evaluated at (k_est, next frame).
    Equal frames are returned as the same object.
    """
    check_nonnegative("k_est", k_est)
    _check_fixed_seq_bits(fixed_seq_bits)
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
