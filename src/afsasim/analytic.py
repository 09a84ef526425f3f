"""Closed-form expectations for one round of the reservation protocol.

With k tags drawing slots uniformly from a frame of N slots, occupancy of
a single slot is Binomial(k, 1/N).  All per-round expectations follow from
that, so each function here is an independent check on the simulator rather
than a restatement of it.

`tags` is accepted as a float throughout (except where noted) because the
adaptation path evaluates these formulas at non-integer backlog estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import MAX_SEQ_BITS, PhaseDurations, TimingModel


def _check_args(tags: float, slots: int) -> None:
    if tags < 0:
        raise ValueError("tags must be >= 0")
    if slots < 1:
        raise ValueError("slots must be >= 1")


def _check_seq_bits(seq_bits: int) -> None:
    if not 1 <= seq_bits <= MAX_SEQ_BITS:
        raise ValueError(f"seq_bits must be in [1, {MAX_SEQ_BITS}]")


def expected_reserved(tags: float, slots: int) -> float:
    """Expected number of slots holding exactly one tag: k(1 - 1/N)^(k-1)."""
    _check_args(tags, slots)
    if tags == 0:
        return 0.0
    base = 1.0 - 1.0 / slots
    if base == 0.0:
        # single slot: reserved iff exactly one tag responded
        return 1.0 if tags == 1 else 0.0
    return tags * base ** (tags - 1.0)


def expected_idle(tags: float, slots: int) -> float:
    """Expected number of empty slots: N(1 - 1/N)^k."""
    _check_args(tags, slots)
    if tags == 0:
        return float(slots)
    return slots * (1.0 - 1.0 / slots) ** tags


def expected_unresolved(tags: float, slots: int) -> float:
    """Expected number of slots holding two or more tags.

    Computed as the complement N - E[idle] - E[reserved], clamped at zero
    so float cancellation can never produce a small negative count.
    """
    _check_args(tags, slots)
    return max(0.0, slots - expected_idle(tags, slots) - expected_reserved(tags, slots))


def expected_undetected(
    tags: float,
    slots: int,
    seq_bits: int,
    same_seq_prob: Optional[float] = None,
) -> float:
    """Expected collided slots that still look reserved, first-order model.

    A collided slot goes unnoticed when every occupant sent the same
    n-bit sequence.  This model charges each unresolved slot a flat
    probability `same_seq_prob`, defaulting to 2**-seq_bits (the exact
    value for two occupants); pass a different probability, e.g.
    2**-(seq_bits - 1), for sensitivity analysis.  It ignores the lower
    agreement probability of 3+ occupant slots and therefore
    overestimates; `expected_undetected_exact` carries the full sum.
    """
    _check_seq_bits(seq_bits)
    if same_seq_prob is None:
        same_seq_prob = 2.0 ** -seq_bits
    if not 0.0 <= same_seq_prob <= 1.0:
        raise ValueError("same_seq_prob must be in [0, 1]")
    return expected_unresolved(tags, slots) * same_seq_prob


def expected_undetected_exact(tags: int, slots: int, seq_bits: int) -> float:
    """Expected undetected-collision slots, exact over slot occupancy.

    A slot with i >= 2 occupants is undetected iff all i drew the same
    sequence, probability 2**(-seq_bits * (i - 1)).  Summing over the
    Binomial(k, 1/N) occupancy law:

        N * sum_{i=2..k} C(k,i) (1/N)^i (1-1/N)^(k-i) * 2^(-n(i-1))

    Terms are evaluated in log space so large k cannot overflow.
    Requires an integer tag count since it enumerates occupancies.
    """
    if isinstance(tags, float):
        if not tags.is_integer():
            raise ValueError("exact model needs an integer tag count")
        tags = int(tags)
    _check_args(tags, slots)
    _check_seq_bits(seq_bits)
    if tags < 2:
        return 0.0
    if slots == 1:
        # all k tags share the one slot
        return 2.0 ** (-seq_bits * (tags - 1))
    log_p = math.log(1.0 / slots)
    log_q = math.log1p(-1.0 / slots)
    log_comb_k = math.lgamma(tags + 1)
    total = 0.0
    for i in range(2, tags + 1):
        log_comb = log_comb_k - math.lgamma(i + 1) - math.lgamma(tags - i + 1)
        log_term = log_comb + i * log_p + (tags - i) * log_q
        total += math.exp(log_term) * 2.0 ** (-seq_bits * (i - 1))
    return slots * total


def expected_successful(tags: float, slots: int, seq_bits: int) -> float:
    """Expected apparently-reserved slots S: true reservations plus undetected."""
    return expected_reserved(tags, slots) + expected_undetected(tags, slots, seq_bits)


@dataclass(frozen=True)
class ExpectedSlotProfile:
    """Closed-form per-round expectations for a given load and frame."""

    e_reserved: float
    e_idle: float
    e_unresolved: float
    e_undetected: float
    s_expected: float


def slot_profile(tags: float, slots: int, seq_bits: int) -> ExpectedSlotProfile:
    """All per-round expectations for one (tags, slots, seq_bits) cell."""
    e_reserved = expected_reserved(tags, slots)
    e_idle = expected_idle(tags, slots)
    e_unresolved = expected_unresolved(tags, slots)
    e_undetected = expected_undetected(tags, slots, seq_bits)
    return ExpectedSlotProfile(
        e_reserved=e_reserved,
        e_idle=e_idle,
        e_unresolved=e_unresolved,
        e_undetected=e_undetected,
        s_expected=e_reserved + e_undetected,
    )


class OptimalSeqConstants(NamedTuple):
    """Fitted constants of the sequence-length rule."""

    log_coeff: float = 3.32
    arg_coeff: float = 19.13


DEFAULT_SEQ_CONSTANTS = OptimalSeqConstants()


class SeqLenChoice(NamedTuple):
    raw: float
    rounded: int


def optimal_seq_len(
    e_unresolved: float,
    slots: int,
    constants: OptimalSeqConstants = DEFAULT_SEQ_CONSTANTS,
) -> SeqLenChoice:
    """Reservation sequence length balancing overhead against misses.

    raw = log_coeff * log10(arg_coeff * E[unresolved] / N) when the
    argument exceeds 1, else 0 (the overhead term dominates at light
    collision load).  The usable length rounds half-up and is floored at
    one bit.
    """
    if e_unresolved < 0:
        raise ValueError("e_unresolved must be >= 0")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    arg = constants.arg_coeff * e_unresolved / slots
    raw = constants.log_coeff * math.log10(arg) if arg > 1.0 else 0.0
    # round() would take ties to even; the rule takes ties up
    rounded = max(1, math.floor(raw + 0.5))
    return SeqLenChoice(raw=raw, rounded=rounded)


def phase_durations_for(
    successes: float,
    slots: int,
    seq_bits: int,
    timing: Optional[TimingModel] = None,
) -> PhaseDurations:
    """Per-phase durations of one round with `successes` apparently-reserved slots.

    Shared by the simulator (integer count) and the expectation model
    (fractional count) so both sides evaluate the identical expression.
    """
    if timing is None:
        timing = TimingModel()
    if slots < 1:
        raise ValueError("slots must be >= 1")
    _check_seq_bits(seq_bits)
    if not 0 <= successes <= slots:
        raise ValueError("successes must be in [0, slots]")
    rb = timing.reader_bit_time_us
    return PhaseDurations(
        t_ad=timing.advert_us,
        t_r=rb * slots * seq_bits,
        t_su=rb * slots,
        t_d=timing.data_slot_us * successes,
        t_ack=rb * successes,
    )


def round_duration(
    tags: float,
    slots: int,
    seq_bits: int,
    timing: Optional[TimingModel] = None,
) -> float:
    """Expected duration of one full round, microseconds."""
    s = expected_successful(tags, slots, seq_bits)
    return phase_durations_for(s, slots, seq_bits, timing).total


def expected_per_tag_us(
    tags: float,
    slots: int,
    seq_bits: int,
    timing: Optional[TimingModel] = None,
) -> float:
    """Expected time per identified tag in one round, microseconds."""
    r = expected_reserved(tags, slots)
    if r == 0.0:
        raise ValueError("no expected identifications at this operating point")
    return round_duration(tags, slots, seq_bits, timing) / r
