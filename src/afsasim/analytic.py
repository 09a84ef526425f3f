"""Closed-form expectations for one round of the reservation protocol.

With k tags drawing slots uniformly from a frame of N slots, occupancy of
a single slot is Binomial(k, 1/N).  All per-round expectations follow from
that, so each function here is an independent check on the simulator rather
than a restatement of it.

`tags` is accepted as a float throughout because the adaptation path
evaluates these formulas at non-integer backlog estimates.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .model import (
    MAX_SEQ_BITS,
    TIMING,
    PhaseDurations,
    TimingModel,
    check_nonnegative,
    is_int,
    is_real,
)


def _check_slots(slots: int) -> None:
    if not (is_int(slots) and slots >= 1):
        raise ValueError("slots must be an integer >= 1")


def _check_args(tags: float, slots: int) -> None:
    check_nonnegative("tags", tags)
    _check_slots(slots)


def _check_seq_bits(seq_bits: int) -> None:
    if not (is_int(seq_bits) and 1 <= seq_bits <= MAX_SEQ_BITS):
        raise ValueError(f"seq_bits must be an integer in [1, {MAX_SEQ_BITS}]")


def _occupancy(tags: float, slots: int) -> Tuple[float, float, float]:
    # E[idle], E[reserved] and E[unresolved] of valid arguments, unchecked
    base = 1.0 - 1.0 / slots
    e_idle = slots * base ** tags
    # single slot: reserved iff exactly one tag responded
    e_reserved = tags * base ** (tags - 1.0) if base else float(tags == 1)
    # clamped at zero so float cancellation can never give a small negative count
    return e_idle, e_reserved, max(0.0, slots - e_idle - e_reserved)


def expected_reserved(tags: float, slots: int) -> float:
    """Expected number of slots holding exactly one tag: k(1 - 1/N)^(k-1)."""
    _check_args(tags, slots)
    return _occupancy(tags, slots)[1]


def expected_idle(tags: float, slots: int) -> float:
    """Expected number of empty slots: N(1 - 1/N)^k."""
    _check_args(tags, slots)
    return _occupancy(tags, slots)[0]


def expected_unresolved(tags: float, slots: int) -> float:
    """Expected number of slots holding two or more tags.

    Computed as the complement N - E[idle] - E[reserved], clamped at zero
    so float cancellation can never produce a small negative count.
    """
    _check_args(tags, slots)
    return _occupancy(tags, slots)[2]


def expected_undetected(tags: float, slots: int, seq_bits: int) -> float:
    """Expected collided slots that still look reserved, first-order model.

    A collided slot goes unnoticed when every occupant sent the same
    n-bit sequence.  This model charges each unresolved slot a flat
    probability 2**-seq_bits, the exact value for two occupants.  It
    ignores the lower agreement probability of 3+ occupant slots and
    therefore overestimates; `expected_undetected_exact` carries the full
    sum, in closed form.
    """
    _check_seq_bits(seq_bits)
    _check_args(tags, slots)
    return _occupancy(tags, slots)[2] * 2.0 ** -seq_bits


def expected_undetected_exact(tags: float, slots: int, seq_bits: int) -> float:
    """Expected undetected-collision slots, exact over slot occupancy.

    A slot with i >= 2 occupants is undetected iff all i drew the same
    sequence, probability x**(i - 1) with x = 2**-seq_bits.  Summed over
    the Binomial(k, p) occupancy law, p = 1/N, q = 1 - p and r = px/q:

        N sum_{i=2..k} C(k,i) p^i q^(k-i) x^(i-1) = (N/x) q^k [(1+r)^k - 1 - kr].

    The bracket, about (kr)^2 / 2, cancels: below kr = 1e-4 it is summed as a
    series and below kr = 1 taken through expm1; beyond, q^k (1+r)^k, which
    can overflow, is (q + px)^k.  A real `tags` extends it; below two it is 0.
    """
    _check_args(tags, slots)
    _check_seq_bits(seq_bits)
    x = 2.0 ** -seq_bits
    if tags < 2:
        return 0.0
    if slots == 1:
        return x ** (tags - 1)  # all k tags share the one slot
    r = x / (slots - 1)
    kr = tags * r
    q_k = math.exp(tags * math.log1p(-1.0 / slots))
    if kr >= 1.0:
        return slots / x * (math.exp(tags * math.log1p((x - 1.0) / slots)) - (1.0 + kr) * q_k)
    if kr < 1e-4:  # C(k,2) r^2 + C(k,3) r^3 + C(k,4) r^4; the rest is < 1e-14 of it
        bracket = kr * (tags - 1.0) * r / 2.0 * (
            1.0 + (tags - 2.0) * r / 3.0 * (1.0 + (tags - 3.0) * r / 4.0))
    else:
        bracket = math.expm1(tags * math.log1p(r)) - kr
    return slots / x * q_k * bracket


def expected_successful(tags: float, slots: int, seq_bits: int) -> float:
    """Expected apparently-reserved slots S: true reservations plus undetected."""
    return slot_profile(tags, slots, seq_bits).s_expected


class ExpectedSlotProfile(NamedTuple):
    """Closed-form per-round expectations for a given load and frame."""

    e_reserved: float
    e_idle: float
    e_unresolved: float
    e_undetected: float
    s_expected: float


def slot_profile(tags: float, slots: int, seq_bits: int) -> ExpectedSlotProfile:
    """All per-round expectations for one (tags, slots, seq_bits) cell."""
    _check_args(tags, slots)
    _check_seq_bits(seq_bits)
    e_idle, e_reserved, e_unresolved = _occupancy(tags, slots)
    e_undetected = e_unresolved * 2.0 ** -seq_bits
    return ExpectedSlotProfile(
        e_reserved=e_reserved,
        e_idle=e_idle,
        e_unresolved=e_unresolved,
        e_undetected=e_undetected,
        s_expected=e_reserved + e_undetected,
    )


# Fitted constants of the sequence-length rule in `optimal_seq_len`.
SEQ_LOG_COEFF = 3.32
SEQ_ARG_COEFF = 19.13


class SeqLenChoice(NamedTuple):
    raw: float
    rounded: int


def optimal_seq_len(e_unresolved: float, slots: int) -> SeqLenChoice:
    """Reservation sequence length balancing overhead against misses.

    raw = SEQ_LOG_COEFF * log10(SEQ_ARG_COEFF * E[unresolved] / N) when the
    argument exceeds 1, else 0 (the overhead term dominates at light
    collision load).  The usable length rounds half-up and is floored at
    one bit.
    """
    check_nonnegative("e_unresolved", e_unresolved)
    _check_slots(slots)
    return _seq_len(e_unresolved, slots)


def _seq_len(e_unresolved: float, slots: int) -> SeqLenChoice:
    arg = SEQ_ARG_COEFF * e_unresolved / slots
    raw = SEQ_LOG_COEFF * math.log10(arg) if arg > 1.0 else 0.0
    # round() would take ties to even; the rule takes ties up
    rounded = max(1, math.floor(raw + 0.5))
    return SeqLenChoice(raw=raw, rounded=rounded)


def phase_durations_for(
    successes: float,
    slots: int,
    seq_bits: int,
    timing: TimingModel = TIMING,
) -> PhaseDurations:
    """Per-phase durations of one round with `successes` apparently-reserved slots.

    Shared by the simulator (integer count) and the expectation model
    (fractional count) so both sides evaluate the identical expression.
    `timing` is kept only because `bench/gate.py` passes `TimingModel()`.
    """
    _check_slots(slots)
    _check_seq_bits(seq_bits)
    if not (is_real(successes) and 0 <= successes <= slots):
        raise ValueError("successes must be in [0, slots]")
    rb = timing.reader_bit_time_us
    return PhaseDurations(
        t_ad=timing.advert_us,
        t_r=rb * slots * seq_bits,
        t_su=rb * slots,
        t_d=timing.data_slot_us * successes,
        t_ack=rb * successes,
    )


def round_duration(tags: float, slots: int, seq_bits: int) -> float:
    """Expected duration of one full round, microseconds."""
    s = expected_successful(tags, slots, seq_bits)
    return phase_durations_for(s, slots, seq_bits).total


def expected_per_tag_us(tags: float, slots: int, seq_bits: int) -> float:
    """Expected time per identified tag in one round, microseconds."""
    r = expected_reserved(tags, slots)
    if r == 0.0:
        raise ValueError("no expected identifications at this operating point")
    return round_duration(tags, slots, seq_bits) / r
