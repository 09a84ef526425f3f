"""Core domain types shared by the simulator, the analytic model, and the CLI.

Everything here is a plain value type.  Simulation state lives in `Tag`
(the only mutable type); every other object is immutable once built so
that traces can be stored, compared, and replayed without defensive
copies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Longest reservation sequence a frame may announce, in bits.
MAX_SEQ_BITS = 16


@dataclass(frozen=True)
class TimingModel:
    """Air-interface timing parameters, all durations in microseconds.

    Derived quantities (`data_slot_us`, `advert_us`) are properties rather
    than fields so they can never drift out of sync with the bit-level
    parameters they are defined by.
    """

    tag_bit_time_us: float = 4.0
    reader_bit_time_us: float = 12.5
    epc_bits: int = 64
    crc_bits: int = 16
    advert_bits: int = 16

    def __post_init__(self) -> None:
        if self.tag_bit_time_us <= 0 or self.reader_bit_time_us <= 0:
            raise ValueError("bit times must be positive")
        if self.epc_bits < 1 or self.crc_bits < 0 or self.advert_bits < 1:
            raise ValueError("bit counts must be positive (crc_bits may be 0)")

    @property
    def data_slot_us(self) -> float:
        """Duration of one data slot: EPC plus CRC at the tag bit rate."""
        return (self.epc_bits + self.crc_bits) * self.tag_bit_time_us

    @property
    def advert_us(self) -> float:
        """Duration of the frame advertisement broadcast."""
        return self.advert_bits * self.reader_bit_time_us


@dataclass(frozen=True)
class FrameConfig:
    """Per-round frame parameters announced by the reader."""

    slots: int
    seq_bits: int
    participation_divisor: int = 1

    def __post_init__(self) -> None:
        problems = []
        if self.slots < 1:
            problems.append("slots must be >= 1")
        if not 1 <= self.seq_bits <= MAX_SEQ_BITS:
            problems.append(f"seq_bits must be in [1, {MAX_SEQ_BITS}]")
        if self.participation_divisor < 1:
            problems.append("participation_divisor must be >= 1")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class Tag:
    """One tag in the population.  Mutated only by its owning inventory run."""

    epc: int
    identified: bool = False
    present: bool = True


@dataclass(frozen=True)
class PhaseDurations:
    """Time spent in each phase of one round, microseconds."""

    t_ad: float
    t_r: float
    t_su: float
    t_d: float
    t_ack: float

    @property
    def total(self) -> float:
        return self.t_ad + self.t_r + self.t_su + self.t_d + self.t_ack


@dataclass(frozen=True, slots=True)
class RoundTrace:
    """Complete record of one executed round, as counts.

    `responders` is the number of tags that transmitted in the frame.
    `seq_bits` is the reservation sequence length the frame announced, 0
    for protocols without a reservation phase.  The four slot counts
    partition the frame; `identified_epcs` lists tags identified this
    round in slot order.  The reservation summary the reader broadcasts
    costs one reader bit per slot (the `t_su` phase); nothing downstream
    reads which slots it marks, so only their number is kept, as
    `reserved_apparent_count`.  `total_us` is the round's air time; its
    per-phase split follows from the counts through
    `analytic.phase_durations_for`.
    """

    slots: int
    seq_bits: int
    responders: int
    idle_count: int
    reserved_true_count: int
    detected_collision_count: int
    undetected_collision_count: int
    identified_epcs: tuple[int, ...]
    total_us: float

    @property
    def reserved_apparent_count(self) -> int:
        """Slots the reader treats as reserved, including undetected collisions."""
        return self.reserved_true_count + self.undetected_collision_count


def check_round_trace(trace: RoundTrace) -> None:
    """Raise ValueError unless the trace satisfies every structural invariant.

    This is the single consistency gate used by tests after every simulated
    round, independent of how the round was produced.
    """
    counts = (trace.idle_count, trace.reserved_true_count,
              trace.detected_collision_count, trace.undetected_collision_count)
    if trace.slots < 1:
        raise ValueError("a frame has at least one slot")
    if min(counts) < 0:
        raise ValueError("slot counts must be >= 0")
    if sum(counts) != trace.slots:
        raise ValueError("slot counts must partition the frame")
    # a truly reserved slot holds one responder, a collided slot two or more
    if trace.responders < (trace.reserved_true_count + 2 * (
            trace.detected_collision_count + trace.undetected_collision_count)):
        raise ValueError("too few responders for the occupied slots")
    if (trace.responders == 0) != (trace.idle_count == trace.slots):
        raise ValueError("the frame is all idle exactly when nobody responded")
    if len(trace.identified_epcs) != trace.reserved_true_count:
        raise ValueError("one identification per truly reserved slot")
    if len(set(trace.identified_epcs)) != len(trace.identified_epcs):
        raise ValueError("a tag cannot be identified twice in one round")
    if not (math.isfinite(trace.total_us) and trace.total_us > 0):
        raise ValueError("round time must be finite and > 0")


def make_population(count: int, first_epc: int = 0) -> list[Tag]:
    """Fresh population of `count` present, unidentified tags with distinct EPCs."""
    if count < 0:
        raise ValueError("count must be >= 0")
    # positional: a keyword argument costs a parse per tag
    return [Tag(epc) for epc in range(first_epc, first_epc + count)]


def active_count(tags) -> int:
    """Tags that would respond to a frame: present and not yet identified."""
    return sum(1 for t in tags if t.present and not t.identified)
