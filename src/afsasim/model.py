"""Core domain types shared by the simulator, the analytic model, and the CLI.

Everything here is a plain value type.  Simulation state lives in `Tag`
(the only mutable type); every other object is immutable once built so
that traces can be stored, compared, and replayed without defensive
copies.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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


class TagRoundDecision(NamedTuple):
    """What a single tag resolved to do for one frame.

    `slot` and `sequence` are meaningful only when `participating` is True;
    they are None otherwise.
    """

    participating: bool
    slot: Optional[int] = None
    sequence: Optional[int] = None


class SlotKind(enum.Enum):
    IDLE = "idle"
    RESERVED_APPARENT = "reserved_apparent"
    DETECTED_COLLISION = "detected_collision"


class SlotObservation(NamedTuple):
    """What the reader can tell about one reservation slot.

    `sequence` is the sequence heard in the slot for RESERVED_APPARENT
    (every occupant sent that same value, so a multi-occupant slot is
    indistinguishable from a lone responder); it is None for the other
    kinds.  `occupants` is ground truth carried along for accounting and
    is not information the reader could act on.
    """

    kind: SlotKind
    occupants: int
    sequence: Optional[int] = None


def check_slot_observation(obs: SlotObservation) -> None:
    """Raise ValueError unless the observation is internally consistent."""
    if obs.kind is SlotKind.IDLE:
        if obs.occupants != 0 or obs.sequence is not None:
            raise ValueError("idle slot must have no occupants and no sequence")
    elif obs.kind is SlotKind.RESERVED_APPARENT:
        if obs.occupants < 1:
            raise ValueError("apparently reserved slot must have occupants")
        if obs.sequence is None or obs.sequence < 0:
            raise ValueError("apparently reserved slot must carry the heard sequence")
    elif obs.kind is SlotKind.DETECTED_COLLISION:
        if obs.occupants < 2:
            raise ValueError("detected collision needs at least two occupants")
        if obs.sequence is not None:
            raise ValueError("detected collision carries no single sequence")
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown slot kind {obs.kind!r}")


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


@dataclass(frozen=True)
class RoundTrace:
    """Complete record of one executed round.

    `bitmap` is the reservation summary the reader broadcasts: one bit per
    slot, True exactly where the slot looked reserved.  `seq_bits` is the
    reservation sequence length the frame announced, 0 for protocols
    without a reservation phase.  `identified_epcs` lists tags identified
    this round in slot order.
    """

    observations: tuple[SlotObservation, ...]
    bitmap: tuple[bool, ...]
    seq_bits: int
    idle_count: int
    reserved_true_count: int
    detected_collision_count: int
    undetected_collision_count: int
    identified_epcs: tuple[int, ...]
    phase_durations_us: PhaseDurations
    total_us: float

    @property
    def slots(self) -> int:
        return len(self.observations)

    @property
    def reserved_apparent_count(self) -> int:
        """Slots the reader treats as reserved, including undetected collisions."""
        return self.reserved_true_count + self.undetected_collision_count


def check_round_trace(trace: RoundTrace) -> None:
    """Raise ValueError unless the trace satisfies every structural invariant.

    This is the single consistency gate used by tests after every simulated
    round, independent of how the round was produced.
    """
    n = trace.slots
    if len(trace.bitmap) != n:
        raise ValueError("bitmap length must equal slot count")

    idle = reserved_true = detected = undetected = 0
    for i, obs in enumerate(trace.observations):
        check_slot_observation(obs)
        apparent = obs.kind is SlotKind.RESERVED_APPARENT
        if trace.bitmap[i] != apparent:
            raise ValueError(f"bitmap bit {i} disagrees with observation kind")
        if obs.kind is SlotKind.IDLE:
            idle += 1
        elif obs.kind is SlotKind.DETECTED_COLLISION:
            detected += 1
        elif obs.occupants == 1:
            reserved_true += 1
        else:
            undetected += 1

    if (trace.idle_count, trace.reserved_true_count,
            trace.detected_collision_count, trace.undetected_collision_count) != (
            idle, reserved_true, detected, undetected):
        raise ValueError("stored slot counts disagree with the observations")
    if (trace.idle_count + trace.reserved_true_count
            + trace.detected_collision_count + trace.undetected_collision_count) != n:
        raise ValueError("slot counts must partition the frame")
    if len(trace.identified_epcs) != trace.reserved_true_count:
        raise ValueError("one identification per truly reserved slot")
    if len(set(trace.identified_epcs)) != len(trace.identified_epcs):
        raise ValueError("a tag cannot be identified twice in one round")

    p = trace.phase_durations_us
    if not math.isclose(trace.total_us, p.total, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError("total_us must equal the sum of the phase durations")


def bitmap_string(trace: RoundTrace) -> str:
    """Render the reservation summary as a 0/1 string, slot 0 first."""
    return "".join("1" if b else "0" for b in trace.bitmap)


def make_population(count: int, first_epc: int = 0) -> list[Tag]:
    """Fresh population of `count` present, unidentified tags with distinct EPCs."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [Tag(epc=first_epc + i) for i in range(count)]


def active_count(tags) -> int:
    """Tags that would respond to a frame: present and not yet identified."""
    return sum(1 for t in tags if t.present and not t.identified)
