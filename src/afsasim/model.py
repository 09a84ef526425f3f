"""Core domain types shared by the simulator, the analytic model, and the CLI.

Everything here is a plain value type.  Simulation state lives in `Tag`
(the only mutable type); every other object is immutable once built so
that traces can be stored, compared, and replayed without defensive
copies.
"""
from __future__ import annotations

import math
import numbers
from typing import NamedTuple

# Longest reservation sequence a frame may announce, in bits.
MAX_SEQ_BITS = 16

# Largest population a config or `make_population` may ask for.  Its tags
# are allocated up front, so an unbounded count would exhaust memory
# instead of failing validation.
MAX_TAGS = 1_000_000


def is_int(value) -> bool:
    """True for an integer; bool is an int subclass, but True is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number: not a str or None, and not a bool either."""
    # the exact type test spares a float or int the ABC check, ten times slower
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def check_nonnegative(name: str, value) -> None:
    """Raise unless `value` is a real number in [0, inf); nan is refused too."""
    if not (is_real(value) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and >= 0")


def int_problem(name: str, value, least: int, most: int | None = None) -> str | None:
    """Why `value` is no integer in [least, most] (`most` None: no bound), or None."""
    if not is_int(value):
        return f"{name} must be an integer"
    if value < least:
        return f"{name} must be >= {least}"
    if most is not None and value > most:
        return f"{name} must be <= {most}"
    return None


def check_int(name: str, value, least: int, most: int | None = None) -> None:
    """Raise unless `value` is an integer in [least, most]; `most` None: no bound."""
    if not (is_int(value) and least <= value and (most is None or value <= most)):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bounds}")


class TimingModel:
    """The air interface, all durations in microseconds.

    Its values are constants of the paper's setting, so nothing can be set.
    """

    __slots__ = ()

    tag_bit_time_us = 4.0
    reader_bit_time_us = 12.5
    epc_bits = 64
    crc_bits = 16
    advert_bits = 16
    # one data slot: EPC plus CRC at the tag bit rate
    data_slot_us = (epc_bits + crc_bits) * tag_bit_time_us
    # the frame advertisement broadcast
    advert_us = advert_bits * reader_bit_time_us


# The air interface every simulated round runs with.
TIMING = TimingModel()


class _FrameFields(NamedTuple):
    slots: int
    seq_bits: int
    participation_divisor: int = 1


class FrameConfig(_FrameFields):
    """Per-round frame parameters announced by the reader."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FrameConfig:
        self = super().__new__(cls, *args, **kwargs)
        problems = [int_problem("slots", self.slots, 1)]
        if not is_int(self.seq_bits):
            problems.append("seq_bits must be an integer")
        elif not 1 <= self.seq_bits <= MAX_SEQ_BITS:
            problems.append(f"seq_bits must be in [1, {MAX_SEQ_BITS}]")
        problems.append(int_problem("participation_divisor", self.participation_divisor, 1))
        if any(problems):
            raise ValueError("; ".join(filter(None, problems)))
        return self

    @classmethod
    def _make(cls, iterable) -> FrameConfig:
        # `_replace` builds through `_make`, so it validates too
        return cls(*iterable)


class Tag:
    """One tag in the population.  Mutated only by its owning inventory run.

    Equal to a tag with the same fields; defining `__eq__` leaves it
    unhashable, as a mutable value should be.
    """

    __slots__ = ("epc", "identified")

    def __init__(self, epc: int, identified: bool = False) -> None:
        self.epc = epc
        self.identified = identified

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.epc, self.identified) == (other.epc, other.identified)

    def __repr__(self) -> str:
        return f"Tag(epc={self.epc!r}, identified={self.identified!r})"


class PhaseDurations(NamedTuple):
    """Time spent in each phase of one round, microseconds."""

    t_ad: float
    t_r: float
    t_su: float
    t_d: float
    t_ack: float

    @property
    def total(self) -> float:
        return self.t_ad + self.t_r + self.t_su + self.t_d + self.t_ack


class RoundTrace(NamedTuple):
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


def make_population(count: int) -> list[Tag]:
    """Fresh population of `count` tags with distinct EPCs, all still answering.

    `count` is at most MAX_TAGS; a larger one raises ValueError before
    anything is allocated.
    """
    check_int("count", count, 0, MAX_TAGS)
    return list(map(Tag, range(count)))


def active_count(tags) -> int:
    """Of `tags`, the ones still answering: those not yet identified."""
    return sum(1 for t in tags if not t.identified)
