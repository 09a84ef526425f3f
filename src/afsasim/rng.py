"""Deterministic random streams for reproducible experiments.

Every stochastic component draws from an `RngStream` keyed by
(seed, stream_id).  Trial t of an experiment uses stream_id = t, so trials
are independent, reorderable, and bit-identical across runs and across
worker counts.  `ScriptedStream` substitutes a fixed draw sequence in
tests that pin exact protocol behaviour.
"""
from __future__ import annotations

import math
import random
import sys
from array import array
from itertools import chain
from typing import Callable, Iterable, Iterator, Protocol

_MASK64 = (1 << 64) - 1
# A uniform float keeps the top 53 bits of a draw: `bits / 2**64` would
# round the top 2**10 draws up to exactly 1.0.
_ULP53 = 2.0 ** -53

# Draws an `RngStream` fetches from its generator at once.
BLOCK_DRAWS = 256


def unit_float(bits: int) -> float:
    """The uniform float in [0, 1) that a u64 draw stands for, on a grid of 2**-53."""
    return (bits >> 11) * _ULP53


def unit_cut(p: float) -> int:
    """The bound with `bits < unit_cut(p)` exactly when `unit_float(bits) < p`,
    for p in [0, 1]; a loop can test its raw draws against it."""
    # m * 2**-53 < p holds for an integer m exactly when m < ceil(p * 2**53),
    # and both products are exact; `bits >> 11 < c` is `bits < c << 11`
    return math.ceil(p * 2.0 ** 53) << 11


class RandomSource(Protocol):
    """Anything the protocol code can draw from: u64 draws one at a time,
    or by iterating it, all from one shared sequence."""

    def __iter__(self) -> Iterator[int]: ...

    def next_u64(self) -> int: ...


def _blocks(bits: Callable[[int], int]) -> Iterator[array]:
    # One `getrandbits(64 * m)` holds the same bits as m calls of
    # `getrandbits(64)`, the first call in its lowest 64 bits.
    while True:
        block = array("Q", bits(64 * BLOCK_DRAWS).to_bytes(8 * BLOCK_DRAWS, "little"))
        if sys.byteorder == "big":
            block.byteswap()
        yield block


class RngStream:
    """Named substream of a master seed.

    The same (seed, stream_id) pair yields the same draw sequence on any
    platform; distinct pairs are treated as independent.  Draw i is the
    i-th `getrandbits(64)` of `random.Random((seed << 64) | stream_id)`.
    The stream fetches them BLOCK_DRAWS at a time, but only it reads its
    generator, so fetching ahead never shifts a draw.
    """

    __slots__ = ("seed", "stream_id", "_draws")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        rng = random.Random((self.seed << 64) | self.stream_id)
        self._draws = chain.from_iterable(_blocks(rng.getrandbits))

    def __iter__(self) -> Iterator[int]:
        """The stream's draws, shared: every iterator and `next_u64` take
        from the same sequence, and it never ends."""
        return self._draws

    def next_u64(self) -> int:
        return next(self._draws)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class ScriptedStream:
    """Test double that replays a fixed list of u64 draws, then raises.

    It raises IndexError, never StopIteration, so a script too short for a
    round fails loudly instead of quietly ending a `zip` over the tags.
    """

    def __init__(self, values: Iterable[int]):
        self._values = list(values)
        self._pos = 0

    def __iter__(self) -> ScriptedStream:
        return self

    def next_u64(self) -> int:
        if self._pos >= len(self._values):
            raise IndexError("scripted stream exhausted")
        value = self._values[self._pos]
        self._pos += 1
        return value & _MASK64

    __next__ = next_u64

    @property
    def remaining(self) -> int:
        return len(self._values) - self._pos
