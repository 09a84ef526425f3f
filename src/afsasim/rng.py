"""Deterministic random streams for reproducible experiments.

Every stochastic component draws from an `RngStream` keyed by
(seed, stream_id).  Trial t of an experiment uses stream_id = t, so trials
are independent, reorderable, and bit-identical across runs and across
worker counts.  `ScriptedStream` substitutes a fixed draw sequence in
tests that pin exact protocol behaviour.
"""
from __future__ import annotations

import random
from typing import Iterable, Protocol

_MASK64 = (1 << 64) - 1
# A uniform float keeps the top 53 bits of a draw: `bits / 2**64` would
# round the top 2**10 draws up to exactly 1.0.
_ULP53 = 2.0 ** -53


class RandomSource(Protocol):
    """Anything the protocol code can draw from."""

    def next_u64(self) -> int: ...

    def randbelow(self, bound: int) -> int: ...

    def uniform01(self) -> float: ...


class RngStream:
    """Named substream of a master seed.

    The same (seed, stream_id) pair yields the same draw sequence on any
    platform; distinct pairs are treated as independent.
    """

    __slots__ = ("seed", "stream_id", "_bits")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        rng = random.Random((self.seed << 64) | self.stream_id)
        self._bits = rng.getrandbits

    def next_u64(self) -> int:
        return self._bits(64)

    def randbelow(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) by modulo reduction.

        Bounds here are at most 2**16, so the modulo bias is below 2**-48
        and irrelevant next to the sampling noise of any experiment.
        """
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return self._bits(64) % bound

    def uniform01(self) -> float:
        """Uniform float in [0, 1) on a grid of 2**-53."""
        return (self._bits(64) >> 11) * _ULP53

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class ScriptedStream:
    """Test double that replays a fixed list of u64 draws, then raises."""

    def __init__(self, values: Iterable[int]):
        self._values = list(values)
        self._pos = 0

    def next_u64(self) -> int:
        if self._pos >= len(self._values):
            raise IndexError("scripted stream exhausted")
        value = self._values[self._pos]
        self._pos += 1
        return value & _MASK64

    def randbelow(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return self.next_u64() % bound

    def uniform01(self) -> float:
        return (self.next_u64() >> 11) * _ULP53

    @property
    def remaining(self) -> int:
        return len(self._values) - self._pos
