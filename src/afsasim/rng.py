"""Deterministic random streams for reproducible experiments.

Every stochastic component draws from an `RngStream` keyed by
(seed, stream_id).  Trial t of an experiment uses stream_id = t, so trials
are independent, reorderable, and bit-identical across runs and across
execution orders.  The protocol code takes any iterator of u64 draws.
"""
from __future__ import annotations

import math
import random
import sys
from array import array
from itertools import chain
from typing import Callable, Iterator

from .model import is_int

# Largest seed or stream id: a stream keys its generator on 64 bits of each.
MAX_KEY = (1 << 64) - 1
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


def _check_key(field: str, value: int) -> None:
    if not (is_int(value) and 0 <= value <= MAX_KEY):
        raise ValueError(f"{field} must be an integer in [0, 2**64 - 1]")


def _blocks(bits: Callable[[int], int]) -> Iterator[array]:
    # One `getrandbits(64 * m)` holds the same bits as m calls of
    # `getrandbits(64)`, the first call in its lowest 64 bits.
    while True:
        block = array("Q", bits(64 * BLOCK_DRAWS).to_bytes(8 * BLOCK_DRAWS, "little"))
        if sys.byteorder == "big":
            block.byteswap()
        yield block


class RngStream(chain):
    """Named substream of a master seed: an endless iterator of u64 draws.

    The same (seed, stream_id) pair yields the same draw sequence on any
    platform; distinct pairs are treated as independent.  Draw i is the
    i-th `getrandbits(64)` of `random.Random((seed << 64) | stream_id)`.
    The stream is its own iterator, so `next(stream)` and every `zip` over
    it take from one shared sequence.  It fetches the draws BLOCK_DRAWS at
    a time, but only it reads its generator, so fetching ahead never
    shifts a draw.
    """

    __slots__ = ()

    def __new__(cls, seed: int, stream_id: int = 0) -> RngStream:
        _check_key("seed", seed)
        _check_key("stream_id", stream_id)
        # `from_iterable` called on a subclass builds an instance of it
        return cls.from_iterable(_blocks(random.Random((seed << 64) | stream_id).getrandbits))
