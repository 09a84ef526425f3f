"""Deterministic random streams for reproducible experiments.

Every stochastic component draws from an `RngStream` keyed by
(seed, stream_id).  Trial t of an experiment uses stream_id = t, so trials
are independent, reorderable, and bit-identical across runs and across
execution orders.  The protocol code takes any iterator of u64 draws and
reads them through `take`, which packs the next draws as 8 little-endian
bytes each; `residues` reduces packed draws and reads only the low bytes
where they suffice, so a round builds no int it need not build.
"""
from __future__ import annotations

import math
import random
import sys
from array import array
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from .model import is_int

# Largest seed or stream id: a stream keys its generator on 64 bits of each.
MAX_KEY = (1 << 64) - 1
# A uniform float keeps the top 53 bits of a draw: `bits / 2**64` would
# round the top 2**10 draws up to exactly 1.0.
_ULP53 = 2.0 ** -53

# Fewest draws an `RngStream` fetches from its generator at once.
BLOCK_DRAWS = 32

# Most draws a round kernel or a churn gap holds at once (24 KB): a large
# one takes its draws in pieces, so its memory does not grow with the
# population.
PIECE_DRAWS = 3 * 1024

# What `take`, and so a round kernel, raises when `rng` ends too soon.
DRAWS_RAN_OUT = "rng ran out of draws before the round's last tag"

# `_LOW_BYTE[m][b]` is `b % m`, for each power of two m a byte can reduce.
_LOW_BYTE = {1 << i: bytes(range(1 << i)) * (256 >> i) for i in range(9)}


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


class RngStream:
    """Named substream of a master seed: an endless iterator of u64 draws.

    The same (seed, stream_id) pair yields the same draw sequence on any
    platform; distinct pairs are treated as independent.  Draw i is the
    i-th `getrandbits(64)` of `random.Random((seed << 64) | stream_id)`.
    The stream is its own iterator, and `next(stream)` and `take` read one
    shared sequence.  It keeps the draws it has fetched but not served as
    bytes, and fetches only what a `take` lacks, at least BLOCK_DRAWS at
    a time; only it reads its generator, so fetching ahead never shifts a
    draw.
    """

    __slots__ = ("_bits", "_buffer", "_pos")

    def __init__(self, seed: int, stream_id: int = 0):
        _check_key("seed", seed)
        _check_key("stream_id", stream_id)
        self._bits = random.Random((seed << 64) | stream_id).getrandbits
        self._buffer = b""
        self._pos = 0

    def __iter__(self) -> RngStream:
        return self

    def __next__(self) -> int:
        return int.from_bytes(self.take(1), "little")

    def take(self, count: int) -> bytes:
        """The next `count` draws, 8 little-endian bytes each."""
        if count < 0:
            # a negative count would move the position back and replay draws
            raise ValueError("count must be >= 0")
        pos = self._pos
        end = pos + 8 * count
        buffer = self._buffer
        if end > len(buffer):
            # one `getrandbits(64 * m)` holds the same bits as m calls of
            # `getrandbits(64)`, the first call in its lowest 64 bits
            fetch = max((end - len(buffer)) // 8, BLOCK_DRAWS)
            buffer = buffer[pos:] + self._bits(64 * fetch).to_bytes(8 * fetch, "little")
            end -= pos
            pos = 0
            self._buffer = buffer
        self._pos = end
        return buffer[pos:end]


def take(rng: Iterator[int], count: int) -> bytes:
    """The next `count` draws of `rng`, 8 little-endian bytes each.

    An `RngStream` serves them from its buffer; any other iterator of u64
    draws is advanced by exactly `count`.  An iterator that ends first
    raises ValueError(DRAWS_RAN_OUT), and a negative count ValueError.
    """
    if isinstance(rng, RngStream):
        return rng.take(count)
    if count < 0:
        raise ValueError("count must be >= 0")
    draws = array("Q", islice(rng, count))
    if len(draws) < count:
        raise ValueError(DRAWS_RAN_OUT)
    return _little(draws).tobytes()


def _in_pieces(items: Sequence, per_item: int, rng: Iterator[int],
               read: Callable[[Sequence, bytes], Iterable]) -> Iterable:
    """`read(items, take(rng, per_item * len(items)))`, in order, for at most
    PIECE_DRAWS draws at a time: more items are read a piece at a time,
    and a piece takes its draws only once the one before has been read."""
    count = per_item * len(items)
    if count <= PIECE_DRAWS:
        return read(items, take(rng, count))
    size = PIECE_DRAWS // per_item
    return chain.from_iterable(_in_pieces(items[start:start + size], per_item, rng, read)
                               for start in range(0, len(items), size))


def _little(words: array) -> array:
    # packed draws are little-endian whatever the machine
    if sys.byteorder == "big":
        words.byteswap()
    return words


def u64s(raw: bytes) -> array:
    """Packed draws as ints, in order."""
    return _little(array("Q", raw))


def residues(raw: bytes, first: int, step: int, modulus: int) -> Iterable[int]:
    """Draws first, first + step, ... of packed `raw`, each modulo `modulus`.

    A power-of-two modulus up to 2**16 needs only a draw's low byte or low
    16 bits, so no u64 is built: up to 256 each residue is a byte, whose
    value is a cached small int.  Any other modulus reduces whole draws.
    """
    table = _LOW_BYTE.get(modulus)
    if table is not None:
        return raw[8 * first::8 * step].translate(table)
    mask = modulus - 1
    if not modulus & mask and modulus <= 1 << 16:
        return [word & mask for word in _little(array("H", raw))[4 * first::4 * step]]
    return [draw % modulus for draw in u64s(raw)[first::step]]
