"""Deterministic random streams for reproducible experiments.

Every stochastic component draws from an `RngStream` keyed by
(seed, stream_id).  Trial t of an experiment uses stream_id = t, so trials
are independent, reorderable, and bit-identical across runs and across
execution orders.  A stream's generator is `_random.Random`, the C
Mersenne Twister that `random.Random` subclasses, seeded with the same
int, so its state is the same; it skips the Python frames of
`random.Random.__init__` and `seed`.  The protocol code reads its draws
through the stream's `take`, which packs the next draws as 8
little-endian bytes each; `_residues` reduces packed draws and reads only
the low bytes where they suffice, and `_at_least` compares them with a
bound on their top byte, so a round or a churn gap builds no int it need
not build.  These helpers are private and check nothing: they run once
per round or gap, on values their callers already hold in range.
"""
from __future__ import annotations

import _random
import math
import sys
from array import array
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Sequence

from .model import is_int

# Largest seed or stream id: a stream keys its generator on 64 bits of each.
MAX_KEY = (1 << 64) - 1
# Most draws one `take` reads: `getrandbits` takes its bit count as a C int.
MAX_TAKE = (2**31 - 1) // 64
# A uniform float keeps the top 53 bits of a draw: `bits / 2**64` would
# round the top 2**10 draws up to exactly 1.0.
_ULP53 = 2.0 ** -53

# Most draws a round kernel or a churn gap holds at once (24 KB): a large
# one takes its draws in pieces, so its memory does not grow with the
# population.
PIECE_DRAWS = 3 * 1024

# `_LOW_BYTE[m][b]` is `b % m`, for each power of two m a byte can reduce.
_LOW_BYTE = {1 << i: bytes(range(1 << i)) * (256 >> i) for i in range(9)}


def _unit_float(bits: int) -> float:
    """The uniform float in [0, 1) that a u64 draw stands for, on a grid of 2**-53."""
    return (bits >> 11) * _ULP53


def _unit_cut(p: float) -> int:
    """The bound with `bits < _unit_cut(p)` exactly when `_unit_float(bits) < p`,
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
    i-th `getrandbits(64)` of `random.Random((seed << 64) | stream_id)`,
    read from the C type behind `random.Random`, seeded with the same int.
    The protocol code reads its draws through `take`; the stream is also
    its own iterator, and `next(stream)` and `take` read one shared
    sequence straight from the generator.
    """

    __slots__ = ("_bits",)

    def __init__(self, seed: int, stream_id: int = 0):
        _check_key("seed", seed)
        _check_key("stream_id", stream_id)
        self._bits = _random.Random((seed << 64) | stream_id).getrandbits

    def __iter__(self) -> RngStream:
        return self

    def __next__(self) -> int:
        return self._bits(64)

    def take(self, count: int) -> bytes:
        """The next `count` draws, 8 little-endian bytes each; a count that
        is not an int (a bool is none) or lies outside [0, MAX_TAKE] raises
        ValueError before any draw is read."""
        if type(count) is not int:
            raise ValueError("count must be an integer")
        if not 0 <= count <= MAX_TAKE:
            raise ValueError("count must be >= 0" if count < 0 else f"count must be <= {MAX_TAKE}")
        # one `getrandbits(64 * m)` holds the same bits as m calls of
        # `getrandbits(64)`, the first call in its lowest 64 bits
        return self._bits(64 * count).to_bytes(8 * count, "little")


def _in_pieces(items: Sequence, per_item: int, rng: RngStream,
               read: Callable[[Sequence, bytes], Iterable]) -> Iterable:
    """`read(piece, rng.take(per_item * len(piece)))` chained over the
    pieces of `items`, in order, each of at most PIECE_DRAWS draws: a piece
    takes its draws only once the one before has been read.  Items whose
    draws fit in one piece are cheaper read in place, with one `take`."""
    size = PIECE_DRAWS // per_item
    pieces = (items[start:start + size] for start in range(0, len(items), size))
    return chain.from_iterable(read(piece, rng.take(per_item * len(piece))) for piece in pieces)


def _little(words: array) -> array:
    # packed draws are little-endian whatever the machine
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _u64s(raw: bytes) -> array:
    """Packed draws as ints, in order."""
    return _little(array("Q", raw))


def _residues(raw: bytes, first: int, step: int, modulus: int) -> Iterable[int]:
    """Draws first, first + step, ... of packed `raw`, each modulo `modulus`.

    A power-of-two modulus up to 2**16 needs only a draw's low byte or low
    two bytes, so no u64 is built and no Python loop runs.  Up to 256 the
    residues are `bytes`: each draw's low byte through a translate table.
    From 512 they are an `array` of typecode 'H': each draw's low byte,
    and its next byte through the table for `modulus >> 8`, interleaved
    into little-endian 16-bit words.  Any other modulus reduces whole
    draws into a list of ints.
    """
    table = _LOW_BYTE.get(modulus)
    if table is not None:
        return raw[8 * first::8 * step].translate(table)
    table = _LOW_BYTE.get(modulus >> 8)
    # a zero low byte keeps 257 or 513, say, off this path
    if table is not None and not modulus & 0xFF:
        low = raw[8 * first::8 * step]
        words = bytearray(2 * len(low))
        words[0::2] = low
        words[1::2] = raw[8 * first + 1::8 * step].translate(table)
        return _little(array("H", words))
    return [draw % modulus for draw in _u64s(raw)[first::step]]


# one entry per top byte of a cut in [0, 2**64]
@lru_cache(maxsize=257)
def _tie_table(top: int) -> bytes:
    # a top byte maps to 0 below the cut's, 1 above it and 2 on a tie;
    # cut 2**64 has no tie, as no draw reaches it
    return bytes(top) + b"\2" + b"\1" * (255 - top) if top < 256 else bytes(256)


def _at_least(raw: bytes, cut: int) -> bytes:
    """Byte i is 1 when packed draw i of `raw` is >= `cut`, else 0, for a
    cut in [0, 2**64].

    A draw's top byte settles the comparison unless it equals the cut's,
    so only such a tie (one draw in 256 for a typical cut) is read whole.
    """
    marks = raw[7::8].translate(_tie_table(cut >> 56))
    tie = marks.find(2)
    if tie < 0:
        return marks
    marks = bytearray(marks)
    while tie >= 0:
        marks[tie] = int.from_bytes(raw[8 * tie:8 * tie + 8], "little") >= cut
        tie = marks.find(2, tie + 1)
    return bytes(marks)
