"""Reproducibility contract of the random streams."""
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from afsasim.afsa import run_afsa_round
from afsasim.baselines import run_fsa_round
from afsasim.experiment import _poisson
from afsasim.model import FrameConfig, make_population
from afsasim.rng import (
    BLOCK_DRAWS,
    DRAWS_RAN_OUT,
    RngStream,
    residues,
    take,
    u64s,
    unit_cut,
    unit_float,
)

from oracles import ScriptedStream


def test_same_key_same_draws():
    a = RngStream(seed=7, stream_id=3)
    b = RngStream(seed=7, stream_id=3)
    assert [next(a) for _ in range(16)] == [next(b) for _ in range(16)]


def test_distinct_streams_diverge():
    a = RngStream(seed=7, stream_id=0)
    b = RngStream(seed=7, stream_id=1)
    c = RngStream(seed=8, stream_id=0)
    draws_a = [next(a) for _ in range(8)]
    assert draws_a != [next(b) for _ in range(8)]
    assert draws_a != [next(c) for _ in range(8)]


@pytest.mark.parametrize("count", sorted({
    0, 1, 3, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1, 3 * BLOCK_DRAWS + 1,
    255, 256, 257, 769, 3 * 1024 + 1}))
def test_draws_equal_that_many_single_draws(count):
    # draw i of a stream is the i-th getrandbits(64) of its generator,
    # whether taken by `next` or by `zip`
    seed, stream_id = 13, 2
    single = random.Random((seed << 64) | stream_id).getrandbits
    stream = RngStream(seed, stream_id)
    taken = []
    for i in range(count):
        taken.append(next(stream) if i % 3 == 0 else next(iter(stream)))
    taken.extend(x for _, x in zip(range(2), stream))
    assert taken == [single(64) for _ in range(count + 2)]


def _packed(draws):
    return struct.pack(f"<{len(draws)}Q", *draws)


def test_take_packs_the_draws_across_refills():
    # `take` serves the i-th getrandbits(64) as 8 little-endian bytes,
    # whether the draws sit in the buffer, straddle its end or need a
    # fetch larger than a block, and `next` reads the same sequence
    seed, stream_id = 11, 4
    single = random.Random((seed << 64) | stream_id).getrandbits
    stream = RngStream(seed, stream_id)
    for count in (1, 5, BLOCK_DRAWS - 7, BLOCK_DRAWS, BLOCK_DRAWS + 1, 2, 3 * BLOCK_DRAWS + 5,
                  1, 1000, BLOCK_DRAWS - 1):
        assert stream.take(count) == _packed([single(64) for _ in range(count)])
        assert next(stream) == single(64)
        assert take(stream, count) == _packed([single(64) for _ in range(count)])


def test_take_zero_consumes_nothing():
    stream, twin = RngStream(3, 9), RngStream(3, 9)
    assert stream.take(0) == b""
    assert take(stream, 0) == b""
    assert next(stream) == next(twin)
    draws = iter([4, 5])
    assert take(draws, 0) == b""
    assert list(draws) == [4, 5]


def test_a_negative_count_is_refused_and_consumes_nothing():
    # a negative count would rewind a stream: its next draws would replay
    stream, twin = RngStream(1, 0), RngStream(1, 0)
    for _ in range(3):
        assert next(stream) == next(twin)
    for taker in (stream.take, lambda count: take(stream, count)):
        with pytest.raises(ValueError, match="^count must be >= 0$"):
            taker(-2)
        assert next(stream) == next(twin)
    draws = iter([4, 5])
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        take(draws, -1)
    assert list(draws) == [4, 5]


def test_take_advances_any_other_iterator_by_exactly_count():
    draws = iter(range(10, 20))
    assert take(draws, 4) == _packed([10, 11, 12, 13])
    assert next(draws) == 14
    assert list(u64s(take(draws, 5))) == [15, 16, 17, 18, 19]
    with pytest.raises(ValueError, match=DRAWS_RAN_OUT):
        take(iter([1, 2]), 3)
    # a scripted stream's own error passes through
    with pytest.raises(IndexError):
        take(ScriptedStream([1, 2]), 3)


@pytest.mark.parametrize("modulus", [
    1, 2, 3, 128, 255, 256, 257, 512, 1000, 1024, 65535, 65536, 65537, 1 << 20, 1 << 64])
@pytest.mark.parametrize("first, step", [(0, 1), (1, 3), (2, 3)])
def test_residues_are_the_remainders_of_whole_draws(modulus, first, step):
    # the low-byte, low-16-bit and whole-draw paths all equal `draw % modulus`
    draws = [next(RngStream(5, i)) for i in range(60)] + [0, 255, 256, 65535, 65536, (1 << 64) - 1]
    raw = _packed(draws)
    assert list(residues(raw, first, step, modulus)) == [d % modulus for d in draws[first::step]]


def test_the_key_bounds_are_accepted():
    top = (1 << 64) - 1
    stream = RngStream(top, top)
    assert iter(stream) is stream
    assert next(stream) == random.Random((top << 64) | top).getrandbits(64)
    assert next(RngStream(0, 0)) == random.Random(0).getrandbits(64)


@pytest.mark.parametrize("field, seed, stream_id", [
    ("seed", 1 << 64, 0), ("seed", -1, 0), ("seed", True, 0), ("seed", 2.5, 0),
    ("seed", "1", 0), ("stream_id", 1, 1 << 64), ("stream_id", 1, -1),
    ("stream_id", 1, True), ("stream_id", 1, 2.5), ("stream_id", 1, None)])
def test_a_key_out_of_range_or_not_an_integer_is_refused(field, seed, stream_id):
    # masked to 64 bits, each would alias a key in range: 2**64 seed 0,
    # -1 seed 2**64 - 1 and True seed 1
    with pytest.raises(ValueError, match=rf"^{field} must be an integer in \[0, 2\*\*64 - 1\]$"):
        RngStream(seed, stream_id)


def test_any_iterator_of_draws_is_a_source():
    # a stdlib iterator over known draws: each kernel takes exactly the
    # draws its contract names, in order, and leaves the rest unread
    draws = iter([2, 5, 6, 99, 100])
    # slots 2, 1, 2: tag 1 alone, tags 0 and 2 collide
    trace = run_fsa_round(make_population(3), 4, draws)
    assert (trace.identified_epcs, trace.idle_count, trace.detected_collision_count) == ((1,), 2, 1)
    assert list(draws) == [99, 100]

    # (participation, slot, sequence) per tag: tags 0 and 1 share slot 1
    # and sequence 3, tag 2 is alone in slot 2
    draws = iter([0, 1, 3, 7, 1, 3, 0, 6, 0, 11, 12])
    trace = run_afsa_round(make_population(3), FrameConfig(4, 2), draws)
    assert (trace.responders, trace.undetected_collision_count, trace.reserved_true_count,
            trace.identified_epcs) == (3, 1, 1, (2,))
    assert list(draws) == [11, 12]

    # divisor 2: tag 0 draws an odd participation and takes no slot or
    # sequence; tags 1 and 2 meet in slot 3 on sequences 1 and 2
    draws = iter([1, 2, 3, 1, 4, 3, 2, 50, 51])
    trace = run_afsa_round(make_population(3), FrameConfig(4, 2, 2), draws)
    assert (trace.responders, trace.detected_collision_count, trace.idle_count,
            trace.identified_epcs) == (2, 1, 3, ())
    assert list(draws) == [50, 51]

    # one uniform of 0.5: past exp(-1) = 0.37, short of 2 exp(-1) = 0.74
    draws = iter([1 << 63, 7])
    assert _poisson(1.0, draws) == 1
    assert list(draws) == [7]


@pytest.mark.parametrize("bits, value", [
    (0, 0.0),
    (1 << 63, 0.5),
    # 2**64 - 1 divided by 2**64 would round to 1.0
    ((1 << 64) - 1, 1.0 - 2.0 ** -53),
], ids=["zero", "half", "top"])
def test_unit_float(bits, value):
    assert unit_float(bits) == value


def _at_the_edges(test):
    # the first and last draw, the last and first draw on each side of the
    # lowest 53-bit step, against the ends of [0, 1], the least subnormal,
    # a typical probability and the largest float below 1
    for bits in (0, 2**11 - 1, 2**11, 2**64 - 1):
        for p in (0.0, 5e-324, 0.02, 1.0 - 2.0 ** -53, 1.0):
            test = example(bits=bits, p=p)(test)
    return test


@given(bits=st.integers(min_value=0, max_value=2**64 - 1),
       p=st.floats(min_value=0.0, max_value=1.0))
@_at_the_edges
def test_unit_cut_matches_unit_float(bits, p):
    assert (bits < unit_cut(p)) == (unit_float(bits) < p)


def test_uniform01_range():
    rng = RngStream(seed=5)
    draws = [unit_float(next(rng)) for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # crude sanity: mean of 1000 uniforms lands near a half
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_scripted_stream_replays_then_raises():
    s = ScriptedStream([0, 2, 1])
    assert s.remaining == 3
    assert next(s) == 0
    assert next(iter(s)) == 2
    assert next(s) == 1
    assert s.remaining == 0
    with pytest.raises(IndexError):
        next(s)
    with pytest.raises(IndexError):
        next(s)


def test_scripted_stream_masks_to_64_bits():
    s = ScriptedStream([1 << 64])
    assert next(s) == 0


def test_scripted_draws_replay_then_raise():
    # an iterator over the script replays it; a zip over a script too short
    # for it raises instead of dropping the last items
    s = ScriptedStream([5, 1 << 64, 7])
    assert list(zip("ab", s)) == [("a", 5), ("b", 0)]
    with pytest.raises(IndexError):
        list(zip("cd", s))
