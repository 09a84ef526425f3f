"""Reproducibility contract of the random streams."""
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from afsasim.rng import BLOCK_DRAWS, RngStream, ScriptedStream, unit_cut, unit_float


def test_same_key_same_draws():
    a = RngStream(seed=7, stream_id=3)
    b = RngStream(seed=7, stream_id=3)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_distinct_streams_diverge():
    a = RngStream(seed=7, stream_id=0)
    b = RngStream(seed=7, stream_id=1)
    c = RngStream(seed=8, stream_id=0)
    draws_a = [a.next_u64() for _ in range(8)]
    assert draws_a != [b.next_u64() for _ in range(8)]
    assert draws_a != [c.next_u64() for _ in range(8)]


@pytest.mark.parametrize("count", [
    0, 1, 3, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1, 3 * BLOCK_DRAWS + 1,
    3 * 1024 + 1])
def test_draws_equal_that_many_single_draws(count):
    # draw i of a stream is the i-th getrandbits(64) of its generator,
    # whether taken by next_u64 or through any iterator over the stream
    seed, stream_id = 13, 2
    single = random.Random((seed << 64) | stream_id).getrandbits
    stream = RngStream(seed, stream_id)
    taken = []
    for i in range(count):
        taken.append(stream.next_u64() if i % 3 == 0 else next(iter(stream)))
    taken.extend(x for _, x in zip(range(2), stream))
    assert taken == [single(64) for _ in range(count + 2)]


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
    draws = [unit_float(rng.next_u64()) for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # crude sanity: mean of 1000 uniforms lands near a half
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_scripted_stream_replays_then_raises():
    s = ScriptedStream([0, 2, 1])
    assert s.remaining == 3
    assert s.next_u64() == 0
    assert next(iter(s)) == 2
    assert s.next_u64() == 1
    assert s.remaining == 0
    with pytest.raises(IndexError):
        s.next_u64()
    with pytest.raises(IndexError):
        next(s)


def test_scripted_stream_masks_to_64_bits():
    s = ScriptedStream([1 << 64])
    assert s.next_u64() == 0


def test_scripted_draws_replay_then_raise():
    # an iterator over the script replays it; a zip over a script too short
    # for it raises instead of dropping the last items
    s = ScriptedStream([5, 1 << 64, 7])
    assert list(zip("ab", s)) == [("a", 5), ("b", 0)]
    with pytest.raises(IndexError):
        list(zip("cd", s))
