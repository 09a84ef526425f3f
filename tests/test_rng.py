"""Reproducibility contract of the random streams."""
import pytest

from afsasim.rng import RngStream, ScriptedStream


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


def test_randbelow_matches_modulo_reduction():
    a = RngStream(seed=11, stream_id=0)
    b = RngStream(seed=11, stream_id=0)
    for bound in (1, 2, 3, 7, 128, 1 << 16):
        assert a.randbelow(bound) == b.next_u64() % bound


def test_randbelow_range_and_bounds():
    rng = RngStream(seed=5)
    for _ in range(1000):
        assert 0 <= rng.randbelow(6) < 6
    assert rng.randbelow(1) == 0
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_uniform01_range():
    rng = RngStream(seed=5)
    draws = [rng.uniform01() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # crude sanity: mean of 1000 uniforms lands near a half
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_scripted_stream_replays_then_raises():
    s = ScriptedStream([0, 2, 1])
    assert s.remaining == 3
    assert s.next_u64() == 0
    assert s.randbelow(4) == 2
    assert s.next_u64() == 1
    assert s.remaining == 0
    with pytest.raises(IndexError):
        s.next_u64()


def test_scripted_stream_masks_to_64_bits():
    s = ScriptedStream([1 << 64])
    assert s.next_u64() == 0


def test_scripted_uniform01():
    s = ScriptedStream([0, 1 << 63])
    assert s.uniform01() == 0.0
    assert s.uniform01() == 0.5


def test_uniform01_stays_below_one_at_the_largest_draw():
    # 2**64 - 1 divided by 2**64 would round to 1.0
    top = (1 << 64) - 1
    assert ScriptedStream([top]).uniform01() == 1.0 - 2.0 ** -53
    rng = RngStream(seed=5)
    rng._bits = lambda bits: (1 << bits) - 1
    assert rng.uniform01() == 1.0 - 2.0 ** -53
