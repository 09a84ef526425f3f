"""Reproducibility contract of the random streams."""
import random
import struct
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsasim.afsa import run_afsa_round
from afsasim.baselines import run_fsa_round
from afsasim.experiment import _poisson
from afsasim.model import FrameConfig, make_population
from afsasim.rng import (
    MAX_TAKE,
    PIECE_DRAWS,
    RngStream,
    _tie_table,
    _at_least,
    _residues,
    _u64s,
    _unit_cut,
    _unit_float,
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
    0, 1, 3, 32 - 1, 32, 32 + 1, 3 * 32 + 1,
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


def test_take_packs_the_draws_at_varied_stream_offsets():
    # `take` serves the i-th getrandbits(64) as 8 little-endian bytes,
    # for short and long takes in any order, and `next` reads the same
    # sequence
    seed, stream_id = 11, 4
    single = random.Random((seed << 64) | stream_id).getrandbits
    stream = RngStream(seed, stream_id)
    for count in (1, 5, 32 - 7, 32, 32 + 1, 2, 3 * 32 + 5,
                  1, 1000, 32 - 1):
        assert stream.take(count) == _packed([single(64) for _ in range(count)])
        assert next(stream) == single(64)


# one read of a stream: `take` or `next`
STREAM_READS = st.one_of(
    st.tuples(st.just("take"), st.integers(min_value=0, max_value=2 * PIECE_DRAWS)),
    st.just(("next", 1)))


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       stream_id=st.integers(min_value=0, max_value=2**64 - 1),
       reads=st.lists(STREAM_READS, max_size=12))
@settings(max_examples=150, deadline=None)
@example(seed=0, stream_id=0, reads=[("take", 0), ("next", 1), ("take", 2 * PIECE_DRAWS)])
def test_any_interleaving_of_reads_replays_the_generator(seed, stream_id, reads):
    # draw i of any mix of reads is the i-th getrandbits(64) of the
    # stream's generator, packed as 8 little-endian bytes by a take
    single = random.Random((seed << 64) | stream_id).getrandbits
    stream = RngStream(seed, stream_id)
    for how, count in reads:
        if how == "next":
            assert next(stream) == single(64)
        else:
            assert stream.take(count) == _packed([single(64) for _ in range(count)])
    assert next(stream) == single(64)


def test_take_zero_consumes_nothing():
    stream, twin = RngStream(3, 9), RngStream(3, 9)
    assert stream.take(0) == b""
    assert next(stream) == next(twin)


def test_a_negative_count_is_refused_and_consumes_nothing():
    # a negative count, and a count that is no integer (a bool is none),
    # is refused, naming `count`, before any draw is read
    stream, twin = RngStream(1, 0), RngStream(1, 0)
    for _ in range(3):
        assert next(stream) == next(twin)
    for count, message in [(-2, "^count must be >= 0$"),
                           (True, "^count must be an integer$"),
                           (2.0, "^count must be an integer$"),
                           ("3", "^count must be an integer$"),
                           # `getrandbits` would overflow its C int; a take
                           # at the bound itself would allocate 256 MB
                           (2**25, "^count must be <= 33554431$"),
                           (2**64, "^count must be <= 33554431$")]:
        with pytest.raises(ValueError, match=message):
            stream.take(count)
        assert next(stream) == next(twin)
    assert MAX_TAKE == 33_554_431


@pytest.mark.parametrize("modulus", [
    1, 2, 3, 128, 255, 256, 257, 512, 513, 768, 1000, 1024, 2048, 4096, 32768, 65535, 65536,
    65537, 65792, 1 << 20, 1 << 64])
@pytest.mark.parametrize("first, step", [(0, 1), (1, 3), (2, 3)])
def test_residues_are_the_remainders_of_whole_draws(modulus, first, step):
    # the low-byte, low-16-bit and whole-draw paths all equal `draw % modulus`;
    # 513 has a power of two above a nonzero low byte, and 768 and 65 792
    # no power of two above a zero one, so all three reduce whole draws
    draws = [next(RngStream(5, i)) for i in range(60)] + [0, 255, 256, 65535, 65536, (1 << 64) - 1]
    raw = _packed(draws)
    assert list(_residues(raw, first, step, modulus)) == [d % modulus for d in draws[first::step]]


@given(exponent=st.integers(min_value=9, max_value=16),
       draws=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=40),
       high=st.integers(min_value=1, max_value=(1 << 48) - 1),
       first=st.integers(min_value=0, max_value=5),
       step=st.integers(min_value=1, max_value=5))
def test_sixteen_bit_residues_ignore_the_bits_above(exponent, draws, high, first, step):
    # every power of two from 512 to 65 536 reads a draw's low two bytes;
    # setting bits above them changes no residue
    modulus = 1 << exponent
    draws = draws + [d | high << 16 for d in draws]
    expected = [d % modulus for d in draws[first::step]]
    assert list(_residues(_packed(draws), first, step, modulus)) == expected


@pytest.mark.parametrize("modulus, kind", [
    *[(1 << i, bytes) for i in range(9)],
    *[(1 << i, array) for i in range(9, 17)],
])
def test_power_of_two_residues_are_never_a_list_of_ints(modulus, kind):
    # each fast path returns its own C-built sequence; a list would mean a
    # Python loop ran over the draws
    got = _residues(_packed(list(range(0, 3000, 7))), 1, 3, modulus)
    assert type(got) is kind
    if kind is array:
        assert got.typecode == "H"


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


def test_a_script_of_known_draws_is_read_in_order():
    # a script of known draws: each kernel takes exactly the draws its
    # contract names, in order, and leaves the rest unread
    draws = ScriptedStream([2, 5, 6, 99, 100])
    # slots 2, 1, 2: tag 1 alone, tags 0 and 2 collide
    trace = run_fsa_round(make_population(3), 4, draws)
    assert (trace.identified_epcs, trace.idle_count, trace.detected_collision_count) == ((1,), 2, 1)
    assert draws.remaining == 2 and next(draws) == 99

    # (participation, slot, sequence) per tag: tags 0 and 1 share slot 1
    # and sequence 3, tag 2 is alone in slot 2
    draws = ScriptedStream([0, 1, 3, 7, 1, 3, 0, 6, 0, 11, 12])
    trace = run_afsa_round(make_population(3), FrameConfig(4, 2), draws)
    assert (trace.responders, trace.undetected_collision_count, trace.reserved_true_count,
            trace.identified_epcs) == (3, 1, 1, (2,))
    assert draws.remaining == 2 and next(draws) == 11

    # divisor 2: tag 0 draws an odd participation and takes no slot or
    # sequence; tags 1 and 2 meet in slot 3 on sequences 1 and 2
    draws = ScriptedStream([1, 2, 3, 1, 4, 3, 2, 50, 51])
    trace = run_afsa_round(make_population(3), FrameConfig(4, 2, 2), draws)
    assert (trace.responders, trace.detected_collision_count, trace.idle_count,
            trace.identified_epcs) == (2, 1, 3, ())
    assert draws.remaining == 2 and next(draws) == 50

    # one uniform of 0.5: past exp(-1) = 0.37, short of 2 exp(-1) = 0.74
    draws = ScriptedStream([1 << 63, 7])
    assert _poisson(1.0, draws) == 1
    assert draws.remaining == 1 and next(draws) == 7


@pytest.mark.parametrize("bits, value", [
    (0, 0.0),
    (1 << 63, 0.5),
    # 2**64 - 1 divided by 2**64 would round to 1.0
    ((1 << 64) - 1, 1.0 - 2.0 ** -53),
], ids=["zero", "half", "top"])
def test_unit_float(bits, value):
    assert _unit_float(bits) == value


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
    assert (bits < _unit_cut(p)) == (_unit_float(bits) < p)


def test_the_tie_table_memo_holds_each_top_bytes_table():
    # one table per top byte of a cut in [0, 2**64]: a draw's top byte maps
    # to 0 below it, 1 above it and 2 on a tie
    for top in range(257):
        assert _tie_table(top) == (
            bytes(top) + b"\2" + b"\1" * (255 - top) if top < 256 else bytes(256))
    info = _tie_table.cache_info()
    assert info.maxsize == 257 and info.currsize <= 257


# a cut whose low bits are not all zero, so the draws one either side of
# it share its top byte and only a whole-draw comparison tells them apart
_TIED_CUT = 0x5A << 56 | 12345


@given(draws=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40),
       cut=st.integers(min_value=0, max_value=2**64))
@example(draws=[_TIED_CUT - 1, _TIED_CUT, _TIED_CUT + 1, 0, 2**64 - 1], cut=_TIED_CUT)
@example(draws=[2**64 - 2, 2**64 - 1], cut=2**64 - 1)
# every draw reaches cut 0, and none reaches cut 2**64
@example(draws=[0, 1, 2**56, 2**64 - 1], cut=0)
@example(draws=[0, 1, 2**56, 2**64 - 1], cut=2**64)
# below 2**56 every draw with a top byte of 0 ties
@example(draws=[0, 2047, 2048, 2049, 2**56 - 1, 2**56], cut=2048)
def test_at_least_compares_whole_draws(draws, cut):
    assert _at_least(_packed(draws), cut) == bytes(d >= cut for d in draws)


@given(bits=st.integers(min_value=0, max_value=2**64 - 1),
       p=st.floats(min_value=0.0, max_value=1.0))
@_at_the_edges
def test_at_least_unit_cut_matches_unit_float(bits, p):
    assert _at_least(_packed([bits]), _unit_cut(p)) == bytes([_unit_float(bits) >= p])


def test_uniform01_range():
    rng = RngStream(seed=5)
    draws = [_unit_float(next(rng)) for _ in range(1000)]
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


def test_scripted_take_packs_the_next_draws_then_raises():
    # as `RngStream.take`: 8 little-endian bytes per draw, masked to 64
    # bits as `next` masks them; a take past the end consumes nothing
    s = ScriptedStream([5, 1 << 64, 7, 9])
    assert s.take(0) == b""
    assert s.take(2) == _packed([5, 0])
    assert next(s) == 7
    with pytest.raises(IndexError):
        s.take(2)
    assert s.remaining == 1
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        s.take(-1)
    with pytest.raises(ValueError, match="^count must be an integer$"):
        s.take(True)
    with pytest.raises(ValueError, match="^count must be <= 33554431$"):
        s.take(2**25)
    assert list(_u64s(s.take(1))) == [9]
    with pytest.raises(IndexError):
        s.take(1)


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
