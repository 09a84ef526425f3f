"""Independent oracles and test doubles for the simulator's tests.

The oracles for the closed-form expectations, the round kernels and the
inventory loop derive their results by brute force, with exact rational
arithmetic where possible, sharing no code or algebra with the package.
Kept deliberately slow and obvious.  Beside them are the scripted stream,
which replays a fixed draw sequence where a test pins exact protocol
behaviour, the trace checker every simulated round is put through, and
the term-by-term Poisson loop whose counts the arrivals' CDF table must
reproduce exactly.  Last is the CLI's former argparse parser, which the
flag-table parser must match token for token.
"""
import argparse
import math
from fractions import Fraction
from itertools import product
from typing import Collection, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from afsasim.model import RoundTrace
from afsasim.rng import MAX_TAKE

_MASK64 = (1 << 64) - 1


# Test doubles and checks ----------------------------------------------------

class ScriptedStream:
    """Test double that replays a fixed list of u64 draws, then raises.

    `take(count)` packs the next `count` draws as 8 little-endian bytes
    each, as `RngStream.take` does, and refuses the counts it refuses;
    `next` returns one draw.  Both raise IndexError, never StopIteration,
    when the script runs out, so a script too short for a round fails
    loudly instead of quietly ending a `zip` over the tags.
    """

    def __init__(self, values: Iterable[int]):
        self._values = list(values)
        self._pos = 0

    def __iter__(self) -> "ScriptedStream":
        return self

    def __next__(self) -> int:
        if self._pos >= len(self._values):
            raise IndexError("scripted stream exhausted")
        value = self._values[self._pos]
        self._pos += 1
        return value & _MASK64

    def take(self, count: int) -> bytes:
        if type(count) is not int:
            raise ValueError("count must be an integer")
        if not 0 <= count <= MAX_TAKE:
            raise ValueError("count must be >= 0" if count < 0 else f"count must be <= {MAX_TAKE}")
        end = self._pos + count
        if end > len(self._values):
            raise IndexError("scripted stream exhausted")
        values = self._values[self._pos:end]
        self._pos = end
        return b"".join((value & _MASK64).to_bytes(8, "little") for value in values)

    @property
    def remaining(self) -> int:
        return len(self._values) - self._pos


def check_round_trace(trace: RoundTrace) -> None:
    """Raise ValueError unless the trace satisfies every structural invariant.

    This is the single consistency gate used by tests after every simulated
    round, independent of how the round was produced.
    """
    counts = (trace.idle_count, trace.reserved_true_count,
              trace.detected_collision_count, trace.undetected_collision_count)
    if trace.slots < 1:
        raise ValueError("a frame has at least one slot")
    if min(counts) < 0:
        raise ValueError("slot counts must be >= 0")
    if sum(counts) != trace.slots:
        raise ValueError("slot counts must partition the frame")
    # a truly reserved slot holds one responder, a collided slot two or more
    if trace.responders < (trace.reserved_true_count + 2 * (
            trace.detected_collision_count + trace.undetected_collision_count)):
        raise ValueError("too few responders for the occupied slots")
    if (trace.responders == 0) != (trace.idle_count == trace.slots):
        raise ValueError("the frame is all idle exactly when nobody responded")
    if len(trace.identified_epcs) != trace.reserved_true_count:
        raise ValueError("one identification per truly reserved slot")
    if len(set(trace.identified_epcs)) != len(trace.identified_epcs):
        raise ValueError("a tag cannot be identified twice in one round")
    if not (math.isfinite(trace.total_us) and trace.total_us > 0):
        raise ValueError("round time must be finite and > 0")


# Poisson arrivals ----------------------------------------------------------

def reference_poisson(rate, bits: int) -> int:
    """The Poisson count for u64 draw `bits` by inverse transform, summing
    the CDF term by term until it reaches the draw's uniform.

    Past the mode the running CDF can stop growing a few ulps below 1; a
    uniform above it lies in a tail the floats cannot resolve, and the
    count is the first one whose term no longer moves the CDF.
    """
    u = (bits >> 11) * 2.0 ** -53
    k = 0
    p = math.exp(-rate)
    cdf = p
    while u > cdf:
        k += 1
        p *= rate / k
        if cdf + p == cdf:
            break
        cdf += p
    return k


# Slot statistics ------------------------------------------------------------

def enum_slot_stats(tags: int, slots: int):
    """Exact (E[reserved], E[idle], E[unresolved]) over all slot assignments.

    Enumerates every one of slots**tags equally likely assignments.
    """
    total = slots ** tags
    reserved = idle = unresolved = 0
    for assign in product(range(slots), repeat=tags):
        counts = [0] * slots
        for s in assign:
            counts[s] += 1
        reserved += sum(1 for c in counts if c == 1)
        idle += sum(1 for c in counts if c == 0)
        unresolved += sum(1 for c in counts if c >= 2)
    return (Fraction(reserved, total),
            Fraction(idle, total),
            Fraction(unresolved, total))


def enum_undetected(tags: int, slots: int, seq_bits: int) -> Fraction:
    """Exact E[undetected collisions] over the joint (slot, sequence) space.

    A slot is an undetected collision when two or more tags landed there
    and all of them drew the same sequence.  Enumerates all
    (slots * 2**seq_bits)**tags outcomes, so keep the arguments tiny.
    """
    seq_space = 2 ** seq_bits
    total = (slots * seq_space) ** tags
    undetected = 0
    for assign in product(range(slots), repeat=tags):
        for seqs in product(range(seq_space), repeat=tags):
            for slot in range(slots):
                chosen = [seqs[i] for i in range(tags) if assign[i] == slot]
                if len(chosen) >= 2 and len(set(chosen)) == 1:
                    undetected += 1
    return Fraction(undetected, total)


def exact_undetected(tags: int, slots: int, seq_bits: int) -> Fraction:
    """Exact E[undetected collisions], summed over slot occupancy counts.

    A slot holds i of the k tags with probability
    C(k,i) (1/N)^i ((N-1)/N)^(k-i), and its i occupants all agree with
    probability 2**(-n(i-1)).  Over the common denominator (N 2^n)^(k-1)
    the i-th term of N * sum_{i=2..k} is the integer
    C(k,i) ((N-1) 2^n)^(k-i), so the sum is exact for any k.
    """
    if tags < 2:
        return Fraction(0)
    ratio = (slots - 1) << seq_bits
    total, power = 0, 1
    for i in range(tags, 1, -1):  # power is ratio**(tags - i)
        total += math.comb(tags, i) * power
        power *= ratio
    return Fraction(total, (slots << seq_bits) ** (tags - 1))


def mc_slot_means(tags: int, slots: int, rounds: int, seed: int):
    """Monte Carlo (mean reserved, mean idle, mean unresolved) via numpy.

    Uses numpy's Generator, a different RNG and algorithm from the
    simulator, so agreement is evidence about the model rather than the
    plumbing.
    """
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, slots, size=(rounds, tags))
    offsets = np.arange(rounds)[:, None] * slots
    counts = np.bincount((draws + offsets).ravel(), minlength=rounds * slots)
    counts = counts.reshape(rounds, slots)
    reserved = (counts == 1).sum(axis=1)
    idle = (counts == 0).sum(axis=1)
    unresolved = (counts >= 2).sum(axis=1)
    return float(reserved.mean()), float(idle.mean()), float(unresolved.mean())


def mc_undetected_mean(tags: int, slots: int, seq_bits: int,
                       rounds: int, seed: int) -> float:
    """Monte Carlo mean undetected-collision count via numpy."""
    rng = np.random.default_rng(seed)
    undetected = 0
    seq_space = 2 ** seq_bits
    for _ in range(rounds):
        slots_drawn = rng.integers(0, slots, size=tags)
        seqs_drawn = rng.integers(0, seq_space, size=tags)
        for slot in range(slots):
            chosen = seqs_drawn[slots_drawn == slot]
            if len(chosen) >= 2 and (chosen == chosen[0]).all():
                undetected += 1
    return undetected / rounds


# Reference round -----------------------------------------------------------
#
# A slow, per-slot model of one round that shares no code with the package:
# it takes the tags and the random stream, makes the same draws in the same
# order, buckets every responder into its slot, and builds one observation
# per slot the way a reader would see it.  The package's round kernels keep
# only counts; seeded equivalence tests pin them to this model.

IDLE = "idle"
RESERVED_APPARENT = "reserved_apparent"
DETECTED_COLLISION = "detected_collision"


class SlotObservation(NamedTuple):
    """What the reader can tell about one slot.

    `sequence` is the value heard in a RESERVED_APPARENT slot (every
    occupant sent it, so several occupants on one sequence look like a
    lone responder); it is None for the other kinds.  `occupants` is
    ground truth carried along for accounting.
    """

    kind: str
    occupants: int
    sequence: Optional[int] = None


def check_slot_observation(obs: SlotObservation) -> None:
    """Raise ValueError unless the observation is internally consistent."""
    if obs.kind == IDLE:
        if obs.occupants != 0 or obs.sequence is not None:
            raise ValueError("idle slot must have no occupants and no sequence")
    elif obs.kind == RESERVED_APPARENT:
        if obs.occupants < 1:
            raise ValueError("apparently reserved slot must have occupants")
        if obs.sequence is None or obs.sequence < 0:
            raise ValueError("apparently reserved slot must carry the heard sequence")
    elif obs.kind == DETECTED_COLLISION:
        if obs.occupants < 2:
            raise ValueError("detected collision needs at least two occupants")
        if obs.sequence is not None:
            raise ValueError("detected collision carries no single sequence")
    else:
        raise ValueError(f"unknown slot kind {obs.kind!r}")


class ReferenceRound(NamedTuple):
    observations: List[SlotObservation]
    responders: int
    idle: int
    reserved_true: int
    detected: int
    undetected: int
    identified_epcs: Tuple[int, ...]


def reference_round(tags, slots: int, rng, seq_bits: Optional[int] = None,
                    divisor: int = 1) -> ReferenceRound:
    """One round, slot by slot; marks the identified tags in place.

    With `seq_bits` set this is the reservation protocol: each unidentified
    tag draws participation (joining iff the draw is a multiple of
    `divisor`), then a slot, then a `seq_bits`-bit sequence.
    With `seq_bits` None it is framed ALOHA: one slot draw per tag, and
    each occupant sends its full payload (its EPC), so two occupants
    always differ and every collision is detected.
    """
    buckets = [[] for _ in range(slots)]
    for tag in tags:
        if tag.identified:
            continue
        if seq_bits is None:
            slot = next(rng) % slots
            heard = tag.epc
        else:
            if next(rng) % divisor != 0:
                continue
            slot = next(rng) % slots
            heard = next(rng) % 2 ** seq_bits
        buckets[slot].append((tag, heard))

    observations = []
    for bucket in buckets:
        heard = {value for _, value in bucket}
        if not bucket:
            obs = SlotObservation(IDLE, 0)
        elif len(heard) == 1:
            obs = SlotObservation(RESERVED_APPARENT, len(bucket), bucket[0][1])
        else:
            obs = SlotObservation(DETECTED_COLLISION, len(bucket))
        check_slot_observation(obs)
        observations.append(obs)

    winners = [bucket[0][0] for bucket, obs in zip(buckets, observations)
               if obs.kind == RESERVED_APPARENT and obs.occupants == 1]
    for tag in winners:
        tag.identified = True
    apparent = [obs for obs in observations if obs.kind == RESERVED_APPARENT]
    result = ReferenceRound(
        observations=observations,
        responders=sum(len(bucket) for bucket in buckets),
        idle=sum(1 for obs in observations if obs.kind == IDLE),
        reserved_true=sum(1 for obs in apparent if obs.occupants == 1),
        detected=sum(1 for obs in observations if obs.kind == DETECTED_COLLISION),
        undetected=sum(1 for obs in apparent if obs.occupants > 1),
        identified_epcs=tuple(tag.epc for tag in winners),
    )
    if result.idle + len(apparent) + result.detected != slots:
        raise ValueError("slot kinds must partition the frame")
    if sum(obs.occupants for obs in observations) != result.responders:
        raise ValueError("every responder occupies exactly one slot")
    return result


# Reference inventory -------------------------------------------------------
#
# A slow inventory loop that keeps no list of the tags still answering: it
# rescans the whole population before and after every round, and sends
# every protocol round the answering tags found by the scan before it.
# Which tags have left it reads from a record the test's own churn keeps,
# never from the list the churn hook returns.  Tests run a protocol's
# rounds under it and under `afsa.run_inventory` and compare.

class ReferenceInventory(NamedTuple):
    traces: list
    k_active: List[int]
    completed: bool
    ever_present: int


def reference_inventory(tags, rounds, max_rounds: int, between_rounds=None,
                        departed: Collection[int] = ()) -> ReferenceInventory:
    """Drop-in for `afsa.run_inventory` that rescans `tags` every time.

    `departed` holds the EPCs of the tags that have left; the churn hook
    adds to it.  The hook is handed the tags still answering, as the real
    loop hands them, but what it returns is ignored.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")

    def answering() -> list:
        return [t for t in tags if t.epc not in departed and not t.identified]

    traces: list = []
    k_active: List[int] = []
    next(rounds)
    while True:
        active = answering()
        k_active.append(len(active))
        trace = rounds.send(active)
        traces.append(trace)
        remaining = answering()
        if not remaining:
            return ReferenceInventory(traces, k_active, True, len(tags))
        if len(traces) >= max_rounds:
            return ReferenceInventory(traces, k_active, False, len(tags))
        if between_rounds is not None:
            between_rounds(remaining)


# The command line ------------------------------------------------------------

def _argparse_type(parse):
    # argparse reports an ArgumentTypeError's own message, but a ValueError
    # as "invalid <name> value"; the CLI's value parsers raise ValueError
    def convert(text):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def reference_parse_cli(argv: Sequence[str]) -> argparse.Namespace:
    """The CLI's argparse parser, as `afsasim.cli.parse_cli` was before its
    flag table replaced it: the same flags, defaults and value parsers, and
    every refusal raised as `CliError`.  `-h` prints argparse's own help and
    raises SystemExit(0).  The flag table follows argparse's rules as of
    Python 3.11, whose handling of `--` and of negative numbers later
    versions change."""
    from afsasim import cli
    from afsasim.experiment import PROTOCOLS, ExperimentConfig

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            raise cli.CliError(message)

    parser = Parser(prog="afsasim")
    defaults = ExperimentConfig._field_defaults
    int_arg = _argparse_type(cli._int_arg)
    float_arg = _argparse_type(cli._float_arg)
    parser.add_argument("--protocol", choices=PROTOCOLS, default=defaults["protocol"])
    parser.add_argument("--tags", type=int_arg, default=defaults["k_initial"],
                        dest="k_initial")
    parser.add_argument("--frame", type=int_arg, default=defaults["frame_slots"],
                        dest="frame_slots")
    parser.add_argument("--seq-bits", type=_argparse_type(cli._seq_bits),
                        default=defaults["seq_bits"])
    parser.add_argument("--trials", type=int_arg, default=defaults["trials"])
    parser.add_argument("--seed", type=int_arg, default=defaults["seed"])
    parser.add_argument("--max-rounds", type=int_arg, default=defaults["max_rounds"])
    parser.add_argument("--arrival-rate", type=float_arg, default=defaults["arrival_rate"])
    parser.add_argument("--departure-prob", type=float_arg, default=defaults["departure_prob"])
    parser.add_argument("--sweep", type=_argparse_type(cli._sweep_spec), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    parser.add_argument("--per-round", action="store_true")
    return parser.parse_args(list(argv))
