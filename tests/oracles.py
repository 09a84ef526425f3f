"""Independent oracles for the closed-form expectations and the round kernels.

Everything here derives its results by brute force, with exact rational
arithmetic where possible, sharing no code or algebra with the package.
Kept deliberately slow and obvious.
"""
from fractions import Fraction
from itertools import product
from typing import List, NamedTuple, Optional, Tuple

import numpy as np


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

    With `seq_bits` set this is the reservation protocol: each present,
    unidentified tag draws participation (joining iff the draw is a
    multiple of `divisor`), then a slot, then a `seq_bits`-bit sequence.
    With `seq_bits` None it is framed ALOHA: one slot draw per tag, and
    each occupant sends its full payload (its EPC), so two occupants
    always differ and every collision is detected.
    """
    buckets = [[] for _ in range(slots)]
    for tag in tags:
        if not tag.present or tag.identified:
            continue
        if seq_bits is None:
            slot = rng.randbelow(slots)
            heard = tag.epc
        else:
            if rng.randbelow(divisor) != 0:
                continue
            slot = rng.randbelow(slots)
            heard = rng.randbelow(2 ** seq_bits)
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
# counts them by scanning the whole population before and after every
# round, and sends every protocol round the whole population, leaving it to
# the round kernels to turn away the absent and identified tags.  Tests run
# a protocol's rounds under it and under `afsa.run_inventory` and compare.

class ReferenceInventory(NamedTuple):
    traces: list
    k_active: List[int]
    completed: bool
    ever_present: int


def _answering(tags) -> int:
    return sum(1 for t in tags if t.present and not t.identified)


def reference_inventory(tags, rounds, max_rounds: int,
                        between_rounds=None) -> ReferenceInventory:
    """Drop-in for `afsa.run_inventory` that rescans `tags` every time."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    traces: list = []
    k_active: List[int] = []
    next(rounds)
    while True:
        k_active.append(_answering(tags))
        trace = rounds.send(tags)
        traces.append(trace)
        if _answering(tags) == 0:
            return ReferenceInventory(traces, k_active, True, len(tags))
        if len(traces) >= max_rounds:
            return ReferenceInventory(traces, k_active, False, len(tags))
        if between_rounds is not None:
            between_rounds(len(traces), trace)
